"""Pointwise manifold models.

Every model answers two questions at a point p:

* ``metric_at(p)``        frame components g_ij
* ``commutators_at(p)``   coefficients c^k_ij with [e_i, e_j] = c^k_ij e_k

and gives the jets curvature needs in closed form: the frame derivatives
e_i(g_jk) (``metric_derivs_at``), e_a e_i(g_jk) (``metric_derivs2_at``) and
e_a(c^k_ij) (``commutator_derivs_at``).  Four concrete kinds are provided:
homogeneous Lie-group models (constant data, zero jets), chart models
(coordinate frame or a moving coframe, built from the analytic jets of the
metric and the coframe), rank-one product extensions over a holomorphic
complex Riemannian base, and the complex cone, which gives first jets only.
The group and chart models also give ``frame_derivative(p, fn)``, e_i of
any field fn (zeros on a group, finite differences on a chart), which only
checks the jets and differentiates fields given as callables of the point
(structure fields, transformation parameters).
An extension base is a coordinate chart of dimension 2n in holomorphic
coordinates w = u + i v, so its complex structure is always multiplication
by i, the standard J of ``frame_algebra.standard_j``.
``ConeModel(f)``, the cone over the point of the base PointFields f,
carries both cone tensors: its metric and, through ``j_at`` and
``j_derivs_at``, its complex structure J.
"""

from __future__ import annotations

import math

import numpy as np

from .connection import holomorphy_residual
from .errors import (
    BadParams,
    BadSignature,
    BaseNotHolomorphic,
    NotAntisymmetric,
    RNotNegative,
    SingularCoframe,
)
from .frame_algebra import SYM_TOL, MetricMatrix, standard_j
from .structure import PointFields, standard_structure, worst

DEFAULT_FD_STEP = 1e-3

# 5-point central stencil, 4th order, so that at the default step its
# truncation error stays below the 1e-9 at which the derivatives rows compare
# the analytic jets with it.
_STENCIL_OFFSETS = (-2.0, -1.0, 1.0, 2.0)
_STENCIL_WEIGHTS = (1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0)


def coordinate_derivatives(fn, x, step=DEFAULT_FD_STEP):
    """Partial derivatives of an array-valued fn along each coordinate of x.

    Returns an array of shape (len(x), *fn(x).shape).  The 4 * len(x)
    stencil points are built as one array and fn's values stacked into one
    array; the weighted sum runs in stencil order, then divides by step.
    """
    x = np.asarray(x, dtype=float)
    dim = len(x)
    if dim == 0:
        # zero-dimensional point set (homogeneous model)
        probe = np.asarray(fn(x), dtype=float)
        return np.zeros((0,) + probe.shape)
    pts = np.empty((4, dim, dim))       # pts[k, mu]: x moved by offset k along x^mu
    pts[...] = x
    mus = np.arange(dim)
    pts[:, mus, mus] += np.array(_STENCIL_OFFSETS)[:, None] * step
    vals = np.array([np.asarray(fn(q), dtype=float) for q in pts.reshape(4 * dim, dim)])
    vals = vals.reshape((4, dim) + vals.shape[1:])
    w = _STENCIL_WEIGHTS
    acc = w[0] * vals[0] + w[1] * vals[1]
    acc = acc + w[2] * vals[2]
    acc = acc + w[3] * vals[3]
    acc /= step
    return acc


def _primes(count):
    """The first count primes."""
    primes = []
    k = 2
    while len(primes) < count:
        if all(k % q for q in primes):
            primes.append(k)
        k += 1
    return primes


def halton_points(ranges, count, seed):
    """Deterministic low-discrepancy sample of a coordinate box.

    Scrambled Halton sequence (Owen 2017): the radical inverse in the k-th
    prime base with the digits of each place mapped through a random
    permutation, one per place while base**-place > 2**-54, all drawn from
    one ``np.random.default_rng(seed)``.  The same points as
    ``scipy.stats.qmc.Halton(d, scramble=True, seed=seed).random(count)``.
    """
    if count <= 0:
        return []
    lo = np.array([r[0] for r in ranges], dtype=float)
    hi = np.array([r[1] for r in ranges], dtype=float)
    rng = np.random.default_rng(seed)
    u = np.zeros((len(ranges), count))
    for row, base in zip(u, _primes(len(ranges))):
        perms = np.repeat(np.arange(base)[None], math.ceil(54 / math.log2(base)) - 1, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        quotient = np.arange(count)
        scale = 1.0 / base
        for perm in perms:
            row += perm[quotient % base] * scale
            quotient //= base
            scale /= base
    return [lo + ui * (hi - lo) for ui in u.T]


class ManifoldModel:
    """Common interface; concrete kinds override the pointwise providers."""

    dim: int
    kind: str
    fd_step: float = DEFAULT_FD_STEP

    def metric_at(self, p) -> np.ndarray:
        raise NotImplementedError

    def commutators_at(self, p) -> np.ndarray:
        raise NotImplementedError

    def frame_derivative(self, p, fn) -> np.ndarray:
        """e_i applied to the field fn, shape (dim, *fn(p).shape)."""
        raise NotImplementedError

    def metric_derivs_at(self, p) -> np.ndarray:
        """D[i,j,k] = e_i(g_jk); overridden where closed forms exist."""
        return self.frame_derivative(p, self.metric_at)

    def metric_derivs2_at(self, p) -> np.ndarray:
        """D2[a,i,j,k] = e_a(e_i(g_jk)), in closed form."""
        raise NotImplementedError

    def commutator_derivs_at(self, p) -> np.ndarray:
        """dc[a,k,i,j] = e_a(c^k_ij), in closed form."""
        raise NotImplementedError

    def sample_points(self, count, seed):
        raise NotImplementedError


def trig_jet(omega, t, k):
    """The k-th t-derivatives (k <= 2) of (cos omega t, sin omega t)."""
    c, s = math.cos(omega * t), math.sin(omega * t)
    scale = omega ** k
    return tuple(scale * x for x in ((c, s), (-s, c), (-c, -s))[k])


class LieGroupModel(ManifoldModel):
    """Left-invariant data: constant metric and structure constants."""

    kind = "lie_group"

    def __init__(self, structure_constants, metric: MetricMatrix):
        c = np.asarray(structure_constants, dtype=float)
        if not np.all(np.isfinite(c)):
            raise BadParams("structure constants must be finite")
        if np.max(np.abs(c + np.swapaxes(c, 1, 2))) > 0:
            raise NotAntisymmetric("c^k_ij must satisfy c^k_ij = -c^k_ji")
        self.c = c
        self.metric = metric
        self.dim = metric.dim

    def metric_at(self, p):
        return self.metric.components

    def commutators_at(self, p):
        return self.c

    def frame_derivative(self, p, fn):
        return np.zeros((self.dim,) + np.asarray(fn(p)).shape)

    def metric_derivs_at(self, p):
        return np.zeros((self.dim,) * 3)

    def metric_derivs2_at(self, p):
        return np.zeros((self.dim,) * 4)

    def commutator_derivs_at(self, p):
        return np.zeros((self.dim,) * 4)

    def jacobi_residual(self) -> float:
        c = self.c
        cyc = (
            np.einsum("mil,ljk->mijk", c, c)
            + np.einsum("mjl,lki->mijk", c, c)
            + np.einsum("mkl,lij->mijk", c, c)
        )
        return float(np.max(np.abs(cyc)))

    def sample_points(self, count, seed):
        # homogeneous: every point carries identical data
        return [np.zeros(0)]


def lie_group_model(n, structure_constants, metric) -> LieGroupModel:
    """Left-invariant model of dimension 2n+1 with signature (n+1, n)."""
    if not isinstance(metric, MetricMatrix):
        metric = MetricMatrix(metric)
    model = LieGroupModel(structure_constants, metric)
    pos, neg = metric.signature_counts()
    if (pos, neg) != (n + 1, n):
        raise BadSignature(f"expected signature ({n + 1},{n}), got ({pos},{neg})")
    if model.dim != 2 * n + 1:
        raise BadSignature(f"metric dimension {model.dim} != {2 * n + 1}")
    return model


def _brackets(dtheta, A):
    """c^k_ij of the frame dual to a coframe, from its coordinate derivatives
    dtheta[..., mu, k, nu] = d_mu theta[k, nu] over any leading axes:
    d e^k (E_i, E_j) = (d_mu theta[k,nu] - d_nu theta[k,mu]) A[mu,i] A[nu,j] = -c^k_ij."""
    ext = np.einsum("...mkn,mi,nj->...kij", dtheta, A, A)
    return np.swapaxes(ext, -1, -2) - ext


class ChartModel(ManifoldModel):
    """Coordinate patch model.

    Without a coframe the working frame is the coordinate frame (all
    commutators vanish, the metric field carries the geometry).  With a
    coframe theta (rows theta[k, mu] give e^k = theta[k,mu] dx^mu) the
    working frame is its dual and the commutators are recovered from
    d e^k (E_i, E_j) = -c^k_ij.

    The jets are required, so that curvature has one closed-form path: the
    frame derivatives of the metric, metric_derivs_fn (D[i,j,k] = e_i(g_jk))
    and metric_derivs2_fn (D2[a,i,j,k] = e_a(e_i(g_jk))), and, with a
    coframe, its coordinate derivatives coframe_derivs_fn (d_mu theta[k,nu]
    at [mu,k,nu]) and coframe_derivs2_fn (d_s d_mu theta[k,nu] at
    [s,mu,k,nu]).  A coframe without both is BadParams.
    """

    kind = "chart"

    def __init__(self, dim, metric_fn, coframe_fn=None, ranges=None, *, metric_derivs_fn,
                 metric_derivs2_fn, coframe_derivs_fn=None, coframe_derivs2_fn=None):
        if coframe_fn is not None and (coframe_derivs_fn is None or coframe_derivs2_fn is None):
            raise BadParams("a chart with a coframe needs both coframe jets")
        self.dim = dim
        self.metric_fn = metric_fn
        self.coframe_fn = coframe_fn
        self.metric_derivs_fn = metric_derivs_fn
        self.metric_derivs2_fn = metric_derivs2_fn
        self.coframe_derivs_fn = coframe_derivs_fn
        self.coframe_derivs2_fn = coframe_derivs2_fn
        self.ranges = ranges if ranges is not None else [(-1.0, 1.0)] * dim

    def frame_matrix(self, p):
        """A[mu, i] with e_i = A[mu, i] d/dx^mu."""
        if self.coframe_fn is None:
            return np.eye(self.dim)
        theta = np.asarray(self.coframe_fn(p), dtype=float)
        if abs(np.linalg.det(theta)) < 1e-10:
            raise SingularCoframe(f"coframe singular at {p}")
        return np.linalg.inv(theta)

    def metric_at(self, p):
        return np.asarray(self.metric_fn(np.asarray(p, dtype=float)), dtype=float)

    def _dtheta(self, p):
        return np.asarray(self.coframe_derivs_fn(p), dtype=float)

    def commutators_at(self, p):
        d = self.dim
        if self.coframe_fn is None:
            return np.zeros((d, d, d))
        p = np.asarray(p, dtype=float)
        return _brackets(self._dtheta(p), self.frame_matrix(p))

    def commutator_derivs_at(self, p):
        """e_a(c^k_ij) from the coframe jets.  With B_s = (d_s theta) A,
        d_s A = -A B_s, so d_s c[k,i,j] = brackets(d_s dtheta)[k,i,j]
        - c[k,m,j] B_s[m,i] - c[k,i,m] B_s[m,j], and e_a = A[s,a] d_s."""
        d = self.dim
        if self.coframe_fn is None:
            return np.zeros((d,) * 4)
        p = np.asarray(p, dtype=float)
        A = self.frame_matrix(p)
        dtheta = self._dtheta(p)
        c = _brackets(dtheta, A)
        B = np.einsum("smn,ni->smi", dtheta, A)
        ds_c = (_brackets(np.asarray(self.coframe_derivs2_fn(p), dtype=float), A)
                - np.einsum("kmj,smi->skij", c, B) - np.einsum("kim,smj->skij", c, B))
        return np.einsum("sa,skij->akij", A, ds_c)

    def frame_derivative(self, p, fn):
        p = np.asarray(p, dtype=float)
        A = self.frame_matrix(p)
        dcoord = coordinate_derivatives(fn, p, self.fd_step)
        return np.einsum("mi,m...->i...", A, dcoord)

    def metric_derivs_at(self, p):
        return np.asarray(self.metric_derivs_fn(np.asarray(p, dtype=float)))

    def metric_derivs2_at(self, p):
        return np.asarray(self.metric_derivs2_fn(np.asarray(p, dtype=float)))

    def jet_residuals(self, p) -> dict:
        """Each jet of the chart against the finite differences of the
        next-lower order at fd_step, relative to max(1, |jet|): dg against g
        and d^2 g against dg in the frame and, with a coframe, d theta against
        theta and d^2 theta against d theta in the coordinates."""
        p = np.asarray(p, dtype=float)
        pairs = {"metric": (self.metric_derivs_at(p), self.frame_derivative(p, self.metric_at)),
                 "metric2": (self.metric_derivs2_at(p),
                             self.frame_derivative(p, self.metric_derivs_at))}
        if self.coframe_fn is not None:
            pairs["coframe"] = (self._dtheta(p),
                                coordinate_derivatives(self.coframe_fn, p, self.fd_step))
            pairs["coframe2"] = (self.coframe_derivs2_fn(p),
                                 coordinate_derivatives(self._dtheta, p, self.fd_step))
        return {key: np.max(np.abs(jet - fd)) / max(1.0, np.max(np.abs(jet)))
                for key, (jet, fd) in pairs.items()}

    def sample_points(self, count, seed):
        return halton_points(self.ranges, count, seed)


def chart_model(dim, metric_fields, frame=None, ranges=None, *, metric_derivs, metric_derivs2,
                coframe_derivs=None, coframe_derivs2=None) -> ChartModel:
    """Chart model from a metric component function, an optional coframe and
    the analytic jets of both (see ChartModel)."""
    return ChartModel(dim, metric_fields, coframe_fn=frame, ranges=ranges,
                      metric_derivs_fn=metric_derivs, metric_derivs2_fn=metric_derivs2,
                      coframe_derivs_fn=coframe_derivs, coframe_derivs2_fn=coframe_derivs2)


def _real_block(m):
    """Re m in the real coordinates (u, v), w = u + i v: the blocks
    [[Re m, -Im m], [-Im m, -Re m]] over any leading axes of m."""
    n = m.shape[-1]
    out = np.empty(m.shape[:-2] + (2 * n, 2 * n))
    out[..., :n, :n] = m.real
    out[..., :n, n:] = -m.imag
    out[..., n:, :n] = -m.imag
    out[..., n:, n:] = -m.real
    return out


def holomorphic_base(n, hc, dhc, ranges, d2hc) -> ChartModel:
    """Base from a holomorphic symmetric hc(w) (n x n) with dhc(w)[m] = d hC / d w^m
    and d2hc(w)[m, l] = d^2 hC / d w^m d w^l, on the box ``ranges`` of the
    real coordinates (u, v), w = u + i v: the coordinate chart of h = Re hC,
    whose complex structure is multiplication by i, the standard J.  The jets
    of h follow from the Cauchy-Riemann rule d/du^m = d/dw^m, d/dv^m = i d/dw^m."""

    def metric_fn(x):
        return _real_block(hc(x[:n] + 1j * x[n:]))

    def metric_derivs_fn(x):
        dm = dhc(x[:n] + 1j * x[n:])
        return _real_block(np.concatenate([dm, 1j * dm]))

    def metric_derivs2_fn(x):
        d2 = d2hc(x[:n] + 1j * x[n:])
        du = np.concatenate([d2, 1j * d2], axis=1)       # d/du^m (d/du^l, d/dv^l)
        return _real_block(np.concatenate([du, 1j * du]))

    return chart_model(2 * n, metric_fn, ranges=ranges, metric_derivs=metric_derivs_fn,
                       metric_derivs2=metric_derivs2_fn)


class ProductExtensionModel(ChartModel):
    """M = R_t x N with g = dt^2 + cos(2t) h - sin(2t) htilde, htilde = h J.

    The base is a coordinate chart of dimension 2n carrying h, with the
    standard J.  Coordinates are (t, base coordinates); the working frame is
    the coordinate frame.  The jets of the metric are analytic in t and take
    the base chart's jets along the base.
    """

    kind = "product_extension"

    def __init__(self, base: ChartModel):
        self.base = base
        ranges = [(-1.2, 1.2)] + list(base.ranges)
        super().__init__(base.dim + 1, self._metric, ranges=ranges,
                         metric_derivs_fn=self._metric_derivs,
                         metric_derivs2_fn=self._metric_derivs2)

    def _leaf(self, t, k, hs):
        """The k-th t-derivative of cos(2t) H - sin(2t) H J over the leading
        axes of hs, the stacked H."""
        c, s = trig_jet(2.0, t, k)
        return c * hs - s * (hs @ standard_j(self.base.dim // 2))

    def _metric(self, p):
        g = np.zeros((self.dim, self.dim))
        g[0, 0] = 1.0
        g[1:, 1:] = self._leaf(p[0], 0, self.base.metric_at(p[1:]))
        return g

    def _metric_derivs(self, p):
        t, bp = p[0], p[1:]
        D = np.zeros((self.dim,) * 3)
        D[0, 1:, 1:] = self._leaf(t, 1, self.base.metric_at(bp))
        D[1:, 1:, 1:] = self._leaf(t, 0, self.base.metric_derivs_at(bp))
        return D

    def _metric_derivs2(self, p):
        t, bp = p[0], p[1:]
        D2 = np.zeros((self.dim,) * 4)
        D2[0, 0, 1:, 1:] = self._leaf(t, 2, self.base.metric_at(bp))
        D2[0, 1:, 1:, 1:] = D2[1:, 0, 1:, 1:] = self._leaf(t, 1, self.base.metric_derivs_at(bp))
        D2[1:, 1:, 1:, 1:] = self._leaf(t, 0, self.base.metric_derivs2_at(bp))
        return D2


def extension_leaf_curvature(t, r_h) -> np.ndarray:
    """(0,4) curvature of the horizontal leaf at t of the extension, from the
    base curvature r_h in the base's coordinate frame:

        R_t(X,Y,Z,U) = cos 2t R_h(X,Y,Z,U) - sin 2t R_h(X,Y,Z,JU),

    because the leaf metric cos 2t h - sin 2t htilde is the real part of a
    complex-constant multiple of the holomorphic metric, which keeps its
    connection.
    """
    j = standard_j(r_h.shape[-1] // 2)
    return np.cos(2 * t) * r_h - np.sin(2 * t) * np.einsum("ijkm,ml->ijkl", r_h, j)


def product_extension(base: ChartModel):
    """Rank-one extension of a holomorphic complex Riemannian base, given as
    a coordinate chart of dimension 2n whose complex structure is the
    standard J (as ``holomorphic_base`` makes it).

    Returns (model, structure) with the adapted structure: eta = dt,
    xi = d/dt, phi restricted to the horizontal distribution equal to J.
    Raises BaseNotHolomorphic when the chart is odd-dimensional or has a
    coframe, or when, on 4 samples, h is not symmetric (hC must be), h is
    not Norden, nabla^h J fails to vanish, or dh differs from the finite
    differences of h relative to max(1, |dh|): nabla^h J is solved from dh,
    so it misses a w-bar term.
    """
    if base.dim % 2 != 0:
        raise BaseNotHolomorphic("base dimension must be even")
    if base.coframe_fn is not None:
        raise BaseNotHolomorphic("base must use a coordinate frame")
    n = base.dim // 2
    j = standard_j(n)
    for q in base.sample_points(4, seed=7):
        h = base.metric_at(q)
        asym = np.max(np.abs(h - h.T))
        if not asym <= SYM_TOL:
            raise BaseNotHolomorphic(f"metric asymmetry {asym:.3e} at {q}")
        dh = base.metric_derivs_at(q)
        gap = np.max(np.abs(dh - coordinate_derivatives(base.metric_at, q, base.fd_step)))
        res = worst((np.max(np.abs(j.T @ h @ j + h)), holomorphy_residual(base, q),
                     gap / max(1.0, np.max(np.abs(dh)))))
        if not res <= 1e-6:
            raise BaseNotHolomorphic(f"holomorphy residual {res:.3e} at {q}")
    model = ProductExtensionModel(base)
    return model, standard_structure(model, n)


class ConeModel(ManifoldModel):
    """Complex cone over one point of an almost contact complex Riemannian
    manifold, built from f, the PointFields of the base structure there.

    Like a group model it holds one base point: its points are (r,) with
    r < 0, and its frame is (base frame, d/dr).  The metric is

        r^2 (g - eta x eta) + eta x eta - dr^2 / r^2,

    the unique (up to a constant) choice compatible with the cone complex
    structure J X = phi X, J xi = r d/dr, J d/dr = -xi / r acting as an
    anti-isometry, and the one consistent with the extension construction.
    The base data and their frame derivatives are f's (g, dg, c, phi, xi,
    eta, dphi, dxi, deta); only the r-dependence is computed, in closed form.
    """

    kind = "cone"

    def __init__(self, f: PointFields):
        self.f = f
        self.dim = f.dim + 1

    @staticmethod
    def _r(p):
        r = float(p[0])
        if r >= 0:
            raise RNotNegative(f"cone requires r < 0, got {r}")
        return r

    def metric_at(self, p):
        r, f, d = self._r(p), self.f, self.f.dim
        G = np.zeros((d + 1, d + 1))
        ee = np.outer(f.eta, f.eta)
        G[:d, :d] = r * r * (f.g - ee) + ee
        G[d, d] = -1.0 / (r * r)
        return G

    def commutators_at(self, p):
        d = self.f.dim
        c = np.zeros((d + 1,) * 3)
        c[:d, :d, :d] = self.f.c
        return c

    def metric_derivs_at(self, p):
        r, f, d = self._r(p), self.f, self.f.dim
        ee = np.outer(f.eta, f.eta)
        dee = np.einsum("ij,k->ijk", f.deta, f.eta) + np.einsum("j,ik->ijk", f.eta, f.deta)
        D = np.zeros((d + 1, d + 1, d + 1))
        D[:d, :d, :d] = r * r * (f.dg - dee) + dee
        D[d, :d, :d] = 2 * r * (f.g - ee)
        D[d, d, d] = 2.0 / r**3
        return D

    def j_at(self, p):
        """The cone complex structure J[k, j] at p."""
        r, f, d = self._r(p), self.f, self.f.dim
        J = np.zeros((d + 1, d + 1))
        J[:d, :d] = f.phi
        J[d, :d] = r * f.eta
        J[:d, d] = -f.xi / r
        return J

    def j_derivs_at(self, p):
        """D[i, k, j] = e_i(J[k, j]), analytic in r."""
        r, f, d = self._r(p), self.f, self.f.dim
        D = np.zeros((d + 1, d + 1, d + 1))
        D[:d, :d, :d] = f.dphi
        D[:d, d, :d] = r * f.deta
        D[:d, :d, d] = -f.dxi / r
        D[d, d, :d] = f.eta
        D[d, :d, d] = f.xi / (r * r)
        return D

    @staticmethod
    def radii(count, seed):
        """r of the first count sample points: -1, then a Halton sample of [-2, -0.5]."""
        rest = halton_points([(-2.0, -0.5)], count - 1, seed + 1)
        return [-1.0, *(float(x[0]) for x in rest)][:count]

    @classmethod
    def cone_points(cls, base, count, seed):
        """(base[k % len(base)], r) of cone point k < count, r = radii(count, seed)[k]."""
        return [(base[k % len(base)], r) for k, r in enumerate(cls.radii(count, seed))]
