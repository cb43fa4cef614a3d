"""Manifold models, evaluated over blocks of points.

Every model answers two questions at the points p, an array of shape
(..., dim) whose leading axes range over a block of points (one point is a
block with no leading axes), each answer carrying the same leading axes:

* ``metric_at(p)``        frame components g_ij
* ``commutators_at(p)``   coefficients c^k_ij with [e_i, e_j] = c^k_ij e_k

and gives the jets curvature needs in closed form: the frame derivatives
e_i(g_jk) (``metric_derivs_at``), e_a e_i(g_jk) (``metric_derivs2_at``) and
e_a(c^k_ij) (``commutator_derivs_at``).  Four concrete kinds are provided:
homogeneous Lie-group models (constant data, zero jets), chart models
(coordinate frame or a moving coframe, built from the analytic jets of the
metric and the coframe), the S^1-solvable extension over a holomorphic
complex Riemannian base, and the complex cone, which gives first jets only.
Fields that move with the point bring their jets too (``structure.Field``),
so the stencil is only a reference: of a chart's ``jet_residuals`` (through
``frame_derivative(p, fn, step)``) and of ``product_extension``'s check.
An extension base is a coordinate chart of dimension 2n in holomorphic
coordinates w = u + i v, so its complex structure is always multiplication
by i, the standard J of ``frame_algebra.standard_j``, and each leaf of the
extension, its metric, t-jets and curvature, is one ``leaf_rotation``.
``ConeModel(f)``, the cone over the points of the base PointFields f,
carries both cone tensors: its metric and, through ``j_at`` and
``j_derivs_at``, its complex structure J; ``conformal.TransformedModel(f,
t)``, the transformed metric over those points, is built the same way.
``LieGroupModel`` and ``ChartModel``, the classes a corpus model's ``model``
can be, carry ``fd_step``, the default step, which no run sets: the
benchmark's tracer (``perfbench/tracing.py``) reads it from each it traces.
"""

from __future__ import annotations

import math

import numpy as np

from .connection import holomorphy_residual, levi_civita
from .errors import (
    BadParams,
    BadSignature,
    BaseNotHolomorphic,
    NotAntisymmetric,
    RNotNegative,
    SingularCoframe,
)
from .frame_algebra import SYM_TOL, MetricMatrix, max_abs, standard_j
from .structure import PointFields, standard_structure, worst

DEFAULT_FD_STEP = 1e-3

# 5-point central stencil, 4th order: its truncation error h^4 |fn^(5)| / 30
# stays below the derivatives rows' 1e-9 on the default corpus at the default
# step, not at every legal parameter (example2_chart lam=20 and
# example3_hsphere_ext n=2,a=0.1,b=0 exceed it; ROADMAP item 2).
_STENCIL_OFFSETS = (-2.0, -1.0, 1.0, 2.0)
_STENCIL_WEIGHTS = (1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0)


def coordinate_derivatives(fn, x, step=DEFAULT_FD_STEP):
    """Partial derivatives of an array-valued fn along each coordinate of the
    points x, shape (..., dim), fn taking points of any leading shape.

    Returns an array of shape (..., dim, *shape) for fn(x) of shape
    (..., *shape).  The 4 * dim stencil points of every point of x are built
    as one array, shape (4, dim, ..., dim), and fn takes those of each
    stencil offset in one call; the weighted sum runs in stencil order, then
    divides by step.
    """
    x = np.asarray(x, dtype=float)
    lead, dim = x.shape[:-1], x.shape[-1]
    if dim == 0:
        # zero-dimensional point set (homogeneous model)
        probe = np.asarray(fn(x), dtype=float)
        return np.zeros(lead + (0,) + probe.shape[len(lead):])
    # pts[k, mu]: x moved by offset k along x^mu
    moves = (np.array(_STENCIL_OFFSETS)[:, None, None] * step) * np.eye(dim)
    pts = x + moves.reshape((4, dim) + (1,) * len(lead) + (dim,))
    val = lambda k: np.asarray(fn(pts[k]), dtype=float)
    w = _STENCIL_WEIGHTS
    acc = w[0] * val(0) + w[1] * val(1) + w[2] * val(2) + w[3] * val(3)
    acc /= step
    return np.moveaxis(acc, 0, len(lead))


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
    Each base draws its permutations in one ``rng.permuted`` call and sums the
    terms of its int64 digits in place order, as a digit-by-digit loop does.
    """
    if count <= 0:
        return []
    lo = np.array([r[0] for r in ranges], dtype=float)
    hi = np.array([r[1] for r in ranges], dtype=float)
    rng = np.random.default_rng(seed)
    u = np.zeros((count, len(ranges)))
    for col, base in enumerate(_primes(len(ranges))):
        places = math.ceil(54 / math.log2(base)) - 1
        perms = rng.permuted(np.broadcast_to(np.arange(base), (places, base)), axis=1)
        place = np.arange(places, dtype=np.int64)[:, None]
        digits = np.arange(count) // base**place % base
        # divided by base once per place, so each scale rounds as in the digit loop
        scales = np.divide.accumulate(np.r_[1.0 / base, np.full(places - 1, float(base))])
        u[:, col] = np.cumsum(perms[place, digits] * scales[:, None], axis=0)[-1]
    return list(lo + u * (hi - lo))


def trig_jet(omega, t, k):
    """The k-th t-derivatives (k <= 2) of (cos omega t, sin omega t), at
    every entry of t."""
    c, s = np.cos(omega * t), np.sin(omega * t)
    scale = omega ** k
    return tuple(scale * x for x in ((c, s), (-s, c), (-c, -s))[k])


class LieGroupModel:
    """Left-invariant data: constant metric and structure constants."""

    kind = "lie_group"
    fd_step = DEFAULT_FD_STEP    # read by perfbench/tracing.py alone; no run sets it

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
        return np.broadcast_to(self.metric.components, np.shape(p)[:-1] + (self.dim,) * 2)

    def commutators_at(self, p):
        return np.broadcast_to(self.c, np.shape(p)[:-1] + (self.dim,) * 3)

    # the zero jets, as read-only broadcasts
    def metric_derivs_at(self, p):
        return np.broadcast_to(0.0, np.shape(p)[:-1] + (self.dim,) * 3)

    def metric_derivs2_at(self, p):
        return np.broadcast_to(0.0, np.shape(p)[:-1] + (self.dim,) * 4)

    def commutator_derivs_at(self, p):
        return np.broadcast_to(0.0, np.shape(p)[:-1] + (self.dim,) * 4)

    def jacobi_residual(self) -> float:
        """max |c^m_il c^l_jk + c^m_jl c^l_ki + c^m_kl c^l_ij|, the one product
        cc[m, a, b, e] = c^m_al c^l_be at [m, i, j, k], [m, j, k, i], [m, k, i, j]."""
        c, d = self.c, self.dim
        cc = (c @ c.reshape(d, d * d)).reshape((d,) * 4)
        return float(np.max(np.abs(cc + cc.transpose(0, 3, 1, 2) + cc.transpose(0, 2, 3, 1))))

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
    dtheta[..., mu, k, nu] = d_mu theta[k, nu] and the frame A[..., mu, i]
    at the same points, dtheta having any further axes after the points':
    d e^k (E_i, E_j) = (d_mu theta[k,nu] - d_nu theta[k,mu]) A[mu,i] A[nu,j] = -c^k_ij."""
    d = A.shape[-1]
    A = A.reshape(A.shape[:-2] + (1,) * (dtheta.ndim - A.ndim - 1) + A.shape[-2:])
    t = dtheta @ A[..., None, :, :]                # t[..., mu, k, j]
    ext = (np.swapaxes(A, -1, -2) @ t.reshape(t.shape[:-3] + (d, d * d))).reshape(t.shape)
    ext = np.swapaxes(ext, -3, -2)                    # ext[..., k, i, j]
    return np.swapaxes(ext, -1, -2) - ext


class ChartModel:
    """Coordinate patch model.

    Without a coframe the working frame is the coordinate frame (all
    commutators vanish, the metric field carries the geometry).  With a
    coframe theta (rows theta[k, mu] give e^k = theta[k,mu] dx^mu) the
    working frame is its dual and the commutators are recovered from
    d e^k (E_i, E_j) = -c^k_ij.

    Every function takes points of shape (..., dim) and returns its values
    over the same leading axes (a constant may ignore them: it is
    broadcast).  The jets are required, so that curvature has one
    closed-form path: the
    frame derivatives of the metric, metric_derivs_fn (D[i,j,k] = e_i(g_jk))
    and metric_derivs2_fn (D2[a,i,j,k] = e_a(e_i(g_jk))), and, with a
    coframe, its coordinate derivatives coframe_derivs_fn (d_mu theta[k,nu]
    at [mu,k,nu]) and coframe_derivs2_fn (d_s d_mu theta[k,nu] at
    [s,mu,k,nu]).  A coframe without both is BadParams.
    """

    kind = "chart"
    fd_step = DEFAULT_FD_STEP    # read by perfbench/tracing.py alone; no run sets it

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

    def _at(self, fn, p, rank):
        """fn's values at the points p, shape (..., dim, .., dim) with rank
        dims; a constant fn is broadcast over the points."""
        val, shape = np.asarray(fn(p), dtype=float), p.shape[:-1] + (self.dim,) * rank
        return val if val.shape == shape else np.broadcast_to(val, shape)

    def frame_matrix(self, p):
        """A[..., mu, i] with e_i = A[mu, i] d/dx^mu at the points p."""
        p = np.asarray(p, dtype=float)
        if self.coframe_fn is None:
            return np.broadcast_to(np.eye(self.dim), p.shape[:-1] + (self.dim,) * 2)
        theta = self._at(self.coframe_fn, p, 2)
        singular = np.abs(np.linalg.det(theta)) < 1e-10
        if np.any(singular):
            raise SingularCoframe(f"coframe singular at {p[tuple(np.argwhere(singular)[0])]}")
        return np.linalg.inv(theta)

    def metric_at(self, p):
        return self._at(self.metric_fn, np.asarray(p, dtype=float), 2)

    def _dtheta(self, p):
        return self._at(self.coframe_derivs_fn, np.asarray(p, dtype=float), 3)

    def commutators_at(self, p):
        p = np.asarray(p, dtype=float)
        if self.coframe_fn is None:
            return np.broadcast_to(0.0, p.shape[:-1] + (self.dim,) * 3)
        return _brackets(self._dtheta(p), self.frame_matrix(p))

    def commutator_derivs_at(self, p):
        """e_a(c^k_ij) from the coframe jets.  With B_s = (d_s theta) A,
        d_s A = -A B_s, so d_s c[k,i,j] = brackets(d_s dtheta)[k,i,j]
        - c[k,m,j] B_s[m,i] - c[k,i,m] B_s[m,j], and e_a = A[s,a] d_s."""
        p = np.asarray(p, dtype=float)
        d, lead = self.dim, p.shape[:-1]
        if self.coframe_fn is None:
            return np.broadcast_to(0.0, lead + (d,) * 4)
        A = self.frame_matrix(p)
        dtheta = self._dtheta(p)
        c = _brackets(dtheta, A)
        B = dtheta @ A[..., None, :, :]                  # B[..., s, m, i]
        c_k = c[..., None, :, :, :]                         # c[..., None, k, m, j]
        ds_c = (_brackets(self._at(self.coframe_derivs2_fn, p, 4), A)
                - np.swapaxes(B, -1, -2)[..., None, :, :] @ c_k
                - c_k @ B[..., None, :, :])
        out = np.swapaxes(A, -1, -2) @ ds_c.reshape(lead + (d, d ** 3))
        return out.reshape(lead + (d,) * 4)

    def frame_derivative(self, p, fn, step=DEFAULT_FD_STEP):
        """e_i(fn) at the points p by the stencil at step, shape (..., dim,
        *shape) for fn(p) of shape (..., *shape): jet_residuals' reference."""
        p = np.asarray(p, dtype=float)
        dcoord = coordinate_derivatives(fn, p, step)
        if self.coframe_fn is None:
            return dcoord                                   # the coordinate frame
        flat = dcoord.reshape(p.shape[:-1] + (self.dim, -1))
        return (np.swapaxes(self.frame_matrix(p), -1, -2) @ flat).reshape(dcoord.shape)

    def metric_derivs_at(self, p):
        return self._at(self.metric_derivs_fn, np.asarray(p, dtype=float), 3)

    def metric_derivs2_at(self, p):
        return self._at(self.metric_derivs2_fn, np.asarray(p, dtype=float), 4)

    def jet_residuals(self, p, step=DEFAULT_FD_STEP) -> dict:
        """Each jet of the chart against the finite differences of the
        next-lower order at step, relative to max(1, |jet|), at each of the
        points p: dg against g and d^2 g against dg in the frame and, with a
        coframe, d theta against theta and d^2 theta against d theta in the
        coordinates."""
        p = np.asarray(p, dtype=float)
        in_frame = lambda fn: self.frame_derivative(p, fn, step)
        pairs = {"metric": (self.metric_derivs_at(p), in_frame(self.metric_at)),
                 "metric2": (self.metric_derivs2_at(p), in_frame(self.metric_derivs_at))}
        if self.coframe_fn is not None:
            pairs["coframe"] = (self._dtheta(p), coordinate_derivatives(self.coframe_fn, p, step))
            pairs["coframe2"] = (self._at(self.coframe_derivs2_fn, p, 4),
                                 coordinate_derivatives(self._dtheta, p, step))
        rank = lambda jet: jet.ndim - (p.ndim - 1)
        return {key: max_abs(jet - fd, rank(jet)) / np.maximum(1.0, max_abs(jet, rank(jet)))
                for key, (jet, fd) in pairs.items()}

    def sample_points(self, count, seed):
        return halton_points(self.ranges, count, seed)


def chart_model(dim, metric_fields, frame=None, ranges=None, *, metric_derivs, metric_derivs2,
                coframe_derivs=None, coframe_derivs2=None) -> ChartModel:
    """Chart model from a metric component function, an optional coframe and
    the analytic jets of both (see ChartModel).  Each function takes points
    of shape (..., dim), a block of points, and returns its values over the
    same leading axes; a constant may ignore them."""
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
    of h follow from the Cauchy-Riemann rule d/du^m = d/dw^m, d/dv^m = i d/dw^m.
    The three functions take w of shape (..., n), a block of points, and
    return their values over its leading axes, (..., n, n), (..., n, n, n)
    and (..., n, n, n, n); a constant may ignore them."""

    def at(fn, x):
        # a constant keeps its shape: ChartModel._at broadcasts the real block
        return np.asarray(fn(x[..., :n] + 1j * x[..., n:]))

    def metric_fn(x):
        return _real_block(at(hc, x))

    def metric_derivs_fn(x):
        dm = at(dhc, x)
        return _real_block(np.concatenate([dm, 1j * dm], axis=-3))

    def metric_derivs2_fn(x):
        d2 = at(d2hc, x)
        du = np.concatenate([d2, 1j * d2], axis=-3)      # d/du^m (d/du^l, d/dv^l)
        return _real_block(np.concatenate([du, 1j * du], axis=-4))

    return chart_model(2 * n, metric_fn, ranges=ranges, metric_derivs=metric_derivs_fn,
                       metric_derivs2=metric_derivs2_fn)


def leaf_rotation(x, t, k=0) -> np.ndarray:
    """The k-th t-derivative (k <= 2) of cos 2t X - sin 2t XJ at the entries
    of t, over the trailing axes of X, with J the standard J on X's last
    axis: the leaf at t of the S^1-solvable extension.  Of the base metric h
    it gives the leaf metric cos 2t h - sin 2t htilde (htilde = hJ) and its
    t-jets; of the base curvature R_h, at k = 0, the leaf curvature

        R_t(X,Y,Z,U) = cos 2t R_h(X,Y,Z,U) - sin 2t R_h(X,Y,Z,JU),

    as the leaf metric is the real part of a complex-constant multiple of
    the holomorphic metric, which keeps its connection."""
    t = np.asarray(t, dtype=float)
    c, s = (y.reshape(t.shape + (1,) * (x.ndim - t.ndim)) for y in trig_jet(2.0, t, k))
    out = x @ standard_j(x.shape[-1] // 2)
    out *= -s
    out += c * x
    return out


class ProductExtensionModel(ChartModel):
    """M = R_t x N with g = dt^2 + cos(2t) h - sin(2t) htilde, htilde = h J.

    The base is a coordinate chart of dimension 2n carrying h, with the
    standard J.  Coordinates are (t, base coordinates); the working frame is
    the coordinate frame.  Its metric and jets, leaf_rotations of the base
    chart's, are its own methods, so the model is in no reference cycle.
    """

    kind = "product_extension"

    def __init__(self, base: ChartModel):
        self.base = base
        super().__init__(base.dim + 1, None, ranges=[(-1.2, 1.2)] + list(base.ranges),
                         metric_derivs_fn=None, metric_derivs2_fn=None)

    def metric_at(self, p):
        p = np.asarray(p, dtype=float)
        g = np.zeros(p.shape[:-1] + (self.dim,) * 2)
        g[..., 0, 0] = 1.0
        g[..., 1:, 1:] = leaf_rotation(self.base.metric_at(p[..., 1:]), p[..., 0])
        return g

    def metric_derivs_at(self, p):
        p = np.asarray(p, dtype=float)
        t, bp = p[..., 0], p[..., 1:]
        D = np.zeros(p.shape[:-1] + (self.dim,) * 3)
        D[..., 0, 1:, 1:] = leaf_rotation(self.base.metric_at(bp), t, 1)
        D[..., 1:, 1:, 1:] = leaf_rotation(self.base.metric_derivs_at(bp), t)
        return D

    def metric_derivs2_at(self, p):
        p = np.asarray(p, dtype=float)
        t, bp = p[..., 0], p[..., 1:]
        D2 = np.zeros(p.shape[:-1] + (self.dim,) * 4)
        D2[..., 0, 0, 1:, 1:] = leaf_rotation(self.base.metric_at(bp), t, 2)
        D2[..., 0, 1:, 1:, 1:] = D2[..., 1:, 0, 1:, 1:] = \
            leaf_rotation(self.base.metric_derivs_at(bp), t, 1)
        D2[..., 1:, 1:, 1:, 1:] = leaf_rotation(self.base.metric_derivs2_at(bp), t)
        return D2


def product_extension(base: ChartModel):
    """Rank-one extension of a holomorphic complex Riemannian base, given as
    a coordinate chart of dimension 2n whose complex structure is the
    standard J (as ``holomorphic_base`` makes it).

    Returns (model, structure) with the adapted structure: eta = dt,
    xi = d/dt, phi restricted to the horizontal distribution equal to J.
    Raises BaseNotHolomorphic when the chart is odd-dimensional or has a
    coframe, or when, at the first of 4 samples where it fails (all read by
    one Koszul solve of the base and one stencil, as one block), h is not
    symmetric (hC must be), or else h is not Norden, nabla^h J fails to
    vanish, or dh differs from the finite differences of h relative to
    max(1, |dh|): nabla^h J is solved from dh, so it misses a w-bar term.
    """
    if base.dim % 2 != 0:
        raise BaseNotHolomorphic("base dimension must be even")
    if base.coframe_fn is not None:
        raise BaseNotHolomorphic("base must use a coordinate frame")
    n = base.dim // 2
    j = standard_j(n)
    qs = np.stack(base.sample_points(4, seed=7))
    conn = levi_civita(base, qs)
    h, dh = conn.g, conn.dg
    asym = max_abs(h - np.swapaxes(h, -1, -2), 2)
    gap = max_abs(dh - coordinate_derivatives(base.metric_at, qs), 3)
    res = worst((max_abs(j.T @ h @ j + h, 2), holomorphy_residual(conn),
                 gap / np.maximum(1.0, max_abs(dh, 3))))
    for q, asym_q, res_q in zip(qs, asym, res):
        if not asym_q <= SYM_TOL:
            raise BaseNotHolomorphic(f"metric asymmetry {asym_q:.3e} at {q}")
        if not res_q <= 1e-6:
            raise BaseNotHolomorphic(f"holomorphy residual {res_q:.3e} at {q}")
    model = ProductExtensionModel(base)
    return model, standard_structure(model, n)


class ConeModel:
    """Complex cone over the points of an almost contact complex Riemannian
    manifold, built from f, the PointFields of the base structure there.

    Like a group model it holds its base points: its points are (r,) with
    r < 0, one per base point of f (of shape (..., 1) for f's points of shape
    (..., dim)), and its frame is (base frame, d/dr).  The metric is

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
        """r at the points p, shaped to multiply a (d, d) block at each."""
        r = np.asarray(p, dtype=float)[..., 0]
        if np.any(r >= 0):
            raise RNotNegative(f"cone requires r < 0, got {r[r >= 0].flat[0]}")
        return r[..., None, None]

    def _zeros(self, r, rank):
        lead = np.broadcast_shapes(r.shape[:-2], self.f.p.shape[:-1])
        return np.zeros(lead + (self.dim,) * rank)

    def metric_at(self, p):
        r, f, d = self._r(p), self.f, self.f.dim
        G = self._zeros(r, 2)
        G[..., :d, :d] = r * r * (f.g - f.ee) + f.ee
        G[..., d, d] = -1.0 / (r * r)[..., 0, 0]
        return G

    def commutators_at(self, p):
        d = self.f.dim
        c = self._zeros(self._r(p), 3)
        c[..., :d, :d, :d] = self.f.c
        return c

    def metric_derivs_at(self, p):
        r, f, d = self._r(p), self.f, self.f.dim
        dee = f.dee
        D = self._zeros(r, 3)
        D[..., :d, :d, :d] = (r * r)[..., None] * (f.dg - dee) + dee
        D[..., d, :d, :d] = 2 * r * (f.g - f.ee)
        D[..., d, d, d] = 2.0 / r[..., 0, 0] ** 3
        return D

    def j_at(self, p):
        """The cone complex structure J[..., k, j] at the points p."""
        r, f, d = self._r(p), self.f, self.f.dim
        J = self._zeros(r, 2)
        J[..., :d, :d] = f.phi
        J[..., d, :d] = r[..., 0] * f.eta
        J[..., :d, d] = -f.xi / r[..., 0]
        return J

    def j_derivs_at(self, p):
        """D[..., i, k, j] = e_i(J[k, j]), analytic in r."""
        r, f, d = self._r(p), self.f, self.f.dim
        D = self._zeros(r, 3)
        D[..., :d, :d, :d] = f.dphi
        D[..., :d, d, :d] = r * f.deta
        D[..., :d, :d, d] = -f.dxi / r
        D[..., d, d, :d] = f.eta
        D[..., d, :d, d] = f.xi / (r * r)[..., 0]
        return D

    @staticmethod
    def radii(count, seed):
        """r of the first count sample points: -1, then a Halton sample of [-2, -0.5]."""
        rest = halton_points([(-2.0, -0.5)], count - 1, seed + 1)
        return [-1.0, *(float(x[0]) for x in rest)][:count]
