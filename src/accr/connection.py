"""Levi-Civita connection, curvature, and closed-form curvature models.

The connection is solved over a block of points, shape (..., dim), from the
frame Koszul formula

    2 g(nabla_i e_j, e_k) = e_i(g_jk) + e_j(g_ki) - e_k(g_ij)
        + g([e_i,e_j], e_k) - g([e_j,e_k], e_i) + g([e_k,e_i], e_j)

and the curvature uses R(x, y) = [nabla_x, nabla_y] - nabla_[x,y], with the
sign convention pinned so that R(x, y) xi = eta(y) x - eta(x) y holds on the
solvable-group example.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateMetric, DegenerateParameters
from .frame_algebra import max_abs, standard_j

__all__ = [
    "ConnectionCoefficients",
    "CurvatureBundle",
    "levi_civita",
    "riemann",
    "covariant_derivative",
    "holomorphy_residual",
    "HSphereCurvature",
    "hsphere_curvature",
    "standard_norden_pair",
]


@dataclass
class ConnectionCoefficients:
    """One solve over the leading point axes of p: the jets read there, g,
    dg[i,j,k] = e_i(g_jk) and c, the inverse ginv of g, and gamma[..., i, j,
    k], the e_k-coefficient of nabla_{e_i} e_j."""

    g: np.ndarray
    ginv: np.ndarray
    dg: np.ndarray
    c: np.ndarray
    gamma: np.ndarray

    def torsion_residual(self):
        """nabla torsion-free: gamma[i,j,:] - gamma[j,i,:] = c^:_ij, the max
        at each point."""
        t = self.gamma - np.swapaxes(self.gamma, -3, -2)
        return max_abs(t - np.einsum("...kij->...ijk", self.c), 3)

    def metric_compat_residual(self):
        """e_i(g_jk) - g(nabla_i e_j, e_k) - g(e_j, nabla_i e_k), the max at
        each point."""
        low = self.gamma @ self.g[..., None, :, :]
        low_t = self.gamma @ np.swapaxes(self.g, -1, -2)[..., None, :, :]
        return max_abs(self.dg - low - np.swapaxes(low_t, -1, -2), 3)


def _koszul_rhs(dg, cg):
    """2 g(nabla_i e_j, e_k) from dg[i,j,k] = e_i(g_jk) and cg[i,j,k] =
    g([e_i,e_j], e_k), over any leading axes: the formula is linear in both,
    so the frame derivatives of the right-hand side come the same way."""
    s = dg - cg
    out = dg + cg
    out += np.einsum("...jki->...ijk", s)
    out -= np.einsum("...kij->...ijk", s)
    return out


def _lowered(c, g):
    """g([e_i, e_j], e_k) = c^m_ij g_mk at [..., i, j, k]."""
    return np.moveaxis(c, -3, -1) @ g[..., None, :, :]


def levi_civita(model, p) -> ConnectionCoefficients:
    """Solve the Koszul formula for the connection coefficients at the
    points p, shape (..., dim): one solve for all of them, from one read of
    the model's g, dg and c there."""
    g = model.metric_at(p)
    dg = model.metric_derivs_at(p)
    c = model.commutators_at(p)
    det = np.abs(np.linalg.det(g))
    bad = det <= 1e-12
    if np.any(bad):
        k = np.argwhere(bad)[0]
        raise DegenerateMetric(f"metric degenerate at {np.asarray(p)[tuple(k)]}: "
                               f"|det| = {det[tuple(k)]:.3e}")
    ginv = np.linalg.inv(g)
    rhs = _koszul_rhs(dg, _lowered(c, g))
    gamma = 0.5 * (rhs @ np.swapaxes(ginv, -1, -2)[..., None, :, :])
    return ConnectionCoefficients(g=g, ginv=ginv, dg=dg, c=c, gamma=gamma)


@dataclass
class CurvatureBundle:
    """Curvature tensors, over the leading point axes of its jets.

    r_up[i,j,k,l]: e_l coefficient of R(e_i, e_j) e_k
    r[i,j,k,l]   = g(R(e_i,e_j) e_k, e_l)
    ric[j,k]     = g^{il} r[i,j,k,l]
    scal         = g^{jk} ric[j,k]
    scal_star    = g^{ab} ric(e_a, phi e_b)

    Only r_up is held: r is lowered with g at each read, a new array that
    its reader may overwrite, so a block keeps one dim^4 array of curvature.
    """

    r_up: np.ndarray
    g: np.ndarray
    ric: np.ndarray
    scal: np.ndarray
    scal_star: np.ndarray

    @property
    def r(self) -> np.ndarray:
        return self.r_up @ self.g[..., None, None, :, :]

    def symmetry_residuals(self) -> dict:
        """Each symmetry's max at each point."""
        r = self.r
        return {
            "antisym_first_pair": max_abs(r + np.einsum("...jikl->...ijkl", r), 4),
            "antisym_last_pair": max_abs(r + np.einsum("...ijlk->...ijkl", r), 4),
            "pair_interchange": max_abs(r - np.einsum("...klij->...ijkl", r), 4),
            "first_bianchi": max_abs(r + np.einsum("...jkil->...ijkl", r)
                                  + np.einsum("...kijl->...ijkl", r), 4),
            "ricci_symmetry": max_abs(self.ric - np.swapaxes(self.ric, -1, -2), 2),
        }


def riemann(model, p, conn, phi) -> CurvatureBundle:
    """Full curvature at the points p of model, shape (..., dim), from the
    solve conn there (g, its inverse, dg, c and the connection gamma), the
    model's second jets d2g[a,i,j,k] = e_a(e_i(g_jk)) and dc[a,k,i,j] =
    e_a(c^k_ij), read here and dropped once folded into the Koszul
    right-hand side, and phi.

    The frame derivatives of the connection, dgamma[a] = e_a(Gamma), are
    closed-form: differentiating g Gamma = rhs / 2 along e_a gives
    e_a(Gamma) = g^-1 (e_a(rhs) / 2 - (e_a g) Gamma), the same as
    (e_a g^-1) rhs / 2 + g^-1 e_a(rhs) / 2 with e_a g^-1 = -g^-1 (e_a g) g^-1,
    where e_a(rhs) is the Koszul right-hand side of the second jets.
    Every four-index contraction is a matmul with the point axes leading,
    and the d^4 arrays are updated in place and dropped once read, so that
    at most three are held at once.  The jets are never written into: a
    model may give them as read-only broadcasts.
    """
    g, ginv, dg, c, gamma = conn.g, conn.ginv, conn.dg, conn.c, conn.gamma
    d = g.shape[-1]
    lead = g.shape[:-2]
    as_a = lambda t: t[..., None, :, :, :]     # broadcast along the derivative axis a
    dg_a = dg[..., None, :, :]                 # dg[a, None, m, k]
    d2g = model.metric_derivs2_at(p)
    # e_a(c^m_ij g_mk), then g^-1 (e_a(rhs) / 2 - (e_a g) Gamma)
    dcg = np.moveaxis(model.commutator_derivs_at(p), -3, -1) @ as_a(g[..., None, :, :])
    dcg += as_a(np.moveaxis(c, -3, -1)) @ dg_a
    # _koszul_rhs(d2g, dcg), its s = d2g - dcg taking dcg's place
    half = d2g + dcg
    np.subtract(d2g, dcg, out=dcg)
    del d2g
    half += np.einsum("...jki->...ijk", dcg)
    half -= np.einsum("...kij->...ijk", dcg)
    del dcg
    half *= 0.5
    half -= as_a(gamma) @ dg_a
    # s[i,j,k,l] = e_i(Gamma_jk^l) + Gamma_jk^m Gamma_im^l; R = s - s^T(ij) - c^m_ij Gamma_mk^l
    s = half @ as_a(np.swapaxes(ginv, -1, -2)[..., None, :, :])
    del half
    s += as_a(gamma) @ gamma[..., None, :, :]
    r_up = s - np.swapaxes(s, -4, -3)
    del s
    r_up -= (np.moveaxis(c, -3, -1).reshape(lead + (d * d, d))
             @ gamma.reshape(lead + (d, d * d))).reshape(lead + (d,) * 4)
    r = r_up @ as_a(g[..., None, :, :])        # r, for its trace only
    ric = (r @ ginv[..., :, None, :, None])[..., 0].sum(-3)       # g^{il} r[i, j, k, l]
    del r
    scal = (ginv * ric).sum((-2, -1))
    scal_star = (ginv * (ric @ phi)).sum((-2, -1))
    return CurvatureBundle(r_up=r_up, g=g, ric=ric, scal=scal, scal_star=scal_star)


def covariant_derivative(gamma, a, da) -> np.ndarray:
    """nabla of a (1,1) field a: n[..., i, k, j] is the e_k coefficient of
    (nabla_i a) e_j, from a[..., k, j], its frame derivatives da[..., i, k, j]
    and the connection gamma, all over the same leading point axes."""
    return da + np.swapaxes(gamma, -1, -2) @ a[..., None, :, :] \
        - a[..., None, :, :] @ np.swapaxes(gamma, -1, -2)


def holomorphy_residual(conn):
    """max |(nabla^h J)| at each point of the solve conn on a candidate
    holomorphic base: a coordinate chart of dimension 2n with the standard
    J, whose frame derivatives vanish."""
    d = conn.g.shape[-1]
    J = standard_j(d // 2)
    nj = covariant_derivative(conn.gamma, J, np.zeros((d, d, d)))
    return max_abs(nj, 3)


def standard_norden_pair(n):
    """The constant pair (h, htilde) on R^{2n} with the standard J:
    h = diag(1..1, -1..-1) and htilde(X, Y) = h(JX, Y)."""
    h = np.diag([1.0] * n + [-1.0] * n)
    return h, h @ standard_j(n)


@dataclass
class HSphereCurvature:
    """Closed-form curvature of the complex hypersurface

        h'(z - z0, z - z0) = a,   htilde'(z - z0, z - z0) = b

    of flat complex Riemannian space, with components in any frame where
    (h, htilde) are the restricted flat-space metrics at the point (over
    any leading point axes of both):

        R = [a (pi1 - pi2) - b pi3] / (a^2 + b^2)
        pi1 = h ^ h / 2, pi2 = htilde ^ htilde / 2, pi3 = -h ^ htilde
        Ric = 2 (n - 1) (a h + b htilde) / (a^2 + b^2)
        Scal = 4 n (n - 1) a / (a^2 + b^2)

    R, the one four-index piece, is made at its first read, so that a
    reader of Ric alone does not pay for it.
    """

    n: int
    a: float
    b: float
    h: np.ndarray
    htilde: np.ndarray

    @property
    def ric(self) -> np.ndarray:
        return 2.0 * (self.n - 1) * (self.a * self.h + self.b * self.htilde) / self._den

    @property
    def scal(self) -> float:
        return 4.0 * self.n * (self.n - 1) * self.a / self._den

    @property
    def _den(self) -> float:
        return self.a * self.a + self.b * self.b

    @cached_property
    def r(self) -> np.ndarray:
        """The Kulkarni-Nomizu products expanded: R = s - s^T(ij) with
        s[i,j,k,l] = A[j,k] h[i,l] + B[j,k] htilde[i,l], A = (a h + b htilde)
        / (a^2 + b^2) and B = (b h - a htilde) / (a^2 + b^2)."""
        a, b, h, ht = self.a / self._den, self.b / self._den, self.h, self.htilde
        on = lambda m, x: m[..., None, :, :, None] * x[..., :, None, None, :]
        s = on(a * h + b * ht, h)
        s += on(b * h - a * ht, ht)
        return s - np.swapaxes(s, -4, -3)


def hsphere_curvature(n, a, b, h=None, htilde=None) -> HSphereCurvature:
    """Closed-form curvature pieces; components taken in any frame where
    (h, htilde) are the restricted flat-space metrics at the point."""
    if a == 0 and b == 0:
        raise DegenerateParameters("(a, b) = (0, 0) is excluded")
    if h is None or htilde is None:
        h, htilde = standard_norden_pair(n)
    return HSphereCurvature(n=n, a=a, b=b, h=np.asarray(h), htilde=np.asarray(htilde))
