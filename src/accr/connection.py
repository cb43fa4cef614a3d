"""Levi-Civita connection, curvature, and closed-form curvature models.

The connection is solved pointwise from the frame Koszul formula

    2 g(nabla_i e_j, e_k) = e_i(g_jk) + e_j(g_ki) - e_k(g_ij)
        + g([e_i,e_j], e_k) - g([e_j,e_k], e_i) + g([e_k,e_i], e_j)

and the curvature uses R(x, y) = [nabla_x, nabla_y] - nabla_[x,y], with the
sign convention pinned so that R(x, y) xi = eta(y) x - eta(x) y holds on the
solvable-group example.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMetric, DegenerateParameters
from .frame_algebra import kulkarni_nomizu, standard_j

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
    """gamma[i, j, k] is the e_k-coefficient of nabla_{e_i} e_j."""

    gamma: np.ndarray

    def torsion_residual(self, c) -> float:
        """nabla torsion-free: gamma[i,j,:] - gamma[j,i,:] = c^:_ij."""
        t = self.gamma - np.swapaxes(self.gamma, 0, 1)
        return float(np.max(np.abs(t - np.einsum("kij->ijk", np.asarray(c)))))

    def metric_compat_residual(self, g, dg) -> float:
        """e_i(g_jk) - g(nabla_i e_j, e_k) - g(e_j, nabla_i e_k)."""
        r = dg - np.einsum("ijm,mk->ijk", self.gamma, g) - np.einsum("ikm,jm->ijk", self.gamma, g)
        return float(np.max(np.abs(r)))


def _koszul_rhs(dg, cg):
    """2 g(nabla_i e_j, e_k) from dg[i,j,k] = e_i(g_jk) and cg[i,j,k] =
    g([e_i,e_j], e_k), over any leading axes: the formula is linear in both,
    so the frame derivatives of the right-hand side come the same way."""
    s = dg - cg
    return dg + cg + np.einsum("...jki->...ijk", s) - np.einsum("...kij->...ijk", s)


def levi_civita(model, p) -> ConnectionCoefficients:
    """Solve the Koszul formula for the connection coefficients at p."""
    g = model.metric_at(p)
    dg = model.metric_derivs_at(p)
    c = model.commutators_at(p)
    det = np.linalg.det(g)
    if abs(det) <= 1e-12:
        raise DegenerateMetric(f"metric degenerate at {p}: |det| = {abs(det):.3e}")
    ginv = np.linalg.inv(g)
    rhs = _koszul_rhs(dg, np.einsum("mij,mk->ijk", c, g))
    gamma = 0.5 * np.einsum("lk,ijk->ijl", ginv, rhs)
    return ConnectionCoefficients(gamma=gamma)


@dataclass
class CurvatureBundle:
    """Curvature tensors at a point.

    r_up[i,j,k,l]: e_l coefficient of R(e_i, e_j) e_k
    r[i,j,k,l]   = g(R(e_i,e_j) e_k, e_l)
    ric[j,k]     = g^{il} r[i,j,k,l]
    scal         = g^{jk} ric[j,k]
    scal_star    = g^{ab} ric(e_a, phi e_b)
    """

    r_up: np.ndarray
    r: np.ndarray
    ric: np.ndarray
    scal: float
    scal_star: float

    def symmetry_residuals(self) -> dict:
        r = self.r
        return {
            "antisym_first_pair": float(np.max(np.abs(r + np.einsum("jikl->ijkl", r)))),
            "antisym_last_pair": float(np.max(np.abs(r + np.einsum("ijlk->ijkl", r)))),
            "pair_interchange": float(np.max(np.abs(r - np.einsum("klij->ijkl", r)))),
            "first_bianchi": float(
                np.max(np.abs(r + np.einsum("jkil->ijkl", r) + np.einsum("kijl->ijkl", r)))
            ),
            "ricci_symmetry": float(np.max(np.abs(self.ric - self.ric.T))),
        }


def riemann(g, ginv, dg, c, d2g, dc, gamma, phi) -> CurvatureBundle:
    """Full curvature at a point, from its jets: the metric g, its inverse,
    dg[i,j,k] = e_i(g_jk), the commutators c, d2g[a,i,j,k] = e_a(e_i(g_jk)),
    dc[a,k,i,j] = e_a(c^k_ij), the connection gamma and phi there.

    The frame derivatives of the connection, dgamma[a] = e_a(Gamma), are
    closed-form: differentiating g Gamma = rhs / 2 along e_a gives
    e_a(Gamma) = g^-1 (e_a(rhs) / 2 - (e_a g) Gamma), the same as
    (e_a g^-1) rhs / 2 + g^-1 e_a(rhs) / 2 with e_a g^-1 = -g^-1 (e_a g) g^-1,
    where e_a(rhs) is the Koszul right-hand side of the second jets.
    """
    # contractions as matmuls over the last index, broadcast over the rest:
    # e_a(c^m_ij g_mk), then g^-1 (e_a(rhs) / 2 - (e_a g) Gamma)
    dcg = np.moveaxis(dc, 1, -1) @ g + np.moveaxis(c, 0, -1) @ dg[:, None]
    drhs = _koszul_rhs(d2g, dcg)
    dgamma = (0.5 * drhs - gamma @ dg[:, None]) @ ginv.T
    r_up = (
        dgamma
        - np.einsum("jikl->ijkl", dgamma)
        + np.einsum("jkm,iml->ijkl", gamma, gamma)
        - np.einsum("ikm,jml->ijkl", gamma, gamma)
        - np.einsum("mij,mkl->ijkl", c, gamma)
    )
    r = np.einsum("ijkm,ml->ijkl", r_up, g)
    ric = np.einsum("il,ijkl->jk", ginv, r)
    scal = float(np.einsum("jk,jk->", ginv, ric))
    scal_star = float(np.einsum("ab,ac,cb->", ginv, ric, phi))
    return CurvatureBundle(r_up=r_up, r=r, ric=ric, scal=scal, scal_star=scal_star)


def covariant_derivative(gamma, a, da) -> np.ndarray:
    """nabla of a (1,1) field a at a point: n[i, k, j] is the e_k coefficient
    of (nabla_i a) e_j, from a[k, j], its frame derivatives da[i, k, j] and
    the connection gamma there."""
    return da + np.einsum("imk,mj->ikj", gamma, a) - np.einsum("km,ijm->ikj", a, gamma)


def holomorphy_residual(chart, p) -> float:
    """max |(nabla^h J)| at p on a candidate holomorphic base: a coordinate
    chart of dimension 2n with the standard J, whose frame derivatives vanish."""
    d = chart.dim
    J = standard_j(d // 2)
    nj = covariant_derivative(levi_civita(chart, p).gamma, J, np.zeros((d, d, d)))
    return float(np.max(np.abs(nj)))


def standard_norden_pair(n):
    """The constant pair (h, htilde) on R^{2n} with the standard J:
    h = diag(1..1, -1..-1) and htilde(X, Y) = h(JX, Y)."""
    h = np.diag([1.0] * n + [-1.0] * n)
    return h, h @ standard_j(n)


@dataclass
class HSphereCurvature:
    """Closed-form curvature of the complex hypersurface

        h'(z - z0, z - z0) = a,   htilde'(z - z0, z - z0) = b

    of flat complex Riemannian space:

        R = [a (pi1 - pi2) - b pi3] / (a^2 + b^2)
        pi1 = h ^ h / 2, pi2 = htilde ^ htilde / 2, pi3 = -h ^ htilde
        Ric = 2 (n - 1) (a h + b htilde) / (a^2 + b^2)
        Scal = 4 n (n - 1) a / (a^2 + b^2)
    """

    n: int
    a: float
    b: float
    r: np.ndarray
    ric: np.ndarray
    scal: float


def hsphere_curvature(n, a, b, h=None, htilde=None) -> HSphereCurvature:
    """Closed-form curvature pieces; components taken in any frame where
    (h, htilde) are the restricted flat-space metrics at the point."""
    if a == 0 and b == 0:
        raise DegenerateParameters("(a, b) = (0, 0) is excluded")
    if h is None or htilde is None:
        h, htilde = standard_norden_pair(n)
    pi1 = 0.5 * kulkarni_nomizu(h, h)
    pi2 = 0.5 * kulkarni_nomizu(htilde, htilde)
    pi3 = -kulkarni_nomizu(h, htilde)
    den = a * a + b * b
    r = (a * (pi1 - pi2) - b * pi3) / den
    ric = 2.0 * (n - 1) * (a * h + b * htilde) / den
    scal = 4.0 * n * (n - 1) * a / den
    return HSphereCurvature(n=n, a=a, b=b, r=r, ric=ric, scal=scal)
