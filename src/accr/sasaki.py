"""Sasaki-like certification.

A structure is Sasaki-like when the structure tensor satisfies

    F(X,Y,Z) = F(xi,Y,Z) = F(xi,xi,Z) = 0,   F(X,Y,xi) = -g(X,Y)

on horizontal arguments; equivalently (nabla_x phi) y = -g(x,y) xi
- eta(y) x + 2 eta(x) eta(y) xi, equivalently N = 0 together with
Nhat = -4 (gtilde - eta x eta) (x) xi.  A third, geometric route: the
complex cone must carry a parallel complex structure.  All three are
evaluated here as residuals, along with the curvature identities and the
Gauss comparison that follow.  Every residual function reads the
PointFields of its point; cone_residuals_at reads it at one cone point
(f.p, r), and cone_holomorphic_residual maximises those over the cone
points, as the cone rows of verify and the cone command report them.
"""

from __future__ import annotations

import numpy as np

from .connection import covariant_derivative, levi_civita
from .errors import NotSasakiLike
from .frame_algebra import project_all
from .models import ConeModel
from .structure import PointFields, max_over_points, worst

__all__ = [
    "check_defining_conditions",
    "check_nabla_phi",
    "check_nijenhuis_form",
    "check_corollary",
    "curvature_identity_residuals",
    "require_sasaki_like",
    "gauss_residual",
    "second_fundamental_form_residual",
    "cone_residuals_at",
    "cone_holomorphic_residual",
]


def check_defining_conditions(f: PointFields) -> dict:
    """Residuals of the four defining conditions on projected arguments."""
    F, xi, proj, g = f.F, f.xi, f.proj, f.g
    fhhh = project_all(F, proj)
    f_xi_first = np.einsum("a,ajk->jk", xi, F)
    f_xi_xi = np.einsum("a,b,abk->k", xi, xi, F)
    gp = proj.T @ g @ proj
    fh = np.einsum("ija,a->ij", F, xi)
    return {
        "f_horizontal": float(np.max(np.abs(fhhh))),
        "f_xi_first_slot": float(np.max(np.abs(project_all(f_xi_first, proj)))),
        "f_xi_xi": float(np.max(np.abs(f_xi_xi @ proj))),
        "f_equals_minus_g": float(np.max(np.abs(project_all(fh, proj) + gp))),
    }


def check_nabla_phi(f: PointFields) -> float:
    """Residual of F(x,y,z) = g(phi x, phi y) eta(z) + g(phi x, phi z) eta(y)."""
    gpp = np.einsum("ai,bj,ab->ij", f.phi, f.phi, f.g)
    rhs = np.einsum("ij,k->ijk", gpp, f.eta) + np.einsum("ik,j->ijk", gpp, f.eta)
    return float(np.max(np.abs(f.F - rhs)))


def check_nijenhuis_form(f: PointFields) -> dict:
    """N = 0 and Nhat = -4 (gtilde - eta x eta) (x) xi, bracket route."""
    n, nhat = f.nijenhuis_bracket
    shape = np.einsum("ij,k->ijk", f.gtilde - np.outer(f.eta, f.eta), f.eta)
    return {
        "n_zero": float(np.max(np.abs(n))),
        "nhat_form": float(np.max(np.abs(nhat + 4.0 * shape))),
        "nhat_xi_slot": float(np.max(np.abs(np.einsum("a,ajk->jk", f.xi, nhat)))),
    }


def check_corollary(f: PointFields) -> dict:
    """Consequences: eta closed, geodesic xi, theta = -2n eta, theta* = 0,
    [X, xi] horizontal, and nabla_xi X = -phi X - [X, xi]."""
    n = f.s.n
    nabla_xi_xi = np.einsum("i,ik->k", f.xi, f.nabla_xi)

    # brackets of projected frame fields with xi, including derivative terms
    W = f.proj
    DW = -np.einsum("bk,j->bkj", f.dxi, f.eta) - np.einsum("k,bj->bkj", f.xi, f.deta)
    bracket = (
        np.einsum("aj,b,kab->jk", W, f.xi, f.c)
        + np.einsum("aj,ak->jk", W, f.dxi)
        - np.einsum("b,bkj->jk", f.xi, DW)
    )
    nabla_xi_X = np.einsum("i,ikj->kj", f.xi, DW) + np.einsum("i,iak,aj->kj", f.xi, f.gamma, W)
    phi_X = f.phi @ W
    vertical_residual = np.einsum("k,jk->j", f.eta, bracket)
    transport = nabla_xi_X.T + phi_X.T + bracket

    return {
        "d_eta": float(np.max(np.abs(f.d_eta))),
        "nabla_xi_xi": float(np.max(np.abs(nabla_xi_xi))),
        "theta_plus_2n_eta": float(np.max(np.abs(f.theta + 2.0 * n * f.eta))),
        "theta_star": float(np.max(np.abs(f.theta_star))),
        "bracket_xi_horizontal": float(np.max(np.abs(vertical_residual))),
        "nabla_xi_transport": float(np.max(np.abs(transport))),
    }


def curvature_identity_residuals(f: PointFields, base_ric=None) -> dict:
    """Curvature identities of Sasaki-like structures.

    phi-commutation:
        R(x,y,phi z,u) - R(x,y,z,phi u)
          = [g(y,z) - 2 eta(y) eta(z)] g(x, phi u)
          + [g(y,u) - 2 eta(y) eta(u)] g(x, phi z)
          - [g(x,z) - 2 eta(x) eta(z)] g(y, phi u)
          - [g(x,u) - 2 eta(x) eta(u)] g(y, phi z)

    plus R(x,y) xi = eta(y) x - eta(x) y, R(xi,X) xi = -X,
    Ric(y,xi) = 2n eta(y), Ric(xi,xi) = 2n,
    R(x,y,xi,z) = eta(y) g(x,z) - eta(x) g(y,z), and, when the leaf Ricci
    is supplied, Ric(Y,Z) = Ric_base(Y,Z) on horizontal arguments.
    """
    n = f.s.n
    cur = f.curvature
    r, r_up, ric = cur.r, cur.r_up, cur.ric
    g, phi, eta, xi, proj = f.g, f.phi, f.eta, f.xi, f.proj

    gphi = g @ phi
    a2 = g - 2.0 * np.outer(eta, eta)
    lhs = np.einsum("ijal,ak->ijkl", r, phi) - np.einsum("ijka,al->ijkl", r, phi)
    rhs = (
        np.einsum("jk,il->ijkl", a2, gphi)
        + np.einsum("jl,ik->ijkl", a2, gphi)
        - np.einsum("ik,jl->ijkl", a2, gphi)
        - np.einsum("il,jk->ijkl", a2, gphi)
    )
    curf = float(np.max(np.abs(lhs - rhs)))

    r_xy_xi = np.einsum("ijkl,k->ijl", r_up, xi)
    expected = np.einsum("j,il->ijl", eta, np.eye(f.dim)) - np.einsum("i,jl->ijl", eta, np.eye(f.dim))
    cur_xi = float(np.max(np.abs(r_xy_xi - expected)))

    t = np.einsum("i,k,ijkl->jl", xi, xi, r_up)
    r_xi_x_xi = float(np.max(np.abs(np.einsum("aj,al->jl", proj, t) + proj.T)))

    ric_xi_xi = float(abs(np.einsum("a,b,ab->", xi, xi, ric) - 2.0 * n))
    ric_y_xi = float(np.max(np.abs(ric @ xi - 2.0 * n * eta)))

    r_xi_slot = np.einsum("ijkl,k->ijl", r, xi)
    exp2 = np.einsum("j,il->ijl", eta, g) - np.einsum("i,jl->ijl", eta, g)
    r_xyxiz = float(np.max(np.abs(r_xi_slot - exp2)))

    out = {
        "phi_commutation": curf,
        "r_xy_xi": cur_xi,
        "r_xi_x_xi": r_xi_x_xi,
        "ric_xi_xi": ric_xi_xi,
        "ric_y_xi": ric_y_xi,
        "r_xi_third_slot": r_xyxiz,
    }
    if base_ric is not None:
        out["horizontal_ricci"] = float(np.max(np.abs(project_all(ric - base_ric, proj))))
    return out


def require_sasaki_like(f: PointFields):
    """Raise NotSasakiLike unless the defining conditions hold at f.p to 1e-4,
    the precondition of the Gauss comparison and of the conformal laws."""
    worst_res = worst(check_defining_conditions(f).values())
    if not worst_res <= 1e-4:
        raise NotSasakiLike(f"defining residual {worst_res:.3e} exceeds {1e-4}")


def gauss_residual(f: PointFields, base_r=None) -> float:
    """Hypersurface comparison on horizontal arguments:

        R(X,Y,Z,U) = R_base(X,Y,Z,U) + g(phi X, Z) g(phi Y, U)
                                     - g(phi Y, Z) g(phi X, U)

    ``base_r`` supplies the (0,4) curvature of the horizontal leaf at f.p
    (zeros when omitted, i.e. a flat leaf).
    """
    require_sasaki_like(f)
    r = f.curvature.r
    gphi = f.g @ f.phi
    rhs = np.einsum("ik,jl->ijkl", gphi, gphi) - np.einsum("jk,il->ijkl", gphi, gphi)
    rh = np.zeros_like(r) if base_r is None else np.asarray(base_r)
    return float(np.max(np.abs(project_all(r - rh - rhs, f.proj))))


def second_fundamental_form_residual(f: PointFields) -> float:
    """g(nabla_X xi, Y) + gtilde(X, Y) on horizontal X, Y."""
    resid = project_all(np.einsum("ik,kj->ij", f.nabla_xi, f.g) + f.gtilde, f.proj)
    return float(np.max(np.abs(resid)))


def cone_residuals_at(f: PointFields, r) -> dict:
    """Residuals of the complex cone at the cone point (f.p, r):
    "holomorphic", max |g_cone((nabla J) y, z)| over frame triples, and the
    closed-form cone connection components ("line", e.g.
    g_cone(nabla_X Y, d/dr) = -r g(X, Y) and g_cone(nabla_X d/dr, Z)
    = r g(X, Z) on horizontal arguments) and (nabla_X J) xi ("dj_xi"),
    each against the Koszul solution on the cone."""
    cone = ConeModel(f.s)
    d = f.dim
    p = np.concatenate([f.p, [r]])
    gamma = levi_civita(cone, p).gamma
    G = cone.metric_at(p)
    nj = covariant_derivative(gamma, cone.j_at(p), cone.j_derivs_at(p))
    low = np.einsum("iab,al->ibl", nj, G)

    # displayed connection components (horizontal projections)
    proj = f.proj
    xic = np.zeros(d + 1)
    xic[:d] = f.xi
    nab = np.einsum("abm,ml->abl", gamma, G)
    nab_b = np.einsum("abm,mk->abk", f.gamma, f.g)
    gp = proj.T @ f.g @ proj
    r2 = r * r

    hor3 = project_all(nab[:d, :d, :d], proj) - r2 * project_all(nab_b, proj)
    l2 = project_all(nab[:d, :d, d], proj) + r * gp
    l7 = project_all(nab[:d, d, :d], proj) - r * gp
    l8 = project_all(nab[d, :d, :d], proj) - r * gp
    l3 = project_all(np.einsum("abl,l->ab", nab[:d, :d, :], xic)
                     - r2 * np.einsum("abk,k->ab", nab_b, f.xi)
                     - 0.5 * (r2 - 1.0) * f.d_eta, proj)
    nxz_cone = (f.xi @ gamma[:d, :d] @ G)[:, :d]
    nxz_base = f.xi @ f.gamma @ f.g
    l4 = project_all(nxz_cone - r2 * nxz_base + 0.5 * (r2 - 1.0) * f.d_eta, proj)

    # on horizontal X, Z:
    #   g_cone((nabla_X J) xi, Z) = -r^2 { g(nabla_X xi, phi Z) - g(X, Z) }
    #                               + (r^2 - 1)/2 d eta(X, phi Z)
    direct = (proj.T @ (nj[:d] @ xic) @ G)[:, :d] @ proj
    nxi_low = np.einsum("ik,kj->ij", f.nabla_xi, f.g)
    closed = -r2 * (np.einsum("ia,ak->ik", nxi_low, f.phi) - f.g) \
        + 0.5 * (r2 - 1.0) * np.einsum("ia,ak->ik", f.d_eta, f.phi)
    closed = project_all(closed, proj)
    return {
        "holomorphic": float(np.max(np.abs(low))),
        "line": {
            "horizontal_block": float(np.max(np.abs(hor3))),
            "radial_second_slot": float(np.max(np.abs(l2))),
            "radial_argument": float(np.max(np.abs(l7))),
            "radial_direction": float(np.max(np.abs(l8))),
            "xi_second_slot": float(np.max(np.abs(l3))),
            "xi_argument": float(np.max(np.abs(l4))),
        },
        "dj_xi": {"direct_vs_symmetric_reading": float(np.max(np.abs(direct - closed)))},
    }


def cone_holomorphic_residual(fields, count, seed) -> dict:
    """The max_over_points of cone_residuals_at over count cone points, point
    k at radius ConeModel.radii(count, seed)[k] over fields[k % len(fields)],
    the PointFields of the structure's sample points; and "per_point", the
    list of each point's {"r", "residual"}, its "holomorphic" residual."""
    at = [(r, cone_residuals_at(f, r)) for f, r in ConeModel.cone_points(fields, count, seed)]
    return {**max_over_points([res for _, res in at], lambda res: res),
            "per_point": [{"r": r, "residual": res["holomorphic"]} for r, res in at]}
