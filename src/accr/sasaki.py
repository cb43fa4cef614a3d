"""Sasaki-like certification.

A structure is Sasaki-like when the structure tensor satisfies

    F(X,Y,Z) = F(xi,Y,Z) = F(xi,xi,Z) = 0,   F(X,Y,xi) = -g(X,Y)

on horizontal arguments; equivalently (nabla_x phi) y = -g(x,y) xi
- eta(y) x + 2 eta(x) eta(y) xi, equivalently N = 0 together with
Nhat = -4 (gtilde - eta x eta) (x) xi.  A third, geometric route: the
complex cone must carry a parallel complex structure.  All three are
evaluated here as residuals, along with the curvature identities and the
Gauss comparison that follow.  Every residual function reads the
PointFields of a block of points and gives its values at each point;
cone_residuals_at solves ConeModel(f), the cone over f's points, at its
points (r,), and cone_holomorphic_residual maximises those over the cone
points, as the cone rows of verify and the cone command report them.
"""

from __future__ import annotations

import numpy as np

from .connection import covariant_derivative, levi_civita
from .errors import NotSasakiLike
from .frame_algebra import max_abs, project_all
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


def _t(m):
    """The transpose of the last two axes."""
    return np.swapaxes(m, -1, -2)


def check_defining_conditions(f: PointFields) -> dict:
    """Residuals of the four defining conditions on projected arguments,
    each the max at each point of f."""
    F, xi, proj = f.F, f.xi, f.proj
    fhhh = project_all(F, proj)
    f_xi_first = np.einsum("...a,...ajk->...jk", xi, F)
    f_xi_xi = np.einsum("...a,...b,...abk->...k", xi, xi, F)
    fh = np.einsum("...ija,...a->...ij", F, xi)
    return {
        "f_horizontal": max_abs(fhhh, 3),
        "f_xi_first_slot": max_abs(project_all(f_xi_first, proj), 2),
        "f_xi_xi": max_abs(project_all(f_xi_xi, proj), 1),
        "f_equals_minus_g": max_abs(project_all(fh, proj) + f.g_h, 2),
    }


def check_nabla_phi(f: PointFields):
    """Residual of F(x,y,z) = g(phi x, phi y) eta(z) + g(phi x, phi z) eta(y),
    the max at each point."""
    gpp, eta = f.gpp, f.eta
    rhs = gpp[..., None] * eta[..., None, None, :] + gpp[..., :, None, :] * eta[..., None, :, None]
    return max_abs(f.F - rhs, 3)


def check_nijenhuis_form(f: PointFields) -> dict:
    """N = 0 and Nhat = -4 (gtilde - eta x eta) (x) xi, bracket route, each
    the max at each point."""
    n, nhat = f.nijenhuis_bracket
    shape = (f.gtilde - f.ee)[..., None] * f.eta[..., None, None, :]
    return {
        "n_zero": max_abs(n, 3),
        "nhat_form": max_abs(nhat + 4.0 * shape, 3),
        "nhat_xi_slot": max_abs(np.einsum("...a,...ajk->...jk", f.xi, nhat), 2),
    }


def check_corollary(f: PointFields) -> dict:
    """Consequences: eta closed, geodesic xi, theta = -2n eta, theta* = 0,
    [X, xi] horizontal, and nabla_xi X = -phi X - [X, xi]; each the max at
    each point."""
    n = f.s.n
    nabla_xi_xi = np.einsum("...i,...ik->...k", f.xi, f.nabla_xi)

    # brackets of projected frame fields with xi, including derivative terms
    W = f.proj
    DW = -f.dxi[..., None] * f.eta[..., None, None, :] \
        - f.xi[..., None, :, None] * f.deta[..., :, None, :]
    bracket = (
        np.einsum("...aj,...b,...kab->...jk", W, f.xi, f.c)
        + np.einsum("...aj,...ak->...jk", W, f.dxi)
        - np.einsum("...b,...bkj->...jk", f.xi, DW)
    )
    nabla_xi_X = np.einsum("...i,...ikj->...kj", f.xi, DW) \
        + np.einsum("...i,...iak,...aj->...kj", f.xi, f.gamma, W)
    phi_X = f.phi @ W
    vertical_residual = np.einsum("...k,...jk->...j", f.eta, bracket)
    transport = _t(nabla_xi_X) + _t(phi_X) + bracket

    return {
        "d_eta": max_abs(f.d_eta, 2),
        "nabla_xi_xi": max_abs(nabla_xi_xi, 1),
        "theta_plus_2n_eta": max_abs(f.theta + 2.0 * n * f.eta, 1),
        "theta_star": max_abs(f.theta_star, 1),
        "bracket_xi_horizontal": max_abs(vertical_residual, 1),
        "nabla_xi_transport": max_abs(transport, 2),
    }


def curvature_identity_residuals(f: PointFields, base_ric=None) -> dict:
    """Curvature identities of Sasaki-like structures, each the max at each
    point of f.

    phi-commutation:
        R(x,y,phi z,u) - R(x,y,z,phi u)
          = [g(y,z) - 2 eta(y) eta(z)] g(x, phi u)
          + [g(y,u) - 2 eta(y) eta(u)] g(x, phi z)
          - [g(x,z) - 2 eta(x) eta(z)] g(y, phi u)
          - [g(x,u) - 2 eta(x) eta(u)] g(y, phi z)

    plus R(x,y) xi = eta(y) x - eta(x) y, R(xi,X) xi = -X,
    Ric(y,xi) = 2n eta(y), Ric(xi,xi) = 2n,
    R(x,y,xi,z) = eta(y) g(x,z) - eta(x) g(y,z), and, when the leaf Ricci
    is supplied (at f's points), Ric(Y,Z) = Ric_base(Y,Z) on horizontal
    arguments.  The four-index terms are broadcast products and matmuls.
    """
    n = f.s.n
    cur = f.curvature
    r_up, ric = cur.r_up, cur.ric
    g, phi, eta, xi, proj = f.g, f.phi, f.eta, f.xi, f.proj
    at = lambda t: t[..., None, None, :, :]     # a (d, d) tensor against the last two slots
    gphi = f.gphi

    # R(x,y,phi z,u) - R(x,y,z,phi u) at [i,j,k,l] is phi^T r - r phi in (k, l), with
    # r = r_up g: (phi^T r_up) g - r_up (g phi), so that r itself is not made
    lhs = at(_t(phi)) @ r_up
    lhs = lhs @ at(g)
    buf = r_up @ at(gphi)
    lhs -= buf
    # minus a2[j,k] gphi[i,l] + a2[j,l] gphi[i,k] and their (i, j) swaps, each
    # a view of the one product in buf
    a2 = g - 2.0 * f.ee
    np.multiply(a2[..., None, :, :, None], gphi[..., :, None, None, :], out=buf)
    lhs -= buf
    lhs -= _t(buf)
    lhs += np.swapaxes(buf, -4, -3)
    lhs += np.swapaxes(_t(buf), -4, -3)
    del buf
    curf = max_abs(lhs, 4)
    del lhs

    eye = np.eye(f.dim)
    r_xy_xi = np.einsum("...ijkl,...k->...ijl", r_up, xi)
    expected = eta[..., None, :, None] * eye[:, None, :] \
        - eta[..., :, None, None] * eye[None, :, :]
    cur_xi = max_abs(r_xy_xi - expected, 3)

    t = np.einsum("...i,...k,...ijkl->...jl", xi, xi, r_up)
    r_xi_x_xi = max_abs(_t(proj) @ t + _t(proj), 2)

    ric_xi_xi = np.abs(np.einsum("...a,...b,...ab->...", xi, xi, ric) - 2.0 * n)
    ric_y_xi = max_abs(np.einsum("...ab,...b->...a", ric, xi) - 2.0 * n * eta, 1)

    r_xi_slot = r_xy_xi @ g[..., None, :, :]
    exp2 = eta[..., None, :, None] * g[..., :, None, :] \
        - eta[..., :, None, None] * g[..., None, :, :]
    r_xyxiz = max_abs(r_xi_slot - exp2, 3)

    out = {
        "phi_commutation": curf,
        "r_xy_xi": cur_xi,
        "r_xi_x_xi": r_xi_x_xi,
        "ric_xi_xi": ric_xi_xi,
        "ric_y_xi": ric_y_xi,
        "r_xi_third_slot": r_xyxiz,
    }
    if base_ric is not None:
        out["horizontal_ricci"] = max_abs(project_all(ric - base_ric, proj), 2)
    return out


def require_sasaki_like(f: PointFields, points=None):
    """Raise NotSasakiLike unless the defining conditions hold to 1e-4 at
    the first points points of f (all of them by default), the
    precondition of the Gauss comparison and of the conformal laws; the
    message gives the first point's residual that does not."""
    defect = np.ravel(worst(check_defining_conditions(f).values()))[:points]
    bad = defect[~(defect <= 1e-4)]
    if bad.size:
        raise NotSasakiLike(f"defining residual {bad[0]:.3e} exceeds {1e-4}")


def gauss_residual(f: PointFields, base_r=None):
    """Hypersurface comparison on horizontal arguments:

        R(X,Y,Z,U) = R_base(X,Y,Z,U) + g(phi X, Z) g(phi Y, U)
                                     - g(phi Y, Z) g(phi X, U)

    ``base_r`` supplies the (0,4) curvature of the horizontal leaf at f's
    points (zeros when omitted, i.e. a flat leaf); the max at each point.
    """
    require_sasaki_like(f)
    t = f.curvature.r       # a new array at each read: the difference is formed in it
    if base_r is not None:
        t -= base_r
        del base_r
    gphi = f.gphi
    # minus gphi[i,k] gphi[j,l] - gphi[j,k] gphi[i,l] = s - s^T(ij)
    s = gphi[..., :, None, :, None] * gphi[..., None, :, None, :]
    t -= s
    t += np.swapaxes(s, -4, -3)
    del s
    return max_abs(project_all(t, f.proj), 4)


def second_fundamental_form_residual(f: PointFields):
    """g(nabla_X xi, Y) + gtilde(X, Y) on horizontal X, Y, the max at each
    point."""
    return max_abs(project_all(f.nabla_xi @ f.g + f.gtilde, f.proj), 2)


def cone_residuals_at(f: PointFields, r) -> dict:
    """Residuals of the complex cone over f's points, ConeModel(f), at its
    points (r,), r of the shape of f's leading axes: "holomorphic", max
    |g_cone((nabla J) y, z)| over frame triples, and the closed-form cone
    connection components ("line", e.g. g_cone(nabla_X Y, d/dr) = -r g(X, Y)
    and g_cone(nabla_X d/dr, Z) = r g(X, Z) on horizontal arguments) and
    (nabla_X J) xi ("dj_xi"), each against the Koszul solution on the cone;
    every value the max at each cone point."""
    cone = ConeModel(f)
    d = f.dim
    p = np.asarray(r, dtype=float)[..., None]
    conn = levi_civita(cone, p)
    gamma, G = conn.gamma, conn.g
    nj = covariant_derivative(gamma, cone.j_at(p), cone.j_derivs_at(p))
    low = _t(nj) @ G[..., None, :, :]

    # displayed connection components (horizontal projections)
    proj, xi = f.proj, f.xi
    nab = gamma @ G[..., None, :, :]
    nab_b = f.gamma @ f.g[..., None, :, :]
    gp = f.g_h
    r = np.asarray(r, dtype=float)[..., None, None]
    r2 = r * r
    on_xi = lambda t: np.einsum("...abl,...l->...ab", t, xi)

    hor3 = project_all(nab[..., :d, :d, :d], proj) - r2[..., None] * project_all(nab_b, proj)
    l2 = project_all(nab[..., :d, :d, d], proj) + r * gp
    l7 = project_all(nab[..., :d, d, :d], proj) - r * gp
    l8 = project_all(nab[..., d, :d, :d], proj) - r * gp
    l3 = project_all(on_xi(nab[..., :d, :d, :d]) - r2 * on_xi(nab_b)
                     - 0.5 * (r2 - 1.0) * f.d_eta, proj)
    nxz_cone = (np.einsum("...j,...ijm->...im", xi, gamma[..., :d, :d, :]) @ G)[..., :d]
    nxz_base = np.einsum("...j,...ijm->...im", xi, f.gamma) @ f.g
    l4 = project_all(nxz_cone - r2 * nxz_base + 0.5 * (r2 - 1.0) * f.d_eta, proj)

    # on horizontal X, Z:
    #   g_cone((nabla_X J) xi, Z) = -r^2 { g(nabla_X xi, phi Z) - g(X, Z) }
    #                               + (r^2 - 1)/2 d eta(X, phi Z)
    direct = (_t(proj) @ on_xi(nj[..., :d, :, :d]) @ G)[..., :d] @ proj
    closed = -r2 * (f.nabla_xi @ f.g @ f.phi - f.g) + 0.5 * (r2 - 1.0) * (f.d_eta @ f.phi)
    closed = project_all(closed, proj)
    return {
        "holomorphic": max_abs(low, 3),
        "line": {
            "horizontal_block": max_abs(hor3, 3),
            "radial_second_slot": max_abs(l2, 2),
            "radial_argument": max_abs(l7, 2),
            "radial_direction": max_abs(l8, 2),
            "xi_second_slot": max_abs(l3, 2),
            "xi_argument": max_abs(l4, 2),
        },
        "dj_xi": {"direct_vs_symmetric_reading": max_abs(direct - closed, 2)},
    }


def cone_holomorphic_residual(fields, count, seed) -> dict:
    """The max_over_points of cone_residuals_at over count cone points: point
    k at radius ConeModel.radii(count, seed)[k] over the (k % N)-th of the N
    points that fields, the PointFields of consecutive blocks of the
    structure's sample points, hold, the cone points over one block solved
    as one block (a block of one point broadcast against their radii); and
    "per_point", the list of each cone point's {"r", "residual"}, its
    "holomorphic" residual."""
    starts = np.cumsum([0, *(len(f.p) if f.p.ndim > 1 else 1 for f in fields)])
    base, radii = zip(*ConeModel.cone_points(range(starts[-1]), count, seed))
    base, holomorphic, blocks = np.array(base), np.empty(len(radii)), []
    for f, lo, hi in zip(fields, starts, starts[1:]):
        ks = np.flatnonzero((base >= lo) & (base < hi))
        if ks.size:
            one = f.p.shape[:-1] == (1,)
            res = cone_residuals_at(f if one else f.take(base[ks] - lo), np.take(radii, ks))
            holomorphic[ks] = res["holomorphic"]
            blocks.append(res)
    return {**max_over_points(blocks, lambda res: res),
            "per_point": [{"r": r, "residual": float(h)} for r, h in zip(radii, holomorphic)]}
