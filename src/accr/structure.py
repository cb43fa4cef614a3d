"""Almost contact complex Riemannian structures.

An accR structure on an odd-dimensional model is a quadruple
(phi, xi, eta, g) obeying

    phi xi = 0,  phi^2 = -Id + eta (x) xi,  eta o phi = 0,  eta(xi) = 1,
    g(phi x, phi y) = -g(x, y) + eta(x) eta(y),

with the associated metric gtilde(x, y) = g(x, phi y) + eta(x) eta(y).
This module validates the axioms, computes the structure tensor
F(x, y, z) = g((nabla_x phi) y, z) with its trace 1-forms, and evaluates
both Nijenhuis tensors by two independent routes (vector-field brackets
versus closed-form expressions in F).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .connection import ConnectionCoefficients, CurvatureBundle, covariant_derivative
from .connection import levi_civita, riemann
from .frame_algebra import first_slot, last_slot, max_abs, project_all, standard_j

__all__ = [
    "AccrStructure",
    "Field",
    "standard_structure",
    "PointFields",
    "field_at",
    "field_derivs_at",
    "validate_structure",
    "theorem_3_4_residual",
    "structure_property_residuals",
    "max_over_points",
    "worst",
]


def worst(values):
    """Largest of the values, elementwise over arrays of per-point values;
    NaN wherever any of them is NaN."""
    return reduce(np.maximum, values)


def _merge(into, new):
    """Fold the nested residual dict new into into, key by key: by max, a
    list by concatenation.  A leaf is reduced by the array's own max and
    kept as a float; NaN wins over any number, on either side."""
    for key, val in new.items():
        if isinstance(val, dict):
            _merge(into.setdefault(key, {}), val)
        elif isinstance(val, list):
            into.setdefault(key, []).extend(val)
        else:
            val = float(val.max() if isinstance(val, np.ndarray) else val)
            old = into.get(key)
            into[key] = old if old is not None and (old >= val or old != old) else val


def max_over_points(blocks, residuals_at) -> dict:
    """{key: max over the blocks of residuals_at(block)[key]}, aggregating a
    dict of residuals key by key; each value is a number or an array of one
    value per point of the block, or a list, the block's parts of a value
    that is not a max, kept in block order.  The one aggregation over sample
    points in the package: NaN and inf propagate, so a residual that could
    not be computed never reads as small."""
    out: dict = {}
    for block in blocks:
        _merge(out, residuals_at(block))
    return out


@dataclass(frozen=True)
class Field:
    """A field that moves with the point: value(p) at the points p, shape
    (..., dim), over their leading axes, and its frame jet jet(model, p),
    e_i(field) in the frame of model, shape (..., dim, *shape)."""

    value: object
    jet: object


def field_at(field, p):
    """A field, a constant or a Field, read at the points p, shape (...,
    dim): a Field takes them all at once, and a constant is broadcast over
    their leading axes."""
    if isinstance(field, Field):
        return field.value(p)
    return np.broadcast_to(field, np.shape(p)[:-1] + np.shape(field))


def field_derivs_at(field, model, p):
    """Frame derivatives e_i(field) at the points p, shape (..., dim,
    *shape): a Field's jet, or a constant's zeros as a read-only broadcast."""
    if isinstance(field, Field):
        return field.jet(model, p)
    return np.broadcast_to(0.0, np.shape(p)[:-1] + (model.dim,) + np.shape(field))


@dataclass
class AccrStructure:
    """(phi, xi, eta) attached to a model carrying g, each a constant float
    array (the usual case: adapted frames make all structure components
    constant) or a Field, read through field_at and field_derivs_at, whose
    values at points (..., dim) have shape (..., d, d) or (..., d)."""

    model: object
    n: int
    phi: object
    xi: object
    eta: object

    @property
    def dim(self):
        return self.model.dim


def standard_structure(model, n) -> AccrStructure:
    """The adapted structure in a frame (xi, e_1..e_n, phi e_1..phi e_n)."""
    d = 2 * n + 1
    phi = np.zeros((d, d))
    phi[1:, 1:] = standard_j(n)
    e0 = np.eye(d)[0]
    return AccrStructure(model=model, n=n, phi=phi, xi=e0, eta=e0)


def _outer(a, b):
    """a (x) b over the leading axes of both."""
    return a[..., :, None] * b[..., None, :]


def _vec(m, v):
    """m v, a matrix on a vector, over the leading axes of both."""
    return (m @ v[..., None])[..., 0]


def _left(m, t):
    """m[k, a] t[a, i, j] at [k, i, j], over the leading axes of both."""
    out = m @ t.reshape(t.shape[:-2] + (-1,))
    return out.reshape(out.shape[:-1] + t.shape[-2:])


class PointFields:
    """Lazy cache of everything the identity checks need at a block of
    points p, shape (..., dim), one point being a block with no leading
    axes: the one input of every residual function, so each tensor is
    computed once.  Every array carries p's leading axes, and a residual
    function gives its values at each point."""

    def __init__(self, structure: AccrStructure, p):
        self.s = structure
        self.p = np.asarray(p, dtype=float)
        self.dim = structure.dim

    def take(self, rows):
        """The PointFields at the points rows (indices along p's leading
        axis), holding the arrays computed here, the solve's among them, at
        those rows."""
        carried = lambda val: (ConnectionCoefficients(*(x[rows] for x in vars(val).values()))
                               if isinstance(val, ConnectionCoefficients) else val[rows])
        out = PointFields(self.s, self.p[rows])
        out.__dict__.update({key: carried(val) for key, val in vars(self).items() if key != "p"
                             and isinstance(val, (np.ndarray, ConnectionCoefficients))})
        return out

    @cached_property
    def conn(self) -> ConnectionCoefficients:
        """The block's Koszul solve, the one reading of its first jets."""
        return levi_civita(self.s.model, self.p)

    # the block's first jets, as its solve read and computed them
    g = property(lambda self: self.conn.g)
    ginv = property(lambda self: self.conn.ginv)
    dg = property(lambda self: self.conn.dg)
    c = property(lambda self: self.conn.c)
    gamma = property(lambda self: self.conn.gamma)

    # the structure's fields at the block, and their frame derivatives
    phi = cached_property(lambda self: field_at(self.s.phi, self.p))
    dphi = cached_property(lambda self: field_derivs_at(self.s.phi, self.s.model, self.p))
    xi = cached_property(lambda self: field_at(self.s.xi, self.p))
    dxi = cached_property(lambda self: field_derivs_at(self.s.xi, self.s.model, self.p))
    eta = cached_property(lambda self: field_at(self.s.eta, self.p))
    deta = cached_property(lambda self: field_derivs_at(self.s.eta, self.s.model, self.p))

    # the g-phi-eta products, formed at each read: kept, they would raise a pass's peak memory
    ee = property(lambda self: _outer(self.eta, self.eta))
    gphi = property(lambda self: self.g @ self.phi)
    gpp = property(lambda self: np.swapaxes(self.phi, -1, -2) @ self.g @ self.phi)
    g_h = property(lambda self: np.swapaxes(self.proj, -1, -2) @ self.g @ self.proj)  # P^T g P

    @property
    def dee(self):
        """e_i(eta (x) eta) at [i, j, k]: deta[i, j] eta[k] + eta[j] deta[i, k]."""
        d = self.deta[..., None] * self.eta[..., None, None, :]
        return d + np.swapaxes(d, -1, -2)

    @cached_property
    def gtilde(self):
        return self.gphi + self.ee

    @cached_property
    def proj(self):
        """Horizontal projector P = Id - eta (x) xi acting on vectors."""
        return np.eye(self.dim) - _outer(self.xi, self.eta)

    @property
    def nabla_phi(self):
        """nphi[i, k, j]: e_k coefficient of (nabla_i phi) e_j; read by F
        alone, so not kept."""
        return covariant_derivative(self.gamma, self.phi, self.dphi)

    @cached_property
    def F(self):
        """F[i, j, l] = g((nabla_i phi) e_j, e_l)."""
        return np.swapaxes(self.nabla_phi, -1, -2) @ self.g[..., None, :, :]

    @cached_property
    def defining(self) -> dict:
        """sasaki.check_defining_conditions, kept: its rows, the Gauss
        precondition, the eta fit and crossrep's verdict all read them."""
        F, xi, proj = self.F, self.xi, self.proj
        f_xi_first = first_slot(xi, F)
        return {
            "f_horizontal": max_abs(project_all(F, proj), 3),
            "f_xi_first_slot": max_abs(project_all(f_xi_first, proj), 2),
            "f_xi_xi": max_abs(project_all(first_slot(xi, f_xi_first), proj), 1),
            "f_equals_minus_g": max_abs(project_all(last_slot(F, xi), proj) + self.g_h, 2),
        }

    @cached_property
    def theta(self):
        """theta(z): full g-trace of F over the first two slots minus the
        xi-xi contribution (equals the horizontal orthonormal-frame sum)."""
        F_ab = self.F.reshape(self.F.shape[:-3] + (-1, self.dim))     # F[(a, b), k]
        full = first_slot(self.ginv.reshape(F_ab.shape[:-1]), F_ab)
        return full - first_slot(self.xi, first_slot(self.xi, self.F))

    @cached_property
    def theta_star(self):
        F_ab = self.F.reshape(self.F.shape[:-3] + (-1, self.dim))
        m = self.ginv @ np.swapaxes(self.phi, -1, -2)                 # ginv[a, b] phi[c, b]
        return first_slot(m.reshape(F_ab.shape[:-1]), F_ab)

    @cached_property
    def nabla_eta(self):
        return self.deta - last_slot(self.gamma, self.eta)

    @cached_property
    def nabla_xi(self):
        return self.dxi + (self.xi[..., None, None, :] @ self.gamma)[..., 0, :]

    @cached_property
    def d_eta(self):
        de = self.deta - np.swapaxes(self.deta, -1, -2)
        return de - first_slot(self.eta, self.c)

    @cached_property
    def lie_xi_g(self):
        """(L_xi g)(x, y) = g(nabla_x xi, y) + g(x, nabla_y xi)."""
        a = self.nabla_xi @ self.g
        return a + np.swapaxes(a, -1, -2)

    @cached_property
    def nijenhuis_bracket(self):
        """Route A: N from brackets, Nhat from symmetric brackets, as matmuls
        over the points: at [k, i, j], the e_k components of the brackets of
        e_i and e_j."""
        phi, dphi, c, g = self.phi, self.dphi, self.c, self.g
        phi_t = np.swapaxes(phi, -1, -2)[..., None, :, :]
        phi_r = phi[..., None, :, :]
        phi2 = phi @ phi
        S = self.gamma + np.swapaxes(self.gamma, -3, -2)
        s_k = np.moveaxis(S, -1, -3)                     # s_k[k, a, b] = S[a, b, k]
        d_ji = np.moveaxis(dphi, -3, -1)                 # dphi[j, m, i] at [m, i, j]
        d_ij = np.swapaxes(dphi, -3, -2)                 # dphi[i, m, j] at [m, i, j]
        u = np.swapaxes(_left(np.swapaxes(phi, -1, -2), dphi), -3, -2)   # phi[a, i] dphi[a, k, j]

        br_pp = phi_t @ c @ phi_r + u - np.swapaxes(u, -1, -2)
        n_up = br_pp + _left(phi2, c) - _left(phi, phi_t @ c - d_ji) \
            - _left(phi, c @ phi_r + d_ij) \
            + self.d_eta[..., None, :, :] * self.xi[..., :, None, None]

        sym_pp = phi_t @ s_k @ phi_r + u + np.swapaxes(u, -1, -2)
        nhat_up = sym_pp + _left(phi2, s_k) - _left(phi, phi_t @ s_k + d_ji) \
            - _left(phi, s_k @ phi_r + d_ij) \
            + self.lie_xi_g[..., None, :, :] * self.xi[..., :, None, None]

        lower = lambda t: np.moveaxis(t, -3, -1) @ g[..., None, :, :]
        return lower(n_up), lower(nhat_up)

    @property
    def nijenhuis_from_F(self):
        """Route B: both tensors from the structure tensor F; read once per
        block, so not kept."""
        F, phi, eta, xi = self.F, self.phi, self.eta, self.xi
        f_phi_first = _left(np.swapaxes(phi, -1, -2), F)
        f_phi_last = F @ phi[..., None, :, :]
        f_xi = last_slot(F, xi) @ phi

        swap = lambda t: np.swapaxes(t, -3, -2)
        sym1 = f_phi_first + swap(f_phi_first)
        asym1 = f_phi_first - swap(f_phi_first)
        sym3 = f_phi_last + swap(f_phi_last)
        asym3 = f_phi_last - swap(f_phi_last)
        f_xi_t = np.swapaxes(f_xi, -1, -2)
        n = asym1 - asym3 + (f_xi - f_xi_t)[..., None] * eta[..., None, None, :]
        nhat = sym1 - sym3 + (f_xi + f_xi_t)[..., None] * eta[..., None, None, :]
        return n, nhat

    @cached_property
    def curvature(self) -> CurvatureBundle:
        # riemann reads the second jets and does not keep them: a pass holds its fields
        return riemann(self.s.model, self.p, self.conn, self.phi)


def validate_structure(f: PointFields) -> dict:
    """Residuals of every structure axiom at each point of f.  Reports,
    never raises."""
    phi, xi, eta, g = f.phi, f.xi, f.eta, f.g
    phi2 = phi @ phi
    compat = f.gpp + g - f.ee
    out = {
        "phi_xi": max_abs(_vec(phi, xi), 1),
        "phi_squared": max_abs(phi2 + np.eye(f.dim) - _outer(xi, eta), 2),
        "eta_phi": max_abs(_vec(np.swapaxes(phi, -1, -2), eta), 1),
        "eta_xi": np.abs(last_slot(eta, xi) - 1.0),
        "metric_compat": max_abs(compat, 2),
        "gtilde_symmetry": max_abs(f.gtilde - np.swapaxes(f.gtilde, -1, -2), 2),
    }
    want = (f.s.n + 1, f.s.n)
    for key, m in (("signature_g", g), ("signature_gtilde", f.gtilde)):
        ev = np.linalg.eigvalsh(m)
        same = (np.sum(ev > 0, axis=-1) == want[0]) & (np.sum(ev < 0, axis=-1) == want[1])
        out[key] = np.where(same, 0.0, 1.0)
    return out


def theorem_3_4_residual(f: PointFields):
    """Reconstruction of F from the two Nijenhuis tensors:

    F(x,y,z) = -1/4 [N(phi x,y,z) + N(phi x,z,y)
                     + Nhat(phi x,y,z) + Nhat(phi x,z,y)]
               + 1/2 eta(x) [N(xi,y,phi z) + Nhat(xi,y,phi z)
                             + eta(z) Nhat(xi,xi,phi y)]

    evaluated with the bracket-route tensors, so both sides are
    independent computations; the max at each point.
    """
    n, nhat = f.nijenhuis_bracket
    phi, eta, xi = f.phi, f.eta, f.xi
    n_phi, nhat_phi = (_left(np.swapaxes(phi, -1, -2), t) for t in (n, nhat))
    sym = lambda t: t + np.swapaxes(t, -1, -2)
    nhat_xi = first_slot(xi, nhat)
    n_xi_phi = first_slot(xi, n) @ phi
    nhat_xi_phi = nhat_xi @ phi
    nhat_xi_xi_phi = first_slot(first_slot(xi, nhat_xi), phi)
    inner = n_xi_phi + nhat_xi_phi + _outer(nhat_xi_xi_phi, eta)
    rhs = -0.25 * (sym(n_phi) + sym(nhat_phi)) \
        + 0.5 * eta[..., :, None, None] * inner[..., None, :, :]
    return max_abs(f.F - rhs, 3)


def structure_property_residuals(f: PointFields) -> dict:
    """General identities satisfied on every accR manifold, each the max at
    each point."""
    F, phi, eta, xi = f.F, f.phi, f.eta, f.xi
    phi2 = phi @ phi

    f_sym = F - np.swapaxes(F, -1, -2)
    f_phiphi = np.swapaxes(phi, -1, -2)[..., None, :, :] @ F @ phi[..., None, :, :]
    f_xi_mid = (xi[..., None, None, :] @ F)[..., 0, :]
    f_xi_last = last_slot(F, xi)
    fprop = F - f_phiphi - eta[..., None, :, None] * f_xi_mid[..., :, None, :] \
        - eta[..., None, None, :] * f_xi_last[..., :, :, None]

    theta_rel = _vec(np.swapaxes(phi, -1, -2), f.theta_star) \
        + _vec(np.swapaxes(phi2, -1, -2), f.theta)

    nabla_eta_vs_f = f.nabla_eta - f_xi_last @ phi
    nabla_eta_vs_xi = f.nabla_eta - f.nabla_xi @ f.g

    n_bracket, nhat = f.nijenhuis_bracket
    n_from_f, nhat_from_f = f.nijenhuis_from_F
    fff = first_slot(xi, first_slot(xi, F)) \
        - 0.5 * first_slot(first_slot(xi, first_slot(xi, nhat)), phi)

    return {
        "f_last_two_symmetry": max_abs(f_sym, 3),
        "f_phi_phi_relation": max_abs(fprop, 3),
        "theta_star_phi_relation": max_abs(theta_rel, 1),
        "nabla_eta_from_f": max_abs(nabla_eta_vs_f, 2),
        "nabla_eta_from_xi": max_abs(nabla_eta_vs_xi, 2),
        "f_xixi_vs_nhat": max_abs(fff, 1),
        "nijenhuis_route_gap_n": max_abs(n_bracket - n_from_f, 3),
        "nijenhuis_route_gap_nhat": max_abs(nhat - nhat_from_f, 3),
    }
