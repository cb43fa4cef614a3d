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

from .connection import CurvatureBundle, covariant_derivative, levi_civita, riemann
from .frame_algebra import standard_j

__all__ = [
    "AccrStructure",
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


def _larger(a, b):
    return a if (a >= b or a != a) else b    # a NaN on either side wins


def worst(values) -> float:
    """Largest of the values; NaN if any of them is NaN."""
    return reduce(_larger, map(float, values))


def max_over_points(points, residuals_at) -> dict:
    """{key: max over the points of residuals_at(p)[key]}, aggregating a
    dict of residuals key by key.  The one aggregation over sample points in
    the package: NaN and inf propagate, so a residual that could not be
    computed never reads as small."""
    out: dict = {}

    def merge(into, new):
        for key, val in new.items():
            if isinstance(val, dict):
                merge(into.setdefault(key, {}), val)
            else:
                into[key] = float(val) if key not in into else _larger(into[key], float(val))

    for p in points:
        merge(out, residuals_at(p))
    return out


def field_at(field, p):
    """A field of the point, a constant or a callable of p, read at p."""
    return field(p) if callable(field) else field


def field_derivs_at(field, model, p):
    """Frame derivatives e_i(field) at p, shape (dim, *shape); exact zeros
    for a constant."""
    if callable(field):
        return model.frame_derivative(p, lambda q: np.asarray(field(q), dtype=float))
    return np.zeros((model.dim,) + np.shape(field))


@dataclass
class AccrStructure:
    """(phi, xi, eta) attached to a model carrying g.

    Fields may be constant float arrays (the usual case: adapted frames make
    all structure components constant) or callables of the point returning
    them, read through field_at and field_derivs_at.
    """

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


class PointFields:
    """Lazy cache of everything the identity checks need at one point: the
    one input of every residual function, so each tensor is computed once."""

    def __init__(self, structure: AccrStructure, p):
        self.s = structure
        self.p = np.asarray(p, dtype=float)
        self.dim = structure.dim

    @cached_property
    def g(self):
        return self.s.model.metric_at(self.p)

    @cached_property
    def ginv(self):
        return np.linalg.inv(self.g)

    @cached_property
    def dg(self):
        return self.s.model.metric_derivs_at(self.p)

    @cached_property
    def c(self):
        return self.s.model.commutators_at(self.p)

    @cached_property
    def conn(self):
        return levi_civita(self.s.model, self.p)

    @cached_property
    def gamma(self):
        return self.conn.gamma

    @cached_property
    def phi(self):
        return field_at(self.s.phi, self.p)

    @cached_property
    def dphi(self):
        return field_derivs_at(self.s.phi, self.s.model, self.p)

    @cached_property
    def xi(self):
        return field_at(self.s.xi, self.p)

    @cached_property
    def dxi(self):
        return field_derivs_at(self.s.xi, self.s.model, self.p)

    @cached_property
    def eta(self):
        return field_at(self.s.eta, self.p)

    @cached_property
    def deta(self):
        return field_derivs_at(self.s.eta, self.s.model, self.p)

    @cached_property
    def gtilde(self):
        return self.g @ self.phi + np.outer(self.eta, self.eta)

    @cached_property
    def proj(self):
        """Horizontal projector P = Id - eta (x) xi acting on vectors."""
        return np.eye(self.dim) - np.outer(self.xi, self.eta)

    @cached_property
    def nabla_phi(self):
        """nphi[i, k, j]: e_k coefficient of (nabla_i phi) e_j."""
        return covariant_derivative(self.gamma, self.phi, self.dphi)

    @cached_property
    def F(self):
        """F[i, j, l] = g((nabla_i phi) e_j, e_l)."""
        return np.einsum("ikj,kl->ijl", self.nabla_phi, self.g)

    @cached_property
    def theta(self):
        """theta(z): full g-trace of F over the first two slots minus the
        xi-xi contribution (equals the horizontal orthonormal-frame sum)."""
        full = np.einsum("ab,abk->k", self.ginv, self.F)
        return full - np.einsum("a,b,abk->k", self.xi, self.xi, self.F)

    @cached_property
    def theta_star(self):
        return np.einsum("ab,cb,ack->k", self.ginv, self.phi, self.F)

    @cached_property
    def nabla_eta(self):
        return self.deta - np.einsum("k,ijk->ij", self.eta, self.gamma)

    @cached_property
    def nabla_xi(self):
        return self.dxi + np.einsum("imk,m->ik", self.gamma, self.xi)

    @cached_property
    def d_eta(self):
        de = self.deta - self.deta.T
        return de - np.einsum("m,mij->ij", self.eta, self.c)

    @cached_property
    def lie_xi_g(self):
        """(L_xi g)(x, y) = g(nabla_x xi, y) + g(x, nabla_y xi)."""
        a = np.einsum("ik,kj->ij", self.nabla_xi, self.g)
        return a + a.T

    @cached_property
    def nijenhuis_bracket(self):
        """Route A: N from brackets, Nhat from symmetric brackets."""
        phi, dphi, c, g = self.phi, self.dphi, self.c, self.g
        phi2 = phi @ phi
        S = self.gamma + np.einsum("ijk->jik", self.gamma)

        br_pp = (
            np.einsum("ai,bj,kab->kij", phi, phi, c)
            + np.einsum("ai,akj->kij", phi, dphi)
            - np.einsum("bj,bki->kij", phi, dphi)
        )
        phi2_br = np.einsum("mij,km->kij", c, phi2)
        phi_br_l = np.einsum("km,ai,maj->kij", phi, phi, c) - np.einsum("km,jmi->kij", phi, dphi)
        phi_br_r = np.einsum("km,bj,mib->kij", phi, phi, c) + np.einsum("km,imj->kij", phi, dphi)
        n_up = br_pp + phi2_br - phi_br_l - phi_br_r + np.einsum("ij,k->kij", self.d_eta, self.xi)

        sym_pp = (
            np.einsum("ai,bj,abk->kij", phi, phi, S)
            + np.einsum("ai,akj->kij", phi, dphi)
            + np.einsum("bj,bki->kij", phi, dphi)
        )
        phi2_sym = np.einsum("ijm,km->kij", S, phi2)
        phi_sym_l = np.einsum("km,ai,ajm->kij", phi, phi, S) + np.einsum("km,jmi->kij", phi, dphi)
        phi_sym_r = np.einsum("km,bj,ibm->kij", phi, phi, S) + np.einsum("km,imj->kij", phi, dphi)
        nhat_up = sym_pp + phi2_sym - phi_sym_l - phi_sym_r \
            + np.einsum("ij,k->kij", self.lie_xi_g, self.xi)

        lower = lambda t: np.einsum("kij,kl->ijl", t, g)
        return lower(n_up), lower(nhat_up)

    @cached_property
    def nijenhuis_from_F(self):
        """Route B: both tensors from the structure tensor F."""
        F, phi, eta, xi = self.F, self.phi, self.eta, self.xi
        f_phi_first = np.einsum("ai,ajk->ijk", phi, F)
        f_phi_last = np.einsum("ija,ak->ijk", F, phi)
        f_xi = np.einsum("iab,aj,b->ij", F, phi, xi)

        sym1 = f_phi_first + np.einsum("jik->ijk", f_phi_first)
        asym1 = f_phi_first - np.einsum("jik->ijk", f_phi_first)
        sym3 = f_phi_last + np.einsum("jik->ijk", f_phi_last)
        asym3 = f_phi_last - np.einsum("jik->ijk", f_phi_last)
        n = asym1 - asym3 + np.einsum("k,ij->ijk", eta, f_xi - f_xi.T)
        nhat = sym1 - sym3 + np.einsum("k,ij->ijk", eta, f_xi + f_xi.T)
        return n, nhat

    @cached_property
    def curvature(self) -> CurvatureBundle:
        # the second jets are read for this call, not kept: a pass holds its fields
        m, p = self.s.model, self.p
        return riemann(self.g, self.ginv, self.dg, self.c, m.metric_derivs2_at(p),
                       m.commutator_derivs_at(p), self.gamma, self.phi)


def validate_structure(f: PointFields) -> dict:
    """Residuals of every structure axiom at f.p.  Reports, never raises."""
    phi, xi, eta, g = f.phi, f.xi, f.eta, f.g
    phi2 = phi @ phi
    compat = np.einsum("ai,bj,ab->ij", phi, phi, g) + g - np.outer(eta, eta)
    out = {
        "phi_xi": float(np.max(np.abs(phi @ xi))),
        "phi_squared": float(np.max(np.abs(phi2 + np.eye(f.dim) - np.outer(xi, eta)))),
        "eta_phi": float(np.max(np.abs(eta @ phi))),
        "eta_xi": float(abs(eta @ xi - 1.0)),
        "metric_compat": float(np.max(np.abs(compat))),
        "gtilde_symmetry": float(np.max(np.abs(f.gtilde - f.gtilde.T))),
    }
    ok_g = np.linalg.eigvalsh(g)
    ok_gt = np.linalg.eigvalsh(f.gtilde)
    want = (f.s.n + 1, f.s.n)
    sig = lambda ev: (int(np.sum(ev > 0)), int(np.sum(ev < 0)))
    out["signature_g"] = 0.0 if sig(ok_g) == want else 1.0
    out["signature_gtilde"] = 0.0 if sig(ok_gt) == want else 1.0
    return out


def theorem_3_4_residual(f: PointFields) -> float:
    """Reconstruction of F from the two Nijenhuis tensors:

    F(x,y,z) = -1/4 [N(phi x,y,z) + N(phi x,z,y)
                     + Nhat(phi x,y,z) + Nhat(phi x,z,y)]
               + 1/2 eta(x) [N(xi,y,phi z) + Nhat(xi,y,phi z)
                             + eta(z) Nhat(xi,xi,phi y)]

    evaluated with the bracket-route tensors, so both sides are
    independent computations.
    """
    n, nhat = f.nijenhuis_bracket
    phi, eta, xi = f.phi, f.eta, f.xi
    n_phi = np.einsum("ai,ajk->ijk", phi, n)
    nhat_phi = np.einsum("ai,ajk->ijk", phi, nhat)
    sym = lambda t: t + np.einsum("ikj->ijk", t)
    n_xi_phi = np.einsum("a,ajb,bk->jk", xi, n, phi)
    nhat_xi_phi = np.einsum("a,ajb,bk->jk", xi, nhat, phi)
    nhat_xi_xi_phi = np.einsum("a,b,abc,cj->j", xi, xi, nhat, phi)
    rhs = -0.25 * (sym(n_phi) + sym(nhat_phi)) + 0.5 * np.einsum(
        "i,jk->ijk",
        eta,
        n_xi_phi + nhat_xi_phi + np.einsum("k,j->jk", eta, nhat_xi_xi_phi),
    )
    return float(np.max(np.abs(f.F - rhs)))


def structure_property_residuals(f: PointFields) -> dict:
    """General identities satisfied on every accR manifold."""
    F, phi, eta, xi = f.F, f.phi, f.eta, f.xi
    phi2 = phi @ phi

    f_sym = np.max(np.abs(F - np.einsum("ikj->ijk", F)))
    f_phiphi = np.einsum("iab,aj,bk->ijk", F, phi, phi)
    f_xi_mid = np.einsum("iak,a->ik", F, xi)
    f_xi_last = np.einsum("ija,a->ij", F, xi)
    fprop = F - f_phiphi - np.einsum("j,ik->ijk", eta, f_xi_mid) \
        - np.einsum("k,ij->ijk", eta, f_xi_last)

    theta_rel = np.einsum("a,ak->k", f.theta_star, phi) \
        + np.einsum("a,ak->k", f.theta, phi2)

    nabla_eta_vs_f = f.nabla_eta - np.einsum("iab,aj,b->ij", F, phi, xi)
    nabla_eta_vs_xi = f.nabla_eta - np.einsum("ik,kj->ij", f.nabla_xi, f.g)

    n_bracket, nhat = f.nijenhuis_bracket
    n_from_f, nhat_from_f = f.nijenhuis_from_F
    fff = np.einsum("a,b,abk->k", xi, xi, F) \
        - 0.5 * np.einsum("a,b,abc,ck->k", xi, xi, nhat, phi)

    return {
        "f_last_two_symmetry": float(f_sym),
        "f_phi_phi_relation": float(np.max(np.abs(fprop))),
        "theta_star_phi_relation": float(np.max(np.abs(theta_rel))),
        "nabla_eta_from_f": float(np.max(np.abs(nabla_eta_vs_f))),
        "nabla_eta_from_xi": float(np.max(np.abs(nabla_eta_vs_xi))),
        "f_xixi_vs_nhat": float(np.max(np.abs(fff))),
        "nijenhuis_route_gap_n": float(np.max(np.abs(n_bracket - n_from_f))),
        "nijenhuis_route_gap_nhat": float(np.max(np.abs(nhat - nhat_from_f))),
    }
