"""Contact conformal and homothetic transformations.

The transformation family

    eta_bar = e^w eta,   xi_bar = e^{-w} xi,
    g_bar(x, y) = e^{2u} cos 2v g(x, y) + e^{2u} sin 2v g(x, phi y)
                  + (e^{2w} - e^{2u} cos 2v) eta(x) eta(y)

maps accR structures to accR structures for arbitrary smooth u, v, w; when
the parameters are constant it is called contact homothetic.  This module
applies the transformation, expresses the Sasaki-like preservation
conditions as residuals, and verifies the closed-form transformation laws
of the connection, curvature, Ricci and scalar curvatures against direct
recomputation on the transformed metric.  The transformed structure lives
over one point: apply_cct(f, t) gives its PointFields at f.p from f, the
base's PointFields there, and the functions here take the two side by side.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonConstantParams
from .frame_algebra import standard_signature
from .models import ManifoldModel
from .sasaki import require_sasaki_like
from .structure import AccrStructure, PointFields, field_at, field_derivs_at, max_over_points

__all__ = [
    "TransformParams",
    "apply_cct",
    "preservation_at",
    "adapted_frame",
    "homothetic_laws",
    "EinsteinFit",
    "eta_complex_einstein_check",
]


@dataclass
class TransformParams:
    """Conformal data (u, v, w): constants or scalar fields of the point."""

    u: object = 0.0
    v: object = 0.0
    w: object = 0.0

    @property
    def is_constant(self) -> bool:
        return not (callable(self.u) or callable(self.v) or callable(self.w))

    def at(self, p):
        return float(field_at(self.u, p)), float(field_at(self.v, p)), float(field_at(self.w, p))

    def differentials_at(self, model, p):
        """(du_i, dv_i, dw_i) frame components; exact zeros for constants."""
        return tuple(field_derivs_at(x, model, p) for x in (self.u, self.v, self.w))


class TransformedModel(ManifoldModel):
    """The base model over the one point of f, the base structure's
    PointFields, with its metric replaced by g_bar = a g + b g phi + c eta (x)
    eta, a = e^{2u} cos 2v, b = e^{2u} sin 2v and c = e^{2w} - a, from f's g,
    phi and eta; its frame and brackets (f.c) are the base's.  Like ConeModel
    it answers for f.p at any point.  dg_bar is the product rule over f's dg,
    dphi and deta and the differentials of (u, v, w), taken once.  d^2 g_bar
    = a d^2 g + b d^2 g phi reads the base model's at f.p for that call only,
    and needs constant (u, v, w), phi and eta (else NonConstantParams).
    """

    def __init__(self, f: PointFields, params: TransformParams):
        self.f, self.params, self.dim, self.kind = f, params, f.dim, f.s.model.kind

    @cached_property
    def _coefs(self):
        """((a, b, c), (da, db, dc)) at f.p."""
        f = self.f
        u, v, w = self.params.at(f.p)
        du, dv, dw = self.params.differentials_at(f.s.model, f.p)
        e2u, e2w = math.exp(2 * u), math.exp(2 * w)
        a, b = e2u * math.cos(2 * v), e2u * math.sin(2 * v)
        da = 2 * (a * du - b * dv)
        return (a, b, e2w - a), (da, 2 * (b * du + a * dv), 2 * e2w * dw - da)

    def metric_at(self, p):
        f, (a, b, c) = self.f, self._coefs[0]
        return a * f.g + b * (f.g @ f.phi) + c * np.outer(f.eta, f.eta)

    def metric_derivs_at(self, p):
        f, ((a, b, c), (da, db, dc)) = self.f, self._coefs
        dee = np.einsum("ij,k->ijk", f.deta, f.eta)
        return (a * f.dg + b * (f.dg @ f.phi + f.g @ f.dphi) + c * (dee + dee.swapaxes(1, 2))
                + np.multiply.outer(da, f.g) + np.multiply.outer(db, f.g @ f.phi)
                + np.multiply.outer(dc, np.outer(f.eta, f.eta)))

    def metric_derivs2_at(self, p):
        s, (a, b, _) = self.f.s, self._coefs[0]
        if not self.params.is_constant or callable(s.phi) or callable(s.eta):
            raise NonConstantParams(
                "curvature of a transformed model needs constant (u, v, w), phi and eta")
        jet = s.model.metric_derivs2_at(self.f.p)
        return a * jet + b * (jet @ self.f.phi)

    def commutators_at(self, p):
        return self.f.c

    def commutator_derivs_at(self, p):
        return self.f.s.model.commutator_derivs_at(self.f.p)

    def frame_derivative(self, p, fn):
        return self.f.s.model.frame_derivative(p, fn)


def apply_cct(f: PointFields, t: TransformParams) -> PointFields:
    """The PointFields at f.p of the contact conformal transformation by t of
    the structure f holds: its model is TransformedModel(f, t), phi is the
    base's, xi_bar = e^{-w} xi and eta_bar = e^w eta.

    Lie-group models only admit constant parameters (anything else would
    silently break left invariance).  xi_bar and eta_bar are constants
    whenever w, xi and eta are, so their frame derivatives are exact zeros.
    """
    s = f.s
    if s.model.kind == "lie_group" and not t.is_constant:
        raise NonConstantParams("homogeneous models require constant (u, v, w)")
    if not (callable(t.w) or callable(s.xi) or callable(s.eta)):
        xi_bar = math.exp(-float(t.w)) * np.asarray(s.xi, dtype=float)
        eta_bar = math.exp(float(t.w)) * np.asarray(s.eta, dtype=float)
    else:
        xi_bar = lambda p: math.exp(-t.at(p)[2]) * field_at(s.xi, p)
        eta_bar = lambda p: math.exp(t.at(p)[2]) * field_at(s.eta, p)
    return PointFields(AccrStructure(model=TransformedModel(f, t), n=s.n, phi=s.phi,
                                     xi=xi_bar, eta=eta_bar), f.p)


def preservation_at(f: PointFields, fb: PointFields, t: TransformParams) -> dict:
    """Residuals at f.p of the Sasaki-like preservation conditions

        dw o phi = 0,
        du - dv o phi = 0,
        du o phi + dv = (1 - e^w) eta,

    their consequences du(xi) = 0 and dv(xi) = 1 - e^w, the auxiliary
    1-forms (zero exactly when the conditions hold), and a direct check:
    the structure tensor of the transformed metric (fb holds the transformed
    structure, f the base) must equal

        F_bar(x,y,z) = e^{w+2u} { cos 2v [eta(z) g(phi x, phi y)
                                          + eta(y) g(phi x, phi z)]
                                - sin 2v [eta(z) g(x, phi y)
                                          + eta(y) g(x, phi z)] }.
    """
    u, v, w = t.at(f.p)
    du, dv, dw = t.differentials_at(f.s.model, f.p)
    phi, eta = f.phi, f.eta
    cond1 = dw @ phi
    cond2 = du - dv @ phi
    cond3 = du @ phi + dv - (1.0 - math.exp(w)) * eta
    c2v, s2v = math.cos(2 * v), math.sin(2 * v)
    ew1 = math.exp(w) - 1.0
    a_form = c2v * (ew1 * eta + du @ phi + dv) + s2v * (du - dv @ phi)
    b_form = s2v * (ew1 * eta + du @ phi + dv) - c2v * (du - dv @ phi)

    gpp = np.einsum("ai,bj,ab->ij", phi, phi, f.g)
    gp = f.g @ phi
    target = math.exp(w + 2 * u) * (
        c2v * (np.einsum("ij,k->ijk", gpp, eta) + np.einsum("ik,j->ijk", gpp, eta))
        - s2v * (np.einsum("ij,k->ijk", gp, eta) + np.einsum("ik,j->ijk", gp, eta))
    )
    return {
        "dw_phi": np.max(np.abs(cond1)),
        "du_minus_dv_phi": np.max(np.abs(cond2)),
        "du_phi_plus_dv": np.max(np.abs(cond3)),
        "du_xi": abs(du @ f.xi),
        "dv_xi": abs(dv @ f.xi - (1.0 - math.exp(w))),
        "one_form_a": np.max(np.abs(a_form)),
        "one_form_b": np.max(np.abs(b_form)),
        "f_bar_direct": np.max(np.abs(fb.F - target)),
    }


def adapted_frame(f: PointFields) -> np.ndarray:
    """Columns (xi, b_1..b_n, phi b_1..phi b_n): a g-orthonormal adapted
    frame at f.p.  On ker eta, B(x, y) = g(x, y) + i g(x, phi y) is complex
    bilinear for i acting as -phi, and complex Gram-Schmidt for B on the
    horizontal parts of e_1..e_n gives B(b_i, b_j) = delta_ij, that is
    g(b_i, b_j) = delta_ij and g(b_i, phi b_j) = 0.  On a frame that is
    already adapted and orthonormal every step is exact: the identity."""
    g, phi = f.g, f.phi
    form = lambda x, y: complex(x @ g @ y, x @ g @ (phi @ y))
    times = lambda z, x: z.real * x - z.imag * (phi @ x)
    bs = []
    for i in range(1, f.s.n + 1):
        b = f.proj[:, i]
        for c in bs:
            b = b - times(form(b, c), c)
        bs.append(times(1.0 / cmath.sqrt(form(b, b)), b))
    return np.column_stack([f.xi, *bs, *(phi @ b for b in bs)])


def homothetic_laws(f: PointFields, fb: PointFields, t: TransformParams) -> dict:
    """Transformation laws of a homothetic transformation (constant u, v, w)
    of a Sasaki-like structure at f.p, checked against g_bar, its connection
    and its curvature as fb holds them:
      * the connection shift ("connection_formula")
          nabla_bar_x y = nabla_x y + e^{2(u-w)} sin 2v g(phi x, phi y) xi
                          - (1 - e^{2(u-w)} cos 2v) g(x, phi y) xi
        (the second coefficient is sometimes quoted as e^{-2w} - e^{2(u-w)}
        cos 2v, which agrees only at w = 0; matching the Koszul solution for
        g_bar on the group examples forces the constant term 1),
      * the closed-form (1,3) curvature shift,
      * Ricci invariance Ric_bar = Ric,
      * the scalar curvature laws
          Scal_bar  = e^{-2u} cos 2v Scal - e^{-2u} sin 2v Scal*
                      + (e^{-2w} - e^{-2u} cos 2v) Ric(xi, xi)
          Scal*_bar = e^{-2u} sin 2v Scal + e^{-2u} cos 2v Scal*
                      - e^{-2u} sin 2v Ric(xi, xi)
      * orthonormality of the rotated basis
          e_bar_i = e^{-u} (cos v e_i - sin v phi e_i)
        for g_bar, (xi, e_i, phi e_i) the adapted_frame of g at f.p, and the
        trace of Ric in that basis.
    """
    if not t.is_constant:
        raise NonConstantParams("closed-form transformation laws need constant (u, v, w)")
    u, v, w = t.at(f.p)
    phi, eta, xi = f.phi, f.eta, f.xi
    gpp = np.einsum("ai,bj,ab->ij", phi, phi, f.g)
    gp = f.g @ phi
    coef_a = math.exp(2 * (u - w)) * math.sin(2 * v)
    coef_b = 1.0 - math.exp(2 * (u - w)) * math.cos(2 * v)
    delta = np.einsum("ij,k->ijk", coef_a * gpp - coef_b * gp, xi)
    bundle, bundle_bar = f.curvature, fb.curvature

    term_a = (
        np.einsum("jk,i,l->ijkl", gp, eta, xi)
        - np.einsum("jk,li->ijkl", gpp, phi)
        - np.einsum("ik,j,l->ijkl", gp, eta, xi)
        + np.einsum("ik,lj->ijkl", gpp, phi)
    )
    term_b = (
        np.einsum("jk,i,l->ijkl", gpp, eta, xi)
        + np.einsum("jk,li->ijkl", gp, phi)
        - np.einsum("ik,j,l->ijkl", gpp, eta, xi)
        - np.einsum("ik,lj->ijkl", gp, phi)
    )
    r_up_formula = bundle.r_up + coef_a * term_a + coef_b * term_b

    e2u = math.exp(-2 * u)
    c2v, s2v = math.cos(2 * v), math.sin(2 * v)
    ric_xx = float(np.einsum("a,b,ab->", xi, xi, bundle.ric))
    scal_formula = e2u * c2v * bundle.scal - e2u * s2v * bundle.scal_star \
        + (math.exp(-2 * w) - e2u * c2v) * ric_xx
    scal_star_formula = e2u * s2v * bundle.scal + e2u * c2v * bundle.scal_star \
        - e2u * s2v * ric_xx

    n, d = f.s.n, f.dim
    frame = adapted_frame(f)
    basis = np.zeros((d, d))
    basis[:, 0] = math.exp(-w) * xi
    for i in range(1, n + 1):
        ei = frame[:, i]
        bi = math.exp(-u) * (math.cos(v) * ei - math.sin(v) * (phi @ ei))
        basis[:, i] = bi
        basis[:, n + i] = phi @ bi
    eps = standard_signature(n)
    ortho = float(np.max(np.abs(basis.T @ fb.g @ basis - np.diag(eps))))
    scal_basis = float(np.einsum("a,ia,ij,ja->", eps, basis, bundle_bar.ric, basis))
    phib = basis.copy()
    phib[:, 0] = 0.0
    for i in range(1, n + 1):
        phib[:, i] = phi @ basis[:, i]
        phib[:, n + i] = phi @ basis[:, n + i]
    scal_star_basis = float(np.einsum("a,ia,ij,ja->", eps, basis, bundle_bar.ric, phib))

    return {
        "connection_formula": float(np.max(np.abs(f.gamma + delta - fb.gamma))),
        "curvature_formula": float(np.max(np.abs(r_up_formula - bundle_bar.r_up))),
        "ricci_invariance": float(np.max(np.abs(bundle_bar.ric - bundle.ric))),
        "scal_formula": float(abs(scal_formula - bundle_bar.scal)),
        "scal_star_formula": float(abs(scal_star_formula - bundle_bar.scal_star)),
        "rotated_basis_orthonormal": ortho,
        "scal_from_basis": float(abs(scal_basis - bundle_bar.scal)),
        "scal_star_from_basis": float(abs(scal_star_basis - bundle_bar.scal_star)),
        "scal_bar": bundle_bar.scal,
        "scal_star_bar": bundle_bar.scal_star,
    }


@dataclass
class EinsteinFit:
    """Least-squares fit of Ric to alpha g + beta g(., phi .) + (2n - alpha) eta x eta.

    The two-parameter family is the Ricci shape reachable from an Einstein
    structure by homothetic transformations; (c, d) are the transformation
    constants recovered from (alpha, beta) when finite.
    """

    alpha: float
    beta: float
    residual: float
    c: float | None
    d: float | None
    classification: str
    to_einstein: dict | None
    einstein_residual: float | None


def eta_complex_einstein_check(fields, tol=1e-8) -> EinsteinFit:
    """Classify the Ricci tensor of a Sasaki-like structure from the
    PointFields of its sample points.

    classification: "einstein" ((c,d) = (1,0)), "eta_einstein" (d = 0),
    "eta_complex_einstein", or "none" when no constants fit.
    """
    n = fields[0].s.n
    require_sasaki_like(fields[0])
    ees = [np.outer(f.eta, f.eta) for f in fields]
    design = np.vstack([np.stack([(f.g - ee).ravel(), (f.g @ f.phi).ravel()], axis=1)
                        for f, ee in zip(fields, ees)])
    target = np.concatenate([(f.curvature.ric - 2.0 * n * ee).ravel()
                             for f, ee in zip(fields, ees)])
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    alpha, beta = float(coef[0]), float(coef[1])
    residual = float(np.max(np.abs(design @ coef - target)))

    norm2 = alpha * alpha + beta * beta
    if norm2 > 1e-12:
        c = 2.0 * n * alpha / norm2
        d = -2.0 * n * beta / norm2
    else:
        c = d = None

    if residual >= tol:
        cls = "none"
    elif abs(beta) < 1e-8 and abs(alpha - 2.0 * n) < 1e-6:
        cls = "einstein"
    elif abs(beta) < 1e-8:
        cls = "eta_einstein"
    else:
        cls = "eta_complex_einstein"

    to_einstein = None
    einstein_residual = None
    if cls != "none" and c is not None:
        cd2 = c * c + d * d
        to_einstein = {"u": -0.25 * math.log(cd2), "v": -0.5 * math.atan2(d, c), "w": 0.0}
        t = TransformParams(**to_einstein)
        einstein_residual = max_over_points(fields, lambda f: {"ric": np.max(np.abs(
            f.curvature.ric - 2.0 * n * TransformedModel(f, t).metric_at(f.p)))})["ric"]

    return EinsteinFit(alpha=alpha, beta=beta, residual=residual, c=c, d=d,
                       classification=cls, to_einstein=to_einstein,
                       einstein_residual=einstein_residual)
