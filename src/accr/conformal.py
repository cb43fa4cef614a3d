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
over a block of points: apply_cct(f, t) gives its PointFields at f.p from f,
the base's PointFields there, and the functions here take the two side by
side, (f, fb), read the transform's (u, v, w) from fb's model and give
their values at each point.  Constant parameters given as 1-D arrays put P
transforms on one leading parameter axis of fb, solved by one Koszul solve,
and preservation_at gives the values of each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonConstantParams
from .frame_algebra import first_slot, last_slot, max_abs, standard_signature
from .sasaki import check_defining_conditions, require_sasaki_like
from .structure import AccrStructure, Field, PointFields, field_at, field_derivs_at, worst

__all__ = [
    "TransformParams",
    "apply_cct",
    "preservation_at",
    "adapted_frame",
    "homothetic_laws",
    "EinsteinFit",
    "einstein_rows",
    "eta_complex_einstein_check",
]


def _elementwise(fn):
    """The scalar math function fn at every entry of an array: its values,
    and the OverflowError or ValueError it raises where it cannot give one."""
    ufunc = np.frompyfunc(fn, 1, 1)
    return lambda x: np.asarray(ufunc(x), dtype=float)


_exp, _cos, _sin = map(_elementwise, (math.exp, math.cos, math.sin))


@dataclass
class TransformParams:
    """Conformal data (u, v, w): constants or scalar Fields of the point,
    whose values at points of shape (..., dim) have shape (...), and their
    jets, the differentials, shape (..., dim).  Constants may be 1-D arrays
    of P parameter sets: their values are then of shape (P, ...), their
    differentials zeros of shape (..., dim), and TransformedModel, apply_cct
    and preservation_at broadcast over that leading parameter axis."""

    u: object = 0.0
    v: object = 0.0
    w: object = 0.0

    @property
    def is_constant(self) -> bool:
        return not any(isinstance(x, Field) for x in (self.u, self.v, self.w))

    def at(self, p):
        """(u, v, w) at the points p, over the parameter axis, if any, then p's."""
        lead = np.shape(p)[:-1]
        value = lambda x: field_at(x, p) if isinstance(x, Field) else \
            np.reshape(x, np.shape(x) + (1,) * len(lead))      # a parameter axis leads
        vals = [value(x) for x in (self.u, self.v, self.w)]
        shape = np.broadcast_shapes(lead, *map(np.shape, vals))
        return tuple(np.broadcast_to(np.asarray(x, dtype=float), shape) for x in vals)


class TransformedModel:
    """The base model over the points of f, the base structure's PointFields,
    with its metric replaced by g_bar = a g + b g phi + c eta (x) eta, a =
    e^{2u} cos 2v, b = e^{2u} sin 2v and c = e^{2w} - a, from f's g, phi and
    eta; its frame and brackets (f.c) are the base's.  Like ConeModel it
    answers for f.p at any point.  It reads (u, v, w) and their differentials
    at f.p once (uvw, differentials), for apply_cct, preservation_at and
    homothetic_laws too; dg_bar is the product rule over f's dg, dphi and
    deta and those differentials.  d^2 g_bar = a d^2 g + b d^2 g phi reads the
    base model's at f.p for that call only, and needs constant (u, v, w),
    phi and eta (else NonConstantParams).
    """

    def __init__(self, f: PointFields, params: TransformParams):
        self.f, self.params, self.dim, self.kind = f, params, f.dim, f.s.model.kind

    uvw = cached_property(lambda self: self.params.at(self.f.p))   # each of shape (...)

    @cached_property
    def differentials(self):
        """(du, dv, dw) at f.p, each of shape (..., dim): Fields' jets, zeros for constants."""
        t, f = self.params, self.f
        return tuple(field_derivs_at(x if isinstance(x, Field) else 0.0, f.s.model, f.p)
                     for x in (t.u, t.v, t.w))

    @cached_property
    def _coefs(self):
        """((a, b, c), (da, db, dc)) at f.p, a, b and c of shape (...)."""
        u, v, w = self.uvw
        du, dv, dw = self.differentials
        e2u, e2w = _exp(2 * u), _exp(2 * w)
        a, b = e2u * _cos(2 * v), e2u * _sin(2 * v)
        col = lambda x: x[..., None]
        da = 2 * (col(a) * du - col(b) * dv)
        return (a, b, e2w - a), (da, 2 * (col(b) * du + col(a) * dv), 2 * col(e2w) * dw - da)

    def metric_at(self, p):
        f, (a, b, c) = self.f, self._coefs[0]
        at = lambda x: x[..., None, None]
        return at(a) * f.g + at(b) * f.gphi + at(c) * f.ee

    def metric_derivs_at(self, p):
        f, ((a, b, c), (da, db, dc)) = self.f, self._coefs
        at = lambda x: x[..., None, None, None]
        outer = lambda x, m: x[..., :, None, None] * m[..., None, :, :]
        return (at(a) * f.dg + at(b) * (f.dg @ f.phi[..., None, :, :]
                                        + f.g[..., None, :, :] @ f.dphi)
                + at(c) * f.dee + outer(da, f.g) + outer(db, f.gphi) + outer(dc, f.ee))

    def metric_derivs2_at(self, p):
        s, (a, b, _) = self.f.s, self._coefs[0]
        if not self.params.is_constant or isinstance(s.phi, Field) or isinstance(s.eta, Field):
            raise NonConstantParams(
                "curvature of a transformed model needs constant (u, v, w), phi and eta")
        jet = s.model.metric_derivs2_at(self.f.p)
        at = lambda x: x[..., None, None, None, None]
        out = jet @ self.f.phi[..., None, None, :, :]
        out *= at(b)
        out += at(a) * jet
        return out

    def commutators_at(self, p):
        return self.f.c

    def commutator_derivs_at(self, p):
        return self.f.s.model.commutator_derivs_at(self.f.p)


def apply_cct(f: PointFields, t: TransformParams) -> PointFields:
    """The PointFields at f.p of the contact conformal transformation by t of
    the structure f holds: its model is TransformedModel(f, t), phi is the
    base's, xi_bar = e^{-w} xi and eta_bar = e^w eta.

    Lie-group models only admit constant parameters (anything else would
    silently break left invariance).  xi_bar and eta_bar are Fields that,
    like the model, answer for f.p at any point; their jets e^{-w} (dxi - dw
    (x) xi) and e^w (deta + dw (x) eta) read f and the model's w and dw.
    """
    s = f.s
    if s.model.kind == "lie_group" and not t.is_constant:
        raise NonConstantParams("homogeneous models require constant (u, v, w)")
    model = TransformedModel(f, t)
    w = model.uvw[2][..., None]
    e_w, e_minus_w = _exp(w), _exp(-w)
    dw = lambda: model.differentials[2][..., :, None]
    xi_bar = Field(lambda p: e_minus_w * f.xi,
                   lambda m, p: e_minus_w[..., None] * (f.dxi - dw() * f.xi[..., None, :]))
    eta_bar = Field(lambda p: e_w * f.eta,
                    lambda m, p: e_w[..., None] * (f.deta + dw() * f.eta[..., None, :]))
    return PointFields(AccrStructure(model=model, n=s.n, phi=s.phi, xi=xi_bar, eta=eta_bar), f.p)


def preservation_at(f: PointFields, fb: PointFields) -> dict:
    """Residuals at each of f's points of the Sasaki-like preservation
    conditions

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

    (u, v, w) and (du, dv, dw) are those that fb's TransformedModel read,
    and every value has the shape of u: one per point of each parameter set.
    """
    (u, v, w), (du, dv, dw) = fb.s.model.uvw, fb.s.model.differentials
    phi, eta = f.phi, f.eta
    col = lambda x: x[..., None]
    ew = _exp(w)
    cond2 = du - first_slot(dv, phi)
    c2v, s2v = _cos(2 * v), _sin(2 * v)
    shifted = col(ew - 1.0) * eta + first_slot(du, phi) + dv
    a_form = col(c2v) * shifted + col(s2v) * cond2
    b_form = col(s2v) * shifted - col(c2v) * cond2

    shaped = lambda m: m[..., None] * eta[..., None, None, :] \
        + m[..., :, None, :] * eta[..., None, :, None]
    at = lambda x: x[..., None, None, None]
    target = at(_exp(w + 2 * u)) * (at(c2v) * shaped(f.gpp) - at(s2v) * shaped(f.gphi))
    out = {
        "dw_phi": max_abs(first_slot(dw, phi), 1),
        "du_minus_dv_phi": max_abs(cond2, 1),
        "du_phi_plus_dv": max_abs(first_slot(du, phi) + dv - col(1.0 - ew) * eta, 1),
        "du_xi": np.abs(last_slot(du, f.xi)),
        "dv_xi": np.abs(last_slot(dv, f.xi) - (1.0 - ew)),
        "one_form_a": max_abs(a_form, 1),
        "one_form_b": max_abs(b_form, 1),
        "f_bar_direct": max_abs(fb.F - target, 3),
    }
    return {key: np.broadcast_to(val, np.shape(u)) for key, val in out.items()}


def adapted_frame(f: PointFields) -> np.ndarray:
    """Columns (xi, b_1..b_n, phi b_1..phi b_n): a g-orthonormal adapted
    frame at each of f's points.  On ker eta, B(x, y) = g(x, y) + i g(x,
    phi y) is complex bilinear for i acting as -phi, and complex
    Gram-Schmidt for B gives B(b_i, b_j) = delta_ij, that is g(b_i, b_j) =
    delta_ij and g(b_i, phi b_j) = 0.  B has isotropic vectors (B(c, c) = 0,
    c != 0), so each step pivots: its candidates are the horizontal parts of
    every e_a and of every e_a + e_b, less their parts along the b's found so
    far, and it takes the first with the largest |B(c, c)| against |c|^2
    before that projection.  On a frame that is already adapted and
    orthonormal that is e_1..e_n and every step is exact: the identity."""
    g, gphi, phi_t = f.g, f.gphi, np.swapaxes(f.phi, -1, -2)
    form = lambda x, y: ((x @ g) * y).sum(-1) + 1j * ((x @ gphi) * y).sum(-1)
    times = lambda z, x: z.real[..., None] * x - z.imag[..., None] * (x @ phi_t)
    rows = np.swapaxes(f.proj, -1, -2)
    a, b = np.triu_indices(f.dim, 1)
    pool = np.concatenate([rows, rows[..., a, :] + rows[..., b, :]], axis=-2)
    size = (pool * pool).sum(-1)
    size = np.where(size > 0.0, size, np.inf)
    bs = []
    for _ in range(f.s.n):
        pick = np.argmax(np.abs(form(pool, pool)) / size, axis=-1)
        c = np.take_along_axis(pool, pick[..., None, None], axis=-2)
        c = times(1.0 / np.sqrt(form(c, c)), c)
        pool = pool - times(form(pool, c), c)
        bs.append(c[..., 0, :])
    return np.stack([f.xi, *bs, *(last_slot(f.phi, c) for c in bs)], axis=-1)


def homothetic_laws(f: PointFields, fb: PointFields) -> dict:
    """Transformation laws of a homothetic transformation (constant u, v, w)
    of a Sasaki-like structure at each of f's points, checked against g_bar,
    its connection and its curvature as fb = apply_cct(f, t) holds them,
    with the (u, v, w) that fb's TransformedModel read:
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
    if not fb.s.model.params.is_constant:
        raise NonConstantParams("closed-form transformation laws need constant (u, v, w)")
    u, v, w = fb.s.model.uvw
    phi, eta, xi = f.phi, f.eta, f.xi
    gpp, gp = f.gpp, f.gphi
    at2 = lambda x: x[..., None, None]
    coef_a = _exp(2 * (u - w)) * _sin(2 * v)
    coef_b = 1.0 - _exp(2 * (u - w)) * _cos(2 * v)
    delta = (at2(coef_a) * gpp - at2(coef_b) * gp)[..., None] * xi[..., None, None, :]
    connection = max_abs(f.gamma + delta - fb.gamma, 3)
    del delta
    bundle, bundle_bar = f.curvature, fb.curvature

    # the (1,3) curvature shift is s - s^T(ij) with, at [i,j,k,l],
    #   s = coef_a (gp[j,k] eta[i] xi[l] - gpp[j,k] phi[l,i])
    #     + coef_b (gpp[j,k] eta[i] xi[l] + gp[j,k] phi[l,i])
    #     = m1[j,k] eta[i] xi[l] + m2[j,k] phi[l,i],
    # each term a broadcast product, taken with its (i, j) swap from r_up_bar - r_up
    m1 = at2(coef_a) * gp + at2(coef_b) * gpp
    m2 = at2(coef_b) * gp - at2(coef_a) * gpp
    shift_gap = bundle_bar.r_up - bundle.r_up
    for m, il in ((m1, eta[..., :, None] * xi[..., None, :]), (m2, np.swapaxes(phi, -1, -2))):
        s = m[..., None, :, :, None] * il[..., :, None, None, :]
        shift_gap -= s
        shift_gap += np.swapaxes(s, -4, -3)
        del s

    e2u = _exp(-2 * u)
    c2v, s2v = _cos(2 * v), _sin(2 * v)
    ric_xx = last_slot(last_slot(bundle.ric, xi), xi)
    scal_formula = e2u * c2v * bundle.scal - e2u * s2v * bundle.scal_star \
        + (_exp(-2 * w) - e2u * c2v) * ric_xx
    scal_star_formula = e2u * s2v * bundle.scal + e2u * c2v * bundle.scal_star \
        - e2u * s2v * ric_xx

    n = f.s.n
    frame = adapted_frame(f)
    col = lambda x: x[..., None]
    rotated = [col(_exp(-u)) * (col(_cos(v)) * e - col(_sin(v)) * last_slot(phi, e))
               for e in (frame[..., :, i] for i in range(1, n + 1))]
    basis = np.stack([col(_exp(-w)) * xi, *rotated, *(last_slot(phi, b) for b in rotated)],
                     axis=-1)
    eps = standard_signature(n)
    basis_t = np.swapaxes(basis, -1, -2)
    ortho = max_abs(basis_t @ fb.g @ basis - np.diag(eps), 2)
    trace = lambda m: np.diagonal(basis_t @ bundle_bar.ric @ m, 0, -2, -1) @ eps
    phib = phi @ basis
    phib[..., :, 0] = 0.0

    return {
        "connection_formula": connection,
        "curvature_formula": max_abs(shift_gap, 4),
        "ricci_invariance": max_abs(bundle_bar.ric - bundle.ric, 2),
        "scal_formula": np.abs(scal_formula - bundle_bar.scal),
        "scal_star_formula": np.abs(scal_star_formula - bundle_bar.scal_star),
        "rotated_basis_orthonormal": ortho,
        "scal_from_basis": np.abs(trace(basis) - bundle_bar.scal),
        "scal_star_from_basis": np.abs(trace(phib) - bundle_bar.scal_star),
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


def einstein_rows(f: PointFields):
    """The worst defining residual at each point of the block f, then the
    rows of the eta fit there in point order, one per entry of each point's
    (d, d) tensors: the design rows (g - eta (x) eta, g phi) and the target
    rows Ric - 2n eta (x) eta."""
    return (worst(check_defining_conditions(f).values()),
            np.stack([(f.g - f.ee).ravel(), f.gphi.ravel()], axis=1),
            (f.curvature.ric - 2.0 * f.s.n * f.ee).ravel())


def eta_complex_einstein_check(defining, design, target, n, tol=1e-8) -> EinsteinFit:
    """Classify the Ricci tensor of a Sasaki-like structure of dimension
    2n + 1 from the einstein_rows of the blocks of its sample points, stacked
    in point order and fitted once; the first point must be Sasaki-like.

    classification: "einstein" ((c,d) = (1,0)), "eta_einstein" (d = 0),
    "eta_complex_einstein", or "none" when no constants fit.  The Einstein
    residual of the homothety to_einstein is target - 2n design [c, -d] /
    (c^2 + d^2), Ric - 2n g_bar from the same rows.
    """
    require_sasaki_like(defining, points=1)
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
        einstein_residual = float(np.max(np.abs(
            target - 2.0 * n * (design @ np.array([c, -d]) / cd2))))

    return EinsteinFit(alpha=alpha, beta=beta, residual=residual, c=c, d=d,
                       classification=cls, to_einstein=to_einstein,
                       einstein_residual=einstein_residual)
