"""Verification driver: run every applicable check over every model.

CHECKS declares each check id once: its statement, expected outcome and
tolerance.  FAMILIES declares how the checks under each id prefix are
computed and on which models.  Each check is reported as a row {check_id,
statement, max_residual, fd_error_estimate, tolerance, expected, verdict,
note}, the residual being its maximum over the model's deterministic
sample points and the note a text or null.  fold is the one pass of verify
and of the transform and cone commands alike: it makes the PointFields of
the sample's consecutive blocks of at most max(1, BLOCK_ELEMENTS // dim**4)
points one at a time, and every family it runs reads a block (and a part
made once per pass, if it has one: crossrep's group partner) before the
next is made, so a pass holds one block whatever its sample.  A family
gives its values at each point of a block (the cone's at each cone point
over it, the derivatives family's at its points among a prefix of the
sample), so the fold by max is the only reduction over points; the eta fit
alone keeps lists of parts of each block, for an info row (not judged) of
the model as a whole, the classification in its note.
Every model and moving field gives its jets in closed form, so only the
derivatives family reads finite differences: on charts it compares each
jet with the stencil of the next-lower order at cfg.fd_step, relative to
max(1, |jet|), at the first JET_POINTS sample points only (a wrong jet is
wrong at generic points).  Designed failures (the parallel model for the
Sasaki family, the w != 0 homothety for conformal preservation) are
expected to fail, so a healthy run reports them as xfail and exits 0.
flatten gives a family's rows and judge a row's verdict, for verify and the
two commands alike, and error_text a model's error entry.
"""

from __future__ import annotations

import math
from collections import Counter
from types import SimpleNamespace
from json.encoder import encode_basestring_ascii as _quote
from dataclasses import dataclass

import numpy as np

from . import conformal as conf
from . import corpus as corpus_mod
from . import sasaki as sas
from .connection import ConnectionCoefficients
from .errors import GeometryError, NotSasakiLike
from .models import DEFAULT_FD_STEP, ChartModel, ConeModel
from .structure import (
    PointFields,
    max_over_points,
    structure_property_residuals,
    theorem_3_4_residual,
    validate_structure,
    worst,
)

SCHEMA_VERSION = "1"
TOL_EXACT = 1e-9      # every judged row, unless its check sets a tighter tol
JET_POINTS = 4        # the derivatives rows check the jets on this prefix of the sample
# The most point-dim^4 entries in one block.  A block keeps one array of
# dim^4 entries per point while it is read (its curvature r_up), and a
# family holds about four more while it runs (riemann, the Gauss comparison,
# the homothetic laws), so this bounds a pass's memory: the
# example3_hsphere_ext blocks (dim 7) are 13 points, its default sample of 20
# is two blocks, and a model of dim 12 or more is sampled one point at a
# time.  2**16, one block of 20, read 2.6 to 3.4 % more peak RSS on the
# default corpus.
BLOCK_ELEMENTS = 2 ** 15

# expected outcome of a check (Check.expect)
PASS = "pass"
SASAKI = "sasaki"     # passes exactly on Sasaki-like models: the parallel model fails it
FAIL = "fail"         # fails by design on every model
INFO = "info"         # reported, never judged

FAILING = {"fail", "xpass", "error"}           # the verdicts that make a run exit 1
MODEL_ERRORS = (ArithmeticError, ValueError)   # a GeometryError or a math overflow: an error entry


def error_text(exc) -> str:
    """A model's error entry: a GeometryError's message, or the class and
    message of any other of MODEL_ERRORS, whose message alone may not say
    what failed (an OverflowError reads "(34, 'Numerical result out of range')")."""
    return str(exc) if isinstance(exc, GeometryError) else f"{type(exc).__name__}: {exc}"


@dataclass(frozen=True)
class Check:
    statement: str
    expect: str = PASS
    tol: float = TOL_EXACT


CHECKS = {
    "structure.phi_xi": Check("phi xi = 0"),
    "structure.phi_squared": Check("phi^2 = -Id + eta (x) xi"),
    "structure.eta_phi": Check("eta o phi = 0"),
    "structure.eta_xi": Check("eta(xi) = 1"),
    "structure.metric_compat": Check("g(phi x, phi y) = -g(x,y) + eta(x) eta(y)"),
    "structure.gtilde_symmetry": Check("gtilde(x,y) = g(x, phi y) + eta(x) eta(y) is symmetric"),
    "structure.signature_g": Check("g has signature (n+1, n)"),
    "structure.signature_gtilde": Check("gtilde has signature (n+1, n)"),
    "identity.f_last_two_symmetry": Check("F(x,y,z) = F(x,z,y)"),
    "identity.f_phi_phi_relation": Check(
        "F(x,y,z) = F(x,phi y,phi z) + eta(y) F(x,xi,z) + eta(z) F(x,y,xi)"),
    "identity.theta_star_phi_relation": Check("theta* o phi = -theta o phi^2"),
    "identity.nabla_eta_from_f": Check("(nabla_x eta) y = F(x, phi y, xi)"),
    "identity.nabla_eta_from_xi": Check("(nabla_x eta) y = g(nabla_x xi, y)"),
    "identity.f_xixi_vs_nhat": Check("F(xi,xi,z) = Nhat(xi,xi,phi z) / 2"),
    "identity.nijenhuis_route_gap_n": Check("N from brackets = N from F"),
    "identity.nijenhuis_route_gap_nhat": Check("Nhat from brackets = Nhat from F"),
    "identity.f_reconstruction": Check(
        "F = -[N(phi x,y,z)+N(phi x,z,y)+Nhat(phi x,y,z)+Nhat(phi x,z,y)]/4 "
        "+ eta(x)[N(xi,y,phi z)+Nhat(xi,y,phi z)+eta(z) Nhat(xi,xi,phi y)]/2"),
    "connection.torsion_free": Check("nabla_x y - nabla_y x = [x, y]"),
    "connection.metric_compatibility": Check("x g(y,z) = g(nabla_x y, z) + g(y, nabla_x z)"),
    "curvature.antisym_first_pair": Check("R(x,y,z,u) = -R(y,x,z,u)"),
    "curvature.antisym_last_pair": Check("R(x,y,z,u) = -R(x,y,u,z)"),
    "curvature.pair_interchange": Check("R(x,y,z,u) = R(z,u,x,y)"),
    "curvature.first_bianchi": Check("R(x,y,z,u) + R(y,z,x,u) + R(z,x,y,u) = 0"),
    "curvature.ricci_symmetry": Check("Ric(x,y) = Ric(y,x)"),
    "sasaki.defining.f_horizontal": Check("F(X,Y,Z) = 0 on horizontal X,Y,Z"),
    "sasaki.defining.f_xi_first_slot": Check("F(xi,Y,Z) = 0"),
    "sasaki.defining.f_xi_xi": Check("F(xi,xi,Z) = 0"),
    "sasaki.defining.f_equals_minus_g": Check("F(X,Y,xi) = -g(X,Y)", SASAKI),
    "sasaki.nabla_phi": Check("F(x,y,z) = g(phi x,phi y) eta(z) + g(phi x,phi z) eta(y)", SASAKI),
    "sasaki.nijenhuis.n_zero": Check("N = 0"),
    "sasaki.nijenhuis.nhat_form": Check("Nhat = -4 (gtilde - eta (x) eta) (x) xi", SASAKI),
    "sasaki.nijenhuis.nhat_xi_slot": Check("Nhat(xi, y) = 0"),
    "sasaki.corollary.d_eta": Check("d eta = 0"),
    "sasaki.corollary.nabla_xi_xi": Check("nabla_xi xi = 0"),
    "sasaki.corollary.theta_plus_2n_eta": Check("theta = -2n eta", SASAKI),
    "sasaki.corollary.theta_star": Check("theta* = 0"),
    "sasaki.corollary.bracket_xi_horizontal": Check("[X, xi] is horizontal"),
    "sasaki.corollary.nabla_xi_transport": Check("nabla_xi X = -phi X - [X, xi]", SASAKI),
    "sasaki.curvature.phi_commutation": Check(
        "R(x,y,phi z,u) - R(x,y,z,phi u) = [g(y,z)-2 eta eta] g(x,phi u) + ...", SASAKI),
    "sasaki.curvature.r_xy_xi": Check("R(x,y) xi = eta(y) x - eta(x) y", SASAKI),
    "sasaki.curvature.r_xi_x_xi": Check("R(xi,X) xi = -X", SASAKI),
    "sasaki.curvature.ric_xi_xi": Check("Ric(xi,xi) = 2n", SASAKI),
    "sasaki.curvature.ric_y_xi": Check("Ric(y,xi) = 2n eta(y)", SASAKI),
    "sasaki.curvature.r_xi_third_slot":
        Check("R(x,y,xi,z) = eta(y) g(x,z) - eta(x) g(y,z)", SASAKI),
    "sasaki.curvature.horizontal_ricci": Check("Ric(Y,Z) = Ric_leaf(Y,Z) on horizontal Y,Z"),
    "gauss.residual": Check(
        "R(X,Y,Z,U) = R_leaf(X,Y,Z,U) + g(phi X,Z) g(phi Y,U) - g(phi Y,Z) g(phi X,U)"),
    "gauss.second_fundamental_form":
        Check("g(nabla_X xi, Y) = -gtilde(X,Y) on horizontal X,Y", SASAKI),
    "cone.holomorphic": Check("nabla J = 0 on the complex cone", SASAKI),
    "cone.line.horizontal_block": Check("g_cone(nabla_X Y, Z) = r^2 g(nabla_X Y, Z)"),
    "cone.line.radial_second_slot": Check("g_cone(nabla_X Y, d/dr) = -r g(X,Y)"),
    "cone.line.radial_argument": Check("g_cone(nabla_X d/dr, Z) = r g(X,Z)"),
    "cone.line.radial_direction": Check("g_cone(nabla_{d/dr} Y, Z) = r g(Y,Z)"),
    "cone.line.xi_second_slot": Check(
        "g_cone(nabla_X Y, xi) = r^2 g(nabla_X Y, xi) + (r^2-1)/2 d eta(X,Y)"),
    "cone.line.xi_argument": Check(
        "g_cone(nabla_X xi, Z) = r^2 g(nabla_X xi, Z) - (r^2-1)/2 d eta(X,Z)"),
    "cone.dj_xi.direct_vs_symmetric_reading": Check(
        "g_cone((nabla_X J) xi, Z) vs -r^2 {g(nabla_X xi, phi Z) - g(X,Z)} + ..."),
    "crossrep.structure_equations":
        Check("the brackets from d e^k of the chart coframe match the group brackets"),
    "crossrep.metric_assembly": Check(
        "sum_k eps_k (e^k)^2 matches the closed-form coordinate metric", tol=1e-10),
    "crossrep.verdict_agreement": Check("group and chart Sasaki verdicts agree"),
    "conformal.preserve.dw_phi": Check("dw o phi = 0"),
    "conformal.preserve.du_minus_dv_phi": Check("du - dv o phi = 0"),
    "conformal.preserve.du_phi_plus_dv": Check("du o phi + dv = (1 - e^w) eta"),
    "conformal.preserve.du_xi": Check("du(xi) = 0"),
    "conformal.preserve.dv_xi": Check("dv(xi) = 1 - e^w"),
    "conformal.preserve.one_form_a": Check("auxiliary 1-form A = 0"),
    "conformal.preserve.one_form_b": Check("auxiliary 1-form B = 0"),
    "conformal.preserve.f_bar_direct": Check("F of g_bar has the Sasaki-like shape for g_bar"),
    "conformal.preserve.transformed_defining":
        Check("transformed structure passes the defining conditions"),
    "conformal.preserve.transformed_axioms":
        Check("transformed structure satisfies the accR axioms"),
    "conformal.break.du_phi_plus_dv": Check("w != 0 breaks du o phi + dv = (1 - e^w) eta", FAIL),
    "conformal.break.f_bar_direct":
        Check("w != 0 breaks the Sasaki-like shape of F for g_bar", FAIL),
    "conformal.homothetic.connection_formula": Check(
        "nabla_bar = nabla + e^{2(u-w)} sin 2v g(phi.,phi.) xi "
        "- (1 - e^{2(u-w)} cos 2v) g(.,phi.) xi"),
    "conformal.homothetic.curvature_formula":
        Check("closed-form curvature shift matches recomputation"),
    "conformal.homothetic.ricci_invariance": Check("Ric_bar = Ric"),
    "conformal.homothetic.scal_formula": Check("scalar curvature transformation law"),
    "conformal.homothetic.scal_star_formula": Check("*-scalar curvature transformation law"),
    "conformal.homothetic.rotated_basis_orthonormal":
        Check("e_bar_i = e^{-u}(cos v e_i - sin v phi e_i) is g_bar-orthonormal"),
    "conformal.homothetic.scal_from_basis": Check("basis trace reproduces Scal_bar"),
    "conformal.homothetic.scal_star_from_basis": Check("basis trace reproduces Scal*_bar"),
    "conformal.eta_fit.residual":
        Check("Ric = alpha g + beta g(., phi .) + (2n - alpha) eta (x) eta", INFO),
    "derivatives.metric": Check("analytic dg matches finite differences of g, relative"),
    "derivatives.metric2": Check("analytic d^2 g matches finite differences of dg, relative"),
    "derivatives.coframe":
        Check("analytic d theta matches finite differences of theta, relative"),
    "derivatives.coframe2":
        Check("analytic d^2 theta matches finite differences of d theta, relative"),
}

HOMOTHETY = conf.TransformParams(u=0.3, v=0.2, w=0.0)            # preserves Sasaki-like
BREAKING = conf.TransformParams(u=0.0, v=0.0, w=math.log(2.0))   # w != 0 breaks it


@dataclass
class VerifyConfig:
    points: int = 20
    seed: int = 42
    fd_step: float = DEFAULT_FD_STEP
    tol_override: float | None = None
    only: str | None = None


@dataclass(frozen=True)
class Family:
    """The checks under one id prefix, a fold over the pass's blocks:
    at(cm, f, k, run, part) reads the block f, whose first point is point k
    of the sample run (as fold gives it), and part, start(cm, run), made
    once per pass.  Its residuals, a value (row "<prefix>") or a dict (rows
    "<prefix>.<key>") of arrays of one value per point, are folded by
    max_over_points, and its rows are rows(cm, out) of the fold's out."""

    prefix: str
    at: object
    applies: object = lambda cm: True
    rows: object = lambda cm, out: out
    start: object = lambda cm, run: None


def _conformal(cm, f, *_):
    """Preservation under HOMOTHETY, its designed breaking under BREAKING and
    the homothetic laws: both transforms are one, with one Koszul solve, over
    the parameter axis [HOMOTHETY, BREAKING] (their constants stacked as 1-D
    arrays), and the homothety's rows read a copy of its part of that solve,
    so the stack is dropped before the laws make curvature."""
    fb = conf.apply_cct(f, conf.TransformParams(*np.array([(t.u, t.v, t.w)
                                                           for t in (HOMOTHETY, BREAKING)]).T))
    kept = conf.preservation_at(f, fb)
    fh = conf.apply_cct(f, HOMOTHETY)
    fh.conn = ConnectionCoefficients(**{k: x if k == "c" else x[0].copy()   # c is the base's
                                        for k, x in vars(fb.conn).items()})
    del fb
    laws = conf.homothetic_laws(f, fh)
    return {"preserve": {**{k: v[0] for k, v in kept.items()},
                         "transformed_defining": worst(fh.defining.values()),
                         "transformed_axioms": worst(validate_structure(fh).values())},
            "break": {k: kept[k][1] for k in ("du_phi_plus_dv", "f_bar_direct")},
            "homothetic": {k: v for k, v in laws.items() if not k.endswith("_bar")}}


def cone_family(limit) -> Family:
    """The cone family over min(count, limit) cone points, and "per_point",
    {"r", "residual"} of cone.holomorphic at each, which its rows leave out:
    cone point j lies over sample point j, or a group's one, so those over
    the block from point k are k, k + 1, ..."""
    def at(cm, f, k, run, _):
        count = min(run.count, limit)
        res = sas.cone_holomorphic_residual(f, count, run.seed, k, run.size)
        pairs = zip(ConeModel.radii(count, run.seed)[k:], np.ravel(res.get("holomorphic", [])))
        return {**res, "per_point": [{"r": r, "residual": float(h)} for r, h in pairs]}

    return Family("cone", at, rows=lambda cm, out: {
        key: val for key, val in out.items() if key != "per_point"})


def _partner(cm, run):     # crossrep's part of a pass: the group cm realizes, at its one point
    lie = corpus_mod.builtin(cm.lie_partner, **cm.params)
    return lie, PointFields(lie.structure, np.zeros(0))


def _eta_fit(cm, parts):
    try:
        fit = conf.eta_complex_einstein_check(*map(np.concatenate, zip(*parts)), cm.structure.n)
    except NotSasakiLike as exc:     # the fit needs a Sasaki-like base: the row reads error
        return {"residual": (math.nan, f"not Sasaki-like: {exc}")}
    return {"residual": (fit.residual, f"classification: {fit.classification}")}


FAMILIES = (
    Family("structure", lambda cm, f, *_: validate_structure(f)),
    Family("identity", lambda cm, f, *_: {
        **structure_property_residuals(f), "f_reconstruction": theorem_3_4_residual(f)}),
    Family("connection", lambda cm, f, *_: {
        "torsion_free": f.conn.torsion_residual(),
        "metric_compatibility": f.conn.metric_compat_residual()}),
    Family("curvature", lambda cm, f, *_: f.curvature.symmetry_residuals()),
    Family("sasaki.defining", lambda cm, f, *_: sas.check_defining_conditions(f)),
    Family("sasaki.nabla_phi", lambda cm, f, *_: sas.check_nabla_phi(f)),
    Family("sasaki.nijenhuis", lambda cm, f, *_: sas.check_nijenhuis_form(f)),
    Family("sasaki.corollary", lambda cm, f, *_: sas.check_corollary(f)),
    Family("sasaki.curvature", lambda cm, f, *_: sas.curvature_identity_residuals(
        f, base_ric=cm.base_ric_at(f.p) if cm.base_ric_at else None)),
    Family("gauss.residual", lambda cm, f, *_: sas.gauss_residual(f, cm.base_r_at(f.p)),
           applies=lambda cm: cm.sasaki_expected and cm.base_r_at is not None),
    Family("gauss.second_fundamental_form",
           lambda cm, f, *_: sas.second_fundamental_form_residual(f)),
    cone_family(6),
    Family("crossrep", lambda cm, f, k, run, partner: corpus_mod.cross_representation_check(
        partner[0], cm, f, partner[1]), start=_partner,
           applies=lambda cm: cm.coframe_fn is not None and cm.lie_partner is not None),
    Family("conformal", _conformal, applies=lambda cm: cm.sasaki_expected),
    Family("conformal.eta_fit", lambda cm, f, *_: [conf.einstein_rows(f)], rows=_eta_fit,
           applies=lambda cm: cm.sasaki_expected),
    # the jets against the stencil at the block's points among the first JET_POINTS
    Family("derivatives", lambda cm, f, k, run, _: cm.model.jet_residuals(
        f.p[:JET_POINTS - k], run.step) if k < JET_POINTS else {},
           applies=lambda cm: isinstance(cm.model, ChartModel)),
)

# the family that computes each check: the one with the longest prefix of its id
_OWNER = {check_id: max((fam for fam in FAMILIES if check_id.startswith(fam.prefix)),
                        key=lambda fam: len(fam.prefix)).prefix for check_id in CHECKS}


def flatten(check_id, out, res, notes):
    """Add the rows of a family's residuals out under check_id to res
    ({check_id: residual}) and notes ({check_id: note})."""
    if isinstance(out, dict):
        for key, val in out.items():
            flatten(f"{check_id}.{key}", val, res, notes)
    elif isinstance(out, tuple):
        res[check_id], notes[check_id] = float(out[0]), out[1]
    else:
        res[check_id] = float(out)


def families_for(cm, only=None) -> list:
    """The families that apply to the model and own a check id starting with only."""
    wanted = {_OWNER[check_id] for check_id in CHECKS if check_id.startswith(only or "")}
    return [fam for fam in FAMILIES if fam.prefix in wanted and fam.applies(cm)]


def fold(cm, cfg: VerifyConfig, families) -> dict:
    """One pass over cm's sample: {prefix: each family's residuals folded
    over the blocks}.  The sample's count and seed are cfg's unless the
    model's spec overrides them (its sample_points); run holds them, the
    sample's size (one point on a group) and cfg's step.  The block from
    point k holds the next max(1, BLOCK_ELEMENTS // dim**4) points, and its
    PointFields are made when every family has read the block before."""
    override = cm.sample_override or {}
    count, seed = override.get("count", cfg.points), override.get("seed", cfg.seed)
    points = cm.model.sample_points(count, seed)
    run = SimpleNamespace(count=count, seed=seed, size=len(points), step=cfg.fd_step)
    parts = [(fam.prefix, fam.at, fam.start(cm, run)) for fam in families]
    size = max(1, BLOCK_ELEMENTS // cm.model.dim ** 4)

    def block(k):
        f = PointFields(cm.structure, np.stack(points[k:k + size]))
        return {prefix: at(cm, f, k, run, part) for prefix, at, part in parts}

    return max_over_points(range(0, len(points), size), block)


def _gather_residuals(cm, cfg: VerifyConfig):
    """The rows of the fold of families_for(cm, cfg.only): ({check_id:
    residual}, notes)."""
    families = families_for(cm, cfg.only)
    out = fold(cm, cfg, families)
    res, notes = {}, {}
    for fam in families:
        flatten(fam.prefix, fam.rows(cm, out[fam.prefix]), res, notes)
    return res, notes


def judge(check_id, value, cm, cfg: VerifyConfig) -> tuple:
    """(expected, tolerance, verdict) of the row check_id of model cm with
    residual value: the tolerance is cfg's override or the check's, None on
    an info row, and a residual that is not finite reads error."""
    check = CHECKS[check_id]
    expected = check.expect
    if expected == SASAKI:
        expected = PASS if cm.sasaki_expected else FAIL
    if expected == INFO:
        return expected, None, "info" if math.isfinite(value) else "error"
    tol = check.tol if cfg.tol_override is None else cfg.tol_override
    if not math.isfinite(value):
        return expected, tol, "error"
    if expected == PASS:
        return expected, tol, "pass" if value <= tol else "fail"
    return expected, tol, "xpass" if value <= tol else "xfail"


def _model_header(cm) -> dict:
    # schema "1" keeps exact_derivatives: every model gives its jets in closed form
    return {"name": cm.name, "params": dict(cm.params), "kind": cm.model.kind,
            "exact_derivatives": True, "notes": list(cm.notes)}


def run_model_checks(cm, cfg: VerifyConfig) -> dict:
    """All checks for one corpus model, returned as a report dict."""
    residuals, notes = _gather_residuals(cm, cfg)
    rows = []
    for check_id in sorted(residuals):
        if cfg.only and not check_id.startswith(cfg.only):
            continue
        expected, tol, verdict = judge(check_id, residuals[check_id], cm, cfg)
        rows.append({
            "check_id": check_id,
            "statement": CHECKS[check_id].statement,
            "max_residual": residuals[check_id],
            "fd_error_estimate": 0.0,     # schema "1": no residual carries FD error
            "tolerance": tol,
            "expected": expected,
            "verdict": verdict,
            "note": notes.get(check_id),
        })
    return {**_model_header(cm), "checks": rows}


def run_all(models, cfg: VerifyConfig | None = None) -> dict:
    """Run the full battery over a list of corpus models."""
    cfg = cfg or VerifyConfig()
    reports = []
    for cm in models:
        try:
            with np.errstate(all="ignore"):     # a non-finite residual is an error, not a warning
                reports.append(run_model_checks(cm, cfg))
        except MODEL_ERRORS as exc:
            text = error_text(exc)
            reports.append({**_model_header(cm), "notes": [f"error: {text}"],
                            "checks": [], "error": text})
    counts = dict.fromkeys(("pass", "fail", "xfail", "xpass", "info", "error"), 0)
    counts.update(Counter(row["verdict"] for rep in reports for row in rep["checks"]))
    ok = not (any(counts[v] for v in FAILING) or any("error" in rep for rep in reports))
    return {
        "schema_version": SCHEMA_VERSION,
        "environment": {
            "seed": cfg.seed,
            "points": cfg.points,
            "fd_step": cfg.fd_step,
            "tolerance_exact": TOL_EXACT,
            "tolerance_fd": 1e-6,     # schema "1"; no row is judged at it
        },
        "models": reports,
        "summary": {**counts, "ok": ok},
    }


def _write(obj, nl, put):
    """Write obj through put as report_to_json does, nested lines indented past nl."""
    if isinstance(obj, str):
        put(_quote(obj))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        put(float.__repr__(x) if math.isfinite(x) else "null")
    elif obj is None or isinstance(obj, (bool, np.bool_)):
        put("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        put(int.__repr__(int(obj)))
    elif isinstance(obj, dict):
        inner, sep = nl + "  ", "{"
        for key in sorted(obj):
            put(f"{sep}{inner}{_quote(key)}: ")
            _write(obj[key], inner, put)
            sep = ","
        put(f"{nl}}}" if obj else "{}")
    elif isinstance(obj, (list, tuple)):
        inner, sep = nl + "  ", "["
        for item in obj:
            put(sep + inner)
            _write(item, inner, put)
            sep = ","
        put(f"{nl}]" if obj else "[]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def report_to_json(report) -> str:
    """Canonical serialization in one pass, byte for byte json.dumps(report,
    indent=2, sort_keys=True) + "\n" over dicts, lists, tuples, str, bool,
    int, float, None and numpy bool, integer and floating, with NaN and +-inf
    written as null.  Identical runs (same seed, same config) produce
    byte-identical output.  _write is not nested: a recursive closure is a
    reference cycle, which keeps every piece of the text until a collection.
    """
    out = []
    _write(report, "\n", out.append)
    out.append("\n")
    return "".join(out)
