"""Correctness checks on the workloads' outputs.

``check_op`` reads one command's JSON report and returns a list of problems
(empty when the report is right).  ``independent_checks`` compares the
program with ``independent`` on every model a workload touches.  Neither
runs inside a timed region.
"""

from __future__ import annotations

import math

import numpy as np

import accr
import independent as ind
from workloads import BREAK_W, CONE_POINTS, LINEAR_COEF

STRUCTURE = ["structure." + k for k in (
    "phi_xi", "phi_squared", "eta_phi", "eta_xi", "metric_compat",
    "gtilde_symmetry", "signature_g", "signature_gtilde")]
IDENTITY = ["identity." + k for k in (
    "f_last_two_symmetry", "f_phi_phi_relation", "theta_star_phi_relation",
    "nabla_eta_from_f", "nabla_eta_from_xi", "f_xixi_vs_nhat",
    "nijenhuis_route_gap_n", "nijenhuis_route_gap_nhat", "f_reconstruction")]
CONNECTION = ["connection.torsion_free", "connection.metric_compatibility"]
CURVATURE = ["curvature." + k for k in (
    "antisym_first_pair", "antisym_last_pair", "pair_interchange",
    "first_bianchi", "ricci_symmetry")]
DEFINING = ["f_horizontal", "f_xi_first_slot", "f_xi_xi", "f_equals_minus_g"]
SASAKI = (["sasaki.defining." + k for k in DEFINING]
          + ["sasaki.nabla_phi"]
          + ["sasaki.nijenhuis." + k for k in ("n_zero", "nhat_form", "nhat_xi_slot")]
          + ["sasaki.corollary." + k for k in (
              "d_eta", "nabla_xi_xi", "theta_plus_2n_eta", "theta_star",
              "bracket_xi_horizontal", "nabla_xi_transport")]
          + ["sasaki.curvature." + k for k in (
              "phi_commutation", "r_xy_xi", "r_xi_x_xi", "ric_xi_xi", "ric_y_xi",
              "r_xi_third_slot")])
EVERY_MODEL = (STRUCTURE + IDENTITY + CONNECTION + CURVATURE + SASAKI
               + ["gauss.second_fundamental_form", "cone.holomorphic"])
PRESERVE = ["dw_phi", "du_minus_dv_phi", "du_phi_plus_dv", "du_xi", "dv_xi",
            "one_form_a", "one_form_b", "f_bar_direct"]
CONFORMAL = (["conformal.preserve." + k for k in PRESERVE]
             + ["conformal.preserve.transformed_defining",
                "conformal.preserve.transformed_axioms",
                "conformal.break.du_phi_plus_dv", "conformal.break.f_bar_direct"])
HOMOTHETIC_LAWS = ["curvature_formula", "ricci_invariance", "scal_formula",
                   "scal_star_formula", "rotated_basis_orthonormal",
                   "scal_from_basis", "scal_star_from_basis"]
HOMOTHETIC = (["conformal.homothetic.connection_formula"]
              + ["conformal.homothetic." + k for k in HOMOTHETIC_LAWS]
              + ["conformal.eta_fit.residual"])
LEAF = ["gauss.residual", "sasaki.curvature.horizontal_ricci"]
CROSSREP = ["crossrep." + k for k in ("structure_equations", "metric_assembly",
                                      "verdict_agreement")]
# the rows a parallel structure (F = 0) must fail
DESIGNED_FAIL = {
    "sasaki.defining.f_equals_minus_g", "sasaki.nabla_phi",
    "sasaki.nijenhuis.nhat_form", "sasaki.corollary.theta_plus_2n_eta",
    "sasaki.corollary.nabla_xi_transport", "sasaki.curvature.phi_commutation",
    "sasaki.curvature.r_xy_xi", "sasaki.curvature.r_xi_x_xi",
    "sasaki.curvature.ric_xi_xi", "sasaki.curvature.ric_y_xi",
    "sasaki.curvature.r_xi_third_slot", "gauss.second_fundamental_form",
    "cone.holomorphic",
}

CONE_HOLOMORPHIC = 1e-6      # Sasaki-like bases: cone nabla J below this
CONE_DESIGNED_FAIL = 0.1     # the parallel model: cone nabla J above this
EXACT_TOL, FD_TOL = 1e-9, 1e-6


def required_rows(info) -> list:
    rows = list(EVERY_MODEL)
    if info.sasaki:
        rows += CONFORMAL
        if info.exact:
            rows += HOMOTHETIC
        if info.leaf_curvature:
            rows += LEAF
    if info.crossrep:
        rows += CROSSREP
    return rows


def _finite(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _numbers_finite(obj, where, problems):
    """Every number in a transform/cone report is finite; the canonical
    JSON writes a non-finite float as null, so a null is a problem too."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            _numbers_finite(v, f"{where}.{k}", problems)
    elif isinstance(obj, list):
        for k, v in enumerate(obj):
            _numbers_finite(v, f"{where}[{k}]", problems)
    elif obj is None or (isinstance(obj, float) and not math.isfinite(obj)):
        problems.append(f"{where}: not a finite number ({obj!r})")


def _check_verify(report, op, problems):
    if not report["summary"]["ok"]:
        problems.append(f"summary not ok: {report['summary']}")
    got = [(m["name"], m["params"]) for m in report["models"]]
    want = [(i.name, i.params) for i in op.models]
    if [g[0] for g in got] != [w[0] for w in want]:
        problems.append(f"models {got} != {want}")
        return
    for info, model in zip(op.models, report["models"]):
        where = info.name
        if "error" in model:
            problems.append(f"{where}: error {model['error']}")
            continue
        rows = {r["check_id"]: r for r in model["checks"]}
        missing = [k for k in required_rows(info) if k not in rows]
        if missing:
            problems.append(f"{where}: missing rows {missing}")
        for cid, r in rows.items():
            if not _finite(r["max_residual"]) or not _finite(r["fd_error_estimate"]):
                problems.append(f"{where} {cid}: non-finite residual or estimate")
            if r["verdict"] == "info":
                if r["tolerance"] is not None:
                    problems.append(f"{where} {cid}: info row with a tolerance")
            elif not _finite(r["tolerance"]):
                problems.append(f"{where} {cid}: non-finite tolerance")
        cone = rows.get("cone.holomorphic", {}).get("max_residual")
        if not info.sasaki:
            wrong = sorted(k for k in DESIGNED_FAIL if rows.get(k, {}).get("verdict") != "xfail")
            if wrong:
                problems.append(f"{where}: designed failures not xfail: {wrong}")
            if not (_finite(cone) and cone > CONE_DESIGNED_FAIL):
                problems.append(f"{where}: cone residual {cone} not above {CONE_DESIGNED_FAIL}")
        elif not (_finite(cone) and cone < CONE_HOLOMORPHIC):
            problems.append(f"{where}: cone residual {cone} not below {CONE_HOLOMORPHIC}")


def _check_transform(report, op, problems):
    info = op.models[0]
    tol = EXACT_TOL if info.exact else FD_TOL
    if len(report["models"]) != 1:
        problems.append(f"expected one model, got {len(report['models'])}")
        return
    entry = report["models"][0]
    if "error" in entry:
        problems.append(f"error {entry['error']}")
        return
    pres = entry.get("preservation", {})
    missing = [k for k in PRESERVE if k not in pres]
    if missing or sorted(entry.get("transformed_defining", {})) != sorted(DEFINING):
        problems.append(f"missing preservation/defining keys {missing}")
        return
    if op.transform == "homothetic":
        laws = entry.get("laws", {})
        if ("connection_formula_residual" not in entry
                or any(k not in laws for k in HOMOTHETIC_LAWS)):
            problems.append("homothetic laws missing")
        worst = max(pres.values())
        if not entry["sasaki_preserved"] or worst > tol:
            problems.append(f"homothetic w=0 must preserve Sasaki-like ({worst:.3e})")
    elif op.transform == "break":
        # du o phi + dv - (1 - e^w) eta with du = dv = 0 and |eta| = 1
        gap = abs(pres["du_phi_plus_dv"] - abs(1.0 - math.exp(BREAK_W)))
        if gap > 1e-12:
            problems.append(f"w = log 2 break: du_phi_plus_dv off by {gap:.3e}")
        if entry["sasaki_preserved"]:
            problems.append("w = log 2 must break the Sasaki-like property")
    elif op.transform == "linear":
        # v = c t with xi = d/dt: dv = c eta, so du o phi + dv misses by c
        gap = abs(pres["du_phi_plus_dv"] - LINEAR_COEF)
        if gap > 1e-8:
            problems.append(f"linear_t: du_phi_plus_dv off by {gap:.3e}")
        if entry["sasaki_preserved"]:
            problems.append("non-constant v = c t must not preserve Sasaki-like")


def _check_cone(report, op, problems):
    info = op.models[0]
    entry = report["models"][0]
    res = entry["residual"]
    if entry["holomorphic"] != info.sasaki or entry["expected_holomorphic"] != info.sasaki:
        problems.append(f"holomorphic={entry['holomorphic']} for sasaki={info.sasaki}")
    if info.sasaki and not res < CONE_HOLOMORPHIC:
        problems.append(f"cone residual {res} not below {CONE_HOLOMORPHIC}")
    if not info.sasaki and not res > CONE_DESIGNED_FAIL:
        problems.append(f"cone residual {res} not above {CONE_DESIGNED_FAIL}")
    if len(entry["per_point"]) != CONE_POINTS:
        problems.append(f"{len(entry['per_point'])} cone points, expected {CONE_POINTS}")


def check_op(op, report) -> list:
    problems: list = []
    if op.kind == "verify":
        _check_verify(report, op, problems)
    else:
        _numbers_finite(report, op.kind, problems)
        if not problems:
            (_check_transform if op.kind == "transform" else _check_cone)(report, op, problems)
    return [f"{' '.join(op.argv[:3])}: {p}" for p in problems]


def independent_checks(inputs, rng) -> list:
    """Koszul solves, the Example 2 table and Ric(xi, xi) = 2n, computed
    apart from the program and compared with it."""
    problems = []
    origin = np.zeros(0)
    for info, cm in zip(inputs.infos, inputs.models):
        if info.exact:
            gamma = ind.koszul_lie(info.constants, ind.signature(info.n))
            got = accr.levi_civita(cm.model, origin).gamma
            gap = float(np.max(np.abs(got - gamma)))
            if gap > 1e-12:
                problems.append(f"{info.name} {info.params}: Koszul gap {gap:.3e}")
            if info.name == "example2" or info.name.endswith("_example2"):
                table = ind.example2_table(info.params["lam"], info.params["mu"])
                gap = max(float(np.max(np.abs(got - table))),
                          float(np.max(np.abs(gamma - table))))
                if gap > 1e-12:
                    problems.append(f"{info.name} {info.params}: table gap {gap:.3e}")
            if info.sasaki:
                ric = ind.ricci_xi_xi_lie(info.constants, gamma)
                if abs(ric - 2 * info.n) > 1e-12:
                    problems.append(f"{info.name} {info.params}: Ric(xi,xi) = {ric}")
        elif info.sasaki:
            problems += _chart_ricci(info, rng)
    return problems


def _chart_ricci(info, rng) -> list:
    p = info.params
    if info.name == "example1_chart":
        metric, box = ind.example1_chart_metric(p["n"]), [0.8] * (2 * p["n"] + 1)
    elif info.name == "example2_chart":
        metric, box = ind.example2_chart_metric(p["lam"]), [0.8] * 5
    else:
        metric = ind.hsphere_extension_metric(p["n"], p["a"], p["b"])
        box = [1.1] + [0.2] * (2 * p["n"])
    problems = []
    for _ in range(3):
        x = np.array([rng.uniform(-r, r) for r in box])
        ric = ind.coordinate_ricci_00(metric, x)
        if abs(ric - 2 * info.n) > 1e-6:
            problems.append(f"{info.name} at {x}: Ric(xi,xi) = {ric}, expected {2 * info.n}")
    return problems
