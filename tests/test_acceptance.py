"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here, not configurable.
"""

import math

import numpy as np

from accr.conformal import TransformParams, apply_cct, homothetic_laws, preservation_at
from accr.connection import hsphere_curvature, levi_civita
from accr.corpus import (
    cross_representation_check,
    example1,
    example1_chart,
    example2,
    example2_chart,
    example2_connection_table,
    example3_hsphere_ext,
    flat_parallel,
)
from accr.sasaki import (
    check_defining_conditions,
    check_nabla_phi,
    check_nijenhuis_form,
    cone_holomorphic_residual,
    curvature_identity_residuals,
    gauss_residual,
)
from accr.structure import PointFields, theorem_3_4_residual
from accr.verify import VerifyConfig, report_to_json, run_all

ORIGIN = np.zeros(0)


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def sasaki_residual_trio(structure, points):
    """(defining, nabla-phi form, Nijenhuis form) maxima over points."""
    worst = [0.0, 0.0, 0.0]
    for p in points:
        f = PointFields(structure, p)
        worst[0] = max(worst[0], max(check_defining_conditions(f).values()))
        worst[1] = max(worst[1], check_nabla_phi(f))
        worst[2] = max(worst[2], max(check_nijenhuis_form(f).values()))
    return worst


def test_criterion_1_example1_sasaki_all_n():
    worst = 0.0
    theta_defect = 0.0
    for n in (1, 2, 3):
        cm = example1(n=n)
        trio = sasaki_residual_trio(cm.structure, [ORIGIN])
        worst = max(worst, *trio)
        f = PointFields(cm.structure, ORIGIN)
        theta_defect = max(theta_defect, abs(f.theta @ f.xi + 2.0 * n))
    ok = worst < 1e-9 and theta_defect < 1e-9
    report(1, ok, f"example1 n=1,2,3 sasaki residuals max {worst:.2e}, "
                  f"theta(xi)+2n defect {theta_defect:.2e} (tol 1e-9)")


def test_criterion_2_example2_connection_and_sasaki():
    worst_conn = 0.0
    worst_sasaki = 0.0
    for lam, mu in ((1.0, 0.0), (3.0, -2.0), (0.0, 0.0)):
        cm = example2(lam=lam, mu=mu)
        gamma = levi_civita(cm.model, ORIGIN).gamma
        worst_conn = max(worst_conn, float(np.max(np.abs(
            gamma - example2_connection_table(lam, mu)))))
        worst_sasaki = max(worst_sasaki, *sasaki_residual_trio(cm.structure, [ORIGIN]))
    ok = worst_conn < 1e-12 and worst_sasaki < 1e-9
    report(2, ok, f"example2 connection table max |delta| {worst_conn:.2e} (tol 1e-12), "
                  f"sasaki residuals {worst_sasaki:.2e} (tol 1e-9)")


def test_criterion_3_reconstruction_formula():
    worst_exact = 0.0
    for cm in (example1(1), example1(2), example1(3),
               example2(1.0, 0.0), example2(3.0, -2.0), flat_parallel(1)):
        worst_exact = max(worst_exact, theorem_3_4_residual(PointFields(cm.structure, ORIGIN)))
    worst_fd = 0.0
    for cm in (example1_chart(1), example2_chart(1.0), example3_hsphere_ext(3, 1.0, 0.0)):
        for p in cm.model.sample_points(6, 42):
            worst_fd = max(worst_fd, theorem_3_4_residual(PointFields(cm.structure, p)))
    ok = worst_exact < 1e-9 and worst_fd < 1e-6
    report(3, ok, f"F reconstruction from N, Nhat: group models {worst_exact:.2e} "
                  f"(tol 1e-9), chart/extension {worst_fd:.2e} (tol 1e-6)")


def test_criterion_4_curvature_identities():
    corpus = [example1(1), example1(2), example1(3), example2(1.0, 0.0),
              example2(3.0, -2.0), example1_chart(1), example2_chart(1.0),
              example3_hsphere_ext(3, 1.0, 0.0)]
    worst_curf = 0.0
    worst_ric = 0.0
    worst_rxi = 0.0
    for cm in corpus:
        for p in cm.model.sample_points(4, 42):
            res = curvature_identity_residuals(PointFields(cm.structure, p))
            worst_curf = max(worst_curf, res["phi_commutation"])
            worst_ric = max(worst_ric, res["ric_xi_xi"], res["ric_y_xi"])
            worst_rxi = max(worst_rxi, res["r_xi_x_xi"])
    ok = worst_curf < 1e-6 and worst_ric < 1e-8 and worst_rxi < 1e-8
    report(4, ok, f"phi-commutation {worst_curf:.2e} (tol 1e-6), "
                  f"Ric(xi,xi)=2n {worst_ric:.2e} (tol 1e-8), "
                  f"R(xi,X)xi=-X {worst_rxi:.2e} (tol 1e-8)")


def sample_block(cm, count=20, seed=42):
    return PointFields(cm.structure, np.stack(cm.model.sample_points(count, seed)))


def test_criterion_5_cone_holomorphicity():
    worst = 0.0
    for cm in (example1(1), example1(2), example2(1.0, 0.0), example2(3.0, -2.0)):
        worst = max(worst, np.max(
            cone_holomorphic_residual(sample_block(cm, 6), 6, 42)["holomorphic"]))
    flat_res = np.max(
        cone_holomorphic_residual(sample_block(flat_parallel(1), 6), 6, 42)["holomorphic"])
    ok = worst < 1e-6 and flat_res > 0.1
    report(5, ok, f"cone nabla J residual {worst:.2e} on examples 1-2 (tol 1e-6); "
                  f"parallel model residual {flat_res:.2e} (> 0.1 required)")


def test_criterion_6_gauss_equation():
    worst_gauss = 0.0
    worst_ric = 0.0
    for a, b in ((1.0, 0.0), (3.0, 4.0)):
        cm = example3_hsphere_ext(n=3, a=a, b=b)
        for p in cm.model.sample_points(5, 42):
            f = PointFields(cm.structure, p)
            worst_gauss = max(worst_gauss, gauss_residual(f, base_r=cm.base_r_at(p)))
            res = curvature_identity_residuals(f, base_ric=cm.base_ric_at(p))
            worst_ric = max(worst_ric, res["horizontal_ricci"])
    scal = hsphere_curvature(2, 1.0, 0.0).scal
    ok = worst_gauss < 1e-5 and worst_ric < 1e-5 and scal == 8.0
    report(6, ok, f"gauss residual {worst_gauss:.2e} (tol 1e-5), horizontal Ricci "
                  f"{worst_ric:.2e} (tol 1e-5), closed-form Scal(n=2,a=1,b=0) = {scal}")


def test_criterion_7_conformal_suite():
    cm = example2(1.0, 0.0)
    s = cm.structure
    f = PointFields(s, ORIGIN)
    worst_verdict = 0.0
    worst_ric = 0.0
    worst_conn_law = 0.0
    for u, v in ((0.3, 0.2), (math.log(2.0), math.pi / 6)):
        t = TransformParams(u, v, 0.0)
        fb = apply_cct(f, t)
        worst_verdict = max(worst_verdict, max(check_defining_conditions(fb).values()))
        res = homothetic_laws(f, fb)
        worst_ric = max(worst_ric, res["ricci_invariance"])
        worst_conn_law = max(worst_conn_law, res["connection_formula"])
    w_log2 = TransformParams(0.0, 0.0, math.log(2.0))
    broken = preservation_at(f, apply_cct(f, w_log2))
    third = broken["du_phi_plus_dv"]
    ok = (worst_verdict < 1e-9 and worst_ric < 1e-8 and worst_conn_law < 1e-8
          and abs(third - 1.0) < 1e-12)
    report(7, ok, f"w=0 homotheties keep Sasaki (residual {worst_verdict:.2e}), "
                  f"Ricci invariance {worst_ric:.2e} (tol 1e-8), connection law "
                  f"{worst_conn_law:.2e} (tol 1e-8), w=ln2 third condition = {third} "
                  f"(must equal |1-e^w| = 1)")


def test_criterion_8_cross_representation():
    worst_struct = 0.0
    worst_metric = 0.0
    verdicts_ok = True
    for lie, chart in ((example1(1), example1_chart(1)),
                       (example2(1.0, 0.0), example2_chart(1.0))):
        res = cross_representation_check(lie, chart, sample_block(chart))
        worst_struct = max(worst_struct, np.max(res["structure_equations"]))
        worst_metric = max(worst_metric, np.max(res["metric_assembly"]))
        verdicts_ok = verdicts_ok and np.max(res["verdict_agreement"]) == 0.0
    ok = worst_struct < 1e-7 and worst_metric < 1e-10 and verdicts_ok
    report(8, ok, f"structure equations {worst_struct:.2e} (tol 1e-7), metric "
                  f"values {worst_metric:.2e} (tol 1e-10), verdicts agree: {verdicts_ok}")


def test_criterion_9_determinism():
    cfg = VerifyConfig(points=5, seed=42)
    models_a = [example1(1), example1_chart(1), flat_parallel(1)]
    a = report_to_json(run_all(models_a, cfg))
    models_b = [example1(1), example1_chart(1), flat_parallel(1)]
    b = report_to_json(run_all(models_b, cfg))
    ok = a.encode() == b.encode()
    report(9, ok, f"two runs with seed 42 produce byte-identical reports "
                  f"({len(a.encode())} bytes)")
