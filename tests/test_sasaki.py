from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from accr.cli import main
from accr.corpus import builtin, example2
from accr.errors import NotSasakiLike
from accr.frame_algebra import standard_j, standard_signature
from accr.models import ConeModel
from accr.sasaki import (
    check_corollary,
    check_defining_conditions,
    check_nabla_phi,
    check_nijenhuis_form,
    cone_holomorphic_residual,
    cone_residuals_at,
    curvature_identity_residuals,
    require_sasaki_like,
)
from accr.structure import PointFields, max_over_points
from accr.modelspec import model_from_spec
from accr.verify import FAILING, VerifyConfig, run_model_checks
from tests.conftest import ORIGIN, sample_block, sample_fields, stepped_example1_chart

ROUTES = ("sasaki.defining", "sasaki.nabla_phi", "sasaki.nijenhuis")


def rows(cm, only, **cfg):
    """The verify rows of one model under the check-id prefix only."""
    out = run_model_checks(cm, VerifyConfig(only=only, **cfg))["checks"]
    assert out, only
    return out


def route_holds(cm, prefix, tol, points=4, seed=23):
    """Every row under prefix has its residual within tol."""
    return all(row["max_residual"] <= tol
               for row in rows(cm, prefix, points=points, seed=seed, tol_override=tol))


class TestDefiningConditions:
    def test_example1_passes(self, ex1):
        assert max(check_defining_conditions(PointFields(ex1.structure, ORIGIN)).values()) < 1e-10

    @pytest.mark.parametrize("lam,mu", [(1.0, 0.0), (3.0, -2.0)])
    def test_example2_passes(self, lam, mu):
        s = example2(lam=lam, mu=mu).structure
        assert max(check_defining_conditions(PointFields(s, ORIGIN)).values()) < 1e-10

    def test_flat_fails_exactly_where_it_should(self, flat):
        res = check_defining_conditions(PointFields(flat.structure, ORIGIN))
        assert res["f_horizontal"] == 0.0
        assert res["f_xi_first_slot"] == 0.0
        assert res["f_xi_xi"] == 0.0
        # F = 0 while -g(X, X) = -1, so the defect is exactly max |g| = 1
        assert res["f_equals_minus_g"] == pytest.approx(1.0)


class TestNablaPhiForm:
    def test_example1(self, ex1):
        assert check_nabla_phi(PointFields(ex1.structure, ORIGIN)) < 1e-10

    def test_xi_xi_slot_trivial(self, ex1):
        f = PointFields(ex1.structure, ORIGIN)
        lhs = np.einsum("a,b,abk->k", f.xi, f.xi, f.F)
        gpp = np.einsum("ai,bj,ab->ij", f.phi, f.phi, f.g)
        rhs = np.einsum("a,b,ij,k->abijk", f.xi, f.xi, gpp, f.eta)  # vanishes
        assert np.max(np.abs(lhs)) < 1e-14
        assert np.max(np.abs(np.einsum("a,b,ab->", f.xi, f.xi, gpp))) < 1e-14

    def test_extension_over_hsphere(self, ex3):
        for p in ex3.model.sample_points(4, 3):
            assert check_nabla_phi(PointFields(ex3.structure, p)) < 1e-6

    def test_flat_fails(self, flat):
        assert check_nabla_phi(PointFields(flat.structure, ORIGIN)) == pytest.approx(1.0)


class TestNijenhuisForm:
    def test_example1(self, ex1):
        res = check_nijenhuis_form(PointFields(ex1.structure, ORIGIN))
        assert max(res.values()) < 1e-8

    def test_flat_nhat_defect(self, flat):
        res = check_nijenhuis_form(PointFields(flat.structure, ORIGIN))
        assert res["n_zero"] == 0.0
        # Nhat = 0 but the target form is -4 (gtilde - eta x eta) (x) xi
        f = PointFields(flat.structure, ORIGIN)
        expected = 4.0 * np.max(np.abs(f.gtilde - np.outer(f.eta, f.eta)))
        assert res["nhat_form"] == pytest.approx(expected)
        assert res["nhat_form"] == pytest.approx(4.0)


class TestCorollary:
    def test_example1_theta(self, ex1):
        res = check_corollary(PointFields(ex1.structure, ORIGIN))
        assert res["theta_plus_2n_eta"] == 0.0
        assert max(res.values()) < 1e-10

    def test_example2_d_eta(self, ex2):
        res = check_corollary(PointFields(ex2.structure, ORIGIN))
        assert res["d_eta"] == 0.0

    def test_geodesic_xi_everywhere(self, ex1, ex2_generic, ex3):
        for cm in (ex1, ex2_generic, ex3):
            for p in cm.model.sample_points(3, 17):
                res = check_corollary(PointFields(cm.structure, p))
                assert res["nabla_xi_xi"] < 1e-8
                assert res["bracket_xi_horizontal"] < 1e-8
                assert res["nabla_xi_transport"] < 1e-6


class TestCurvatureIdentities:
    def test_example1_values(self, ex1):
        f = PointFields(ex1.structure, ORIGIN)
        res = curvature_identity_residuals(f)
        assert max(res.values()) < 1e-8
        # R(xi, e1) xi = -e1 componentwise
        t = np.einsum("i,k,ijkl->jl", f.xi, f.xi, f.curvature.r_up)
        assert np.allclose(t[1], [0.0, -1.0, 0.0], atol=1e-12)

    def test_phi_commutation_brute_force(self, ex2):
        """Loop evaluation of both sides over all 5^4 tuples."""
        f = PointFields(ex2.structure, ORIGIN)
        r, g, phi, eta = f.curvature.r, f.g, f.phi, f.eta
        d = 5
        gphi = g @ phi
        worst = 0.0
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    for l in range(d):
                        lhs = sum(r[i, j, a, l] * phi[a, k] for a in range(d)) \
                            - sum(r[i, j, k, a] * phi[a, l] for a in range(d))
                        rhs = (
                            (g[j, k] - 2 * eta[j] * eta[k]) * gphi[i, l]
                            + (g[j, l] - 2 * eta[j] * eta[l]) * gphi[i, k]
                            - (g[i, k] - 2 * eta[i] * eta[k]) * gphi[j, l]
                            - (g[i, l] - 2 * eta[i] * eta[l]) * gphi[j, k]
                        )
                        worst = max(worst, abs(lhs - rhs))
        assert worst < 1e-8

    def test_flat_raises(self, flat):
        with pytest.raises(NotSasakiLike):
            require_sasaki_like(PointFields(flat.structure, ORIGIN))

    def test_horizontal_ricci_on_extension(self, ex3):
        for p in ex3.model.sample_points(3, 19):
            res = curvature_identity_residuals(
                PointFields(ex3.structure, p), base_ric=ex3.base_ric_at(p))
            assert res["horizontal_ricci"] < 1e-5
            assert res["ric_xi_xi"] < 1e-8

    def test_curf_specializes_to_cur(self, ex2_generic):
        # setting z = xi in the phi-commutation identity reproduces
        # R(x,y) xi = eta(y) x - eta(x) y; both residuals must agree
        res = curvature_identity_residuals(PointFields(ex2_generic.structure, ORIGIN))
        assert abs(res["phi_commutation"] - res["r_xy_xi"]) < 1e-8 \
            or max(res["phi_commutation"], res["r_xy_xi"]) < 1e-8


def cone_check(cm, count=6, seed=42):
    """The cone check over cm's first count sample points, folded over its
    cone points."""
    return max_over_points([cone_holomorphic_residual(sample_block(cm, count, seed), count, seed)],
                           lambda res: res)


class TestConeHolomorphicity:
    def test_example1_cone(self, ex1):
        check = cone_check(ex1)
        assert check["holomorphic"] < 1e-8
        # one value per cone point, in the order of the radii: the first at r = -1
        part = cone_holomorphic_residual(sample_block(ex1, 6, 42), 6, 42)
        pairs = dict(zip(np.round(ConeModel.radii(6, 42), 6).tolist(), part["holomorphic"]))
        assert len(pairs) == 6 and pairs[-1.0] < 1e-8

    def test_example2_cone(self, ex2_generic):
        assert cone_check(ex2_generic)["holomorphic"] < 1e-8

    def test_chart_cone(self, ex1_chart):
        assert cone_check(ex1_chart)["holomorphic"] < 1e-6

    def test_flat_cone_fails(self, flat):
        check = cone_check(flat)
        # the defect is the Sasaki defect of F scaled by r^2 >= 0.25
        assert check["holomorphic"] > 0.1

    @pytest.mark.parametrize("name", ["ex1", "ex1_chart", "flat"])
    def test_residuals_at_each_cone_point(self, name, request):
        # 6 cone points over at most 4 sample points (a group model has one):
        # cone point k lies over sample point k % len(fields)
        cm = request.getfixturevalue(name)
        fields = sample_fields(cm, 4, 42)
        check = max_over_points([cone_holomorphic_residual(sample_block(cm, 4, 42), 6, 42)],
                                lambda res: res)
        radii = ConeModel.radii(6, 42)
        at = [cone_residuals_at(fields[k % len(fields)], r) for k, r in enumerate(radii)]
        assert check["holomorphic"] == max(res["holomorphic"] for res in at)
        for group in ("line", "dj_xi"):
            assert check[group] == {key: max(res[group][key] for res in at)
                                    for key in at[0][group]}
        part = cone_holomorphic_residual(sample_block(cm, 4, 42), 6, 42)
        assert list(zip(radii, part["holomorphic"].tolist())) == \
            [(r, float(res["holomorphic"])) for r, res in zip(radii, at)]

    def test_displayed_connection_lines(self, ex1):
        check = cone_check(ex1)
        assert max(check["line"].values()) < 1e-9

    def test_radial_line_at_specific_r(self, ex1):
        # g_cone(nabla_X d/dr, Z) = r g(X, Z) evaluated at r = -1.5
        from accr.connection import levi_civita

        cone = ConeModel(PointFields(ex1.structure, ORIGIN))
        p = np.array([-1.5])
        gamma = levi_civita(cone, p).gamma
        G = cone.metric_at(p)
        g = ex1.model.metric_at(ORIGIN)
        lhs = np.einsum("am,mk->ak", gamma[:3, 3, :], G)[:, :3]
        # horizontal arguments only (e_1, e_2); the xi row follows the
        # vertical lines instead
        assert np.max(np.abs(lhs[1:, 1:] - (-1.5) * g[1:, 1:])) < 1e-9

    def test_dj_xi_line_agreement(self, ex1, ex2):
        for cm in (ex1, ex2):
            check = cone_check(cm)
            assert check["dj_xi"]["direct_vs_symmetric_reading"] < 1e-9

    def test_cone_metric_defect_fails_the_lines(self, flat, monkeypatch, capsys):
        """A 1 % error in the radial block of the cone's dg hides behind the
        designed failure cone.holomorphic, but the judged lines fail, in
        verify and in accr cone."""
        assert main(["cone", "-m", "flat_parallel"]) == 0
        derivs = ConeModel.metric_derivs_at

        def perturbed(self, p):
            D = derivs(self, p)
            d = self.dim - 1
            D[..., d, :d, :d] *= 1.01
            return D

        monkeypatch.setattr(ConeModel, "metric_derivs_at", perturbed)
        verdicts = {r["check_id"]: r["verdict"] for r in rows(flat, "cone")}
        assert verdicts["cone.holomorphic"] == "xfail"
        assert verdicts["cone.line.radial_argument"] == "fail"
        assert main(["cone", "-m", "flat_parallel"]) == 1


class TestReportCoherence:
    def test_equivalent_conditions_agree(self, ex1, ex2, ex1_chart, ex3, flat):
        # the defining conditions, the nabla phi form and the Nijenhuis form
        # give one verdict on each model, the expected one
        for cm, tol in ((ex1, 1e-9), (ex2, 1e-9), (ex1_chart, 1e-6),
                        (ex3, 1e-6), (flat, 1e-9)):
            assert {route_holds(cm, prefix, tol) for prefix in ROUTES} \
                == {cm.sasaki_expected}, cm.name

    def test_full_report_with_cone_and_curvature(self, ex2):
        sasaki = {r["check_id"]: r for r in rows(ex2, "sasaki", points=2, seed=3)}
        cone = {r["check_id"]: r for r in rows(ex2, "cone.holomorphic", points=2, seed=3)}
        assert {r["verdict"] for r in [*sasaki.values(), *cone.values()]} == {"pass"}
        assert cone["cone.holomorphic"]["max_residual"] < 1e-9
        assert sasaki["sasaki.curvature.horizontal_ricci"]["max_residual"] < 1e-9

    def test_is_sasaki_like_helper(self, ex1, flat):
        # the defining-condition verdict over the sample points, at 1e-6
        assert route_holds(ex1, "sasaki.defining", 1e-6, points=1)
        assert not route_holds(flat, "sasaki.defining", 1e-6, points=1)

    def test_report_fails_closed_on_nan(self):
        cm = stepped_example1_chart(n=1, step=0.0)
        with np.errstate(all="ignore"):      # a zero step gives NaN finite differences
            verdicts = {r["verdict"] for r in rows(cm, "sasaki", points=2, seed=3)}
        assert verdicts == {"error"}


FRAMED = (("example1", (("n", 1),)), ("example1", (("n", 2),)),
          ("example2", (("lam", 3.0), ("mu", -2.0))))


def framed_spec(name, params, P):
    """The group builtin as a lie_group spec in the frame e'_a = P[b, a] e_b
    (P[0] = e_0, so xi and eta keep index 0): metric P^T g P, phi P^-1 phi P
    and brackets c'^l_ab = (P^-1)[l, k] c^k_ij P[i, a] P[j, b]."""
    cm = builtin(name, **dict(params))
    inv = np.linalg.inv(P)
    g = P.T @ cm.model.metric.components @ P
    c = np.einsum("lk,kij,ia,jb->lab", inv, cm.model.c, P, P)
    d = len(P)
    return {"kind": "lie_group", "n": cm.structure.n, "xi_index": 0,
            "metric": ((g + g.T) / 2).tolist(), "phi": (inv @ cm.structure.phi @ P).tolist(),
            "structure_constants": [{"i": i, "j": j, "k": k, "value": float(c[k, i, j])}
                                    for k in range(d) for i in range(d) for j in range(i + 1, d)]}


def framed_verdicts(name, params, P):
    """{check_id: verdict} of the framed spec at VerifyConfig(points=4)."""
    cm = model_from_spec(framed_spec(name, params, P))
    return {row["check_id"]: row["verdict"]
            for row in run_model_checks(cm, VerifyConfig(points=4))["checks"]}


@lru_cache(maxsize=None)
def standard_verdicts(name, params):
    return framed_verdicts(name, params, np.eye(2 * dict(params).get("n", 2) + 1))


class TestFrameCovariance:
    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(FRAMED), st.data())
    def test_verdicts_do_not_depend_on_the_frame(self, model, data):
        # P = diag(1, I + 0.4 N): a frame of the same group with the same xi,
        # in which no component of the metric or of phi is standard
        name, params = model
        m = 2 * dict(params).get("n", 2)
        N = data.draw(arrays(np.float64, (m, m), elements=st.floats(-2.0, 2.0)))
        P = np.eye(m + 1)
        P[1:, 1:] += 0.4 * N
        assume(np.linalg.cond(P) <= 25)
        assert framed_verdicts(name, params, P) == standard_verdicts(name, params)

    def test_a_frame_whose_first_vectors_are_isotropic(self):
        # e'_1 = 0.6 (e_1 - e_2 - e_3 - e_4) has B(e'_1, e'_1) = 0, so the
        # adapted frame of the homothetic checks has to pivot past it
        params = (("n", 2),)
        P = np.eye(5)
        P[1:, 1:] += 0.4 * np.full((4, 4), -1.5)
        P[1, 1] += 0.2
        assert framed_verdicts("example1", params, P) == standard_verdicts("example1", params)


def commutant(K, n):
    """The orthogonal projection of K onto {K : [K, J] = 0, hK + K^T h = 0},
    h the horizontal standard metric: the two projections commute, J being
    h-symmetric."""
    J, h = standard_j(n), np.diag(standard_signature(n)[1:])
    K = (K - J @ K @ J) / 2
    return (K - h @ K.T @ h) / 2


def semidirect_rows(A, n, sasaki_expected):
    """{check_id: row} at VerifyConfig(points=4) of the algebra R x_A R^2n,
    [e_0, e_i] = A e_i on an abelian horizontal space, with the standard
    metric and structure: a lie_group spec, so no leaf curvature is attached."""
    d = 2 * n
    spec = {"kind": "lie_group", "n": n, "sasaki_expected": sasaki_expected,
            "structure_constants": [{"i": 0, "j": a + 1, "k": b + 1, "value": float(A[b, a])}
                                    for a in range(d) for b in range(d)]}
    checks = run_model_checks(model_from_spec(spec), VerifyConfig(points=4))["checks"]
    return {row["check_id"]: row for row in checks}


class TestDefinitionAgainstCharacterisation:
    """The definition (a holomorphic complex cone, cone.holomorphic) against
    the F characterisation (sasaki.nabla_phi) on A = J + K: example 1 is
    K = 0 and example 2 a K in the commutant."""

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([1, 2]), st.data())
    def test_commutant_draws_are_sasaki_like(self, n, data):
        K = data.draw(arrays(np.float64, (2 * n, 2 * n), elements=st.floats(-2.0, 2.0)))
        rows = semidirect_rows(standard_j(n) + commutant(K, n), n, sasaki_expected=True)
        assert not {key: row["verdict"] for key, row in rows.items()
                    if row["verdict"] in FAILING}

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([1, 2]), st.floats(1e-3, 0.3), st.data())
    def test_generic_draws_fail_both_routes(self, n, scale, data):
        # off the commutant neither route holds; the other PASS rows are not
        # asserted here, four of them fail on these draws
        N = data.draw(arrays(np.float64, (2 * n, 2 * n), elements=st.floats(-1.0, 1.0)))
        K = scale * N
        assume(np.linalg.norm(K - commutant(K, n)) >= 1e-3)
        rows = semidirect_rows(standard_j(n) + K, n, sasaki_expected=False)
        for key in ("cone.holomorphic", "sasaki.nabla_phi"):
            assert rows[key]["max_residual"] > rows[key]["tolerance"], key
