import numpy as np
import pytest

from accr.corpus import example1, flat_norden_base
from accr.models import ProductExtensionModel, chart_model, product_extension
from accr.structure import (
    AccrStructure,
    PointFields,
    max_over_points,
    standard_structure,
    structure_property_residuals,
    theorem_3_4_residual,
    validate_structure,
    worst,
)
from tests.conftest import ORIGIN, stencil_field


def coordinate_frame_realization(n=1):
    """Example 1 in its coordinate frame: the metric varies with t and so
    does phi, which exercises the derivative terms of every formula."""
    from accr.corpus import example1_chart

    d = 2 * n + 1
    coframe = example1_chart(n).coframe_fn
    jets = ProductExtensionModel(flat_norden_base(np.eye(n)))   # the same metric's jets
    model = chart_model(d, example1_chart(n).coord_metric_fn, ranges=[(-0.9, 0.9)] * d,
                        metric_derivs=jets.metric_derivs_at, metric_derivs2=jets.metric_derivs2_at)
    frame_structure = standard_structure(model, n)
    phi_f = frame_structure.phi

    def phi(x):
        th = coframe(x)
        return np.linalg.inv(th) @ phi_f @ th

    xi = np.zeros(d)
    xi[0] = 1.0
    eta = np.zeros(d)
    eta[0] = 1.0
    return AccrStructure(model=model, n=n, phi=stencil_field(phi), xi=xi, eta=eta)


class TestValidateStructure:
    def test_example1_exact(self, ex1):
        res = validate_structure(PointFields(ex1.structure, ORIGIN))
        assert max(res.values()) == 0.0

    def test_perturbed_phi_detected(self, ex1):
        phi = ex1.structure.phi.copy()
        phi[1, 1] += 1e-3
        broken = AccrStructure(model=ex1.model, n=1, phi=phi,
                               xi=ex1.structure.xi, eta=ex1.structure.eta)
        res = validate_structure(PointFields(broken, ORIGIN))
        assert 1e-4 < res["phi_squared"] < 1e-2

    def test_extension_over_flat(self):
        _, s = product_extension(flat_norden_base(np.eye(1)))
        for p in s.model.sample_points(5, 21):
            assert max(validate_structure(PointFields(s, p)).values()) < 1e-12

    def test_coordinate_frame_realization(self):
        s = coordinate_frame_realization()
        for p in s.model.sample_points(5, 2):
            assert max(validate_structure(PointFields(s, p)).values()) < 1e-10


class TestFundamentalTensor:
    def test_flat_parallel_f_zero(self, flat):
        f = PointFields(flat.structure, ORIGIN)
        assert np.max(np.abs(f.F)) == 0.0

    def test_example1_f_value(self, ex1):
        f = PointFields(ex1.structure, ORIGIN)
        assert f.F[1, 1, 0] == pytest.approx(-1.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_theta_values(self, n):
        cm = example1(n=n)
        f = PointFields(cm.structure, ORIGIN)
        assert f.theta @ f.xi == pytest.approx(-2.0 * n, abs=1e-12)
        assert np.max(np.abs(f.theta_star)) < 1e-12

    def test_general_identities_on_corpus(self, ex1, ex2_generic, ex3, flat):
        for cm in (ex1, ex2_generic, ex3, flat):
            for p in cm.model.sample_points(3, 4):
                res = structure_property_residuals(PointFields(cm.structure, p))
                assert max(res.values()) < 1e-8, (cm.name, res)

    def test_general_identities_with_varying_phi(self):
        s = coordinate_frame_realization()
        for p in s.model.sample_points(4, 5):
            res = structure_property_residuals(PointFields(s, p))
            assert max(res.values()) < 1e-8, res


class TestNijenhuis:
    def test_flat_both_zero(self, flat):
        f = PointFields(flat.structure, ORIGIN)
        n, nhat = f.nijenhuis_bracket
        assert np.max(np.abs(n)) == 0.0
        assert np.max(np.abs(nhat)) == 0.0
        res = structure_property_residuals(f)
        assert res["nijenhuis_route_gap_n"] == 0.0 and res["nijenhuis_route_gap_nhat"] == 0.0

    def test_example1_nhat_values(self, ex1):
        n, nhat = PointFields(ex1.structure, ORIGIN).nijenhuis_bracket
        # Nhat = -4 (gtilde - eta x eta) (x) xi on this structure
        assert nhat[1, 1, 0] == pytest.approx(0.0, abs=1e-12)
        assert nhat[1, 2, 0] == pytest.approx(4.0, abs=1e-12)
        assert np.max(np.abs(n)) < 1e-12

    def test_route_agreement_example2(self, ex2):
        res = structure_property_residuals(PointFields(ex2.structure, ORIGIN))
        assert res["nijenhuis_route_gap_n"] < 1e-8
        assert res["nijenhuis_route_gap_nhat"] < 1e-8

    def test_route_agreement_with_varying_phi(self):
        s = coordinate_frame_realization()
        for p in s.model.sample_points(4, 6):
            f = PointFields(s, p)
            (n_a, nhat_a), (n_b, nhat_b) = f.nijenhuis_bracket, f.nijenhuis_from_F
            assert np.max(np.abs(n_a - n_b)) < 1e-8
            assert np.max(np.abs(nhat_a - nhat_b)) < 1e-8

    def test_symmetric_bracket_expansion(self, ex2_generic):
        # g({x,y},z) = x g(y,z) + y g(x,z) - z g(x,y) - g([y,z],x) + g([z,x],y)
        f = PointFields(ex2_generic.structure, ORIGIN)
        d = 5
        S = f.gamma + np.einsum("ijk->jik", f.gamma)
        lhs = np.einsum("ijm,mk->ijk", S, f.g)
        rhs = np.zeros((d, d, d))
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    val = f.dg[i, j, k] + f.dg[j, i, k] - f.dg[k, i, j]
                    for m in range(d):
                        val += -f.c[m, j, k] * f.g[m, i] + f.c[m, k, i] * f.g[m, j]
                    rhs[i, j, k] = val
        assert np.max(np.abs(lhs - rhs)) < 1e-13


class TestReconstruction:
    def test_flat_zero(self, flat):
        assert theorem_3_4_residual(PointFields(flat.structure, ORIGIN)) == 0.0

    def test_example1(self, ex1):
        assert theorem_3_4_residual(PointFields(ex1.structure, ORIGIN)) < 1e-10

    def test_example2_generic(self, ex2_generic):
        assert theorem_3_4_residual(PointFields(ex2_generic.structure, ORIGIN)) < 1e-10

    def test_brute_force_oracle_example1(self, ex1):
        """Both sides evaluated with explicit loops over all index triples."""
        f = PointFields(ex1.structure, ORIGIN)
        n_t, nhat_t = f.nijenhuis_bracket
        phi, eta, xi, F = f.phi, f.eta, f.xi, f.F
        d = 3

        def n_phi(t, x, j, k):
            return sum(phi[a, x] * t[a, j, k] for a in range(d))

        worst = 0.0
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    rhs = -0.25 * (
                        n_phi(n_t, i, j, k) + n_phi(n_t, i, k, j)
                        + n_phi(nhat_t, i, j, k) + n_phi(nhat_t, i, k, j)
                    )
                    inner = 0.0
                    for b in range(d):
                        for a in range(d):
                            inner += xi[a] * (n_t[a, j, b] + nhat_t[a, j, b]) * phi[b, k]
                    extra = 0.0
                    for a in range(d):
                        for b in range(d):
                            for cc in range(d):
                                extra += xi[a] * xi[b] * nhat_t[a, b, cc] * phi[cc, j]
                    rhs += 0.5 * eta[i] * (inner + eta[k] * extra)
                    worst = max(worst, abs(F[i, j, k] - rhs))
        assert worst < 1e-12

    def test_chart_and_extension(self, ex1_chart, ex3):
        for cm in (ex1_chart, ex3):
            for p in cm.model.sample_points(3, 7):
                assert theorem_3_4_residual(PointFields(cm.structure, p)) < 1e-6


class TestMaxOverPoints:
    def test_maxima_per_key_and_nested(self):
        vals = {0: {"a": 1.0, "sub": {"b": 3.0}}, 1: {"a": 2.0, "sub": {"b": 0.5}}}
        assert max_over_points([0, 1], vals.get) == {"a": 2.0, "sub": {"b": 3.0}}

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_propagates_from_any_point(self, bad):
        for where in range(3):
            vals = [1.0, 2.0, 0.5]
            vals[where] = bad
            got = max_over_points(range(3), lambda p: {"r": vals[p]})["r"]
            np.testing.assert_equal(got, bad)       # NaN compares equal to NaN here
            np.testing.assert_equal(worst(vals), bad)
