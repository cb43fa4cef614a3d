import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from accr.connection import (
    HSphereCurvature,
    hsphere_curvature,
    levi_civita,
    standard_norden_pair,
)
from accr.corpus import (
    builtin,
    example2,
    example2_connection_table,
    example3_hsphere_ext,
    hsphere_base,
)
from accr.errors import DegenerateParameters, NotSasakiLike
from accr.frame_algebra import kulkarni_nomizu, standard_j
from accr.models import leaf_rotation
from accr.sasaki import gauss_residual, second_fundamental_form_residual
from accr.structure import PointFields
from tests.conftest import ORIGIN


def hsphere_leaf_reference(t, n, a, b, h, htilde):
    """The closed-form leaf curvature of the extension over an h-sphere,

        R^h = [ (a cos 2t + b sin 2t)(pi1 - pi2)
              - (b cos 2t - a sin 2t) pi3 ] / (a^2 + b^2),

    with pi1 = h ^ h / 2, pi2 = htilde ^ htilde / 2, pi3 = -h ^ htilde built
    from the base-point restricted metrics."""
    pi1 = 0.5 * kulkarni_nomizu(h, h)
    pi2 = 0.5 * kulkarni_nomizu(htilde, htilde)
    pi3 = -kulkarni_nomizu(h, htilde)
    ct, s2t = np.cos(2 * t), np.sin(2 * t)
    return ((a * ct + b * s2t) * (pi1 - pi2) - (b * ct - a * s2t) * pi3) / (a * a + b * b)


def koszul_reference(model, p):
    """Plain-loop Koszul solve, independent of the einsum implementation."""
    d = model.dim
    g = model.metric_at(p)
    dg = model.metric_derivs_at(p)
    c = model.commutators_at(p)
    ginv = np.linalg.inv(g)
    gamma = np.zeros((d, d, d))
    for i in range(d):
        for j in range(d):
            rhs = np.zeros(d)
            for k in range(d):
                val = dg[i, j, k] + dg[j, k, i] - dg[k, i, j]
                for m in range(d):
                    val += c[m, i, j] * g[m, k] - c[m, j, k] * g[m, i] + c[m, k, i] * g[m, j]
                rhs[k] = 0.5 * val
            gamma[i, j] = ginv @ rhs
    return gamma


def curvature_reference(model, p):
    """R(e_i, e_j) e_k by direct operator composition on a homogeneous model."""
    d = model.dim
    gamma = koszul_reference(model, p)
    c = model.commutators_at(p)

    def nabla(i, vec):
        out = np.zeros(d)
        for a in range(d):
            out += vec[a] * gamma[i, a]
        return out

    r_up = np.zeros((d, d, d, d))
    for i in range(d):
        for j in range(d):
            for k in range(d):
                ek = np.zeros(d)
                ek[k] = 1.0
                term = nabla(i, gamma[j, k]) - nabla(j, gamma[i, k])
                for m in range(d):
                    term -= c[m, i, j] * gamma[m, k]
                r_up[i, j, k] = term
    return r_up


def stencil_curvature(model, p):
    """R(e_i, e_j) e_k with e_a(Gamma) from the 4th-order finite differences
    of the Koszul solution at the model's fd_step, independent of its second
    jets."""
    gamma = levi_civita(model, p).gamma
    dgamma = model.frame_derivative(p, lambda q: levi_civita(model, q).gamma)
    c = model.commutators_at(p)
    return (dgamma - np.einsum("jikl->ijkl", dgamma)
            + np.einsum("jkm,iml->ijkl", gamma, gamma) - np.einsum("ikm,jml->ijkl", gamma, gamma)
            - np.einsum("mij,mkl->ijkl", c, gamma))


class TestLeviCivita:
    def test_flat_abelian_zero(self, flat):
        gamma = levi_civita(flat.model, ORIGIN).gamma
        assert np.max(np.abs(gamma)) == 0.0

    def test_example1_coefficients(self, ex1):
        gamma = levi_civita(ex1.model, ORIGIN).gamma
        expected = np.zeros((3, 3, 3))
        expected[1, 0, 2] = -1.0   # nabla_{e1} e0 = -e2
        expected[1, 2, 0] = -1.0   # nabla_{e1} e2 = -e0
        expected[2, 0, 1] = 1.0    # nabla_{e2} e0 = e1
        expected[2, 1, 0] = -1.0   # nabla_{e2} e1 = -e0
        assert np.max(np.abs(gamma - expected)) < 1e-15

    @pytest.mark.parametrize("lam,mu", [(1.0, 0.0), (3.0, -2.0), (0.0, 0.0), (2.0, 1.0)])
    def test_example2_displayed_table(self, lam, mu):
        cm = example2(lam=lam, mu=mu)
        gamma = levi_civita(cm.model, ORIGIN).gamma
        assert np.max(np.abs(gamma - example2_connection_table(lam, mu))) < 1e-12

    def test_agrees_with_loop_reference(self, ex2_generic, ex1_chart):
        for cm in (ex2_generic, ex1_chart):
            for p in cm.model.sample_points(3, 5):
                a = levi_civita(cm.model, p).gamma
                b = koszul_reference(cm.model, p)
                assert np.max(np.abs(a - b)) < 1e-12

    def test_torsion_and_compatibility(self, ex1, ex2_generic, ex3):
        for cm in (ex1, ex2_generic, ex3):
            for p in cm.model.sample_points(4, 6):
                conn = levi_civita(cm.model, p)
                assert conn.torsion_residual() < 1e-8
                assert conn.metric_compat_residual() < 1e-8


class TestRiemann:
    def test_flat_zero(self, flat):
        bundle = PointFields(flat.structure, ORIGIN).curvature
        assert np.max(np.abs(bundle.r)) == 0.0
        assert bundle.scal == 0.0

    def test_example1_sectional_value(self, ex1):
        bundle = PointFields(ex1.structure, ORIGIN).curvature
        assert bundle.r[1, 2, 2, 1] == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_ric_xi_xi(self, n):
        from accr.corpus import example1

        cm = example1(n=n)
        bundle = PointFields(cm.structure, ORIGIN).curvature
        xi = cm.structure.xi
        assert xi @ bundle.ric @ xi == pytest.approx(2.0 * n, abs=1e-12)

    def test_matches_loop_reference(self, ex2_generic):
        r_up = PointFields(ex2_generic.structure, ORIGIN).curvature.r_up
        ref = curvature_reference(ex2_generic.model, ORIGIN)
        assert np.max(np.abs(r_up - ref)) < 1e-13

    def test_symmetries(self, ex1, ex2_generic, ex3):
        for cm in (ex1, ex2_generic, ex3):
            p = cm.model.sample_points(2, 7)[0]
            res = PointFields(cm.structure, p).curvature.symmetry_residuals()
            assert max(res.values()) < 1e-7

    @pytest.mark.parametrize("name", ["example1_chart", "example2_chart", "example3_hsphere_ext"])
    def test_jet_curvature_matches_the_stencil(self, name):
        # the closed-form e_a(Gamma) of a chart against the finite
        # differences of the Koszul solution
        cm = builtin(name)
        for p in cm.model.sample_points(5, 3):
            r_up = PointFields(cm.structure, p).curvature.r_up
            assert np.max(np.abs(r_up - stencil_curvature(cm.model, p))) < 1e-8

    def test_chart_matches_group_curvature(self, ex1, ex1_chart):
        ref = PointFields(ex1.structure, ORIGIN).curvature.r
        for p in ex1_chart.model.sample_points(3, 9):
            r = PointFields(ex1_chart.structure, p).curvature.r
            assert np.max(np.abs(r - ref)) < 1e-8


class TestHSphereCurvature:
    def test_scal_n2(self):
        assert hsphere_curvature(2, 1.0, 0.0).scal == pytest.approx(8.0)

    def test_b_zero_gives_pi1_minus_pi2(self):
        cf = hsphere_curvature(2, 1.0, 0.0)
        h, ht = standard_norden_pair(2)
        expected = 0.5 * (kulkarni_nomizu(h, h) - kulkarni_nomizu(ht, ht))
        assert np.max(np.abs(cf.r - expected)) < 1e-14

    def test_ric_trace_reproduces_scal(self):
        n, a, b = 2, 3.0, 4.0
        cf = hsphere_curvature(n, a, b)
        h, _ = standard_norden_pair(n)
        # signature trace of Ric against h; equals 4 n (n-1) a / (a^2+b^2)
        val = float(np.einsum("jk,jk->", np.linalg.inv(h), cf.ric))
        assert val == pytest.approx(cf.scal)
        assert cf.scal == pytest.approx(0.96)

    def test_block_symmetries_exact(self):
        cf = hsphere_curvature(3, 2.0, -1.0)
        r = cf.r
        assert np.max(np.abs(r + np.einsum("jikl->ijkl", r))) < 1e-12
        assert np.max(np.abs(r - np.einsum("klij->ijkl", r))) < 1e-12

    def test_ricci_alone_builds_no_curvature(self, ex3, monkeypatch):
        # R, three Kulkarni-Nomizu products per block, is made only when read
        cf = hsphere_curvature(3, 2.0, -1.0)
        assert cf.ric.shape == (6, 6) and cf.scal == pytest.approx(9.6)
        assert "r" not in vars(cf)

        def boom(self):
            raise AssertionError("the leaf Ricci read the leaf curvature")

        monkeypatch.setattr(HSphereCurvature, "r", property(boom))
        points = np.stack(ex3.model.sample_points(4, 3))
        assert ex3.base_ric_at(points).shape == (4, 7, 7)

    def test_degenerate_parameters(self):
        with pytest.raises(DegenerateParameters):
            hsphere_curvature(2, 0.0, 0.0)

    def test_small_n_flagged(self):
        assert example3_hsphere_ext(n=2).notes
        assert not example3_hsphere_ext(n=3).notes


class TestGauss:
    def test_example1_flat_leaf(self, ex1):
        assert gauss_residual(PointFields(ex1.structure, ORIGIN)) < 1e-8

    def test_example2_flat_leaf(self, ex2_generic):
        assert gauss_residual(PointFields(ex2_generic.structure, ORIGIN)) < 1e-8

    def test_extension_vs_closed_form(self, ex3):
        for p in ex3.model.sample_points(3, 13):
            assert gauss_residual(PointFields(ex3.structure, p), base_r=ex3.base_r_at(p)) < 1e-6

    def test_closed_form_needed(self, ex3):
        # without the leaf curvature the comparison must fail at order one
        p = ex3.model.sample_points(3, 13)[0]
        assert gauss_residual(PointFields(ex3.structure, p)) > 0.1

    def test_second_fundamental_form(self, ex1, ex2, ex3):
        for cm in (ex1, ex2, ex3):
            p = cm.model.sample_points(2, 3)[0]
            assert second_fundamental_form_residual(PointFields(cm.structure, p)) < 1e-8

    def test_requires_sasaki(self, flat):
        with pytest.raises(NotSasakiLike):
            gauss_residual(PointFields(flat.structure, ORIGIN))


class TestExtensionLeafCurvature:
    def test_rrr_at_t_zero_reduces_to_base(self):
        h, ht = standard_norden_pair(3)
        base = hsphere_curvature(3, 1.0, 0.0, h=h, htilde=ht).r
        rh = leaf_rotation(base, 0.0)
        assert np.max(np.abs(rh - base)) < 1e-14

    @pytest.mark.parametrize("n, a, b", [(1, -0.3, 1.2), (2, 0.7, 0.4), (3, 1.0, 0.0),
                                         (4, 2.0, -1.5)])
    def test_rule_matches_hsphere_closed_form(self, n, a, b):
        base = hsphere_base(n, a, b)
        h0, ht0 = standard_norden_pair(n)
        frames = [(h0, ht0)] + [(h, h @ standard_j(n)) for h in
                                map(base.metric_at, base.sample_points(3, 5))]
        for t in np.linspace(-1.2, 1.2, 13):
            for h, ht in frames:
                rule = leaf_rotation(hsphere_curvature(n, a, b, h=h, htilde=ht).r, t)
                ref = hsphere_leaf_reference(t, n, a, b, h, ht)
                assert np.max(np.abs(rule - ref)) < 1e-15

    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from([2, 3]), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
           st.integers(0, 1000))
    def test_gauss_with_rule_on_random_hspheres(self, n, a, b, seed):
        assume(math.hypot(a, b) >= 0.5)     # (a, b) = (0, 0) is excluded
        cm = example3_hsphere_ext(n=n, a=a, b=b)
        p = cm.model.sample_points(1, seed)[0]
        assert gauss_residual(PointFields(cm.structure, p), base_r=cm.base_r_at(p)) < 1e-6
