import importlib
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import accr
from accr.cli import main
from accr.conformal import (
    TransformedModel,
    TransformParams,
    adapted_frame,
    apply_cct,
    eta_complex_einstein_check,
    homothetic_laws,
    preservation_at,
)
from accr.connection import levi_civita, riemann
from accr.corpus import default_corpus, example3_hsphere_ext
from accr.errors import NonConstantParams, NotSasakiLike
from accr.models import LieGroupModel
from accr.sasaki import check_defining_conditions, require_sasaki_like
from accr.structure import PointFields, max_over_points, validate_structure
from accr.verify import HOMOTHETY, run_all
from tests.conftest import ORIGIN, sample_fields


def pairs(s, t, points):
    """The (base, transformed) PointFields of s and apply_cct(s, t) at each
    point; the base must be Sasaki-like at the first (else NotSasakiLike)."""
    fields = [PointFields(s, p) for p in points]
    require_sasaki_like(fields[0])
    ts = apply_cct(s, t)
    return [(f, PointFields(ts, f.p)) for f in fields]


def pair(s, t, p=ORIGIN):
    """The (base, transformed) PointFields of s and apply_cct(s, t) at p."""
    return pairs(s, t, [p])[0]


def preservation(s, t, points):
    return max_over_points(pairs(s, t, points), lambda fs: preservation_at(*fs, t))


class TestApplyCct:
    def test_identity(self, ex1):
        ts = apply_cct(ex1.structure, TransformParams(0.0, 0.0, 0.0))
        assert np.max(np.abs(ts.model.metric_at(ORIGIN) - ex1.model.metric_at(ORIGIN))) == 0.0
        assert np.max(np.abs(ts.xi - ex1.structure.xi)) == 0.0
        assert np.max(np.abs(ts.eta - ex1.structure.eta)) == 0.0

    def test_pure_scaling(self, ex1):
        ts = apply_cct(ex1.structure, TransformParams(math.log(2.0), 0.0, 0.0))
        gbar = ts.model.metric_at(ORIGIN)
        assert gbar[1, 1] == pytest.approx(4.0)
        assert gbar[0, 0] == pytest.approx(1.0)

    def test_quarter_turn_recovers_gtilde(self, ex1):
        ts = apply_cct(ex1.structure, TransformParams(0.0, math.pi / 4, 0.0))
        gbar = ts.model.metric_at(ORIGIN)
        assert np.max(np.abs(gbar - PointFields(ex1.structure, ORIGIN).gtilde)) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-1.0, 1.0), st.floats(-1.5, 1.5), st.floats(-1.0, 1.0))
    def test_axioms_preserved_for_any_params(self, u, v, w):
        from accr.corpus import example1

        s = example1(n=1).structure
        ts = apply_cct(s, TransformParams(u, v, w))
        res = validate_structure(PointFields(ts, ORIGIN))
        assert max(res.values()) < 1e-10

    @pytest.mark.parametrize("name", ["ex1_chart", "ex3"])
    def test_constant_w_keeps_xi_and_eta_constant(self, name, request):
        # v = 0.1 t is not constant, w is: xi_bar and eta_bar stay constants,
        # so their frame derivatives are exact zeros, not finite differences
        cm = request.getfixturevalue(name)
        ts = apply_cct(cm.structure, TransformParams(u=0.3, v=lambda p: 0.1 * p[0], w=0.0))
        assert not (callable(ts.xi) or callable(ts.eta))
        for f in sample_fields(cm, 3, 7):
            fb = PointFields(ts, f.p)
            assert np.max(np.abs(fb.deta)) == 0.0 and np.max(np.abs(fb.dxi)) == 0.0

    def test_nonconstant_rejected_on_group(self, ex1):
        with pytest.raises(NonConstantParams):
            apply_cct(ex1.structure, TransformParams(u=lambda p: p.sum(), v=0.0, w=0.0))


class TestPreservation:
    def test_constants_w_zero(self, ex1):
        pts = ex1.model.sample_points(3, 1)
        res = preservation(ex1.structure, TransformParams(0.7, -0.4, 0.0), pts)
        assert max(res.values()) < 1e-8

    def test_w_log2_breaks_exactly(self, ex1):
        pts = ex1.model.sample_points(3, 1)
        res = preservation(
            ex1.structure, TransformParams(0.0, 0.0, math.log(2.0)), pts)
        assert res["du_phi_plus_dv"] == pytest.approx(1.0, abs=1e-12)
        assert res["f_bar_direct"] > 0.1

    def test_transformed_structure_stays_sasaki(self, ex2):
        pts = ex2.model.sample_points(3, 1)
        ts = apply_cct(ex2.structure, TransformParams(0.3, 0.2, 0.0))
        assert max(check_defining_conditions(PointFields(ts, pts[0])).values()) < 1e-9

    def test_w_nonzero_breaks_sasaki_verdict(self, ex1):
        ts = apply_cct(ex1.structure, TransformParams(0.0, 0.0, math.log(2.0)))
        assert max(check_defining_conditions(PointFields(ts, ORIGIN)).values()) > 0.1

    def test_callable_params_on_chart(self, ex1_chart):
        pts = ex1_chart.model.sample_points(4, 1)
        # constant-zero candidates supplied as genuine functions: the
        # differentials run through finite differences and must vanish
        t = TransformParams(u=lambda p: 0.0, v=lambda p: 0.0, w=0.0)
        res = preservation(ex1_chart.structure, t, pts)
        assert max(res.values()) < 1e-6

    def test_callable_v_of_t_breaks(self, ex1_chart):
        pts = ex1_chart.model.sample_points(4, 1)
        t = TransformParams(u=0.0, v=lambda p: 0.1 * p[0], w=0.0)
        res = preservation(ex1_chart.structure, t, pts)
        assert res["du_phi_plus_dv"] == pytest.approx(0.1, abs=1e-6)

    def test_requires_sasaki(self, flat):
        with pytest.raises(NotSasakiLike):
            preservation(flat.structure, TransformParams(), [ORIGIN])


class TestHomotheticConnection:
    def test_identity_params_no_shift(self, ex1):
        t = TransformParams()
        f, fb = pair(ex1.structure, t)
        assert np.max(np.abs(fb.gamma - f.gamma)) == 0.0
        assert homothetic_laws(f, fb, t)["connection_formula"] < 1e-14

    def test_sixth_turn_shift_value(self, ex1):
        t = TransformParams(0.0, math.pi / 6, 0.0)
        f, fb = pair(ex1.structure, t)
        # shift of nabla_{e1} e1 is sin(pi/3) g(phi e1, phi e1) xi = -sqrt(3)/2 xi
        assert (fb.gamma - f.gamma)[1, 1, 0] == pytest.approx(-math.sqrt(3.0) / 2.0)
        assert homothetic_laws(f, fb, t)["connection_formula"] < 1e-12

    def test_w_log2_shift_matches_koszul(self, ex1):
        # pure w-rescaling: sin 2v = 0 but g_bar = g + (e^{2w}-1) eta x eta
        # is a genuinely different metric, so the connection does shift:
        # delta(x, y) = -(1 - e^{-2w}) g(x, phi y) xi
        t = TransformParams(0.0, 0.0, math.log(2.0))
        f, fb = pair(ex1.structure, t)
        assert (fb.gamma - f.gamma)[1, 2, 0] == pytest.approx(0.75)  # g(e1, phi e2) = -1
        assert homothetic_laws(f, fb, t)["connection_formula"] < 1e-12

    def test_nonconstant_rejected(self, ex1_chart):
        t = TransformParams(u=lambda p: p[0], v=0.0, w=0.0)
        f, fb = pair(ex1_chart.structure, t, np.zeros(3))
        with pytest.raises(NonConstantParams):
            homothetic_laws(f, fb, t)

    def test_curvature_needs_constant_parameters(self, ex1_chart):
        # the second jets of g_bar are closed-form for constants only
        ts = apply_cct(ex1_chart.structure, TransformParams(v=lambda p: 0.1 * p[0]))
        with pytest.raises(NonConstantParams):
            PointFields(ts, ex1_chart.model.sample_points(1, 3)[0]).curvature


class TestHomotheticCurvature:
    def test_laws_on_example1(self, ex1):
        t = TransformParams(0.3, 0.2, 0.0)
        res = homothetic_laws(*pair(ex1.structure, t), t)
        for key in ("curvature_formula", "ricci_invariance", "scal_formula",
                    "scal_star_formula", "rotated_basis_orthonormal",
                    "scal_from_basis", "scal_star_from_basis"):
            assert res[key] < 1e-12, key
        # w = 0 keeps both scalar curvatures of this structure fixed
        assert res["scal_bar"] == pytest.approx(2.0, abs=1e-12)
        assert res["scal_star_bar"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("t", [TransformParams(), HOMOTHETY])
    def test_rotated_basis_on_the_extension(self, ex3, t):
        # the extension's coordinate frame is not orthonormal: the basis is
        # rotated from the adapted frame that Gram-Schmidt builds at each point
        pts = ex3.model.sample_points(6, 7)
        res = max_over_points(pairs(ex3.structure, t, pts),
                              lambda fs: homothetic_laws(*fs, t))
        assert res["rotated_basis_orthonormal"] <= 1e-12
        assert res["scal_from_basis"] <= 1e-9
        assert res["scal_star_from_basis"] <= 1e-9

    def test_adapted_frame_keeps_an_adapted_frame(self, ex1, ex2, ex1_chart):
        for cm in (ex1, ex2, ex1_chart):
            p = cm.model.sample_points(1, 3)[0]
            assert np.array_equal(adapted_frame(PointFields(cm.structure, p)), np.eye(cm.model.dim))

    def test_adapted_frame_is_orthonormal(self, ex3):
        eps = np.diag([1.0] * 4 + [-1.0] * 3)
        for p in ex3.model.sample_points(4, 2):
            f = PointFields(ex3.structure, p)
            frame = adapted_frame(f)
            assert np.max(np.abs(frame.T @ f.g @ frame - eps)) < 1e-12
            assert np.max(np.abs(frame[:, 4:] - f.phi @ frame[:, 1:4])) == 0.0

    def test_ricci_invariance_with_w(self, ex2):
        t = TransformParams(0.3, 0.2, 0.1)
        res = homothetic_laws(*pair(ex2.structure, t), t)
        assert res["ricci_invariance"] < 1e-8
        assert res["curvature_formula"] < 1e-10


class TestEtaEinsteinFit:
    def test_example1_degenerate_fit(self, ex1):
        fit = eta_complex_einstein_check(sample_fields(ex1, 2, 1))
        # Ric = 2n eta x eta: alpha = beta = 0 fits exactly, d = 0 direction
        assert fit.residual < 1e-10
        assert abs(fit.alpha) < 1e-10 and abs(fit.beta) < 1e-10
        assert fit.classification == "eta_einstein"
        assert fit.c is None and fit.d is None

    @staticmethod
    def _einstein_slice(n=3):
        """Extension over the h-sphere tuned to Ric_leaf = 2n h', sampled on
        the t = 0 leaf where the whole structure is pointwise Einstein."""
        a = (n - 1) / n
        cm = example3_hsphere_ext(n=n, a=a, b=0.0)
        base_pts = cm.model.base.sample_points(4, 31)
        pts = [np.concatenate([[0.0], bp]) for bp in base_pts]
        return cm, pts

    def test_einstein_slice_classified(self):
        cm, pts = self._einstein_slice()
        fit = eta_complex_einstein_check([PointFields(cm.structure, p) for p in pts], tol=1e-6)
        assert fit.classification == "einstein"
        assert fit.c == pytest.approx(1.0, abs=1e-8)
        assert fit.d == pytest.approx(0.0, abs=1e-8)

    def test_transformed_einstein_recovers_constants(self):
        cm, pts = self._einstein_slice()
        c0, d0 = 2.0, 1.0
        params = TransformParams(
            u=0.25 * math.log(c0 * c0 + d0 * d0),
            v=0.5 * math.atan2(d0, c0),
            w=0.0,
        )
        ts = apply_cct(cm.structure, params)
        fit = eta_complex_einstein_check([PointFields(ts, p) for p in pts], tol=1e-6)
        assert fit.classification == "eta_complex_einstein"
        assert fit.c == pytest.approx(c0, abs=1e-6)
        assert fit.d == pytest.approx(d0, abs=1e-6)
        assert fit.to_einstein["u"] == pytest.approx(-params.u, abs=1e-8)
        assert fit.to_einstein["v"] == pytest.approx(-params.v, abs=1e-8)
        assert fit.einstein_residual < 1e-6

    def test_einstein_iff_leaf_einstein(self):
        """The structure is pointwise Einstein exactly where the leaf metric
        has leaf Ricci equal to 2n times the leaf metric."""
        n = 3
        cm, _ = self._einstein_slice(n)
        base = cm.model.base
        bp = base.sample_points(1, 3)[0]
        for t, expect in ((0.0, True), (0.7, False)):
            p = np.concatenate([[t], bp])
            h_leaf = cm.model.metric_at(p)[1:, 1:]
            ric_leaf = cm.base_ric_at(p)[1:, 1:]
            leaf_einstein = np.max(np.abs(ric_leaf - 2 * n * h_leaf)) < 1e-8
            ric = PointFields(cm.structure, p).curvature.ric
            whole = np.max(np.abs(ric - 2 * n * cm.model.metric_at(p))) < 1e-8
            assert leaf_einstein == expect
            assert whole == expect

    def test_requires_sasaki(self, flat):
        with pytest.raises(NotSasakiLike):
            eta_complex_einstein_check([PointFields(flat.structure, ORIGIN)])


class TestSolveCounts:
    """Each connection is solved once per point and its curvature computed
    once: Koszul solves of the base and of the transformed metric, and
    riemann calls, counted on every module that holds levi_civita or riemann."""

    @staticmethod
    def counters(monkeypatch):
        """[base solves, transformed solves, PointFields made, riemann calls]
        from here on."""
        counts = [0, 0, 0, 0]
        solve, init, curv = levi_civita, PointFields.__init__, riemann

        def counted(model, p):
            counts[isinstance(model, TransformedModel)] += 1
            return solve(model, p)

        def curved(*args, **kwargs):
            counts[3] += 1
            return curv(*args, **kwargs)

        def made(self, *args):
            counts[2] += 1
            init(self, *args)

        modules = [accr] + [importlib.import_module(f"accr.{m.name}")
                            for m in pkgutil.iter_modules(accr.__path__)]
        for mod in modules:
            if getattr(mod, "levi_civita", None) is solve:
                monkeypatch.setattr(mod, "levi_civita", counted)
            if getattr(mod, "riemann", None) is curv:
                monkeypatch.setattr(mod, "riemann", curved)
        monkeypatch.setattr(PointFields, "__init__", made)
        return counts

    def solves(self, monkeypatch, argv):
        counts = self.counters(monkeypatch)
        assert main(argv) == 0
        return tuple(counts[:2])

    @pytest.mark.parametrize("argv, base, transformed", [
        # one solve on each metric: the group curvature reuses it
        (["transform", "-m", "example1", "--params", "u=0.3,v=0.2,w=0", "--points", "1"], 1, 1),
        # the same on the chart: its curvature is closed-form, no stencil
        (["transform", "-m", "example1_chart", "--params", "u=0.3,v=0.2,w=0", "--points", "1"],
         1, 1),
        # the laws read the pair that preservation made: one solve each for
        # HOMOTHETY and BREAKING; the eta fit reads the pass's base solve
        (["verify", "-m", "example1", "--only", "conformal"], 1, 2),
        # the eta fit alone: the pass's base solve, and the per-point conformal
        # family, which solves HOMOTHETY and BREAKING, does not run
        (["verify", "-m", "example1", "--only", "conformal.eta_fit"], 1, 0),
    ])
    def test_first_pair_serves_every_law(self, argv, base, transformed, monkeypatch, capsys):
        assert self.solves(monkeypatch, argv) == (base, transformed)

    def test_conformal_families(self, monkeypatch, capsys):
        # the pass's base solve, which the eta fit reads; one transformed
        # solve each for HOMOTHETY and BREAKING
        base, transformed = self.solves(monkeypatch, ["verify", "-m", "example1", "--only",
                                                      "conformal"])
        assert base <= 1 and transformed <= 2

    @pytest.mark.parametrize("argv, cone_points", [
        (["verify", "-m", "example1", "--only", "cone"], 6),
        (["cone", "-m", "example1"], 8),
    ])
    def test_cone_solves_each_base_point_once(self, argv, cone_points, monkeypatch, capsys):
        # one solve per cone point, and one for the group's single base point
        assert self.solves(monkeypatch, argv) == (cone_points + 1, 0)

    @pytest.mark.parametrize("argv", [
        ["verify", "-m", "example1", "--only", "cone"],
        ["cone", "-m", "example1"],
    ])
    def test_cone_reads_the_base_from_point_fields(self, argv, monkeypatch, capsys):
        # every cone point reads g, dg and c from the base point's PointFields;
        # the base point's own Koszul solve reads them once more
        reads = dict.fromkeys(("metric_at", "metric_derivs_at", "commutators_at"), 0)
        for name in reads:
            def counted(model, p, name=name, method=getattr(LieGroupModel, name)):
                reads[name] += 1
                return method(model, p)

            monkeypatch.setattr(LieGroupModel, name, counted)
        assert main(argv) == 0
        assert all(0 < calls <= 2 for calls in reads.values()), reads

    def test_default_corpus_budget(self, monkeypatch):
        """The counts of one pass over the default corpus do not depend on the
        machine: a check that solves a connection again, makes PointFields
        the pass already holds or recomputes their curvature goes over them."""
        counts = self.counters(monkeypatch)
        run_all(default_corpus())
        assert counts[0] + counts[1] <= 247 and counts[2] <= 195 and counts[3] <= 129
