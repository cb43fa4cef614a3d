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
from accr.corpus import builtin, default_corpus, example3_hsphere_ext
from accr.errors import NonConstantParams, NotSasakiLike
from accr.models import ChartModel, LieGroupModel
from accr import models
from accr import sasaki as sas
from accr.sasaki import check_defining_conditions, require_sasaki_like
from accr.structure import AccrStructure, Field, PointFields, max_over_points
from accr.structure import validate_structure
from accr.verify import BREAKING, HOMOTHETY, run_all
from tests.conftest import ORIGIN, coordinate, sample_fields, stencil_field


def pairs(s, t, points):
    """The (base, transformed) PointFields (f, apply_cct(f, t)) of s at each
    point; the base must be Sasaki-like at the first (else NotSasakiLike)."""
    fields = [PointFields(s, p) for p in points]
    require_sasaki_like(fields[0])
    return [(f, apply_cct(f, t)) for f in fields]


def pair(s, t, p=ORIGIN):
    """The (base, transformed) PointFields of s at p."""
    return pairs(s, t, [p])[0]


def preservation(s, t, points):
    return max_over_points(pairs(s, t, points), lambda fs: preservation_at(*fs))


class TestApplyCct:
    def test_identity(self, ex1):
        fb = apply_cct(PointFields(ex1.structure, ORIGIN), TransformParams(0.0, 0.0, 0.0))
        assert np.max(np.abs(fb.g - ex1.model.metric_at(ORIGIN))) == 0.0
        assert np.max(np.abs(fb.xi - ex1.structure.xi)) == 0.0
        assert np.max(np.abs(fb.eta - ex1.structure.eta)) == 0.0

    def test_pure_scaling(self, ex1):
        gbar = apply_cct(PointFields(ex1.structure, ORIGIN),
                         TransformParams(math.log(2.0), 0.0, 0.0)).g
        assert gbar[1, 1] == pytest.approx(4.0)
        assert gbar[0, 0] == pytest.approx(1.0)

    def test_quarter_turn_recovers_gtilde(self, ex1):
        f = PointFields(ex1.structure, ORIGIN)
        gbar = apply_cct(f, TransformParams(0.0, math.pi / 4, 0.0)).g
        assert np.max(np.abs(gbar - f.gtilde)) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.floats(-1.0, 1.0), st.floats(-1.5, 1.5), st.floats(-1.0, 1.0))
    def test_axioms_preserved_for_any_params(self, u, v, w):
        from accr.corpus import example1

        s = example1(n=1).structure
        res = validate_structure(apply_cct(PointFields(s, ORIGIN), TransformParams(u, v, w)))
        assert max(res.values()) < 1e-10

    @pytest.mark.parametrize("name", ["ex1_chart", "ex3"])
    def test_constant_w_keeps_xi_and_eta_constant(self, name, request):
        # v = 0.1 t is not constant, w is: xi_bar and eta_bar stay constant,
        # so their frame derivatives are exact zeros, not finite differences
        cm = request.getfixturevalue(name)
        t = TransformParams(u=0.3, v=coordinate(0, 0.1), w=0.0)
        for f in sample_fields(cm, 3, 7):
            fb = apply_cct(f, t)
            assert np.max(np.abs(fb.deta)) == 0.0 and np.max(np.abs(fb.dxi)) == 0.0

    def test_nonconstant_rejected_on_group(self, ex1):
        with pytest.raises(NonConstantParams):
            apply_cct(PointFields(ex1.structure, ORIGIN),
                      TransformParams(u=coordinate(0), v=0.0, w=0.0))


JET_CASES = [("example1_chart", {}), ("example2_chart", {"lam": 3.0}),
             ("example3_hsphere_ext", {})]
# e_i = A[mu, i] d/dx^mu, A the chart's frame matrix, so e_i(x^mu) = A[mu, i]
MIXED = TransformParams(
    u=Field(lambda p: 0.2 * np.sin(p.sum(-1)),
            lambda m, p: 0.2 * np.cos(p.sum(-1))[..., None] * m.frame_matrix(p).sum(-2)),
    v=Field(lambda p: 0.1 * p[..., 0] * p[..., -1],
            lambda m, p: 0.1 * (p[..., -1:] * m.frame_matrix(p)[..., 0, :]
                                + p[..., :1] * m.frame_matrix(p)[..., -1, :])),
    w=Field(lambda p: 0.1 * np.cos(p[..., 1]),
            lambda m, p: -0.1 * np.sin(p[..., 1])[..., None] * m.frame_matrix(p)[..., 1, :]))


def assert_jet_matches_stencil(s, t, points):
    """dg_bar by the product rule against the finite differences it
    replaced, at each point: the 4th-order stencil, at the base model's
    step, of g_bar at the points around it, relative to max(1, |dg_bar|)."""
    for p in points:
        jet = apply_cct(PointFields(s, p), t).dg
        fd = s.model.frame_derivative(p, lambda q: apply_cct(PointFields(s, q), t).g)
        assert np.max(np.abs(jet - fd)) / max(1.0, np.max(np.abs(jet))) <= 1e-9


class TestClosedFormJet:
    @pytest.mark.parametrize("name, params", JET_CASES)
    @pytest.mark.parametrize("t", [TransformParams(v=coordinate(0, 0.1)),
                                   TransformParams(w=coordinate(0, 0.1)), MIXED],
                             ids=["v", "w", "mixed"])
    def test_matches_the_stencil(self, name, params, t):
        cm = builtin(name, **params)
        assert_jet_matches_stencil(cm.structure, t, cm.model.sample_points(6, 7))

    @pytest.mark.parametrize("t", [HOMOTHETY, MIXED], ids=["homothety", "mixed"])
    def test_moving_phi_and_eta(self, ex1_chart, t):
        # the dphi and deta terms: phi and eta move with the point (g_bar and
        # its jet need no accR structure)
        phi, eta = ex1_chart.structure.phi, ex1_chart.structure.eta
        moving_phi = Field(lambda p: phi * (1.0 + 0.3 * np.sin(p[..., 0]))[..., None, None],
                           lambda m, p: phi * (0.3 * np.cos(p[..., 0])[..., None, None, None]
                                               * m.frame_matrix(p)[..., 0, :, None, None]))
        moving_eta = stencil_field(lambda p: eta + (0.2 * p[..., 1] * p[..., 2])[..., None])
        s = AccrStructure(ex1_chart.model, 1, phi=moving_phi, xi=eta, eta=moving_eta)
        assert_jet_matches_stencil(s, t, ex1_chart.model.sample_points(6, 7))

    @pytest.mark.parametrize("name, params", JET_CASES)
    @pytest.mark.parametrize("t", [TransformParams(w=coordinate(0, 0.1)), MIXED],
                             ids=["w", "mixed"])
    def test_xi_bar_and_eta_bar_jets_match_the_stencil(self, name, params, t):
        # e^{-w} (dxi - dw (x) xi) and e^w (deta + dw (x) eta) against the
        # stencil of xi_bar and eta_bar over the transforms at neighbouring points
        cm = builtin(name, **params)
        s = cm.structure
        for p in cm.model.sample_points(6, 7):
            fb = apply_cct(PointFields(s, p), t)
            for key in ("xi", "eta"):
                jet = getattr(fb, "d" + key)
                fd = s.model.frame_derivative(
                    p, lambda q: getattr(apply_cct(PointFields(s, q), t), key))
                assert np.max(np.abs(jet)) > 1e-3
                assert np.max(np.abs(jet - fd)) / max(1.0, np.max(np.abs(jet))) <= 1e-9, key

    @pytest.mark.parametrize("name, params", JET_CASES)
    @pytest.mark.parametrize("t", [HOMOTHETY, BREAKING], ids=["homothety", "breaking"])
    def test_constant_parameters_scale_the_base_jet(self, name, params, t):
        for f in sample_fields(builtin(name, **params), 6, 7):
            u, v, _ = t.at(f.p)
            a, b = math.exp(2 * u) * math.cos(2 * v), math.exp(2 * u) * math.sin(2 * v)
            assert np.array_equal(apply_cct(f, t).dg, a * f.dg + b * (f.dg @ f.phi))


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
        fb = apply_cct(PointFields(ex2.structure, pts[0]), TransformParams(0.3, 0.2, 0.0))
        assert max(check_defining_conditions(fb).values()) < 1e-9

    def test_w_nonzero_breaks_sasaki_verdict(self, ex1):
        fb = apply_cct(PointFields(ex1.structure, ORIGIN),
                       TransformParams(0.0, 0.0, math.log(2.0)))
        assert max(check_defining_conditions(fb).values()) > 0.1

    def test_callable_params_on_chart(self, ex1_chart):
        pts = ex1_chart.model.sample_points(4, 1)
        # constant-zero candidates supplied as Fields whose jets are finite
        # differences: the differentials must vanish
        zero = lambda p: np.zeros(p.shape[:-1])
        t = TransformParams(u=stencil_field(zero), v=stencil_field(zero), w=0.0)
        res = preservation(ex1_chart.structure, t, pts)
        assert max(res.values()) < 1e-6

    def test_callable_v_of_t_breaks(self, ex1_chart):
        pts = ex1_chart.model.sample_points(4, 1)
        t = TransformParams(u=0.0, v=coordinate(0, 0.1), w=0.0)
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
        assert homothetic_laws(f, fb)["connection_formula"] < 1e-14

    def test_sixth_turn_shift_value(self, ex1):
        t = TransformParams(0.0, math.pi / 6, 0.0)
        f, fb = pair(ex1.structure, t)
        # shift of nabla_{e1} e1 is sin(pi/3) g(phi e1, phi e1) xi = -sqrt(3)/2 xi
        assert (fb.gamma - f.gamma)[1, 1, 0] == pytest.approx(-math.sqrt(3.0) / 2.0)
        assert homothetic_laws(f, fb)["connection_formula"] < 1e-12

    def test_w_log2_shift_matches_koszul(self, ex1):
        # pure w-rescaling: sin 2v = 0 but g_bar = g + (e^{2w}-1) eta x eta
        # is a genuinely different metric, so the connection does shift:
        # delta(x, y) = -(1 - e^{-2w}) g(x, phi y) xi
        t = TransformParams(0.0, 0.0, math.log(2.0))
        f, fb = pair(ex1.structure, t)
        assert (fb.gamma - f.gamma)[1, 2, 0] == pytest.approx(0.75)  # g(e1, phi e2) = -1
        assert homothetic_laws(f, fb)["connection_formula"] < 1e-12

    def test_nonconstant_rejected(self, ex1_chart):
        t = TransformParams(u=coordinate(0), v=0.0, w=0.0)
        f, fb = pair(ex1_chart.structure, t, np.zeros(3))
        with pytest.raises(NonConstantParams):
            homothetic_laws(f, fb)

    def test_curvature_needs_constant_parameters(self, ex1_chart):
        # the second jets of g_bar are closed-form for constants only
        f = PointFields(ex1_chart.structure, ex1_chart.model.sample_points(1, 3)[0])
        with pytest.raises(NonConstantParams):
            apply_cct(f, TransformParams(v=coordinate(0, 0.1))).curvature


class TestHomotheticCurvature:
    def test_laws_on_example1(self, ex1):
        t = TransformParams(0.3, 0.2, 0.0)
        res = homothetic_laws(*pair(ex1.structure, t))
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
                              lambda fs: homothetic_laws(*fs))
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
        res = homothetic_laws(*pair(ex2.structure, t))
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
        fit = eta_complex_einstein_check(
            [apply_cct(PointFields(cm.structure, p), params) for p in pts], tol=1e-6)
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
    """Each connection is solved once per block of points and its curvature
    computed once: Koszul solves of the base and of the transformed metric,
    and riemann calls, counted on every module that holds levi_civita or
    riemann."""

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

    @pytest.mark.parametrize("argv", [
        # HOMOTHETY and BREAKING at the group's one point
        ["verify", "-m", "example1", "--only", "conformal"],
        # the transform's first point alone, then the other 19 as one block
        ["transform", "-m", "example1_chart", "--params", "u=0.3,v=0.2,w=0"],
    ])
    def test_uvw_read_once_per_transformed_block(self, argv, monkeypatch, capsys):
        # apply_cct, g_bar, preservation and the laws all read (u, v, w) from
        # the transformed model, which reads them once
        calls, at = [], TransformParams.at
        monkeypatch.setattr(TransformParams, "at", lambda t, p: calls.append(p) or at(t, p))
        assert main(argv) == 0
        assert len(calls) == 2

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
        # one solve for the group's single base point, and one for all the
        # cone points over it, as one block
        counts = self.counters(monkeypatch)
        blocks = []
        solve = sas.levi_civita
        monkeypatch.setattr(sas, "levi_civita",
                            lambda model, p: blocks.append(np.shape(p)) or solve(model, p))
        assert main(argv) == 0
        assert tuple(counts[:2]) == (2, 0)
        assert blocks == [(cone_points, 1)]

    @pytest.mark.parametrize("argv", [
        ["verify", "-m", "example1", "--only", "cone"],
        ["cone", "-m", "example1"],
    ])
    def test_cone_reads_the_base_from_point_fields(self, argv, monkeypatch, capsys):
        # every cone point reads g, dg and c from the base point's PointFields,
        # which hold the one read of its Koszul solve
        reads = self.base_reads(monkeypatch, LieGroupModel, argv)
        assert reads == dict.fromkeys(reads, 1), reads

    @pytest.mark.parametrize("argv, cls", [
        (["transform", "-m", "example1", "--params", "u=0.3,v=0.2,w=0", "--points", "1"],
         LieGroupModel),
        (["transform", "-m", "example1_chart", "--params", "v=linear_t:0.1,w=0", "--points",
          "1"], ChartModel),
        (["verify", "-m", "example1", "--only", "conformal"], LieGroupModel),
    ])
    def test_transform_reads_the_base_from_point_fields(self, argv, cls, monkeypatch, capsys):
        # g_bar and its jet read g, dg and c from the base point's PointFields,
        # which hold the one read of its Koszul solve
        reads = self.base_reads(monkeypatch, cls, argv)
        assert reads == dict.fromkeys(reads, 1), reads

    @staticmethod
    def base_reads(monkeypatch, cls, argv):
        """{method: calls} of the base model class cls's metric_at,
        metric_derivs_at and commutators_at in a run of argv, which exits 0."""
        reads = dict.fromkeys(("metric_at", "metric_derivs_at", "commutators_at"), 0)
        for name in reads:
            def counted(model, p, name=name, method=getattr(cls, name)):
                reads[name] += 1
                return method(model, p)

            monkeypatch.setattr(cls, name, counted)
        assert main(argv) == 0
        return reads

    def test_default_corpus_budget(self, monkeypatch):
        """The counts of one pass over the default corpus do not depend on the
        machine: a check that solves a connection again, makes PointFields
        the pass already holds or recomputes their curvature goes over them."""
        counts = self.counters(monkeypatch)
        run_all(default_corpus())
        assert counts[0] + counts[1] <= 39 and counts[2] <= 30 and counts[3] <= 17

    @pytest.mark.parametrize("name, construction", [
        ("example1_chart", []),
        # product_extension checks its base on four single points (dim 6)
        ("example3_hsphere_ext", [(6,)] * 4),
    ])
    def test_linear_t_takes_no_stencil(self, name, construction, monkeypatch, capsys):
        # v = 0.1 t brings its jet, so the transformed model takes du, dv and
        # dw, and xi_bar and eta_bar their jets, without a stencil
        stencil, points = models.coordinate_derivatives, []

        def counted(fn, x, step=models.DEFAULT_FD_STEP):
            points.append(np.shape(x))
            return stencil(fn, x, step)

        monkeypatch.setattr(models, "coordinate_derivatives", counted)
        assert main(["transform", "-m", name, "--params", "v=linear_t:0.1,w=0"]) == 0
        assert points == construction
