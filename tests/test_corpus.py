from dataclasses import replace

import numpy as np
import pytest

from accr.corpus import (
    builtin,
    cross_representation_check,
    default_corpus,
    example1,
    example2,
    example2_chart,
    hsphere_base,
)
from accr.errors import BadParams, ParamMismatch, UnknownBuiltin
from accr.sasaki import check_defining_conditions
from accr.structure import Field, PointFields, worst
from tests.conftest import ORIGIN, sample_block


class TestBuiltins:
    def test_unknown_name(self):
        with pytest.raises(UnknownBuiltin):
            builtin("nope")

    def test_bad_params(self):
        with pytest.raises(BadParams):
            builtin("example1", bogus=3)
        with pytest.raises(BadParams):
            builtin("example2_chart", lam=0.0)
        with pytest.raises(BadParams):
            builtin("example2_chart", lam=1.0, mu=0.5)
        with pytest.raises(BadParams):
            builtin("example3_hsphere_ext", n=3, a=0.0, b=0.0)

    def test_example1_general_n(self):
        cm = builtin("example1", n=3)
        assert cm.model.dim == 7

    def test_example2_zero_params_matches_example1_n2(self):
        c2 = builtin("example2", lam=0.0, mu=0.0).model.commutators_at(ORIGIN)
        c1 = example1(n=2).model.commutators_at(ORIGIN)
        assert np.max(np.abs(c2 - c1)) == 0.0

    def test_hsphere_zero_pair_rejected(self):
        with pytest.raises(BadParams):
            hsphere_base(2, 0.0, 0.0)

    def test_default_corpus_composition(self):
        names = [cm.name for cm in default_corpus()]
        assert "flat_parallel" in names
        assert "example3_hsphere_ext" in names
        assert len(names) == 8


class TestCrossRepresentation:
    def test_example1(self, ex1, ex1_chart):
        f = sample_block(ex1_chart, 20, 42)
        res = cross_representation_check(ex1, ex1_chart, f)
        assert np.max(res["structure_equations"]) < 1e-7
        assert np.max(res["metric_assembly"]) < 1e-10
        assert np.max(res["verdict_agreement"]) == 0.0
        # both Sasaki-like, at the thresholds the verdicts read
        assert worst(check_defining_conditions(PointFields(ex1.structure, ORIGIN)).values()) < 1e-9
        assert np.max(worst(check_defining_conditions(f).values())) < 1e-6

    def test_example2(self, ex2, ex2_chart):
        res = cross_representation_check(ex2, ex2_chart, sample_block(ex2_chart, 20, 42))
        assert np.max(res["structure_equations"]) < 1e-7
        assert np.max(res["metric_assembly"]) < 1e-10
        assert np.max(res["verdict_agreement"]) == 0.0

    def test_verdicts_at_every_sample_point(self, ex1, ex1_chart):
        # phi flips sign at the sixth sample point alone: the axioms still
        # hold there, but F(X, Y, xi) = +g(X, Y), so the chart is Sasaki-like
        # at the first five points and not at the sixth
        points = ex1_chart.model.sample_points(6, 42)
        phi = ex1_chart.structure.phi
        flipped = Field(
            lambda p: np.where(np.all(p == points[5], axis=-1)[..., None, None], -phi, phi),
            lambda m, p: np.zeros(np.shape(p)[:-1] + (m.dim, *phi.shape)))
        f = PointFields(replace(ex1_chart.structure, phi=flipped), np.stack(points))
        res = cross_representation_check(ex1, ex1_chart, f)
        assert res["verdict_agreement"].tolist() == [0.0] * 5 + [1.0]
        assert np.max(res["structure_equations"]) < 1e-7

    def test_param_mismatch(self, ex1, ex2_chart):
        with pytest.raises(ParamMismatch):
            cross_representation_check(ex1, ex2_chart, sample_block(ex2_chart, 1, 42))
        lie = example2(lam=2.0, mu=0.0)
        chart = example2_chart(lam=1.0)
        with pytest.raises(ParamMismatch):
            cross_representation_check(lie, chart, sample_block(chart, 1, 42))

    def test_structure_equation_values_at_origin(self, ex1_chart):
        # d e^1 at t = 0 equals dt wedge dx^2 componentwise: the chart
        # commutators must reproduce [e_0, e_2] = -e_1, [e_0, e_1] = e_2
        p = np.zeros(3)
        c = ex1_chart.model.commutators_at(p)
        assert c[1, 0, 2] == pytest.approx(-1.0, abs=1e-9)
        assert c[2, 0, 1] == pytest.approx(1.0, abs=1e-9)

    def test_example1_chart_metric_at_origin(self, ex1_chart):
        assert np.allclose(ex1_chart.coord_metric_fn(np.zeros(3)),
                           np.diag([1.0, 1.0, -1.0]), atol=1e-15)
