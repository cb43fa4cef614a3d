import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from accr.conformal import TransformParams, apply_cct
from accr.connection import holomorphy_residual, levi_civita
from accr.corpus import (
    CorpusModel,
    builtin,
    example1_chart,
    flat_norden_base,
    hsphere_base,
)
from accr.errors import (
    BadParams,
    BadSignature,
    BaseNotHolomorphic,
    NotAntisymmetric,
    RNotNegative,
)
from accr.frame_algebra import standard_j
from accr.models import (
    ChartModel,
    chart_model,
    ConeModel,
    coordinate_derivatives,
    holomorphic_base,
    lie_group_model,
    product_extension,
    ProductExtensionModel,
)
from accr.structure import AccrStructure, PointFields
from accr.verify import VerifyConfig, run_model_checks
from tests.conftest import ORIGIN, coordinate, sample_fields

# complex symmetric S_k with S_k[i, j] = LINEAR[k, i, j]: the coefficients of
# a holomorphic metric I + sum_k w^k S_k on C^2
LINEAR = np.array([[[0.4 + 0.1j, -0.2j], [-0.2j, 0.3]],
                   [[-0.1, 0.25 + 0.3j], [0.25 + 0.3j, 0.2 - 0.1j]]])


def linear_base(wbar=0.0, dhc_scale=1.0):
    """Base with hC = I + sum w^k S_k + wbar sum conj(w^k) S_k on |u|, |v| <= 0.2,
    given the derivatives dhc_scale * S and 0 of its holomorphic part."""
    hc = lambda w: np.eye(2) + np.einsum("...k,kij->...ij", w + wbar * w.conj(), LINEAR)
    return holomorphic_base(2, hc, lambda w: dhc_scale * LINEAR, [(-0.2, 0.2)] * 4,
                            lambda w: np.zeros((2, 2, 2, 2)))


def fd_chart(dim, metric, ranges=None):
    """Coordinate chart whose jets are the finite differences of its metric:
    for a metric that has no analytic jets."""
    dg = lambda x: coordinate_derivatives(metric, x)
    return chart_model(dim, metric, ranges=ranges, metric_derivs=dg,
                       metric_derivs2=lambda x: coordinate_derivatives(dg, x))


def zero_jets(dim, *names):
    """Keyword arguments giving chart_model zero jets under names."""
    shapes = {"metric_derivs": 3, "metric_derivs2": 4, "coframe_derivs": 3, "coframe_derivs2": 4}
    return {name: (lambda x, k=shapes[name]: np.zeros((dim,) * k)) for name in names}


# each chart example's parameters, away from its defaults (example2_chart
# exists for mu = 0 only)
OTHER_PARAMS = {
    "example1_chart": st.fixed_dictionaries({"n": st.integers(2, 3)}),
    "example2_chart": st.fixed_dictionaries({"lam": st.floats(1.5, 3.0) | st.floats(-3.0, -0.5)}),
    "example3_hsphere_ext": st.fixed_dictionaries(
        {"n": st.integers(1, 2), "a": st.floats(0.5, 3.0), "b": st.floats(-2.0, 2.0)}),
}


def complex_matrices(count, n):
    """count complex n x n matrices, real and imaginary parts in [-1, 1]."""
    size = 2 * count * n * n
    return st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size).map(
        lambda v: (np.array(v[::2]) + 1j * np.array(v[1::2])).reshape(count, n, n))


@st.composite
def quadratic_metrics(draw):
    """(n, S0, S, SS) of hC(w) = S0 + sum w^k S_k + sum w^k w^l S_kl with
    S0 = I + 0.2 (Z + Z^T), S_k = 0.3 (A_k + A_k^T), S_kl = 0.2 (B_kl + B_kl^T)."""
    n = draw(st.sampled_from([1, 2]))
    sym = lambda a: a + np.swapaxes(a, -1, -2)
    s0 = np.eye(n) + 0.2 * sym(draw(complex_matrices(1, n))[0])
    s1 = 0.3 * sym(draw(complex_matrices(n, n)))
    s2 = 0.2 * sym(draw(complex_matrices(n * n, n))).reshape(n, n, n, n)
    return n, s0, s1, s2


class TestLieGroupModel:
    def test_example1_valid(self, ex1):
        c = ex1.model.commutators_at(ORIGIN)
        assert c[2, 0, 1] == 1.0 and c[1, 0, 2] == -1.0
        assert np.max(np.abs(c + np.swapaxes(c, 1, 2))) == 0.0

    def test_abelian_flat(self):
        m = lie_group_model(1, np.zeros((3, 3, 3)), np.diag([1.0, 1.0, -1.0]))
        assert np.max(np.abs(levi_civita(m, ORIGIN).gamma)) == 0.0

    def test_example2_dim5(self, ex2):
        assert ex2.model.dim == 5

    def test_jacobi_identity(self, ex1, ex2, ex2_generic):
        for cm in (ex1, ex2, ex2_generic):
            assert cm.model.jacobi_residual() == 0.0

    def test_rejects_non_antisymmetric(self):
        c = np.zeros((3, 3, 3))
        c[0, 1, 2] = 1.0  # missing the mirrored entry
        with pytest.raises(NotAntisymmetric):
            lie_group_model(1, c, np.diag([1.0, 1.0, -1.0]))

    def test_rejects_bad_signature(self):
        with pytest.raises(BadSignature):
            lie_group_model(1, np.zeros((3, 3, 3)), np.eye(3))


class TestChartModel:
    def test_flat_chart(self):
        g = np.diag([1.0, 1.0, -1.0])
        m = fd_chart(3, lambda x: np.broadcast_to(g, x.shape[:-1] + (3, 3)))
        p = np.array([0.3, -0.2, 0.5])
        assert np.max(np.abs(m.commutators_at(p))) == 0.0
        assert np.max(np.abs(m.metric_derivs_at(p))) < 1e-11

    def test_fd_on_quadratic(self):
        m = fd_chart(2, lambda x: np.eye(2))
        f = lambda x: x[..., 0] ** 2 + 3.0 * x[..., 0] * x[..., 1]
        p = np.array([0.7, -0.4])
        d = m.frame_derivative(p, f)
        assert abs(d[0] - (2 * 0.7 + 3 * (-0.4))) < 1e-7
        assert abs(d[1] - 3 * 0.7) < 1e-7

    def test_example1_coordinate_metric_at_origin(self, ex1_chart):
        g = ex1_chart.coord_metric_fn(np.zeros(3))
        assert np.allclose(g, np.diag([1.0, 1.0, -1.0]), atol=1e-15)

    def test_example2_chart_metric_assembly(self, ex2_chart):
        # sum_k eps_k (e^k)^2 against the closed-form coordinate metric
        eps = np.array([1.0, 1.0, 1.0, -1.0, -1.0])
        for p in ex2_chart.model.sample_points(20, 11):
            th = ex2_chart.coframe_fn(p)
            assembled = np.einsum("k,km,kn->mn", eps, th, th)
            assert np.max(np.abs(assembled - ex2_chart.coord_metric_fn(p))) < 1e-10

    def test_structure_equations_from_coframe(self, ex1_chart, ex1):
        c_lie = ex1.model.commutators_at(ORIGIN)
        for p in ex1_chart.model.sample_points(6, 3):
            c = ex1_chart.model.commutators_at(p)
            assert np.max(np.abs(c - c_lie)) < 1e-7

    @pytest.mark.parametrize("jet, failing", [
        ("coframe_derivs_fn", {"coframe", "coframe2"}),   # d^2 theta is checked against it too
        ("coframe_derivs2_fn", {"coframe2"}),
        ("metric_derivs2_fn", {"metric2"}),
    ])
    def test_derivatives_rows_catch_a_wrong_jet(self, jet, failing):
        # a jet off by 1 % (plus 0.01, as the metric's is zero) fails its rows only
        cm = example1_chart(n=1)
        right = getattr(cm.model, jet)
        setattr(cm.model, jet, lambda x: 1.01 * right(x) + 0.01)
        rows = run_model_checks(cm, VerifyConfig(points=3, only="derivatives"))["checks"]
        verdicts = {r["check_id"]: r["verdict"] for r in rows}
        assert {k for k, v in verdicts.items() if v == "fail"} \
            == {f"derivatives.{k}" for k in failing}
        assert {v for v in verdicts.values() if v != "fail"} == {"pass"}

    @pytest.mark.parametrize("name", sorted(OTHER_PARAMS))
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_jets_hold_anywhere_in_the_box(self, name, data):
        # the derivatives rows check the jets on a prefix of the sample only;
        # here at random points of the box, at other parameters
        cm = builtin(name, **data.draw(OTHER_PARAMS[name]))
        lo, hi = np.array(cm.model.ranges).T
        u = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(lo), max_size=len(lo))))
        assert max(cm.model.jet_residuals(lo + u * (hi - lo)).values()) <= 1e-9

    @pytest.mark.parametrize("points", [2, 6])
    def test_jets_are_checked_on_a_prefix(self, points, monkeypatch):
        # two stencils (of g and of dg), over one block of the first 4 points only
        cm = example1_chart(n=1)
        calls = []
        derive = cm.model.frame_derivative
        monkeypatch.setattr(cm.model, "frame_derivative",
                            lambda p, fn, step: calls.append(p) or derive(p, fn, step))
        assert run_model_checks(cm, VerifyConfig(points=points, only="derivatives"))["checks"]
        assert [p.shape for p in calls] == [(min(points, 4), 3)] * 2

    @pytest.mark.parametrize("given, error", [
        (("metric_derivs",), TypeError),
        (("metric_derivs", "metric_derivs2", "coframe_derivs"), BadParams),
        (("metric_derivs", "metric_derivs2", "coframe_derivs2"), BadParams),
    ], ids=["no_metric2", "no_coframe2", "no_coframe"])
    def test_rejects_a_chart_without_its_jets(self, given, error):
        # fails at construction, not at the first curvature
        with pytest.raises(error):
            chart_model(3, lambda x: np.eye(3), frame=lambda x: np.eye(3), **zero_jets(3, *given))

    def test_commutators_antisymmetric_everywhere(self, ex1_chart, ex2_chart, ex3):
        for cm in (ex1_chart, ex2_chart, ex3):
            for p in cm.model.sample_points(4, 2):
                c = cm.model.commutators_at(p)
                assert np.max(np.abs(c + np.swapaxes(c, 1, 2))) == 0.0


class TestProductExtension:
    def test_flat_base_matches_chart_form(self, ex1_chart, ex2_chart):
        # the chart examples' coordinate metrics at t = pi/4, where
        # g = dt^2 - htilde: literal values, so a wrong flat base hC0 fails here
        model, _ = product_extension(flat_norden_base(np.eye(1)))
        assert np.allclose(model.metric_at(np.zeros(3)), np.diag([1.0, 1.0, -1.0]), atol=1e-15)
        p = np.array([np.pi / 4, 0.4, -0.2])
        expected = [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]
        assert np.allclose(ex1_chart.coord_metric_fn(p), expected, atol=1e-15)
        g = ex2_chart.coord_metric_fn(np.array([np.pi / 4, 0.3, -0.1, 0.2, 0.5]))
        assert g[1, 4] == g[2, 3] == -2.0
        assert abs(g[1, 2]) < 1e-15 and abs(g[3, 4]) < 1e-15
        assert np.array_equal(g, g.T)

    def test_metric_periodicity(self):
        model, _ = product_extension(flat_norden_base(np.eye(1)))
        p = np.array([0.37, 0.1, -0.5])
        q = p.copy()
        q[0] += np.pi
        assert np.max(np.abs(model.metric_at(p) - model.metric_at(q))) < 1e-12

    def test_structure_identities_exact(self):
        _, s = product_extension(flat_norden_base(np.eye(2)))
        phi, xi, eta = s.phi, s.xi, s.eta
        assert eta @ xi == 1.0
        assert np.max(np.abs(phi @ xi)) == 0.0
        assert np.max(np.abs(eta @ phi)) == 0.0

    def test_horizontal_metrics_rotate(self, ex3):
        # g|_H = cos 2t h' - sin 2t htilde', gtilde|_H = sin 2t h' + cos 2t htilde'
        base = ex3.model.base
        for p in ex3.model.sample_points(5, 8):
            t, bp = p[0], p[1:]
            h = base.metric_at(bp)
            ht = h @ standard_j(base.dim // 2)
            g = ex3.model.metric_at(p)[1:, 1:]
            gt = PointFields(ex3.structure, p).gtilde[1:, 1:]
            assert np.max(np.abs(g - (np.cos(2 * t) * h - np.sin(2 * t) * ht))) < 1e-12
            assert np.max(np.abs(gt - (np.sin(2 * t) * h + np.cos(2 * t) * ht))) < 1e-12

    def test_analytic_t_derivative(self, ex3):
        p = ex3.model.sample_points(3, 5)[1]
        dg = ex3.model.metric_derivs_at(p)
        fd = coordinate_derivatives(ex3.model.metric_at, p, 1e-4)
        assert np.max(np.abs(dg - fd)) < 1e-9

    def test_rejects_non_holomorphic_base(self):
        # Norden pointwise but e^x is not the real part of a holomorphic
        # metric coefficient pair, so J fails to be parallel
        def metric(x):
            return np.exp(x[..., 0])[..., None, None] * np.diag([1.0, -1.0])

        bad = fd_chart(2, metric, ranges=[(-0.5, 0.5)] * 2)
        with pytest.raises(BaseNotHolomorphic):
            product_extension(bad)

    def test_accepts_holomorphic_linear_base(self):
        model, _ = product_extension(linear_base())
        assert model.dim == 5

    @pytest.mark.parametrize("kwargs", [{"wbar": 0.3}, {"dhc_scale": 2.0}])
    def test_rejects_dh_that_is_not_the_metric_derivative(self, kwargs):
        # nabla^h J is solved from the given dh, so it vanishes here whatever
        # the metric does; only the finite differences of h show the w-bar
        # term or the doubled derivative
        with pytest.raises(BaseNotHolomorphic):
            product_extension(linear_base(**kwargs))

    def test_rejects_asymmetric_hc(self):
        # hC holomorphic but not symmetric: h = Re hC is not a metric
        hc = lambda w: np.array([[1.0, 0.3 + 0.2j], [-0.1j, 1.0]])
        base = holomorphic_base(2, hc, lambda w: np.zeros((2, 2, 2)), [(-0.2, 0.2)] * 4,
                                lambda w: np.zeros((2, 2, 2, 2)))
        with pytest.raises(BaseNotHolomorphic, match="asymmetry"):
            product_extension(base)

    @pytest.mark.parametrize("dim, frame, match", [
        (3, None, "even"),
        # Norden and flat, but the standard J is a constant of the coordinate
        # frame only
        (2, lambda x: np.eye(2), "coordinate frame"),
    ], ids=["odd_dimension", "coframe"])
    def test_rejects_chart_that_is_not_a_coordinate_base(self, dim, frame, match):
        coframe_jets = () if frame is None else ("coframe_derivs", "coframe_derivs2")
        chart = chart_model(dim, lambda x: np.diag([1.0, -1.0, 1.0][:dim]), frame=frame,
                            ranges=[(-0.5, 0.5)] * dim,
                            **zero_jets(dim, "metric_derivs", "metric_derivs2", *coframe_jets))
        with pytest.raises(BaseNotHolomorphic, match=match):
            product_extension(chart)


def cone_points(fields, count, seed):
    """(fields[k % len(fields)], r) of cone point k < count, r = ConeModel.radii(count,
    seed)[k], as the cone family places them."""
    return [(fields[k % len(fields)], r) for k, r in enumerate(ConeModel.radii(count, seed))]


def cones(cm, count, seed):
    """(ConeModel(f), (r,)) at the count cone points of cm's sample, as the
    cone family places them."""
    fields = sample_fields(cm, count, seed)
    return [(ConeModel(f), np.array([r])) for f, r in cone_points(fields, count, seed)]


def cone_frame_derivative(cone, p, fn, s=None, t=None):
    """e_i(fn(cone, p)) by finite differences at the default step: the base
    chart's frame_derivative of fn on the cones over neighbouring base points
    (zeros over a group, whose fields do not move), and
    coordinate_derivatives along r.  The cone is over the structure s, by
    default the cone's, transformed by t if given."""
    s, bp = s or cone.f.s, cone.f.p
    fields_at = (lambda q: apply_cct(PointFields(s, q), t)) if t else (lambda q: PointFields(s, q))
    on_cone = lambda q: fn(ConeModel(fields_at(q)), p)
    along_base = (s.model.frame_derivative(bp, on_cone) if isinstance(s.model, ChartModel)
                  else np.zeros((s.model.dim, *np.shape(fn(cone, p)))))
    along_r = coordinate_derivatives(lambda q: fn(cone, q), p)
    return np.concatenate([along_base, along_r])


class TestConeModel:
    def test_jcheck_squares_to_minus_id(self, ex1):
        for cone, p in cones(ex1, 5, 2):
            J = cone.j_at(p)
            assert np.max(np.abs(J @ J + np.eye(4))) < 1e-12

    def test_metric_values_at_minus_one(self, ex1):
        cone = ConeModel(PointFields(ex1.structure, ORIGIN))
        G = cone.metric_at(np.array([-1.0]))
        g = ex1.model.metric_at(ORIGIN)
        # horizontal block matches r^2 g = g, radial component is -1/r^2 = -1
        assert np.allclose(G[1:3, 1:3], g[1:3, 1:3], atol=1e-14)
        assert G[3, 3] == pytest.approx(-1.0)
        # the vertical direction is normalized: the cone metric restricted
        # to xi equals 1 for every r (not r^2 + 1; see the design notes)
        assert G[0, 0] == pytest.approx(1.0)

    def test_anti_isometry(self, ex1):
        for cone, p in cones(ex1, 4, 9):
            G = cone.metric_at(p)
            J = cone.j_at(p)
            assert np.max(np.abs(J.T @ G @ J + G)) < 1e-12

    def test_rejects_nonnegative_r(self, ex1):
        cone = ConeModel(PointFields(ex1.structure, ORIGIN))
        with pytest.raises(RNotNegative):
            cone.metric_at(np.array([0.5]))

    def test_analytic_r_derivative(self, ex1):
        cone = ConeModel(PointFields(ex1.structure, ORIGIN))
        p = np.array([-1.3])
        dg = cone.metric_derivs_at(p)
        fd = coordinate_derivatives(cone.metric_at, p, 1e-4)
        # base rows are exactly zero on a homogeneous base; the r-row is last
        assert np.max(np.abs(dg[:3])) == 0.0
        assert np.max(np.abs(dg[3] - fd[0])) < 1e-9

    @pytest.mark.parametrize("name", ["example1", "example1_chart", "example3_hsphere_ext"])
    def test_analytic_j_derivatives(self, name):
        for cone, p in cones(builtin(name), 4, 5):
            fd = cone_frame_derivative(cone, p, ConeModel.j_at)
            assert np.max(np.abs(cone.j_derivs_at(p) - fd)) < 1e-9

    @pytest.mark.parametrize("name", ["example1_chart", "example3_hsphere_ext"])
    def test_analytic_metric_derivatives(self, name):
        # the base rows come from the base point's dg and deta
        for cone, p in cones(builtin(name), 4, 5):
            fd = cone_frame_derivative(cone, p, ConeModel.metric_at)
            assert np.max(np.abs(cone.metric_derivs_at(p) - fd)) < 1e-9

    def test_analytic_j_derivatives_over_moving_structure(self):
        # w depends on t, so eta and xi of the transformed structure move
        # and the base rows of the J derivatives are not zero; the reference
        # transforms the base PointFields at each neighbouring point
        cm, t = example1_chart(1), TransformParams(w=coordinate(0, 0.2))
        fields = [apply_cct(f, t) for f in sample_fields(cm, 4, 5)]
        for f, r in cone_points(fields, 4, 5):
            cone, p = ConeModel(f), np.array([r])
            dj = cone.j_derivs_at(p)
            assert np.max(np.abs(dj[:-1])) > 0.1
            fd = cone_frame_derivative(cone, p, ConeModel.j_at, cm.structure, t)
            assert np.max(np.abs(dj - fd)) < 1e-9

    def test_sample_includes_r_minus_one(self, ex1):
        pts = [p for _, p in cones(ex1, 6, 42)]
        assert any(abs(p[-1] + 1.0) < 1e-15 for p in pts)
        assert all(-2.0 <= p[-1] <= -0.5 for p in pts)


class TestHolomorphicBase:
    def test_hsphere_invariants(self):
        base = hsphere_base(2, 3.0, 4.0)
        j = standard_j(2)
        for p in base.sample_points(6, 4):
            h = base.metric_at(p)
            assert np.max(np.abs(j.T @ h @ j + h)) < 1e-12

    def test_hsphere_flat_at_center(self):
        base = hsphere_base(2, 1.0, 0.0)
        h = base.metric_at(np.zeros(4))
        assert np.allclose(h, np.diag([1.0, 1.0, -1.0, -1.0]), atol=1e-15)

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(quadratic_metrics())
    def test_extension_of_any_holomorphic_base_is_sasaki_like(self, data):
        # the paper's construction on bases nobody derived by hand: every
        # judged row passes or is a designed failure
        n, s0, s1, s2 = data
        hc = lambda w: (s0 + np.einsum("...k,kij->...ij", w, s1)
                        + np.einsum("...k,...l,klij->...ij", w, w, s2))
        dhc = lambda w: (s1 + np.einsum("...l,mlij->...mij", w, s2)
                         + np.einsum("...l,lmij->...mij", w, s2))
        d2hc = lambda w: s2 + np.swapaxes(s2, 0, 1)
        base = holomorphic_base(n, hc, dhc, [(-0.2, 0.2)] * (2 * n), d2hc)
        cfg = VerifyConfig(points=6)
        pts = ProductExtensionModel(base).sample_points(cfg.points, cfg.seed)
        assume(min(abs(np.linalg.det(hc(p[1:n + 1] + 1j * p[n + 1:]))) for p in pts) >= 0.1)
        model, s = product_extension(base)
        cm = CorpusModel(name="polynomial_ext", model=model, structure=s,
                         params={"n": n}, sasaki_expected=True)
        rows = run_model_checks(cm, cfg)["checks"]
        bad = [(r["check_id"], r["max_residual"]) for r in rows
               if r["verdict"] not in ("pass", "xfail", "info")]
        assert rows and not bad

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(quadratic_metrics())
    def test_battery_catches_a_non_holomorphic_base(self, data):
        # hC + 0.3 sum conj(w^k) S_k is not holomorphic; past the gate, built
        # by hand with the jets of h = Re hC its finite differences, the
        # extension over it must fail the Sasaki-like rows
        n, s0, s1, s2 = data
        hc = lambda w: (s0 + np.einsum("...k,kij->...ij", w + 0.3 * w.conj(), s1)
                        + np.einsum("...k,...l,klij->...ij", w, w, s2))
        ranges = [(-0.2, 0.2)] * (2 * n)

        def h(x):
            m = hc(x[..., :n] + 1j * x[..., n:])
            return np.concatenate([np.concatenate([m.real, -m.imag], axis=-1),
                                   np.concatenate([-m.imag, -m.real], axis=-1)], axis=-2)

        base = fd_chart(2 * n, h, ranges)
        model = ProductExtensionModel(base)
        cfg = VerifyConfig(points=4)
        pts = model.sample_points(cfg.points, cfg.seed)
        assume(max(holomorphy_residual(levi_civita(base, p[1:])) for p in pts) >= 1e-2)
        d = model.dim
        phi = np.zeros((d, d))
        phi[1:, 1:] = standard_j(n)
        e0 = np.eye(d)[0]
        s = AccrStructure(model=model, n=n, phi=phi, xi=e0, eta=e0)
        cm = CorpusModel(name="non_holomorphic_ext", model=model, structure=s,
                         params={"n": n}, sasaki_expected=True)
        verdicts = {r["check_id"]: r["verdict"] for r in run_model_checks(cm, cfg)["checks"]}
        for check_id in ("cone.holomorphic", "sasaki.nabla_phi", "sasaki.defining.f_horizontal"):
            assert verdicts[check_id] == "fail", check_id

    def test_hsphere_analytic_derivs(self):
        base = hsphere_base(2, 1.0, 0.5)
        p = np.array([0.1, -0.05, 0.15, 0.08])
        dg = base.metric_derivs_at(p)
        fd = coordinate_derivatives(base.metric_at, p, 1e-4)
        assert np.max(np.abs(dg - fd)) < 1e-9
