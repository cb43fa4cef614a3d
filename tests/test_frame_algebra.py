import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accr.errors import BadParams, DegenerateMetric, DimMismatch
from accr.frame_algebra import MetricMatrix, kulkarni_nomizu, project_all, standard_signature
from accr.structure import PointFields
from tests.conftest import ORIGIN


def kn_reference(a, b):
    """Direct loop expansion of the product, kept independent of einsum."""
    d = a.shape[0]
    out = np.zeros((d, d, d, d))
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    out[i, j, k, l] = (
                        a[j, k] * b[i, l] - a[i, k] * b[j, l]
                        + b[j, k] * a[i, l] - b[i, k] * a[j, l]
                    )
    return out


def symmetric_matrices(dim):
    elem = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
    return st.lists(elem, min_size=dim * dim, max_size=dim * dim).map(
        lambda vals: (lambda m: (m + m.T) / 2.0)(np.array(vals).reshape(dim, dim))
    )


class TestSignature:
    def test_standard(self):
        np.testing.assert_array_equal(standard_signature(2), [1.0, 1.0, 1.0, -1.0, -1.0])
        assert standard_signature(2).dtype == float


class TestMetricInverse:
    def test_diag_self_inverse(self):
        m = MetricMatrix(np.diag([1.0, 1.0, -1.0]))
        assert np.allclose(m.inverse, np.diag([1.0, 1.0, -1.0]), atol=1e-14)

    def test_identity(self):
        m = MetricMatrix(np.eye(5))
        assert np.allclose(m.inverse, np.eye(5), atol=1e-14)

    def test_transformed_metric_of_example1(self, ex1):
        # g_bar = c g + d g(., phi .) + (1 - c) eta x eta with c = 2, d = 1
        g = ex1.model.metric_at(ORIGIN)
        phi = ex1.structure.phi
        eta = ex1.structure.eta
        gbar = 2.0 * g + g @ phi - np.outer(eta, eta)
        inv = MetricMatrix(gbar).inverse
        assert np.max(np.abs(inv @ gbar - np.eye(3))) < 1e-9

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateMetric):
            MetricMatrix(np.diag([1.0, 0.0, 1.0]))

    @settings(max_examples=60, deadline=None)
    @given(symmetric_matrices(3))
    def test_involution(self, m):
        if abs(np.linalg.det(m)) <= 1e-6:
            return
        again = np.linalg.inv(MetricMatrix(m).inverse)
        assert np.max(np.abs(again - m)) < 1e-8 * max(1.0, np.max(np.abs(m)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        g = np.diag([1.0, 1.0, -1.0])
        g[0, 0] = bad
        with pytest.raises(BadParams):
            MetricMatrix(g)


class TestKulkarniNomizu:
    def test_diagonal_component(self):
        h = np.diag([2.0, 3.0])
        out = kulkarni_nomizu(h, h)
        assert out[0, 1, 1, 0] == pytest.approx(2.0 * h[1, 1] * h[0, 0])

    def test_pi1_neutral_plane(self):
        h = np.diag([1.0, -1.0])
        pi1 = 0.5 * kulkarni_nomizu(h, h)
        assert pi1[0, 1, 1, 0] == pytest.approx(-1.0)

    def test_matches_reference_expansion(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 4))
        a = (a + a.T) / 2
        b = rng.normal(size=(4, 4))
        b = (b + b.T) / 2
        assert np.max(np.abs(kulkarni_nomizu(a, b) - kn_reference(a, b))) < 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            kulkarni_nomizu(np.eye(2), np.eye(3))

    @settings(max_examples=40, deadline=None)
    @given(symmetric_matrices(3))
    def test_curvature_symmetries(self, a):
        t = kulkarni_nomizu(a, a)
        assert np.max(np.abs(t + np.einsum("jikl->ijkl", t))) < 1e-12
        assert np.max(np.abs(t + np.einsum("ijlk->ijkl", t))) < 1e-12
        assert np.max(np.abs(t - np.einsum("klij->ijkl", t))) < 1e-12
        bianchi = t + np.einsum("jkil->ijkl", t) + np.einsum("kijl->ijkl", t)
        assert np.max(np.abs(bianchi)) < 1e-12


def project_reference(t, proj):
    """proj contracted into every slot of t by one explicit einsum:
    out[i, j, ..] = sum t[a, b, ..] proj[a, i] proj[b, j] .."""
    slots, out = "abcd"[:t.ndim], "ijkl"[:t.ndim]
    spec = ",".join([slots, *(a + i for a, i in zip(slots, out))]) + "->" + out
    return np.einsum(spec, t, *[proj] * t.ndim, optimize=True)


class TestProjectAll:
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    @pytest.mark.parametrize("dim", [3, 5, 7])
    def test_matches_einsum(self, rank, dim):
        # P = Id - xi (x) eta with eta(xi) = 1, xi and eta off the axes: not diagonal
        rng = np.random.default_rng(10 * rank + dim)
        for _ in range(3):
            xi, eta = rng.uniform(-1.0, 1.0, (2, dim))
            eta[0] += (1.0 - eta @ xi) / xi[0]
            proj = np.eye(dim) - np.outer(xi, eta)
            assert np.min(np.abs(proj)) > 0
            t = rng.uniform(-1.0, 1.0, (dim,) * rank)
            ref = project_reference(t, proj)
            assert np.max(np.abs(project_all(t, proj) - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref)))

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_in_a_removed_slot_is_not_small(self, rank, bad):
        # the horizontal projector of the standard structure drops the xi
        # slot, yet a residual that could not be computed there still shows
        proj = np.diag([0.0, 1.0, 1.0])
        t = np.zeros((3,) * rank)
        t[(0,) * rank] = bad
        with np.errstate(invalid="ignore"):
            assert not np.isfinite(np.max(np.abs(project_all(t, proj))))


class TestSignatureTrace:
    def test_metric_trace_is_dimension(self, ex1_n2):
        # sum_i eps_i g(e_i, e_i) = sum_i eps_i^2 = dim: the adapted frame is
        # orthonormal with the standard signature, so the invariant trace
        # g^{ij} g_ij, the convention the scalar curvatures use, is the dimension
        f = PointFields(ex1_n2.structure, ORIGIN)
        np.testing.assert_array_equal(f.g, np.diag(standard_signature(2)))
        assert np.einsum("ij,ij->", f.ginv, f.g) == pytest.approx(5.0)

    def test_eta_tensor_eta(self, ex1, ex3):
        # eta (x) eta has invariant trace g^{ij} eta_i eta_j = g(xi, xi) = 1
        for cm in (ex1, ex3):
            for p in cm.model.sample_points(3, 5):
                f = PointFields(cm.structure, p)
                assert f.eta @ f.ginv @ f.eta == pytest.approx(1.0, abs=1e-12)

    def test_ricci_of_example1(self, ex1):
        f = PointFields(ex1.structure, ORIGIN)
        assert f.curvature.scal == pytest.approx(2.0, abs=1e-12)
