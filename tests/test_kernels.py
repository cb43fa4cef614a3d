"""The vectorised chart kernels against the loop code they replaced.

The stacked stencil, the slice-assigned h-sphere chart, the single base
evaluation of the product extension and the array-built Halton sample do
the same floating-point operations on each element as the loops kept here
as references, so the results must be equal bit for bit, not merely close.
The contractions of a vector into a slot are matmuls, which sum in another
order than np.einsum, their reference here, so they agree to rounding.
"""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import accr
from accr.connection import levi_civita
from accr.corpus import hsphere_base
from accr.frame_algebra import first_slot, last_slot, standard_j
from accr.models import (
    _STENCIL_OFFSETS,
    _STENCIL_WEIGHTS,
    ConeModel,
    _primes,
    coordinate_derivatives,
    halton_points,
    product_extension,
)


def loop_coordinate_derivatives(fn, x, step):
    """One coordinate and one stencil offset at a time."""
    x = np.asarray(x, dtype=float)
    out = None
    for mu in range(len(x)):
        acc = None
        for off, wt in zip(_STENCIL_OFFSETS, _STENCIL_WEIGHTS):
            xs = x.copy()
            xs[mu] += off * step
            val = wt * np.asarray(fn(xs), dtype=float)
            acc = val if acc is None else acc + val
        acc /= step
        if out is None:
            out = np.zeros((len(x),) + acc.shape)
        out[mu] = acc
    if out is None:
        probe = np.asarray(fn(x), dtype=float)
        out = np.zeros((0,) + probe.shape)
    return out


def block_hsphere(n, a, b):
    """The h-sphere chart metric and derivative by np.block, one w^m at a time."""
    cplx = complex(a, -b)

    def real_block(m):
        return np.block([[m.real, -m.imag], [-m.imag, -m.real]])

    def metric(x):
        w = x[:n] + 1j * x[n:]
        denom = cplx - np.sum(w * w)
        return real_block(np.eye(n, dtype=complex) + np.outer(w, w) / denom)

    def derivs(x):
        w = x[:n] + 1j * x[n:]
        denom = cplx - np.sum(w * w)
        ww = np.outer(w, w)
        out = np.zeros((2 * n, 2 * n, 2 * n))
        for m in range(n):
            dm = np.zeros((n, n), dtype=complex)
            dm[m, :] += w
            dm[:, m] += w
            dm = dm / denom + 2.0 * w[m] * ww / (denom * denom)
            out[m] = real_block(dm)
            out[n + m] = real_block(1j * dm)
        return out

    return metric, derivs


HSPHERES = [(1, 1.0, 0.0), (2, 3.0, 4.0), (3, 1.0, 0.0), (3, 0.0, -2.0), (4, -1.5, 0.7)]


class TestStackedStencil:
    @pytest.mark.parametrize("step", [1e-3, 5e-4, 1e-4])
    def test_coframes(self, ex1_chart, ex2_chart, step):
        for cm in (ex1_chart, ex2_chart):
            for p in cm.model.sample_points(6, 3):
                assert np.array_equal(coordinate_derivatives(cm.coframe_fn, p, step),
                                      loop_coordinate_derivatives(cm.coframe_fn, p, step))

    def test_hsphere_metric(self):
        base = hsphere_base(3, 1.0, 0.5)
        for p in base.sample_points(6, 11):
            assert np.array_equal(coordinate_derivatives(base.metric_at, p, 1e-3),
                                  loop_coordinate_derivatives(base.metric_at, p, 1e-3))

    def test_connection_field(self, ex3):
        p = ex3.model.sample_points(2, 4)[1]
        gamma = lambda q: levi_civita(ex3.model, q).gamma
        assert np.array_equal(coordinate_derivatives(gamma, p, 1e-3),
                              loop_coordinate_derivatives(gamma, p, 1e-3))

    def test_zero_dimensional_point(self):
        fn = lambda q: np.arange(6.0).reshape(2, 3) + len(q)
        got = coordinate_derivatives(fn, np.zeros(0), 1e-3)
        assert got.shape == (0, 2, 3)
        assert np.array_equal(got, loop_coordinate_derivatives(fn, np.zeros(0), 1e-3))

    def test_one_dimensional_point(self):
        fn = lambda q: np.stack([np.sin(q[..., 0]), q[..., 0] ** 3], axis=-1)
        x = np.array([0.37])
        assert np.array_equal(coordinate_derivatives(fn, x, 1e-3),
                              loop_coordinate_derivatives(fn, x, 1e-3))


class TestHSphereChart:
    @pytest.mark.parametrize("n, a, b", HSPHERES)
    def test_metric_and_derivative(self, n, a, b):
        model = hsphere_base(n, a, b)
        metric, derivs = block_hsphere(n, a, b)
        for p in model.sample_points(8, 5):
            assert np.array_equal(model.metric_fn(p), metric(p))
            assert np.array_equal(model.metric_derivs_fn(p), derivs(p))


class TestProductExtension:
    @pytest.mark.parametrize("n, a, b", HSPHERES)
    def test_one_base_evaluation(self, n, a, b):
        base = hsphere_base(n, a, b)
        model, _ = product_extension(base)
        j = standard_j(n)
        for p in model.sample_points(6, 9):
            t, bp = p[0], p[1:]
            h = base.metric_at(bp)
            ht = h @ j
            g = np.zeros((model.dim,) * 2)
            g[0, 0] = 1.0
            g[1:, 1:] = np.cos(2 * t) * h - np.sin(2 * t) * ht
            assert np.array_equal(model.metric_at(p), g)

            D = np.zeros((model.dim,) * 3)
            D[0, 1:, 1:] = -2 * np.sin(2 * t) * h - 2 * np.cos(2 * t) * ht
            dh = base.metric_derivs_at(bp)
            dht = np.einsum("ijm,mk->ijk", base.metric_derivs_at(bp), j)
            D[1:, 1:, 1:] = np.cos(2 * t) * dh - np.sin(2 * t) * dht
            assert np.array_equal(model.metric_derivs_at(p), D)


def loop_halton_points(ranges, count, seed):
    """Reference: one shuffle per permutation and one update per digit place."""
    if count <= 0:
        return []
    lo = np.array([r[0] for r in ranges], dtype=float)
    hi = np.array([r[1] for r in ranges], dtype=float)
    rng = np.random.default_rng(seed)
    u = np.zeros((len(ranges), count))
    for row, base in zip(u, _primes(len(ranges))):
        perms = np.repeat(np.arange(base)[None], math.ceil(54 / math.log2(base)) - 1, axis=0)
        for perm in perms:
            rng.shuffle(perm)
        quotient = np.arange(count)
        scale = 1.0 / base
        for perm in perms:
            row += perm[quotient % base] * scale
            quotient //= base
            scale /= base
    return [lo + ui * (hi - lo) for ui in u.T]


class TestHalton:
    # 9: the widest group model (n = 4); 17: example1_chart at n = 8; 33:
    # MAX_N, whose last base is 137.  Base 2 takes 53 digit places, the last
    # worth 2**52, so the digits are taken in int64.
    DIMS = [1, 2, 3, 5, 6, 7, 9, 17, 33]
    COUNTS = (1, 4, 19, 20, 137, 1000)
    SEEDS = (0, 7, 42, 43, 2024)

    @pytest.mark.parametrize("d", DIMS)
    def test_matches_scipy(self, d):
        qmc = pytest.importorskip("scipy.stats.qmc")
        for seed in self.SEEDS:
            for count in self.COUNTS:
                ref = qmc.Halton(d=d, scramble=True, seed=seed).random(count)
                assert np.array_equal(np.array(halton_points([(0.0, 1.0)] * d, count, seed)),
                                      ref)

    @pytest.mark.parametrize("d", DIMS)
    def test_matches_digit_loop(self, d):
        ranges = [(-0.9, 0.9), (2.0, 3.0), (-2.0, -0.5)] * d
        for seed in self.SEEDS:
            for count in self.COUNTS:
                assert np.array_equal(np.array(halton_points(ranges[:d], count, seed)),
                                      np.array(loop_halton_points(ranges[:d], count, seed)))

    def test_cone_radii_match_digit_loop(self):
        for seed in (0, 1, 3, 7, 42):
            rest = loop_halton_points([(-2.0, -0.5)], 7, seed + 1)
            assert ConeModel.radii(8, seed) == [-1.0, *(float(x[0]) for x in rest)]

    def test_box_and_empty(self):
        pts = halton_points([(-0.9, 0.9), (2.0, 3.0)], 50, 1)
        assert len(pts) == 50 and len({tuple(p) for p in pts}) == 50
        assert all(-0.9 <= p[0] < 0.9 and 2.0 <= p[1] < 3.0 for p in pts)
        assert halton_points([(0.0, 1.0)], 0, 1) == []
        # a sample of k points is the first k of a larger one with the same
        # seed: the cone reads its base points from the pass's list
        assert all(np.array_equal(a, b) for k in (1, 6, 49)
                   for a, b in zip(halton_points([(-0.9, 0.9), (2.0, 3.0)], k, 1), pts[:k],
                                   strict=True))


class TestImportPath:
    """Sampling is numpy-only: scipy is a test dependency, not a runtime one."""

    def _run(self, code):
        src = str(Path(accr.__file__).resolve().parents[1])
        return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60)

    def test_cli_import_leaves_scipy_out(self):
        proc = self._run("import accr.cli, sys; assert 'scipy' not in sys.modules")
        assert proc.returncode == 0, proc.stderr

    def test_list_runs_without_scipy(self):
        proc = self._run("import sys; sys.modules['scipy'] = None\n"
                         "from accr.cli import main; sys.exit(main(['list']))")
        assert proc.returncode == 0, proc.stderr
        assert "example3_hsphere_ext" in proc.stdout


class TestContractions:
    """first_slot and last_slot against np.einsum on random blocks."""

    @pytest.mark.parametrize("lead", [(), (5,), (2, 5)])
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_match_einsum(self, lead, rank):
        rng = np.random.default_rng(rank)
        t = rng.standard_normal(lead + (6,) * rank)
        v = rng.standard_normal(lead + (6,))
        slots = "abcd"[:rank]
        want_first = np.einsum(f"...a,...{slots}->...{slots[1:]}", v, t)
        want_last = np.einsum(f"...{slots},...{slots[-1]}->...{slots[:-1]}", t, v)
        np.testing.assert_allclose(first_slot(v, t), want_first, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(last_slot(t, v), want_last, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("lead", [(), (5,), (2, 5)])
    def test_read_only_broadcast_inputs(self, lead):
        # a constant field at a block is a read-only broadcast, and a block may
        # broadcast against a single point: the leading axes of v
        rng = np.random.default_rng(7)
        v = np.broadcast_to(rng.standard_normal(6), lead + (6,))
        t = rng.standard_normal(lead + (6, 6, 6))
        assert not v.flags.writeable
        np.testing.assert_allclose(first_slot(v, t), np.einsum("...a,...abc->...bc", v, t),
                                   rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(last_slot(t, v), np.einsum("...abc,...c->...ab", t, v),
                                   rtol=1e-13, atol=1e-13)
        zeros = np.broadcast_to(0.0, lead + (6, 6, 6))
        assert not np.any(first_slot(v, zeros)) and not np.any(last_slot(zeros, v))
        one = rng.standard_normal((1,) * len(lead) + (6, 6))
        np.testing.assert_allclose(last_slot(one, v), np.einsum("...ab,...b->...a", one, v),
                                   rtol=1e-13, atol=1e-13)


def test_no_multi_operand_einsum():
    """Every contraction in src/accr is a matmul chain: an np.einsum of two
    or more operands takes no contraction path and loops over every index.
    A single-operand einsum is an axis permutation, a view, and may stay."""
    found = []
    for path in sorted(Path(accr.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "einsum" and len(node.args) >= 3):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"multi-operand np.einsum at {', '.join(found)}"
