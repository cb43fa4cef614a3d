"""Dense multilinear algebra over a fixed frame.

Everything in this package works with components taken in a frame
(orthonormal or not), stored as plain numpy arrays, with any leading axes
ranging over a block of points.  This module holds the
small building blocks: the standard signature and complex structure,
metric matrices with cached inverses, a vector into the first or the last
slot of a tensor, projection into every slot and the Kulkarni-Nomizu
product.  Every contraction of the package is a chain of matmuls with the
point axes leading, not an einsum, which loops naively over every index.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import BadParams, DegenerateMetric, DimMismatch

SYM_TOL = 1e-12
DET_TOL = 1e-12
INV_TOL = 1e-9


def standard_signature(n: int) -> np.ndarray:
    """epsilon_i = g(e_i, e_i) of the adapted orthonormal frames: +1 for
    i = 0..n and -1 for i = n+1..2n."""
    return np.array([1.0] * (n + 1) + [-1.0] * n)


@lru_cache
def standard_j(n: int) -> np.ndarray:
    """The complex structure J = [[0, -I], [I, 0]] on R^{2n}, J e_i = e_{n+i}:
    multiplication by i in the real coordinates (u, v) of w = u + i v, and
    phi on the horizontal part of the adapted frames.  Built once per n and
    read-only, as every extension metric evaluation reads it."""
    j = np.zeros((2 * n, 2 * n))
    idx = np.arange(n)
    j[n + idx, idx] = 1.0
    j[idx, n + idx] = -1.0
    j.flags.writeable = False
    return j


def max_abs(t, rank):
    """max |t| over its last rank axes: the residual of a tensor of that rank
    at each point of its leading axes.  NaN and inf propagate.  The axes
    are reduced where they lie, so a strided t (a transposed view) is not
    copied."""
    return np.abs(t).max(axis=tuple(range(-rank, 0)))


def first_slot(v, t) -> np.ndarray:
    """v^a t[a, ...], the vector v into the first slot of t over the leading
    point axes of v, which t shares or broadcasts against: one matmul."""
    out = v[..., None, :] @ t.reshape(t.shape[:np.ndim(v)] + (-1,))
    return out.reshape(out.shape[:-2] + t.shape[np.ndim(v):])


def last_slot(t, v) -> np.ndarray:
    """t[..., a] v^a, the vector v into the last slot of t over the leading
    point axes of v, which t shares or broadcasts against: one matmul."""
    out = t.reshape(t.shape[:np.ndim(v) - 1] + (-1, t.shape[-1])) @ v[..., :, None]
    return out.reshape(out.shape[:-2] + t.shape[np.ndim(v) - 1:-1])


def project_all(t, proj) -> np.ndarray:
    """Contract a projector (such as the horizontal P = Id - eta (x) xi)
    into every slot of a component array.  Both may carry the same leading
    point axes: the slots of t are its axes after proj's leading ones."""
    t = np.asarray(t)
    lead = np.ndim(proj) - 2
    rank = t.ndim - lead
    # project the last slot, as one matmul per point, and rotate it to the front, rank times
    last_first = (*range(lead), t.ndim - 1, *range(lead, t.ndim - 1))
    for _ in range(rank):
        shape = t.shape
        t = (t.reshape(shape[:lead] + (-1, shape[-1])) @ proj).reshape(shape).transpose(last_first)
    return t


class MetricMatrix:
    """Symmetric nondegenerate matrix of frame metric components.

    The inverse is computed once (LAPACK LU under the hood) and cached;
    construction fails on non-finite components, asymmetry,
    near-singularity, or a bad inverse-product residual.
    """

    def __init__(self, components):
        g = np.asarray(components, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise DimMismatch("metric must be a square matrix")
        if not np.all(np.isfinite(g)):
            raise BadParams("metric components must be finite")
        if np.max(np.abs(g - g.T)) > SYM_TOL:
            raise BadParams("metric components are not symmetric")
        self.components = g
        self.dim = g.shape[0]
        if abs(np.linalg.det(g)) <= DET_TOL:
            raise DegenerateMetric(f"|det| = {abs(np.linalg.det(g)):.3e} <= {DET_TOL}")
        inv = np.linalg.inv(g)
        if np.max(np.abs(inv @ g - np.eye(self.dim))) > INV_TOL:
            raise DegenerateMetric("inverse residual exceeds tolerance")
        self.inverse = inv

    def signature_counts(self) -> tuple:
        """(positive, negative) eigenvalue counts."""
        ev = np.linalg.eigvalsh(self.components)
        return int(np.sum(ev > 0)), int(np.sum(ev < 0))


def kulkarni_nomizu(a, b) -> np.ndarray:
    """Kulkarni-Nomizu product of two symmetric (0,2) tensors, over any
    leading point axes they share.

    (a ^ b)(X,Y,Z,U) = a(Y,Z) b(X,U) - a(X,Z) b(Y,U)
                     + b(Y,Z) a(X,U) - b(X,Z) a(Y,U)

    For a = b the result carries all algebraic curvature symmetries.
    """
    A = np.asarray(a, dtype=float)
    B = np.asarray(b, dtype=float)
    if A.shape != B.shape or A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise DimMismatch(f"operands have shapes {A.shape} and {B.shape}")
    # x[j,k] y[i,l] at [i,j,k,l], as a broadcast product
    outer = lambda x, y: x[..., None, :, :, None] * y[..., :, None, None, :]
    t = outer(A, B) + outer(B, A)
    return t - np.swapaxes(t, -4, -3)
