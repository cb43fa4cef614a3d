"""Dense multilinear algebra over a fixed frame.

Everything in this package works with components taken in a frame
(orthonormal or not), stored as plain numpy arrays.  This module holds the
small building blocks: the standard signature and complex structure,
metric matrices with cached inverses, projection into every slot and the
Kulkarni-Nomizu product.
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


def project_all(t, proj) -> np.ndarray:
    """Contract a projector (such as the horizontal P = Id - eta (x) xi)
    into every slot of a component array."""
    # project the last slot and rotate it to the front, ndim times
    last_first = (np.ndim(t) - 1, *range(np.ndim(t) - 1))
    for _ in range(np.ndim(t)):
        t = (t @ proj).transpose(last_first)
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
    """Kulkarni-Nomizu product of two symmetric (0,2) tensors.

    (a ^ b)(X,Y,Z,U) = a(Y,Z) b(X,U) - a(X,Z) b(Y,U)
                     + b(Y,Z) a(X,U) - b(X,Z) a(Y,U)

    For a = b the result carries all algebraic curvature symmetries.
    """
    A = np.asarray(a, dtype=float)
    B = np.asarray(b, dtype=float)
    if A.shape != B.shape or A.ndim != 2:
        raise DimMismatch(f"operands have shapes {A.shape} and {B.shape}")
    return (
        np.einsum("jk,il->ijkl", A, B)
        - np.einsum("ik,jl->ijkl", A, B)
        + np.einsum("jk,il->ijkl", B, A)
        - np.einsum("ik,jl->ijkl", B, A)
    )
