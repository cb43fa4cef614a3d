"""Dense multilinear algebra over a fixed frame.

Everything in this package works with components taken in a frame
(orthonormal or not), stored as dense numpy arrays.  This module holds the
small building blocks: signatures, tagged component arrays, metric matrices
with cached inverses, the Kulkarni-Nomizu product and signature-weighted
traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateMetric, DimMismatch

SYM_TOL = 1e-12
DET_TOL = 1e-12
INV_TOL = 1e-9


def as_components(t) -> np.ndarray:
    """Accept either a raw array or a wrapper with a ``components`` field."""
    return np.asarray(getattr(t, "components", t), dtype=float)


def project_all(t, proj) -> np.ndarray:
    """Contract a projector (such as the horizontal P = Id - eta (x) xi)
    into every slot of a component array."""
    t = np.asarray(t)
    for axis in range(t.ndim):
        t = np.moveaxis(np.tensordot(proj, t, axes=(0, axis)), 0, axis)
    return t


@dataclass(frozen=True)
class Signature:
    """Frame signature epsilon_i = g(e_i, e_i) for an orthonormal frame.

    The adapted frames used here have epsilon_i = +1 for i = 0..n and
    epsilon_i = -1 for i = n+1..2n.
    """

    epsilons: tuple

    def __post_init__(self):
        eps = tuple(int(e) for e in self.epsilons)
        object.__setattr__(self, "epsilons", eps)
        if any(e not in (-1, 1) for e in eps):
            raise ValueError("signature entries must be +1 or -1")
        if len(eps) % 2 != 1:
            raise ValueError("expected odd length 2n+1")
        n = len(eps) // 2
        if eps[0] != 1 or sum(1 for e in eps if e == 1) != n + 1:
            raise ValueError("expected n+1 entries +1 starting with epsilon_0")

    @classmethod
    def standard(cls, n: int) -> "Signature":
        return cls(tuple([1] * (n + 1) + [-1] * n))

    @property
    def n(self) -> int:
        return len(self.epsilons) // 2

    @property
    def dim(self) -> int:
        return len(self.epsilons)

    def as_array(self) -> np.ndarray:
        return np.array(self.epsilons, dtype=float)


@dataclass
class FrameTensor:
    """Dense multi-index component array with valence tags.

    ``valence`` is a tuple of "cov"/"con" flags, one per index.  Components
    are stored exactly as evaluated in the working frame.
    """

    dim: int
    valence: tuple
    components: np.ndarray

    def __post_init__(self):
        self.components = np.asarray(self.components, dtype=float)
        if self.components.shape != (self.dim,) * len(self.valence):
            raise DimMismatch(
                f"components shape {self.components.shape} does not match "
                f"dim {self.dim} and rank {len(self.valence)}"
            )
        if any(v not in ("cov", "con") for v in self.valence):
            raise ValueError("valence tags must be 'cov' or 'con'")

    @property
    def rank(self) -> int:
        return len(self.valence)

    def symmetry_residual(self, i: int, j: int) -> float:
        """Max deviation from symmetry under swapping indices i and j."""
        return float(np.max(np.abs(self.components - np.swapaxes(self.components, i, j))))


class MetricMatrix:
    """Symmetric nondegenerate matrix of frame metric components.

    The inverse is computed once (LAPACK LU under the hood) and cached;
    construction fails on asymmetry, near-singularity, or a bad
    inverse-product residual.
    """

    def __init__(self, components):
        g = np.asarray(components, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise DimMismatch("metric must be a square matrix")
        if np.max(np.abs(g - g.T)) > SYM_TOL:
            raise ValueError("metric components are not symmetric")
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


def metric_inverse(m: MetricMatrix) -> MetricMatrix:
    """Inverse metric g^{ij} with g^{ik} g_{kj} = delta^i_j.

    Raises DegenerateMetric when |det| <= 1e-12.  The inverse is
    symmetrised: LU leaves roundoff asymmetry on ill-conditioned input.
    """
    if not isinstance(m, MetricMatrix):
        m = MetricMatrix(m)
    return MetricMatrix(0.5 * (m.inverse + m.inverse.T))


def kulkarni_nomizu(a, b) -> FrameTensor:
    """Kulkarni-Nomizu product of two symmetric (0,2) tensors.

    (a ^ b)(X,Y,Z,U) = a(Y,Z) b(X,U) - a(X,Z) b(Y,U)
                     + b(Y,Z) a(X,U) - b(X,Z) a(Y,U)

    For a = b the result carries all algebraic curvature symmetries.
    """
    A = as_components(a)
    B = as_components(b)
    if A.shape != B.shape or A.ndim != 2:
        raise DimMismatch(f"operands have shapes {A.shape} and {B.shape}")
    out = (
        np.einsum("jk,il->ijkl", A, B)
        - np.einsum("ik,jl->ijkl", A, B)
        + np.einsum("jk,il->ijkl", B, A)
        - np.einsum("ik,jl->ijkl", B, A)
    )
    return FrameTensor(A.shape[0], ("cov",) * 4, out)


def trace_with_signature(t, sig: Signature) -> float:
    """Sum_i epsilon_i t(e_i, e_i) for a (0,2) tensor t."""
    T = as_components(t)
    if T.ndim != 2 or T.shape[0] != sig.dim:
        raise DimMismatch("tensor shape does not match signature length")
    return float(np.einsum("i,ii->", sig.as_array(), T))
