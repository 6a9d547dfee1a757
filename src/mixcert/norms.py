"""The spectral and (2,1) norms of a network's layers.

spectral_norm runs power iteration on the Gram operator with a Rayleigh
estimate, which converges to the top singular value from below, so the
reported value is a lower estimate of it. norm_2_1_of_transpose sums the
Euclidean row norms of the matrix (the (2,1) norm of its transpose).
LayerNorms holds both per layer; the capacity term built from them,

    T = prod_i s_i * (sum_i (b_i / s_i)**(2/3)) ** (3/2),

lives in `rademacher.covering_bound_terms`. T never decreases as any s_i
grows (d log T / d log s_j = 1 - w_j >= 0, w_j the share of term j in the
sum), so a spectral norm below the truth makes T too small: a lower
estimate is not the safe side here. Its activation Lipschitz
constants p_i are all 1, since every activation the package accepts is
1-Lipschitz, so T carries no p_i.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._checks import _as_array, _as_float, _instance
from .errors import DimensionMismatch, NoConvergenceWarning
from .network import NetworkParams
from .seeding import _NORM_SEEDS, substream

_MAX_ITER = 10000  # power-iteration steps per start before NoConvergenceWarning
_TOL = 1e-10  # relative change of successive estimates at which the iteration stops


def spectral_norm(A: np.ndarray) -> float:
    """Largest singular value by seeded power iteration: a lower estimate,
    not a bound. It stops on a small change of the estimate, not on its
    distance to the truth, which can be far larger than _TOL when the top
    two singular values are close (4.7e-7 below 1.0 on a 16 x 16 matrix
    whose top two differ by 1e-6).

    Stops when successive Rayleigh estimates differ by at most _TOL
    relative; restarts once from a fresh seeded vector if the iterate lands
    in the null space, and returns 0.0 for the zero matrix. If the cap is
    hit, warns NoConvergenceWarning and returns the best estimate.
    """
    A = _as_array(A, "A", 2)
    if A.size == 0 or not np.any(A):
        return 0.0
    for seed in _NORM_SEEDS:
        rng = substream(seed, A.shape[0], A.shape[1])
        v = rng.standard_normal(A.shape[1])
        v /= np.linalg.norm(v)
        prev = -np.inf
        for _ in range(_MAX_ITER):
            w = A @ v
            s = float(np.linalg.norm(w))
            if s == 0.0:
                break  # the iterate is in the null space: restart
            if abs(s - prev) <= _TOL * s:
                return s
            prev = s
            z = A.T @ w
            v = z / np.linalg.norm(z)
        else:
            warnings.warn("power iteration hit its iteration cap",
                          NoConvergenceWarning)
            return s
    return 0.0


def norm_2_1_of_transpose(A: np.ndarray) -> float:
    """Sum of Euclidean row norms; upper-bounds the spectral norm."""
    A = _as_array(A, "A", 2)
    return float(np.sqrt((A * A).sum(axis=1)).sum())


@dataclass(frozen=True)
class LayerNorms:
    """Per-layer (spectral, row-norm-sum) pairs."""

    spectral: tuple
    two_one: tuple

    def __post_init__(self):
        if len(self.spectral) != len(self.two_one):
            raise DimensionMismatch("per-layer tuples must have equal length")
        for key in ("spectral", "two_one"):
            object.__setattr__(self, key, tuple(_as_float(v, key, 0.0, closed=True)
                                                for v in getattr(self, key)))

    @classmethod
    def from_params(cls, params: NetworkParams) -> "LayerNorms":
        layers = _instance(params, "params", NetworkParams).layers
        return cls(spectral=tuple(spectral_norm(W) for W in layers),
                   two_one=tuple(norm_2_1_of_transpose(W) for W in layers))
