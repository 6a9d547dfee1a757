"""Layer norms feeding the capacity term.

spectral_norm runs power iteration on the Gram operator with a Rayleigh
estimate, which converges to the top singular value from below, so the
reported value never exceeds the truth. norm_2_1_of_transpose sums the
Euclidean row norms of the matrix (the (2,1) norm of its transpose). The
scale-sensitive aggregate

    T = prod_i (p_i * s_i) * (sum_i (b_i / s_i)**(2/3)) ** (3/2)

with per-layer spectral norms s_i, row-norm sums b_i, and activation
Lipschitz constants p_i, is positively homogeneous of degree L in the
weights and defined as 0 when any layer has spectral norm 0.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._checks import _as_array, _as_float
from .errors import DimensionMismatch, NoConvergenceWarning, ZeroSpectralNorm
from .network import NetworkParams
from .seeding import substream

_RESTART_TAGS = (101, 211)
_MAX_ITER = 10000  # power-iteration steps per start before NoConvergenceWarning


def spectral_norm(A: np.ndarray, tol: float = 1e-10) -> float:
    """Largest singular value by seeded power iteration.

    Stops when successive Rayleigh estimates differ by less than tol
    relative; restarts once from a fresh seeded vector if the iterate lands
    in the null space, and returns 0.0 for the zero matrix. If the cap is
    hit, warns NoConvergenceWarning and returns the best estimate.
    """
    A = _as_array(A, "A", 2)
    _as_float(tol, "tol", 0.0)
    if A.size == 0 or not np.any(A):
        return 0.0
    for tag in _RESTART_TAGS:
        rng = substream(tag, A.shape[0], A.shape[1])
        v = rng.standard_normal(A.shape[1])
        v /= np.linalg.norm(v)
        prev = -np.inf
        for _ in range(_MAX_ITER):
            w = A @ v
            s = float(np.linalg.norm(w))
            if s == 0.0:
                break  # the iterate is in the null space: restart
            if abs(s - prev) <= tol * s:
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
    """Per-layer (spectral, row-norm-sum, Lipschitz) triples."""

    spectral: tuple
    two_one: tuple
    lipschitz: tuple

    def __post_init__(self):
        if not len(self.spectral) == len(self.two_one) == len(self.lipschitz):
            raise DimensionMismatch("per-layer tuples must have equal length")
        for key in ("spectral", "two_one", "lipschitz"):
            object.__setattr__(self, key, tuple(_as_float(v, key, 0.0, closed=True)
                                                for v in getattr(self, key)))

    @classmethod
    def from_params(cls, params: NetworkParams, tol: float = 1e-10) -> "LayerNorms":
        return cls(
            spectral=tuple(spectral_norm(W, tol=tol) for W in params.layers),
            two_one=tuple(norm_2_1_of_transpose(W) for W in params.layers),
            lipschitz=tuple(a.lipschitz for a in params.activations),
        )


def norm_factors(norms: LayerNorms) -> tuple[float, float]:
    """The two factors of T: (ratio, prod) with ratio = (sum_i (b_i /
    s_i)**(2/3))**(3/2) and prod = prod_i (p_i * s_i). Needs every s_i > 0.
    Callers multiply them in their own order; the orders can differ in the
    last bit."""
    s = np.asarray(norms.spectral)
    ratio = float(((np.asarray(norms.two_one) / s) ** (2.0 / 3.0)).sum() ** 1.5)
    return ratio, float(np.prod(np.asarray(norms.lipschitz) * s))


def complexity_from_norms(norms: LayerNorms) -> float:
    """The aggregate T from precomputed layer norms; 0 if any s_i is 0."""
    if any(s == 0.0 for s in norms.spectral):
        return 0.0
    ratio, prod = norm_factors(norms)
    return prod * ratio


def require_positive_spectral(norms: LayerNorms) -> None:
    """Raise ZeroSpectralNorm when the capacity term is undefined."""
    for i, s in enumerate(norms.spectral):
        if s <= 0.0:
            raise ZeroSpectralNorm(f"layer {i} has spectral norm {s}")
