"""Matrix norm tests, checked against an independent Jacobi SVD oracle."""

import math

import numpy as np
import pytest

from mixcert import (
    Activation,
    DimensionMismatch,
    LayerNorms,
    NetworkParams,
    NoConvergenceWarning,
    covering_bound_terms,
    norm_2_1_of_transpose,
    spectral_norm,
)
from mixcert import norms

from svd_reference import jacobi_singular_values, jacobi_spectral_norm


def aggregate(layer_norms):
    """The aggregate T, read off the covering bound's second term at B = 1,
    gamma = 1, W = 1, n = 2, whose leading factor is 36 ln(2) ln(2) / 2."""
    return covering_bound_terms(1.0, 1.0, 1, 2, layer_norms)[1] / (18.0 * math.log(2.0) ** 2)


@pytest.fixture
def tight(monkeypatch):
    """Power iteration stopped at a relative change of 1e-13."""
    monkeypatch.setattr(norms, "_TOL", 1e-13)


class TestJacobiOracle:
    """The test oracle itself is validated against LAPACK before use."""

    def test_matches_lapack(self):
        rng = np.random.default_rng(2024)
        for size in (3, 8, 20):
            for _ in range(20):
                A = rng.normal(size=(size, size))
                ref = np.linalg.svd(A, compute_uv=False)
                got = jacobi_singular_values(A)
                np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * ref[0])

    def test_rectangular(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(9, 4))
        ref = np.linalg.svd(A, compute_uv=False)
        np.testing.assert_allclose(jacobi_singular_values(A), ref, rtol=1e-12)
        np.testing.assert_allclose(jacobi_singular_values(A.T), ref, rtol=1e-12)


class TestSpectralNorm:
    def test_frozen_nilpotent(self):
        assert spectral_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(2.0, rel=1e-12)

    def test_diagonal_is_max_abs(self):
        A = np.diag([3.0, -7.0, 0.5])
        assert spectral_norm(A) == pytest.approx(7.0, rel=1e-10)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((4, 4))) == 0.0

    def test_scaling_homogeneity(self, tight):
        rng = np.random.default_rng(15)
        A = rng.normal(size=(6, 6))
        base = spectral_norm(A)
        for c in (0.5, 3.0):
            assert spectral_norm(c * A) == pytest.approx(c * base, rel=1e-9)

    def test_against_oracle(self, tight):
        rng = np.random.default_rng(90210)
        for size in (4, 16):
            for _ in range(25):
                A = rng.normal(size=(size, size))
                ref = jacobi_spectral_norm(A)
                assert spectral_norm(A) == pytest.approx(ref, rel=1e-9)

    def test_rank_one(self, tight):
        u = np.array([3.0, 4.0])
        v = np.array([1.0, 0.0, 0.0])
        A = np.outer(u, v)
        assert spectral_norm(A) == pytest.approx(5.0, rel=1e-12)

    def test_rejects_vector(self):
        with pytest.raises(DimensionMismatch):
            spectral_norm(np.zeros(3))

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(12, 12))
        assert spectral_norm(A) == spectral_norm(A)


    def test_iteration_cap_warns_and_returns_the_best_estimate(self, monkeypatch):
        monkeypatch.setattr(norms, "_MAX_ITER", 1)
        with pytest.warns(NoConvergenceWarning, match="iteration cap"):
            s = spectral_norm([[1, 2], [3, 4]])
        assert s == pytest.approx(4.34735560053648, rel=1e-12)
        assert s <= jacobi_spectral_norm(np.array([[1.0, 2.0], [3.0, 4.0]]))


class TestTwoOneNorm:
    def test_frozen_value(self):
        A = np.array([[3.0, 4.0], [0.0, 0.0]])
        assert norm_2_1_of_transpose(A) == 5.0

    def test_upper_bounds_spectral(self, monkeypatch):
        monkeypatch.setattr(norms, "_TOL", 1e-12)
        rng = np.random.default_rng(44)
        for _ in range(20):
            A = rng.normal(size=(5, 7))
            assert norm_2_1_of_transpose(A) >= spectral_norm(A) - 1e-9

    def test_rejects_vector(self):
        with pytest.raises(DimensionMismatch):
            norm_2_1_of_transpose(np.zeros(3))


@pytest.mark.parametrize("norm", [spectral_norm, norm_2_1_of_transpose])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_norms_reject_non_finite_matrices(norm, bad):
    """A NaN or an infinity is named, not iterated into nan or inf."""
    with pytest.raises(ValueError, match="A must be finite"):
        norm(np.array([[bad, 1.0]]))


class TestLayerNorms:
    def test_from_params(self):
        p = NetworkParams(layers=(np.array([[2.0, 0.0], [0.0, 2.0]]),),
                          activations=(Activation("identity"),))
        norms = LayerNorms.from_params(p)
        assert norms.spectral[0] == pytest.approx(2.0, rel=1e-12)
        assert norms.two_one[0] == pytest.approx(4.0, rel=1e-15)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            LayerNorms(spectral=(1.0, 2.0), two_one=(1.0,))

    @pytest.mark.parametrize("key", ["spectral", "two_one"])
    def test_rejects_nan(self, key):
        entries = dict(spectral=(1.0,), two_one=(1.0,))
        with pytest.raises(ValueError, match=f"'{key}' must be a finite number >= 0"):
            LayerNorms(**{**entries, key: (float("nan"),)})


class TestSpectralComplexity:
    """The aggregate T through the one capacity term, `covering_bound_terms`."""

    def test_frozen_single_layer(self):
        """s=2, b=4: aggregate is s * ((b/s)**(2/3))**(3/2) = 4."""
        norms = LayerNorms(spectral=(2.0,), two_one=(4.0,))
        assert aggregate(norms) == pytest.approx(4.0, rel=1e-12)

    def test_frozen_identity_layer(self):
        """The 2x2 identity has s=1, b=2, giving aggregate exactly 2."""
        p = NetworkParams(layers=(np.eye(2),), activations=(Activation("identity"),))
        assert aggregate(LayerNorms.from_params(p)) == pytest.approx(2.0, rel=1e-10)

    def test_zero_layer_gives_zero(self):
        norms = LayerNorms(spectral=(0.0, 1.0), two_one=(0.0, 2.0))
        assert covering_bound_terms(1.0, 1.0, 1, 2, norms) == (4.0 / 2 ** 1.5, 0.0)

    def test_positive_homogeneity(self, tight):
        """Scaling one layer by c scales the aggregate by c: the ratio term
        is scale invariant and the product picks up one factor."""
        rng = np.random.default_rng(99)
        layers = (rng.normal(size=(5, 3)), rng.normal(size=(4, 5)), rng.normal(size=(2, 4)))
        acts = (Activation("relu"), Activation("relu"), Activation("identity"))
        p = NetworkParams(layers=layers, activations=acts)
        base = aggregate(LayerNorms.from_params(p))
        for c in (0.5, 3.0):
            for k in range(3):
                scaled = tuple(c * W if i == k else W for i, W in enumerate(layers))
                q = NetworkParams(layers=scaled, activations=acts)
                assert aggregate(LayerNorms.from_params(q)) == pytest.approx(c * base, rel=1e-9)
