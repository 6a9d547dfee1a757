"""Empirical complexity estimators and the closed-form covering bound."""

import math
import tracemalloc

import numpy as np
import pytest

from mixcert import (
    Activation,
    BadLabel,
    EmptyDataset,
    FunctionClass,
    LabeledDataset,
    LayerNorms,
    NetworkParams,
    NonpositiveGamma,
    TooLarge,
    constant_class,
    covering_bound_terms,
    empirical_rademacher_exact,
    empirical_rademacher_mc,
    loss_class,
    table_class,
)
from mixcert import rademacher
from mixcert.rademacher import _PATH_BLOCK, _draw_signs, _exact_rademacher, _sign_sups

# One-layer reference terms at n=100, B=10, gamma=1, W=16, s=2, b=4,
# frozen from an arbitrary-precision evaluation of the displayed formula.
COVERING_FIRST = 0.004
COVERING_SECOND = 229.82837258997824328
ONE_LAYER = LayerNorms(spectral=(2.0,), two_one=(4.0,))


def points(n, d=1, seed=0):
    rng = np.random.default_rng(seed)
    return LabeledDataset(inputs=rng.normal(size=(n, d)),
                          labels=(1 + np.arange(n) % 2).astype(np.int64),
                          num_classes=2, kind="sequence", seed=seed)


class TestFunctionClass:
    def test_range_enforced(self):
        bad = FunctionClass(evaluators=(lambda X, y: np.full(len(X), 1.5),))
        with pytest.raises(ValueError):
            bad.evaluate(np.zeros((3, 1)), np.ones(3, dtype=np.int64))

    def test_nan_rejected(self):
        """NaN fails both range comparisons, so it must be rejected by name."""
        ok = lambda X, y: np.full(len(X), 0.5)  # noqa: E731
        one_nan = lambda X, y: np.where(np.arange(len(X)) == 1, np.nan, 0.5)  # noqa: E731
        for evaluators, m in (((lambda X, y: np.full(len(X), np.nan),), 0),
                              ((ok, one_nan), 1)):
            with pytest.raises(ValueError, match=f"member {m} left \\[0, 1\\]"):
                FunctionClass(evaluators=evaluators).evaluate(
                    np.zeros((3, 1)), np.ones(3, dtype=np.int64))

    def test_constant_class_shape(self):
        c = constant_class([0.0, 0.5, 1.0])
        vals = c.evaluate(np.zeros((4, 1)), np.ones(4, dtype=np.int64))
        assert vals.shape == (3, 4)
        np.testing.assert_array_equal(vals[1], 0.5)

    def test_table_class_lookup(self):
        alphabet = np.array([[0.0], [1.0]])
        tables = [np.array([[0.2, 0.8], [0.6, 0.4]])]
        c = table_class(alphabet, tables)
        X = np.array([[1.0], [0.0]])
        y = np.array([2, 1])
        vals = c.evaluate(X, y)
        np.testing.assert_allclose(vals[0], [0.4, 0.2])

    def test_labels_are_never_truncated(self):
        with pytest.raises(BadLabel, match="labels must be integers"):
            constant_class([0.5]).evaluate(np.zeros((2, 1)), [1.7, 2.2])

    def test_table_class_rejects_nan(self):
        with pytest.raises(ValueError, match="table must be finite"):
            table_class(np.array([[0.0], [1.0]]), [np.array([[math.nan, 0.5], [0.5, 0.5]])])

    def test_table_class_checks_repeated_points(self):
        """A repeated alphabet point must carry one row of values, or a
        lookup would silently read one copy and drop the other."""
        alphabet = [[0.5], [0.5]]
        with pytest.raises(ValueError, match="table must agree on duplicate alphabet points"):
            table_class(alphabet, [[[0.0, 0.0], [1.0, 1.0]]])
        c = table_class(alphabet, [[[0.25, 1.0], [0.25, 1.0]]])
        np.testing.assert_array_equal(c.evaluate([[0.5], [0.5]], [1, 2]), [[0.25, 1.0]])

    def test_table_class_matches_a_byte_key_lookup(self):
        """Random alphabets with repeated rows and -0.0 next to 0.0: every
        member reads the values a dict keyed on each point's bytes finds."""
        rng = np.random.default_rng(5)
        for dim in (1, 3):
            pool = rng.random((6, dim))
            pool[:2, 0] = 0.0, -0.0
            alphabet = pool[rng.integers(0, 6, size=12)]
            lookup = {row.tobytes(): m for m, row in enumerate(alphabet)}
            rows = [lookup[row.tobytes()] for row in alphabet]
            tables = [rng.random((12, 3))[rows] for _ in range(4)]
            X = alphabet[rng.integers(0, 12, size=500)]
            y = rng.integers(1, 4, size=500)
            want = [[tab[lookup[x.tobytes()], k - 1] for x, k in zip(X, y)] for tab in tables]
            assert np.array_equal(table_class(alphabet, tables).evaluate(X, y), want)

    def test_table_class_looks_up_once_per_evaluate(self, monkeypatch):
        """Five members of one evaluate call share one lookup; inputs edited
        in place, a 0.0 made -0.0 included, are looked up afresh."""
        calls, lookup = [], rademacher._bit_groups

        def counted(cols):
            calls.append(1)
            return lookup(cols)

        monkeypatch.setattr(rademacher, "_bit_groups", counted)
        rng = np.random.default_rng(9)
        alphabet = np.array([[0.0], [1.0], [2.0]])
        tables = [rng.random((3, 2)) for _ in range(5)]
        c = table_class(alphabet, tables)
        X, y = np.array([[0.0], [2.0], [1.0]]), np.array([1, 2, 2])
        first = c.evaluate(X, y)
        assert len(calls) == 1
        np.testing.assert_array_equal(first, [t[[0, 2, 1], y - 1] for t in tables])
        X[1, 0] = 0.0
        np.testing.assert_array_equal(c.evaluate(X, y), [t[[0, 0, 1], y - 1] for t in tables])
        assert len(calls) == 2
        X[0, 0] = -0.0
        with pytest.raises(ValueError, match="not an alphabet point"):
            c.evaluate(X, y)

    def test_empty_input_has_no_values(self):
        c = table_class([[0.0], [1.0]], [np.eye(2), np.full((2, 2), 0.5)])
        vals = c.evaluate(np.zeros((0, 1)), np.zeros(0, dtype=np.int64))
        assert vals.shape == (2, 0)

    def test_loss_class_in_range(self):
        rng = np.random.default_rng(31)
        nets = [NetworkParams(layers=(rng.normal(size=(2, 3)),),
                              activations=(Activation("identity"),))
                for _ in range(3)]
        c = loss_class(nets, gamma=0.5)
        vals = c.evaluate(rng.normal(size=(10, 3)),
                          rng.integers(1, 3, size=10).astype(np.int64))
        assert vals.shape == (3, 10)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_loss_class_rejects_nan_gamma(self):
        net = NetworkParams(layers=(np.eye(2),), activations=(Activation("identity"),))
        with pytest.raises(NonpositiveGamma):
            loss_class([net], gamma=math.nan)


def reference_exact(F):
    """Exact conditional complexity of every path of F (members, paths, n),
    path blocks of _PATH_BLOCK and sign blocks of 65536 enumerated in order,
    with no grouping of repeated paths: the block loop the kernel runs per
    group."""
    paths, n = F.shape[1], F.shape[2]
    count = 1 << n
    total = np.zeros(paths)
    for start in range(0, count, 65536):
        codes = np.arange(start, min(start + 65536, count), dtype=np.uint64)[:, None]
        bits = (codes >> np.arange(n, dtype=np.uint64)) & np.uint64(1)
        signs = bits.astype(np.float64) * 2.0 - 1.0
        for p in range(0, paths, _PATH_BLOCK):
            sups = np.tensordot(F[:, p:p + _PATH_BLOCK], signs, axes=([2], [1])).max(axis=0)
            total[p:p + _PATH_BLOCK] += sups.sum(axis=1)
    return total / count / n


class TestExactKernel:
    @pytest.mark.parametrize("n", [1, 6, 12])
    def test_matches_the_block_loop(self, n):
        """Random float values with and without repeated paths, so that
        grouping by distinct path changes the block boundaries: the kernel
        must return the oracle's bits for every class size and count of
        distinct paths, including counts one either side of a multiple of
        _PATH_BLOCK, where a one-member class's last block may hold one path,
        and paths that differ only in -0.0 versus 0.0."""
        rng = np.random.default_rng(n)
        for members in range(1, 9):
            for unique in (1, 2, 31, 32, 33, 34, 63, 64, 65, 66, 129, 130):
                for repeats in (0, int(rng.integers(1, 200))):
                    base = rng.random((members, unique, n))
                    if unique >= 2:
                        base[:, 1] = base[:, 0]
                        base[0, 0, 0], base[0, 1, 0] = -0.0, 0.0
                    pick = np.concatenate([np.arange(unique),
                                           rng.integers(0, unique, size=repeats)])
                    rng.shuffle(pick)
                    F = base[:, pick]
                    got, want = _exact_rademacher(F), reference_exact(F)
                    assert got.shape == want.shape and np.array_equal(got, want), (
                        members, unique, repeats)


class TestSignKernel:
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("k", [1, 2, 3, 17, 256, 4096])
    def test_member_fold_equals_the_stacked_product(self, k, scale):
        """The running maximum over members gives the bits of the stacked
        tensordot's maximum on random float classes, including one path, one
        member and one sign row, where a lone product would be a
        matrix-vector one."""
        rng = np.random.default_rng(k)
        shapes = [(1, 1, 1), (9, 1, 15), (1, 300, 15), (2, 2, 1)]
        shapes += [(int(rng.integers(1, 10)), int(rng.integers(1, 301)), int(rng.integers(1, 16)))
                   for _ in range(12)]
        for members, paths, n in shapes:
            # the stacked oracle holds members * paths * k floats; keep it small
            paths = min(paths, max(1, (1 << 21) // (members * k)))
            F = rng.random((members, paths, n)) * scale
            signs = _draw_signs(rng, k, n)
            got = _sign_sups(F, signs)
            want = np.tensordot(F, signs, axes=([2], [1])).max(axis=0)
            assert np.array_equal(got, want) and got.tobytes() == want.tobytes(), (
                members, paths, n)

    def test_memory_does_not_grow_with_the_class(self):
        """The exact enumeration never holds all members' sums at once: beyond
        one copy of F's values (the sort keys of the grouping, and the copy in
        distinct-path order when a path repeats), its peak is a fixed number
        of (_PATH_BLOCK, 2**10) float blocks for 2 and for 32 members, with
        every path distinct and with one path repeated."""
        block = _PATH_BLOCK * 1024 * 8
        for members in (2, 32):
            F = np.random.default_rng(members).random((members, 256, 10))
            for values in (F, np.concatenate([F, F[:, :1]], axis=1)):
                tracemalloc.start()
                try:
                    _exact_rademacher(values)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak - F.nbytes < 3 * block, (members, values.shape,
                                                     (peak - F.nbytes) / block)


class TestExactEnumeration:
    def test_frozen_single_point(self):
        """Class values {0, 1} on one point: E max(s, 0) = 1/2."""
        c = constant_class([0.0, 1.0])
        assert empirical_rademacher_exact(c, points(1)).value == 0.5

    def test_frozen_two_points(self):
        """Same class on two points: E max(0, (s1+s2)/2) = 1/4."""
        c = constant_class([0.0, 1.0])
        assert empirical_rademacher_exact(c, points(2)).value == 0.25

    def test_singleton_class_is_zero(self):
        c = constant_class([0.5])
        assert empirical_rademacher_exact(c, points(6)).value == 0.0

    def test_adding_functions_never_decreases(self):
        d = points(8)
        small = constant_class([0.0, 1.0])
        big = constant_class([0.0, 0.25, 0.5, 1.0])
        assert empirical_rademacher_exact(big, d).value >= \
            empirical_rademacher_exact(small, d).value

    def test_massart_cap(self):
        """Finite class of M bounded functions: complexity is at most
        sqrt(2 ln M / n) plus enumeration slack."""
        for n in (2, 5, 10):
            d = points(n)
            c = constant_class([0.0, 0.25, 0.5, 0.75, 1.0])
            est = empirical_rademacher_exact(c, d)
            assert est.value <= math.sqrt(2 * math.log(5) / n) + 1e-9

    def test_too_large_guard(self):
        c = constant_class([0.0, 1.0])
        with pytest.raises(TooLarge):
            empirical_rademacher_exact(c, points(21))

    def test_empty_rejected(self):
        c = constant_class([0.0, 1.0])
        d = LabeledDataset(inputs=np.zeros((0, 1)), labels=np.zeros(0, dtype=np.int64),
                           num_classes=2, kind="sequence", seed=0)
        with pytest.raises(EmptyDataset):
            empirical_rademacher_exact(c, d)

    def test_method_tag(self):
        est = empirical_rademacher_exact(constant_class([0.0, 1.0]), points(3))
        assert est.method == "exact" and est.stderr == 0.0


class TestMonteCarlo:
    def test_matches_exact_within_three_stderr(self):
        d = points(10)
        c = constant_class([0.0, 0.3, 0.7, 1.0])
        exact = empirical_rademacher_exact(c, d)
        mc = empirical_rademacher_mc(c, d, trials=2000, seed=13)
        assert abs(mc.value - exact.value) <= 3 * mc.stderr
        assert mc.method == "monte_carlo" and mc.trials == 2000

    def test_deterministic_given_seed(self):
        d = points(9)
        c = constant_class([0.0, 1.0])
        a = empirical_rademacher_mc(c, d, trials=500, seed=2)
        b = empirical_rademacher_mc(c, d, trials=500, seed=2)
        assert a.value == b.value and a.stderr == b.stderr

    def test_trial_floor(self):
        with pytest.raises(ValueError):
            empirical_rademacher_mc(constant_class([0.0, 1.0]), points(4),
                                    trials=99, seed=1)


class TestCoveringBound:
    def test_frozen_reference_terms(self):
        first, second = covering_bound_terms(B=10.0, gamma=1.0, W=16, n=100,
                                             norms=ONE_LAYER)
        assert first == pytest.approx(COVERING_FIRST, rel=1e-15)
        assert second == pytest.approx(COVERING_SECOND, rel=1e-13)
        total = sum(covering_bound_terms(B=10.0, gamma=1.0, W=16, n=100,
                                         norms=ONE_LAYER))
        assert total == pytest.approx(COVERING_FIRST + COVERING_SECOND, rel=1e-13)

    def test_strictly_decreasing_in_gamma(self):
        prev = None
        for gamma in (0.25, 0.5, 1.0, 2.0, 4.0):
            v = sum(covering_bound_terms(B=10.0, gamma=gamma, W=16, n=100,
                                         norms=ONE_LAYER))
            if prev is not None:
                assert v < prev
            prev = v

    def test_decreasing_in_n_past_eight(self):
        prev = None
        for n in range(8, 200, 7):
            v = sum(covering_bound_terms(B=10.0, gamma=1.0, W=16, n=n,
                                         norms=ONE_LAYER))
            if prev is not None:
                assert v <= prev + 1e-15
            prev = v

    def test_linear_in_b(self):
        v1 = covering_bound_terms(B=5.0, gamma=1.0, W=16, n=100, norms=ONE_LAYER)[1]
        v2 = covering_bound_terms(B=10.0, gamma=1.0, W=16, n=100, norms=ONE_LAYER)[1]
        assert v2 == pytest.approx(2 * v1, rel=1e-15)

    def test_zero_b_kills_complexity_term(self):
        first, second = covering_bound_terms(B=0.0, gamma=1.0, W=16, n=100,
                                             norms=ONE_LAYER)
        assert second == 0.0 and first == pytest.approx(0.004, rel=1e-15)

    def test_validation_errors(self):
        from mixcert import NonpositiveGamma
        with pytest.raises(NonpositiveGamma):
            covering_bound_terms(B=10.0, gamma=0.0, W=16, n=100, norms=ONE_LAYER)
        with pytest.raises(ValueError):
            covering_bound_terms(B=10.0, gamma=1.0, W=0, n=100, norms=ONE_LAYER)
        with pytest.raises(ValueError):
            covering_bound_terms(B=10.0, gamma=1.0, W=16, n=1, norms=ONE_LAYER)

    def test_zero_layer_has_no_complexity_term(self):
        """A zero layer makes the network the constant 0, whose class has
        complexity 0: the first term stays, the second is 0."""
        for zero in (LayerNorms(spectral=(0.0,), two_one=(0.0,)),
                     LayerNorms(spectral=(2.0, 0.0, 1.5), two_one=(4.0, 0.0, 3.0))):
            first, second = covering_bound_terms(B=10.0, gamma=1.0, W=16, n=100, norms=zero)
            assert (first, second) == (4.0 / 100 ** 1.5, 0.0)
            assert first == pytest.approx(COVERING_FIRST, rel=1e-15)

    @pytest.mark.parametrize("W, n, first, second", [
        # n ** 1.5 overflows: the first term is 4 n**(-3/2), subnormal
        (2, 10 ** 210, 4e-315, 36.0 * math.log(4.0) * 210 * math.log(10.0) / 0.5e210 * 4.0),
        # n and W past every float: both terms underflow to 0
        (10 ** 400, 10 ** 400, 0.0, 0.0)])
    def test_ends_of_the_float_range(self, W, n, first, second):
        """No arithmetic error where n or W leave the float range: each term
        is its value, rounded to 0.0 only where it underflows."""
        got = covering_bound_terms(1.0, 0.5, W, n, ONE_LAYER)
        assert got == (pytest.approx(first, rel=1e-6), pytest.approx(second, rel=1e-12))

    @pytest.mark.parametrize("B, spectral, two_one, second", [
        # the quotient b / s overflows; T = 1e10
        (1.0, (1e-300,), (1e10,), 1e10),
        # the product of the spectral norms overflows; with B = 0 the term is 0
        (0.0, (1e300, 1e300), (1e300, 1e300), 0.0),
        # a partial product overflows, the whole product is 1e300
        (1.0, (1e300, 1e300, 1e-300), (1e300, 1e300, 1e-300), 3.0 ** 1.5 * 1e300)])
    def test_ends_of_the_norm_range(self, B, spectral, two_one, second):
        """No overflow where the norm aggregate T leaves the float range on
        the way: the second term is lead * T, here lead = 36 ln(2)**2 / 2 * B,
        and exactly 0.0 where B is 0."""
        lead = 36.0 * math.log(2.0) ** 2 / 2.0 * B
        got = covering_bound_terms(B, 1.0, 1, 2, LayerNorms(spectral=spectral, two_one=two_one))
        assert got == (4.0 / 2 ** 1.5, pytest.approx(lead * second, rel=1e-12))
        assert B or got[1] == 0.0

    def test_rejects_nan_gamma(self):
        with pytest.raises(NonpositiveGamma):
            covering_bound_terms(B=10.0, gamma=math.nan, W=16, n=100, norms=ONE_LAYER)
