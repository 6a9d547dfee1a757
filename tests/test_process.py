"""Hidden-Markov process tests.

Mixing coefficients, marginal drifts, and expectations are checked against
hand-derived closed forms for small chains, against the literal
event-enumeration oracle where it is tractable, and against the plain forms
of `oracles.py`.
"""

import itertools
import json
import math
import os
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixcert import (
    Activation,
    BadLabel,
    EmissionSpec,
    EmptyDataset,
    FunctionClass,
    LabeledDataset,
    MarkovSpec,
    MixingProfile,
    NetworkParams,
    NonUniqueStationary,
    NotDiscrete,
    ProcessSpec,
    TooLarge,
    brute_force_phi,
    deterministic_injective,
    mixing_profile,
    mu_at,
    phi_coefficient,
    sample_sequence,
    sample_sequences_batch,
    sample_target,
    sequence_value_means,
    stationary_distribution,
    step_expectations,
    stationary_expectation,
)
from mixcert.process import (
    _bit_groups,
    _cdf_draw,
    _futures,
    _gaussian_emission_tv,
    _inverse_cdf,
    _limit_gap_bound,
    _marginals,
    _mu,
    _phi_lags,
    _tv,
    _tv_slack,
    _walk,
    _walk_path,
)
from mixcert import process
from mixcert.seeding import _BATCH, _SEQUENCE, _TARGET, _skip, substream
from oracles import (discrete_spec, drift_weight, kstep_rows, law_at, lazy_ring, mixed_law,
                     random_law, random_spec, reference_batch, reference_draw,
                     reference_expectations, reference_fixed_point, reference_gaussian_tv,
                     reference_groups, reference_inverse_cdf, reference_means, reference_mu,
                     reference_phi, reference_profile, reference_sequence, reference_stationary,
                     reference_target, reference_tv, reference_walk)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def default_chain():
    """The 2-state drifting Gaussian process of configs/default.json."""
    with open(os.path.join(CONFIG_DIR, "default.json"), encoding="ascii") as fh:
        return ProcessSpec.from_json_dict(json.load(fh)["process"])


def assert_matches_reference(spec, n, reference=None):
    """mixing_profile(spec, n) has the bits of reference_profile(spec, n),
    or of `reference` when the caller computed it already."""
    prof = mixing_profile(spec, n)
    phi, mu, delta_inf = reference or reference_profile(spec, n)
    assert np.array_equal(prof.phi, phi)
    assert np.array_equal(prof.mu, mu)
    assert repr(prof.delta_inf) == repr(delta_inf)
    return prof


# Two-state chain with a 0.8 spectral gap complement; started at state 1 it
# has closed-form marginals pi_t = (0.5 + 0.5*0.8**t, 0.5 - 0.5*0.8**t).
SYM09 = [[0.9, 0.1], [0.1, 0.9]]


class TestTVDistance:
    def test_frozen_value(self):
        assert _tv(np.array([0.9, 0.1]), np.array([0.5, 0.5])) == pytest.approx(0.4, abs=1e-15)

    def test_symmetry_and_zero(self):
        p = np.array([0.3, 0.2, 0.5])
        q = np.array([0.25, 0.25, 0.5])
        assert _tv(p, q) == _tv(q, p)
        assert _tv(p, p) == 0.0

    def test_disjoint_supports_give_one(self):
        assert _tv(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    @pytest.mark.parametrize("p_shape, q_shape", [
        ((5, 1, 5), (1, 7, 5)), ((1, 7, 5), (5, 1, 5)), ((7, 5), (5,)),
        ((5,), (7, 5)), ((6,), (6,)), ((1,), (1,))])
    def test_kernel_is_the_plain_formula_and_keeps_its_inputs(self, p_shape, q_shape):
        """_tv takes its absolute value in place: the bits of the plain
        formula, on any broadcast shapes, and neither input modified."""
        rng = np.random.default_rng(31)
        for _ in range(20):
            p, q = rng.random(p_shape), rng.random(q_shape)
            p_before, q_before = p.copy(), q.copy()
            got = _tv(p, q)
            want = reference_tv(p, q)
            assert got.shape == want.shape and np.array_equal(got, want)
            assert np.array_equal(p, p_before) and np.array_equal(q, q_before)

    @pytest.mark.parametrize("S", [1, 7, 8, 9, 16, 17, 129, 200])
    def test_bits_do_not_depend_on_layout(self, S):
        """The same operands in C order, in Fortran order, in the lag-block
        layout of _phi_lags (lags innermost, the summed states outermost) and
        in a random memory order give the bits of the plain formula on C
        copies: numpy's pairwise order along a contiguous axis, whose three
        regimes (below 8 terms, up to 128, above) these S cover. The (L, S, 1,
        S) and (L, 1, 3, S) blocks take L on both sides of L >= S where the
        block holds at most 2**20 floats."""
        rng = np.random.default_rng(S)

        def memory_order(a, order):
            return np.ascontiguousarray(a.transpose(order)).transpose(np.argsort(order))

        cases = [(rng.random((5, S)), rng.random(S)), (rng.random((5, S)), rng.random((5, S)))]
        for L in (2, S, S + 1):
            if L * S * S * 3 <= 1 << 20:
                cases.append((rng.random((L, S, S)), rng.random((L, 3, S))))
        for p, q in cases:
            blocks = p.ndim == 3  # a lag block's rows and futures
            if blocks:
                p, q = p[:, :, None, :], q[:, None]
            want = reference_tv(p, q)
            layouts = [(p, q), (np.asfortranarray(p), np.asfortranarray(q)),
                       (memory_order(p, rng.permutation(p.ndim)),
                        memory_order(q, rng.permutation(q.ndim)))]
            if blocks:
                layouts.append((np.asfortranarray(p[:, :, 0])[:, :, None, :],
                                np.asfortranarray(q[:, 0])[:, None]))
            for a, b in layouts:
                assert np.array_equal(a, p) and np.array_equal(b, q)
                got = _tv(a, b)
                assert got.shape == want.shape and np.array_equal(got, want), (p.shape, q.shape)


def lexsort_groups(cols):
    """_bit_groups' results by one np.lexsort of every column's bits at once,
    the form that stacked a copy of all the columns."""
    cols = [col.view(np.uint64) for col in cols]
    order = np.lexsort(cols)
    starts = np.zeros(order.size, dtype=bool)
    starts[:1] = True
    for col in cols:
        starts[1:] |= col[order][1:] != col[order][:-1]
    head = np.empty_like(order)
    head[order] = order[starts][np.cumsum(starts) - 1]
    is_first = head == np.arange(order.size)
    return (np.cumsum(is_first) - 1)[head], np.flatnonzero(is_first)


class TestBitGroups:
    # +0.0, -0.0, 1.0, the default quiet NaN, a NaN with payload 1, the
    # negative quiet NaN, and a signalling NaN: equal as values or not, each
    # is its own point
    BIT_POOL = np.array([0, 1 << 63, 0x3FF0000000000000, 0x7FF8000000000000,
                         0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001],
                        dtype=np.uint64).view(np.float64)

    @pytest.mark.parametrize("rows, cols", [(1, 1), (2, 3), (100, 1), (100, 4), (5000, 3),
                                            (300, 16), (300, 17), (300, 40), (2, 33)])
    def test_matches_np_lexsort(self, rows, cols):
        """One np.lexsort per chunk of 16 columns, each chunk more significant
        than the one before, groups the rows as np.lexsort of all the columns
        did, on columns drawn with ties from a pool of bit patterns that
        float comparison would merge or split."""
        rng = np.random.default_rng(rows + cols)
        for pool_size in (1, 2, len(self.BIT_POOL)):
            table = self.BIT_POOL[rng.integers(0, pool_size, size=(rows, cols))]
            ids, first = _bit_groups(table.T)
            want_ids, want_first = lexsort_groups(table.T)
            assert np.array_equal(ids, want_ids) and np.array_equal(first, want_first)
            want_ids, want_first = reference_groups(table)
            assert np.array_equal(ids, want_ids) and np.array_equal(first, want_first)

    def test_memory_holds_one_column(self):
        """Grouping the paths of a (members, paths, n) block of class values
        by its members * n strided columns, as the sign enumeration does,
        holds one chunk of gathered columns and lexsort's stack of it, about
        32 columns' worth of bits, not a copy of all 640 KB."""
        F = np.random.default_rng(5).integers(0, 2, size=(32, 256, 10)).astype(float)
        want = lexsort_groups([F[m, :, i] for m in range(32) for i in range(10)])
        tracemalloc.start()
        try:
            got = _bit_groups(F[m, :, i] for m in range(32) for i in range(10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert peak < F.nbytes / 4

    @pytest.mark.parametrize("rows, cols", [(1, 1), (1, 4), (50, 1), (50, 3), (3000, 6)])
    def test_matches_a_byte_key_dict(self, rows, cols):
        """Random float rows drawn with repeats from a small pool: rows in the
        pool's second half differ in their last entry, rows in its first half
        only in the sign of a zero first entry. A pool of one point makes
        every row the same point."""
        rng = np.random.default_rng(rows * cols)
        for pool_size in (1, 2, 7, rows):
            pool = np.repeat(rng.random((1, cols)), pool_size, axis=0)
            half = pool_size // 2
            pool[half:, -1] = rng.random(pool_size - half)
            pool[:half, 0] = 0.0
            pool[half // 2:half, 0] = -0.0
            table = pool[rng.integers(0, pool_size, size=rows)]
            ids, first = _bit_groups(table.T)
            want_ids, want_first = reference_groups(table)
            assert np.array_equal(ids, want_ids) and np.array_equal(first, want_first)


class TestMarkovSpecValidation:
    @pytest.mark.parametrize("initial", [[math.nan, 1.0], [math.inf, 0.0], [0.5, -math.inf]])
    def test_rejects_non_finite_initial(self, initial):
        with pytest.raises(ValueError, match="initial"):
            MarkovSpec(num_states=2, transition=np.array([[0.9, 0.1], [0.2, 0.8]]),
                       initial=np.array(initial))

    def test_rejects_bad_row_sum(self):
        with pytest.raises(ValueError):
            MarkovSpec(num_states=2, transition=np.array([[0.9, 0.2], [0.2, 0.8]]),
                       initial=np.array([1.0, 0.0]))

    def test_rejects_negative_entry(self):
        with pytest.raises(ValueError):
            MarkovSpec(num_states=2, transition=np.array([[1.1, -0.1], [0.2, 0.8]]),
                       initial=np.array([1.0, 0.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            MarkovSpec(num_states=3, transition=np.asarray(SYM09, dtype=float),
                       initial=np.array([1.0, 0.0]))

    def test_arrays_are_read_only(self):
        mk = MarkovSpec(num_states=2, transition=np.asarray(SYM09, dtype=float),
                        initial=np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            mk.transition[0, 0] = 0.0


class TestArrayRule:
    def test_stored_arrays_are_read_only_copies(self):
        """Every array a spec, profile, dataset or network stores is its own
        read-only copy: it shares no memory with the caller's array, which
        stays writable."""
        P, p0 = np.array([[0.9, 0.1], [0.2, 0.8]]), np.array([1.0, 0.0])
        alphabet, table, drift_table = np.array([[0.0], [1.0]]), np.eye(2), np.full((2, 2), 0.5)
        means, drift_means = np.array([[1.0], [-1.0]]), np.zeros((2, 1))
        phi, mu = np.array([0.2, 0.1]), np.array([0.3, 0.0])
        X, y = np.zeros((2, 1)), np.array([1, 2])
        W0, W1 = np.ones((3, 1)), np.ones((2, 3))
        markov = MarkovSpec(num_states=2, transition=P, initial=p0)
        disc = EmissionSpec.discrete(alphabet, table, drift_table, drift_amplitude=0.5)
        gauss = EmissionSpec.gaussian(means, 0.5, drift_means, drift_amplitude=0.5)
        prof = MixingProfile(horizon=2, phi=phi, mu=mu, delta_inf=1.6, phi_exact=True,
                             mu_exact=True)
        data = LabeledDataset(inputs=X, labels=y, num_classes=2, kind="sequence", seed=0)
        net = NetworkParams(layers=(W0, W1),
                            activations=(Activation("relu"), Activation("identity")))
        for stored, caller in [
                (markov.transition, P), (markov.initial, p0), (disc.alphabet, alphabet),
                (disc.table, table), (disc.drift_table, drift_table), (gauss.means, means),
                (gauss.drift_means, drift_means), (prof.phi, phi), (prof.mu, mu),
                (data.inputs, X), (data.labels, y), (net.layers[0], W0), (net.layers[1], W1)]:
            assert not stored.flags.writeable
            assert not np.shares_memory(stored, caller)
            assert caller.flags.writeable

    @pytest.mark.parametrize("labels", [[1.7, 2.2], [1.0, math.nan], [1, 2.5], ["1", "2"]])
    def test_dataset_labels_are_never_truncated(self, labels):
        with pytest.raises(BadLabel, match="labels must be integers"):
            LabeledDataset(inputs=np.zeros((2, 1)), labels=np.array(labels), num_classes=2,
                           kind="sequence", seed=0)

    def test_integral_float_labels_are_their_integers(self):
        data = LabeledDataset(inputs=np.zeros((2, 1)), labels=np.array([2.0, 1.0]),
                              num_classes=2, kind="sequence", seed=0)
        assert data.labels.dtype == np.int64 and data.labels.tolist() == [2, 1]

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_inputs(self, value):
        with pytest.raises(ValueError, match="inputs must be finite"):
            LabeledDataset(inputs=np.array([[0.0], [value]]), labels=np.array([1, 2]),
                           num_classes=2, kind="sequence", seed=0)


class TestStationaryDistribution:
    def test_frozen_two_thirds_chain(self):
        mk = MarkovSpec(num_states=2, transition=np.array([[0.9, 0.1], [0.2, 0.8]]),
                        initial=np.array([1.0, 0.0]))
        np.testing.assert_allclose(stationary_distribution(mk), [2 / 3, 1 / 3],
                                   rtol=0, atol=1e-12)

    def test_dyadic_chain_is_exact(self):
        """A float fixed point exists for these entries and must be hit."""
        mk = MarkovSpec(num_states=2, transition=np.array([[0.5, 0.5], [0.5, 0.5]]),
                        initial=np.array([1.0, 0.0]))
        pi = stationary_distribution(mk)
        assert pi[0] == 0.5 and pi[1] == 0.5

    def test_iid_kernel_stationary_is_the_row(self):
        mk = MarkovSpec(num_states=2, transition=np.array([[0.25, 0.75], [0.25, 0.75]]),
                        initial=np.array([0.0, 1.0]))
        pi = stationary_distribution(mk)
        assert pi[0] == 0.25 and pi[1] == 0.75

    def test_identity_chain_rejected(self):
        mk = MarkovSpec(num_states=2, transition=np.eye(2), initial=np.array([1.0, 0.0]))
        with pytest.raises(NonUniqueStationary):
            stationary_distribution(mk)

    def test_periodic_chain_rejected(self):
        """Period-2 flipper: stationary law exists but is not a limit."""
        mk = MarkovSpec(num_states=2, transition=np.array([[0.0, 1.0], [1.0, 0.0]]),
                        initial=np.array([1.0, 0.0]))
        with pytest.raises(NonUniqueStationary):
            stationary_distribution(mk)

    def test_reducible_chain_rejected(self):
        P = np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]])
        mk = MarkovSpec(num_states=3, transition=P, initial=np.array([0.0, 1.0, 0.0]))
        with pytest.raises(NonUniqueStationary):
            stationary_distribution(mk)

    @staticmethod
    def accepts(support) -> bool:
        S = support.shape[0]
        mk = MarkovSpec(num_states=S, transition=support / support.sum(axis=1, keepdims=True),
                        initial=np.eye(S)[0])
        try:
            stationary_distribution(mk)
        except NonUniqueStationary:
            return False
        return True

    @staticmethod
    def product_loop_steps(supports) -> np.ndarray:
        """Reference primitivity test: the least m <= S*S with P**m > 0, by
        one Boolean product per step, or 0 when there is none; one entry per
        support of the (N, S, S) stack."""
        S = supports.shape[1]
        power = supports.copy()
        steps = np.zeros(len(supports), dtype=np.int64)
        for m in range(1, S * S + 1):
            if m > 1:
                power = np.minimum(power @ supports, 1)
            steps[(steps == 0) & (power.min(axis=(1, 2)) > 0)] = m
        return steps

    @pytest.mark.parametrize("S", [1, 2, 3, 4])
    def test_agrees_with_the_product_loop_on_every_support(self, S):
        """Every 0/1 support without an empty row. Both tests are invariant
        under relabelling states, so stationary_distribution runs on one
        support per relabelling class (2340 of the 50625 at S = 4) and the
        reference runs on all of them."""
        rows = [r for r in itertools.product((0, 1), repeat=S) if any(r)]
        supports = np.array(list(itertools.product(rows, repeat=S)), dtype=np.int64)
        primitive = self.product_loop_steps(supports) > 0
        weights = 1 << np.arange(S * S)
        codes = np.stack([(supports[:, p][:, :, p].reshape(len(supports), -1) * weights).sum(1)
                          for p in map(list, itertools.permutations(range(S)))])
        canon = codes.min(axis=0)
        _, first, inverse = np.unique(canon, return_index=True, return_inverse=True)
        assert np.array_equal(primitive, primitive[first][inverse])
        for i in first:
            assert self.accepts(supports[i]) == primitive[i]

    @pytest.mark.parametrize("S", range(2, 13))
    def test_wielandt_extremal_chain_accepted(self, S):
        """The S-cycle plus one chord S -> 2 is primitive with the largest
        possible exponent, (S-1)**2 + 1; the bare cycle is periodic."""
        cycle = np.roll(np.eye(S, dtype=np.int64), 1, axis=1)
        wielandt = cycle.copy()
        wielandt[S - 1, 1] = 1
        assert self.product_loop_steps(wielandt[None])[0] == (S - 1) ** 2 + 1
        assert self.accepts(wielandt)
        assert not self.accepts(cycle)


class TestMarginals:
    def test_frozen_t3(self):
        spec = discrete_spec(SYM09, [1.0, 0.0], 2)
        np.testing.assert_allclose(_marginals(spec.markov, 3)[0][3], [0.756, 0.244],
                                   rtol=0, atol=1e-15)

    def test_closed_form_decay(self):
        spec = discrete_spec(SYM09, [1.0, 0.0], 2)
        for t in range(1, 12):
            expect = 0.5 + 0.5 * 0.8 ** t
            np.testing.assert_allclose(_marginals(spec.markov, t)[0][t][0], expect,
                                       rtol=0, atol=1e-13)


class TestPhiCoefficient:
    def test_frozen_stationary_start(self):
        """Started at the stationary law the gap-k value is 0.4 * 0.8**(k-1)."""
        spec = discrete_spec(SYM09, [0.5, 0.5], 2)
        assert phi_coefficient(spec, 1, horizon=8) == pytest.approx(0.4, abs=1e-12)
        assert phi_coefficient(spec, 2, horizon=8) == pytest.approx(0.32, abs=1e-12)
        assert phi_coefficient(spec, 3, horizon=8) == pytest.approx(0.256, abs=1e-12)

    def test_frozen_delta_start(self):
        spec = discrete_spec([[0.9, 0.1], [0.2, 0.8]], [1.0, 0.0], 2)
        assert phi_coefficient(spec, 1, horizon=8) == pytest.approx(0.63, abs=1e-12)
        assert phi_coefficient(spec, 2, horizon=8) == pytest.approx(0.441, abs=1e-12)

    def test_iid_kernel_is_exactly_zero(self):
        spec = discrete_spec([[0.5, 0.5], [0.5, 0.5]], [0.5, 0.5], 2)
        for k in (1, 2, 5):
            assert phi_coefficient(spec, k, horizon=6) == 0.0

    def test_capped_at_one(self):
        """A near-deterministic 3-cycle started at one state: the one-step
        law of a state is almost disjoint from the marginal, yet no value
        passes 1."""
        P = 0.01 * np.eye(3) + 0.99 * np.roll(np.eye(3), 1, axis=1)
        spec = discrete_spec(P, [1.0, 0.0, 0.0], 3)
        assert 0.98 < phi_coefficient(spec, 1, horizon=4) <= 1.0

    def test_non_primitive_chain_is_rejected(self):
        """The identity and the period-2 kernel have no certified unique
        stationary law, so no phi, as in mixing_profile and mu_at."""
        for P in ([[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]):
            spec = discrete_spec(P, [0.5, 0.5], 2)
            with pytest.raises(NonUniqueStationary):
                phi_coefficient(spec, 1, horizon=4)

    def test_rejects_bad_arguments(self):
        spec = discrete_spec(SYM09, [0.5, 0.5], 2)
        with pytest.raises(ValueError):
            phi_coefficient(spec, 0, horizon=4)
        with pytest.raises(ValueError):
            phi_coefficient(spec, 1, horizon=0)


class TestBruteForcePhi:
    def test_matches_analytic_on_stationary_start(self):
        spec = discrete_spec(SYM09, [0.5, 0.5], 2)
        for k in (1, 2, 3):
            a = phi_coefficient(spec, k, horizon=4)
            b = brute_force_phi(spec, k, n_max=4, future_len=3)
            assert abs(a - b) <= 1e-12

    def test_matches_analytic_on_delta_start(self):
        spec = discrete_spec([[0.9, 0.1], [0.2, 0.8]], [1.0, 0.0], 2)
        for k in (1, 2, 3):
            a = phi_coefficient(spec, k, horizon=4)
            b = brute_force_phi(spec, k, n_max=4, future_len=3)
            assert abs(a - b) <= 1e-12

    def test_never_exceeds_analytic(self):
        """The enumeration window is finite, so it can only undershoot the
        supremum; this chain attains it strictly in the limit."""
        spec = discrete_spec([[0.4, 0.3, 0.3], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]],
                             [0.0, 1.0, 0.0], 3)
        a = phi_coefficient(spec, 2, horizon=4)
        b = brute_force_phi(spec, 2, n_max=4, future_len=2)
        assert b <= a + 1e-15
        assert a - b > 1e-6

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), S=st.integers(2, 3), stationary_start=st.booleans())
    def test_profile_bounds_the_literal_definition(self, data, S, stationary_start):
        """On positive (so primitive) 2- and 3-state chains with injective
        emissions, the profile's phi(k) is at least the enumerated
        coefficient over the same conditioning times, and equals it when
        the chain starts at its stationary law."""
        weights = data.draw(st.lists(st.integers(1, 9), min_size=S * S, max_size=S * S))
        P = np.array(weights, dtype=float).reshape(S, S)
        P /= P.sum(axis=1, keepdims=True)
        start = data.draw(st.lists(st.integers(0, 9), min_size=S, max_size=S).filter(any))
        p0 = np.array(start, dtype=float) / sum(start)
        if stationary_start:
            p0 = stationary_distribution(discrete_spec(P, p0, S).markov)
        spec = discrete_spec(P, p0, S)
        n = data.draw(st.integers(1, 4))
        k = data.draw(st.integers(1, n))
        future_len = data.draw(st.integers(1, 3 if S == 2 else 2))
        phi = mixing_profile(spec, n).phi[k - 1]
        brute = brute_force_phi(spec, k, n_max=n, future_len=future_len)
        assert brute <= phi + 1e-12
        if stationary_start:
            assert abs(brute - phi) <= 1e-12

    def test_size_guards(self):
        spec = discrete_spec(SYM09, [0.5, 0.5], 2)
        with pytest.raises(TooLarge):
            brute_force_phi(spec, 1, n_max=5, future_len=2)
        with pytest.raises(TooLarge):
            brute_force_phi(spec, 1, n_max=2, future_len=4)

    def test_subset_budget_guard(self):
        spec3 = discrete_spec([[1 / 3] * 3] * 3, [1 / 3] * 3, 3)
        with pytest.raises(TooLarge):
            brute_force_phi(spec3, 1, n_max=2, future_len=3)

    @pytest.mark.parametrize("label_map, injective", [((1, 2), True), ((1, 1), False)])
    def test_a_repeated_alphabet_point_is_one_point(self, label_map, injective):
        """Two states emitting the same point, stored twice in the alphabet,
        are identifiable exactly when their labels differ."""
        spec = ProcessSpec(
            markov=MarkovSpec(num_states=2, transition=np.asarray(SYM09, dtype=float),
                              initial=np.array([1.0, 0.0])),
            emission=EmissionSpec.discrete(alphabet=np.array([[0.5], [0.5]]), table=np.eye(2)),
            label_map=label_map, num_classes=2, input_dim=1)
        assert deterministic_injective(spec) is injective

    def test_requires_injective_emissions(self):
        spec = ProcessSpec(
            markov=MarkovSpec(num_states=2, transition=np.asarray(SYM09, dtype=float),
                              initial=np.array([0.5, 0.5])),
            emission=EmissionSpec.discrete(alphabet=np.array([[0.0], [1.0]]),
                                           table=np.array([[0.5, 0.5], [0.5, 0.5]])),
            label_map=(1, 2), num_classes=2, input_dim=1)
        assert not deterministic_injective(spec)
        with pytest.raises(ValueError):
            brute_force_phi(spec, 1, n_max=2, future_len=2)


class TestMuAt:
    def test_frozen_tight_chain(self):
        """Delta start on the symmetric chain: drift is exactly 0.5 * 0.8**i."""
        spec = discrete_spec(SYM09, [1.0, 0.0], 2)
        assert mu_at(spec, 1) == pytest.approx(0.4, abs=1e-12)
        assert mu_at(spec, 2) == pytest.approx(0.32, abs=1e-12)
        assert mu_at(spec, 5) == pytest.approx(0.5 * 0.8 ** 5, abs=1e-12)

    def test_stationary_start_is_exactly_zero(self):
        spec = discrete_spec([[0.5, 0.5], [0.5, 0.5]], [0.5, 0.5], 2)
        for i in (1, 2, 7):
            assert mu_at(spec, i) == 0.0

    def test_gaussian_is_capped_at_one(self):
        spec = ProcessSpec(
            markov=MarkovSpec(num_states=2, transition=np.asarray(SYM09, dtype=float),
                              initial=np.array([1.0, 0.0])),
            emission=EmissionSpec.gaussian(means=np.array([[50.0], [-50.0]]), sigma=0.1,
                                           drift_means=np.array([[-50.0], [50.0]]),
                                           drift_amplitude=1.0, drift_exponent=0.5),
            label_map=(1, 2), num_classes=2, input_dim=1)
        assert mu_at(spec, 1) == 1.0

    def test_gaussian_no_drift_matches_hidden_tv(self):
        """With identical emissions per state the bound reduces to the
        hidden-state total variation."""
        spec = ProcessSpec(
            markov=MarkovSpec(num_states=2, transition=np.asarray(SYM09, dtype=float),
                              initial=np.array([1.0, 0.0])),
            emission=EmissionSpec.gaussian(means=np.array([[1.0], [-1.0]]), sigma=0.5),
            label_map=(1, 2), num_classes=2, input_dim=1)
        assert mu_at(spec, 2) == pytest.approx(0.32, abs=1e-12)


class TestMixingProfile:
    def test_frozen_delta_start_profile(self):
        spec = discrete_spec([[0.9, 0.1], [0.2, 0.8]], [1.0, 0.0], 2)
        prof = mixing_profile(spec, 2)
        np.testing.assert_allclose(prof.phi, [0.63, 0.441], rtol=0, atol=1e-12)
        assert prof.delta_inf == pytest.approx(3.142, abs=1e-12)
        assert prof.phi_exact and prof.mu_exact

    def test_delta_inf_matches_geometric_series(self):
        """phi(k) = 0.4 * 0.8**(k-1) sums to 2, so the factor tends to 5."""
        spec = discrete_spec(SYM09, [0.5, 0.5], 2)
        prof = mixing_profile(spec, 400)
        assert prof.delta_inf == pytest.approx(5.0, abs=1e-10)

    def test_iid_kernel_profile_is_exactly_trivial(self):
        spec = discrete_spec([[0.5, 0.5], [0.5, 0.5]], [0.5, 0.5], 2)
        prof = mixing_profile(spec, 32)
        assert np.all(prof.phi == 0.0)
        assert np.all(prof.mu == 0.0)
        assert prof.delta_inf == 1.0

    def test_gaussian_profile_flags_inexact_mu(self):
        spec = ProcessSpec(
            markov=MarkovSpec(num_states=2, transition=np.asarray(SYM09, dtype=float),
                              initial=np.array([1.0, 0.0])),
            emission=EmissionSpec.gaussian(means=np.array([[1.0], [-1.0]]), sigma=0.5),
            label_map=(1, 2), num_classes=2, input_dim=1)
        prof = mixing_profile(spec, 8)
        assert prof.mu_exact is False

    def test_lengths_match_horizon(self):
        spec = discrete_spec(SYM09, [1.0, 0.0], 2)
        prof = mixing_profile(spec, 17)
        assert prof.horizon == 17
        assert len(prof.phi) == 17 and len(prof.mu) == 17

    @pytest.mark.parametrize("field, value", [
        ("phi", [math.nan, 0.1]), ("mu", [0.0, math.nan]), ("delta_inf", math.nan)])
    def test_rejects_nan(self, field, value):
        fields = dict(horizon=2, phi=[0.2, 0.1], mu=[0.0, 0.0], delta_inf=1.6,
                      phi_exact=True, mu_exact=True)
        with pytest.raises(ValueError, match="phi and mu" if field != "delta_inf" else field):
            MixingProfile(**{**fields, field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("horizon", 2.0, "'horizon' must be an integer >= 1, not 2.0"),
        ("phi_exact", "yes", "'phi_exact' must be a boolean, not 'yes'"),
        ("mu_exact", 0, "'mu_exact' must be a boolean, not 0")])
    def test_rejects_mistyped_fields(self, field, value, message):
        fields = dict(horizon=2, phi=[0.2, 0.1], mu=[0.0, 0.0], delta_inf=1.6,
                      phi_exact=True, mu_exact=True)
        with pytest.raises(ValueError, match=message):
            MixingProfile(**{**fields, field: value})

    def test_periodic_chain_rejected(self):
        """Period-2 flipper: no certified stationary law, so no drift mu and
        no profile."""
        spec = discrete_spec([[0.0, 1.0], [1.0, 0.0]], [1.0, 0.0], 2)
        with pytest.raises(NonUniqueStationary):
            mixing_profile(spec, 8)


class TestOneKernel:
    """phi_coefficient and mu_at are views of the mixing_profile kernel: at
    every lag and time they return the profile's own floats."""

    @staticmethod
    def sparse_spec(rng, S, mode, drift):
        # self-loops plus a cycle through every state keep the chain primitive
        support = np.eye(S, dtype=bool) | np.roll(np.eye(S, dtype=bool), 1, axis=1)
        P = rng.random((S, S)) * (support | (rng.random((S, S)) < 0.5))
        p0 = rng.random(S) * (rng.random(S) < 0.6)
        p0[0] += 0.1
        amplitude = float(rng.uniform(0.2, 1.0)) if drift else 0.0
        exponent = float(rng.uniform(0.3, 1.5))
        if mode == "discrete":
            def law():
                t = rng.random((S, 3))
                return t / t.sum(axis=1, keepdims=True)
            alphabet = rng.integers(-1, 2, size=(3, 2)).astype(float)
            emission = EmissionSpec.discrete(alphabet, law(), law() if drift else None,
                                             amplitude, exponent)
        else:
            emission = EmissionSpec.gaussian(
                rng.normal(size=(S, 2)), float(rng.uniform(0.3, 1.5)),
                rng.normal(size=(S, 2)) if drift else None, amplitude, exponent)
        return ProcessSpec(
            markov=MarkovSpec(num_states=S, transition=P / P.sum(axis=1, keepdims=True),
                              initial=p0 / p0.sum()),
            emission=emission, label_map=tuple(int(v) for v in rng.integers(1, 4, size=S)),
            num_classes=3, input_dim=2)

    def test_views_equal_the_profile(self):
        rng = np.random.default_rng(2024)
        for S, mode, drift in itertools.product(range(1, 6), ("discrete", "gaussian"),
                                                (False, True)):
            spec = self.sparse_spec(rng, S, mode, drift)
            # at n = 200 and 600 every chain here repeats its marginals
            # exactly before 2n, so the fixed-point shortcut is taken
            for n in (int(rng.integers(2, 30)), 200, 600):
                prof = assert_matches_reference(spec, n)
                for k in (1, n // 2, n):
                    assert phi_coefficient(spec, k, n) == prof.phi[k - 1], (S, mode, drift, k)
                    assert mu_at(spec, k) == prof.mu[k - 1], (S, mode, drift, k)


    @pytest.mark.parametrize("drift", ["none", "normal", "underflow"])
    def test_discrete_mu_matches_the_per_time_loop(self, drift):
        """Discrete mu for all times at once equals the joint tables of
        reference_mu, on alphabets with duplicate points. At
        exponent 400 the drift weight underflows to 0 from t = 7 on, and those
        times keep the undrifted table."""
        rng = np.random.default_rng({"none": 5, "normal": 6, "underflow": 7}[drift])
        for S in range(1, 6):
            spec = self.sparse_spec(rng, S, "discrete", drift != "none")
            em = spec.emission
            alphabet = em.alphabet.copy()
            alphabet[2] = alphabet[0]  # a duplicate point, at least
            exponent = 400.0 if drift == "underflow" else em.drift_exponent
            spec = ProcessSpec(
                markov=spec.markov,
                emission=EmissionSpec.discrete(alphabet, em.table, em.drift_table,
                                               em.drift_amplitude, exponent),
                label_map=spec.label_map, num_classes=spec.num_classes, input_dim=2)
            for n in (1, 2, 37, 300):
                prof = assert_matches_reference(spec, n)
                for i in sorted({1, min(2, n), min(7, n), n}):
                    assert mu_at(spec, i) == prof.mu[i - 1], (drift, S, n, i)


class TestPrunedPhi:
    """_phi_lags reduces the conditioning times in blocks of _PHI_BLOCK and,
    from time _PHI_FIRST on, stops once the triangle bound through pi* is
    strictly below the best value taken: every profile keeps the bits of the
    reduction over every time. The tests of the pruning itself read the
    bound from the first time on (_PHI_FIRST = 0)."""

    @pytest.mark.parametrize("S, n, seed", [(16, 800, 0), (16, 800, 1), (32, 800, 0),
                                            (32, 800, 1), (64, 200, 0)])
    def test_rings_match_the_reference(self, S, n, seed):
        """Slow lazy rings with no marginal fixed point inside 2n, so only
        the pruning cuts the work; the reference is taken at about 40 lags
        of each, the views at three."""
        spec = lazy_ring(np.random.default_rng(seed).uniform(0.5, 0.8, size=S), S)
        assert _marginals(spec.markov, 2 * n)[1] == 2 * n + 1
        prof = mixing_profile(spec, n)
        lags = sorted({1, n // 2, n, *range(1, n + 1, n // 40)})
        assert np.array_equal(prof.phi[np.array(lags) - 1], reference_phi(spec, n, lags))
        for k in (1, n // 2, n):
            assert phi_coefficient(spec, k, n) == prof.phi[k - 1], k

    @pytest.mark.parametrize("block", [1, 2, 3])
    def test_small_blocks_match_the_reference(self, monkeypatch, block):
        """Blocks of 1-3 times make the pruning act at n < 60, on sparse
        starts, lazy chains and point-mass starts of 1-8 states."""
        monkeypatch.setattr("mixcert.process._PHI_BLOCK", block)
        monkeypatch.setattr("mixcert.process._PHI_FIRST", 0)
        rng = np.random.default_rng(70 + block)
        for S, kind in itertools.product(range(1, 9), ("sparse", "lazy", "point")):
            spec = TestOneKernel.sparse_spec(rng, S, "discrete", False)
            P, p0 = spec.markov.transition, spec.markov.initial
            if kind == "lazy":
                P = 0.97 * np.eye(S) + 0.03 * P
            elif kind == "point":
                p0 = np.eye(S)[rng.integers(S)]
            spec = ProcessSpec(markov=MarkovSpec(S, P, p0), emission=spec.emission,
                               label_map=spec.label_map, num_classes=3, input_dim=2)
            n = int(rng.integers(2, 60))
            prof = assert_matches_reference(spec, n)
            for k in (1, n // 2, n):
                assert phi_coefficient(spec, k, n) == prof.phi[k - 1], (S, kind, k)

    @staticmethod
    def ring_columns(monkeypatch, seed, first=None):
        """Lag-time columns the 16-state ring of this seed reduces at n = 800:
        each block of B times of the lags still open is one (open lags, S,
        B, S) difference."""
        if first is not None:
            monkeypatch.setattr("mixcert.process._PHI_FIRST", first)
        columns = []

        def counting_tv(p, q):
            if q.ndim == 4:
                columns.append(p.shape[0] * q.shape[2])
            return _tv(p, q)

        monkeypatch.setattr("mixcert.process._tv", counting_tv)
        mixing_profile(lazy_ring(np.random.default_rng(seed).uniform(0.5, 0.8, size=16)), 800)
        return sum(columns)

    def test_ring_reduces_few_times(self, monkeypatch):
        """On the 16-state ring at n = 800 every lag reduces its first
        _PHI_FIRST times and, on the mean, fewer than two more: about 3% of
        the 800 * 801 lag-time columns."""
        columns = self.ring_columns(monkeypatch, 0)
        assert 800 * process._PHI_FIRST <= columns < 800 * (process._PHI_FIRST + 2)

    def test_ring_cost_does_not_follow_its_closing_time(self, monkeypatch):
        """The bound alone closes most lags of ring 12 by time 16 and of
        ring 3 only by time 24, so it reduces half as many columns again on
        ring 3. With the first 24 times of every lag reduced, the two rings
        reduce the same columns to within 1%."""
        bound_only = [self.ring_columns(monkeypatch, seed, 0) for seed in (12, 3)]
        assert bound_only[1] > 1.4 * bound_only[0]
        steady = [self.ring_columns(monkeypatch, seed, 24) for seed in (12, 3)]
        assert abs(steady[1] - steady[0]) < 0.01 * steady[0]

    def test_lags_close_after_different_column_blocks(self, monkeypatch):
        """One block of the 16-state ring's first L lags: every lag is open
        for the first block of times, and the bound closes the lags after
        different blocks, so later blocks reduce fewer of them, never more.
        The block keeps the bits of the reduction over every time."""
        spec = lazy_ring(np.random.default_rng(0).uniform(0.5, 0.8, size=16))
        S, n = 16, 800
        L = process._LAG_FLOATS // (S * S * process._PHI_BLOCK)
        futures = _futures(spec.markov, n, 2 * n)
        assert futures[3] > 2 * n
        open_lags = []

        def counting_tv(p, q):
            if q.ndim == 4:
                open_lags.append(p.shape[0])
            return _tv(p, q)

        monkeypatch.setattr("mixcert.process._tv", counting_tv)
        phi = _phi_lags(kstep_rows(spec.markov.transition, L), 1, *futures)
        assert open_lags[0] == L and len(set(open_lags)) > 2
        assert all(a >= b for a, b in zip(open_lags, open_lags[1:]))
        assert np.array_equal(phi, reference_phi(spec, n, range(1, L + 1)))

    def test_no_lag_reduces_past_its_columns(self, monkeypatch):
        """A lag with a fixed point inside the horizon has c + 1 columns, c
        distinct times and the shared one. Blocks of one time on a block of
        every lag reduce at most that many of each lag's columns, though the
        bound leaves the lags past T open (their one column is within the
        slack of their limit)."""
        monkeypatch.setattr("mixcert.process._PHI_BLOCK", 1)
        spec, n = discrete_spec(SYM09, [1.0, 0.0], 2), 300
        futures = _futures(spec.markov, n, 2 * n)
        T = futures[3]
        assert T < n
        columns = []

        def counting_tv(p, q):
            if q.ndim == 4:
                columns.append(p.shape[0] * q.shape[2])
            return _tv(p, q)

        monkeypatch.setattr("mixcert.process._tv", counting_tv)
        phi = _phi_lags(kstep_rows(spec.markov.transition, n), 1, *futures)
        lags = np.arange(1, n + 1)
        assert sum(columns) <= (np.minimum(np.maximum(T - lags, 0), n) + 1).sum()
        assert np.array_equal(phi, reference_phi(spec, n, lags))

    def test_limit_bound_is_a_suffix_max(self):
        """TV(M[t], pi*) rises in floats on this chain; the bound the pruning
        reads is its suffix max, so it never rises and never falls below."""
        spec = discrete_spec([[0.9, 0.1], [0.2, 0.8]], [1.0, 0.0], 2)
        M, T = _marginals(spec.markov, 200)
        pistar = stationary_distribution(spec.markov)
        e = _tv(M, pistar)
        assert np.any(np.diff(e) > 0.0)
        assert np.array_equal(_limit_gap_bound(M, T, pistar), [e[t:].max() for t in range(len(e))])

    def test_a_tie_does_not_prune(self, monkeypatch):
        """A block is skipped only when limit + bound + slack is strictly
        below the best value taken. Here it ties exactly before the second
        time, so that time is still reduced and its larger TV found."""
        monkeypatch.setattr("mixcert.process._PHI_BLOCK", 1)
        monkeypatch.setattr("mixcert.process._PHI_FIRST", 0)
        rows = np.array([[[0.75, 0.25], [0.25, 0.75]]])  # one lag, k = 1
        pistar = np.array([0.5, 0.5])
        M = np.array([pistar, [0.25, 0.75], [0.0, 1.0]])  # futures M[1], M[2]
        limit, best = 0.25, 0.5  # max_b TV(rows[b], pistar); TV(rows[0], M[1])
        slack = _tv_slack(2)
        bound = np.array([1.0, 0.5, best - slack - limit])
        assert limit + bound[2] + slack == best
        reach = np.ones((2, 2), dtype=bool)  # also its own tail; no fixed point: T = 3
        assert _phi_lags(rows, 1, M, reach, reach, 3, pistar, bound) == [0.75]
        bound[2] -= slack
        assert _phi_lags(rows, 1, M, reach, reach, 3, pistar, bound) == [best]


class TestLagBlocks:
    """mixing_profile takes its lags in blocks of L = max(1, _LAG_FLOATS //
    (S * S * _PHI_BLOCK)): one _tv covers a block of _PHI_BLOCK times of
    every lag of a block still open. Blocks of 1, 2 and 3 lags and the
    default keep the bits of the loop over every lag and time."""

    BLOCKS = (1, 2, 3, None)  # lags per block; None keeps the default _LAG_FLOATS
    DEFAULT_FLOATS = process._LAG_FLOATS

    @classmethod
    def set_lags(cls, monkeypatch, spec, lags):
        S = spec.markov.num_states
        floats = cls.DEFAULT_FLOATS if lags is None else lags * S * S * process._PHI_BLOCK
        monkeypatch.setattr("mixcert.process._LAG_FLOATS", floats)

    @pytest.mark.parametrize("chain, n", [("default", 4000), ("ring", 1000), ("ring", 800)])
    def test_fixed_point_regimes(self, monkeypatch, chain, n):
        """The fixed-point shortcut's three regimes, each equal bit for bit
        to the loop over every lag and time."""
        spec = default_chain() if chain == "default" else lazy_ring(0.65)
        t_lo, t_hi = {("default", 4000): (1, 3999),  # marginals and k-step rows repeat before n
                      ("ring", 1000): (1001, 2000),  # marginals repeat between n and 2n
                      ("ring", 800): (1601, 1601)}[chain, n]  # no fixed point up to 2n: T = 2n + 1
        assert t_lo <= _marginals(spec.markov, 2 * n)[1] <= t_hi
        reference = reference_profile(spec, n)
        for lags in self.BLOCKS:
            self.set_lags(monkeypatch, spec, lags)
            assert_matches_reference(spec, n, reference)

    @pytest.mark.parametrize("block", [1, 2, 3, 8, 32])
    def test_random_chains(self, monkeypatch, block):
        """Chains of 1-6 states, both emission modes, with and without drift,
        at n from 1 to 40, the bound read from the first time on; the
        one-lag view phi_coefficient, which reads no _LAG_FLOATS, returns the
        reference's floats at k = 1, n // 2 and n, checked once per chain
        and n."""
        monkeypatch.setattr("mixcert.process._PHI_BLOCK", block)
        monkeypatch.setattr("mixcert.process._PHI_FIRST", 0)
        rng = np.random.default_rng(300 + block)
        for S, mode, drift in itertools.product(range(1, 7), ("discrete", "gaussian"),
                                                (False, True)):
            spec = TestOneKernel.sparse_spec(rng, S, mode, drift)
            for n in (1, 2, int(rng.integers(3, 41)), 40):
                reference = reference_profile(spec, n)
                for k in sorted({1, max(1, n // 2), n}):
                    assert phi_coefficient(spec, k, n) == reference[0][k - 1], (S, n, k)
                for lags in self.BLOCKS:
                    self.set_lags(monkeypatch, spec, lags)
                    assert_matches_reference(spec, n, reference)

    @pytest.mark.parametrize("block", [1, 2, 3, 8, 32])
    def test_shared_column_in_a_later_block(self, monkeypatch, block):
        """A sparse lazy chain whose marginals repeat from T = 139 < 2n: at
        lag 64 its shared column, t = c = 75, lies past the first block of
        times at every block size here, and it holds phi(64), above the
        limit and every distinct time."""
        rng = np.random.default_rng(93)
        S = int(rng.integers(2, 7))
        P = rng.random((S, S)) * (rng.random((S, S)) < 0.5)
        P[np.arange(S), (np.arange(S) + 1) % S] += rng.random(S)
        lazy = rng.uniform(0.0, 0.9)
        P = P / P.sum(axis=1, keepdims=True)
        P = lazy * np.eye(S) + (1 - lazy) * P
        spec, n, k = discrete_spec(P, np.eye(S)[0], S), 118, 64
        M, reach, _, T, pistar, _ = _futures(spec.markov, n, 2 * n)
        c = T - k
        assert T == 139 and c == 75
        rows = kstep_rows(P, k)[-1]
        distinct = max(_tv(rows, pistar).max(),
                       _tv(rows[:, None], M[None, k:T])[reach[:, :c]].max())
        monkeypatch.setattr("mixcert.process._PHI_BLOCK", block)
        reference = reference_profile(spec, n)
        assert reference[0][k - 1] > distinct
        assert phi_coefficient(spec, k, n) == reference[0][k - 1]
        for lags in self.BLOCKS:
            self.set_lags(monkeypatch, spec, lags)
            assert_matches_reference(spec, n, reference)

    @pytest.mark.parametrize("block", [1, 2, 3, 8, 32])
    def test_shared_column_only_inside_the_horizon(self, monkeypatch, block):
        """At n = 2 no marginal repeats up to 2n (T = 5), so lag 1 has
        c = n + 1 and no shared column. The column a block of more than
        n + 1 times would give it, TV(delta_b @ P, M[4]) over the states
        reachable from time 2 on, is larger than phi(1) here."""
        P = np.array([[3.0, 0.0, 2.0], [3.0, 4.0, 0.0], [0.0, 1.0, 4.0]])
        spec = discrete_spec(P / P.sum(axis=1, keepdims=True), [2 / 3, 1 / 3, 0.0], 3)
        M, _, tail, T, _, _ = _futures(spec.markov, 2, 4)
        assert T == 5
        monkeypatch.setattr("mixcert.process._PHI_BLOCK", block)
        reference = reference_profile(spec, 2)
        assert _tv(spec.markov.transition, M[4])[tail[:, 2]].max() > reference[0][0]
        assert phi_coefficient(spec, 1, 2) == reference[0][0]
        for lags in self.BLOCKS:
            self.set_lags(monkeypatch, spec, lags)
            assert_matches_reference(spec, 2, reference)

    def test_a_row_repeat_before_t_does_not_end_the_lags(self, monkeypatch):
        """The k-step rows of this chain repeat from lag 16 (P**17 == P**16),
        before the marginals do (T = 18), so phi(17) still reads a future
        M[17] that moves in its last bits and phi(18) is a smaller float. Only
        a repeat from lag T on ends the stepping."""
        spec, n = discrete_spec([[0.6, 0.4], [0.5, 0.5]], [0.1, 0.9], 2), 20
        rows = kstep_rows(spec.markov.transition, 17)
        assert np.array_equal(rows[16], rows[15]) and _marginals(spec.markov, 2 * n)[1] == 18
        reference = reference_profile(spec, n)
        assert reference[0][16] > reference[0][17]
        for lags in self.BLOCKS:
            self.set_lags(monkeypatch, spec, lags)
            assert_matches_reference(spec, n, reference)

    def test_memory_is_one_lag_block(self):
        """On the 64-state ring a block is two lags, and a block of times of
        its open lags is one (lags, S, _PHI_BLOCK, S) difference of at most
        2**16 floats. Above its marginals the profile holds that difference
        and O(S**2 + n S) floats, whatever n."""
        S = 64
        spec = lazy_ring(np.random.default_rng(0).uniform(0.5, 0.8, size=S), S)
        mixing_profile(spec, 3)
        block = max(process._LAG_FLOATS, S * S * process._PHI_BLOCK)
        for n in (100, 200):
            tracemalloc.start()
            try:
                mixing_profile(spec, n)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            marginals = (2 * n + 1) * S
            assert peak < 8 * (marginals + block + 8 * S * S + 4 * n * S), n


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestStepKernel:
    """`_step`, the one in-place stepping kernel of `_marginals`, the
    profile's k-step rows, phi_coefficient and the stationary polish, keeps
    the bits of a plain `@` loop and finds the same first repeat, wherever
    it falls in a block of _STEP_ROWS rows."""

    STATES = (1, 2, 3, 15, 16, 17, 46, 64, 91)
    OFFSETS = (0, 15, 16, 17)  # fixed points T: a block's first and last rows, the next's first two

    @staticmethod
    def random_chain(rng, S):
        """Sparse random rows plus a self-loop and a cycle through every
        state (so primitive), started from a law with zeros."""
        P = rng.random((S, S)) * (rng.random((S, S)) < 0.5)
        P[np.arange(S), np.arange(S)] += 0.01
        P[np.arange(S), (np.arange(S) + 1) % S] += rng.random(S) + 0.01
        p0 = rng.random(S) * (rng.random(S) < 0.5)
        p0[0] += 0.1
        return MarkovSpec(num_states=S, transition=P / P.sum(axis=1, keepdims=True),
                          initial=p0 / p0.sum())

    @classmethod
    def offset_chains(cls, S):
        """For each T in OFFSETS, a random chain started from its own
        marginal T0 - T steps before its fixed point T0, so that its
        marginals repeat from exactly T on (S = 1 repeats from 0 alone)."""
        rng = np.random.default_rng(500 + S)
        while True:
            markov = cls.random_chain(rng, S)
            M, T0 = reference_fixed_point(markov, 400)
            if S == 1 or max(cls.OFFSETS) <= T0 <= 400:
                break
        for T in cls.OFFSETS[:1] if S == 1 else cls.OFFSETS:
            yield T, MarkovSpec(num_states=S, transition=markov.transition,
                                initial=M[T0 - T])

    @pytest.mark.parametrize("rows_per_test", [1, 2, 3, None])
    @pytest.mark.parametrize("S", STATES)
    def test_marginals_match_the_plain_loop(self, monkeypatch, S, rows_per_test):
        """Rows and T of `_marginals` at tmax 0, 1, 16, 17 and 60, on random
        chains and on chains whose fixed point is at each of OFFSETS, and
        at 1, 2 and 3 rows per test as well as the default."""
        if rows_per_test is not None:
            monkeypatch.setattr("mixcert.process._STEP_ROWS", rows_per_test)
        rng = np.random.default_rng(S)
        chains = [(None, self.random_chain(rng, S)) for _ in range(3)]
        for T, markov in chains + list(self.offset_chains(S)):
            for tmax in (0, 1, 16, 17, 60):
                M, fixed = _marginals(markov, tmax)
                want, want_fixed = reference_fixed_point(markov, tmax)
                assert same_bits(M, want) and fixed == want_fixed, (T, tmax)
                if T is not None:
                    assert fixed == (T if T < tmax else tmax + 1), (T, tmax)

    @pytest.mark.parametrize("S", STATES)
    def test_profile_matches_the_plain_loop(self, S):
        """phi, mu and delta_inf of the profile, and phi_coefficient at k = 1,
        n // 2 and n, on the offset chains and a random chain: at n = 8 (no
        fixed point T >= 15 within 2n = 16 but T = 0), at n = 40 and, up to
        S = 16, at n = 70, where the k-step rows of most of them repeat from
        a lag past T inside n."""
        rng = np.random.default_rng(700 + S)
        chains = [markov for _, markov in self.offset_chains(S)] + [self.random_chain(rng, S)]
        for markov in chains:
            spec = discrete_spec(markov.transition, markov.initial, S)
            for n in (8, 40, 70) if S <= 16 else (8, 40):
                reference = reference_profile(spec, n)
                assert_matches_reference(spec, n, reference)
                for k in (1, n // 2, n):
                    assert phi_coefficient(spec, k, n) == reference[0][k - 1], (n, k)

    @pytest.mark.parametrize("S", STATES)
    def test_stationary_polish_matches_the_plain_loop(self, S):
        """stationary_distribution on random chains, on the iid kernel of
        the uniform law, whose polish stops within a step or two, and on the
        offset chains."""
        rng = np.random.default_rng(900 + S)
        chains = [self.random_chain(rng, S) for _ in range(3)]
        chains += [MarkovSpec(num_states=S, transition=np.full((S, S), 1.0 / S),
                              initial=np.eye(S)[0])]
        chains += [markov for _, markov in self.offset_chains(S)]
        for markov in chains:
            assert same_bits(stationary_distribution(markov), reference_stationary(markov))


def drifting_ring(S=64):
    """The lazy ring of tools/output_digests.py whose table drifts toward
    the next state's point, amplitude 0.5 and exponent 0.5."""
    ring = lazy_ring(np.random.default_rng(S).uniform(0.5, 0.8, size=S), S)
    em = EmissionSpec.discrete(ring.emission.alphabet, np.eye(S),
                               np.roll(np.eye(S), 1, axis=1), 0.5, 0.5)
    return ProcessSpec(markov=ring.markov, emission=em, label_map=ring.label_map,
                       num_classes=2, input_dim=1)


class TestMuTimeBlocks:
    """mu reduces what depends on the marginals alone on the times up to
    their fixed point T and holds it from there, and takes the times a law
    changes at in blocks of max(1, _LAG_FLOATS // (3 * S * C)). Blocks of
    1, 2 and 3 times and the default keep the bits of the stacked form, for
    the profile, its one-time view mu_at and step_expectations."""

    BLOCKS = (1, 2, 3, None)  # times per block; None keeps the default _LAG_FLOATS
    DEFAULT_FLOATS = process._LAG_FLOATS

    @staticmethod
    def with_duplicate_point(spec, rng):
        """The spec with its last alphabet point a copy of its first, and a
        value table over (point, label) that agrees on the two copies."""
        em = spec.emission
        alphabet = em.alphabet.copy()
        alphabet[-1] = alphabet[0]
        f = rng.random((len(alphabet), spec.num_classes))
        f[-1] = f[0]
        emission = EmissionSpec.discrete(alphabet, em.table, em.drift_table,
                                         em.drift_amplitude, em.drift_exponent)
        return ProcessSpec(markov=spec.markov, emission=emission, label_map=spec.label_map,
                           num_classes=spec.num_classes, input_dim=spec.input_dim), f

    @pytest.mark.parametrize("drift", ["none", "normal", "underflow"])
    @pytest.mark.parametrize("mode", ["discrete", "gaussian"])
    def test_random_specs_match_the_stacked_form(self, monkeypatch, mode, drift):
        """Dense random chains of 1-6 states in 1-3 dimensions, whose
        marginals repeat well inside n = 300, at n = 1, 5 and 300; exponent
        400 makes the weight underflow to 0 from t = 7 on."""
        rng = np.random.default_rng({"discrete": 90, "gaussian": 91}[mode]
                                    + {"none": 0, "normal": 2, "underflow": 4}[drift])
        for S in (1, 2, 4, 6):
            spec = random_spec(rng, S, mode, drift)
            f = None
            if mode == "discrete":
                spec, f = self.with_duplicate_point(spec, rng)
            assert _marginals(spec.markov, 600)[1] < 300
            for n in (1, 5, 300):
                mu = reference_mu(spec, n)
                values = f is not None and reference_expectations(spec, f, n)[0]
                for times in self.BLOCKS:
                    floats = (self.DEFAULT_FLOATS if times is None
                              else times * 3 * spec.emission.rows.size)
                    monkeypatch.setattr("mixcert.process._LAG_FLOATS", floats)
                    assert np.array_equal(mixing_profile(spec, n).mu, mu), (S, n, times)
                    for i in sorted({1, max(1, n // 2), n}):
                        assert mu_at(spec, i) == mu[i - 1], (S, n, times, i)
                    if f is not None:
                        assert np.array_equal(step_expectations(spec, f, n), values)

    @pytest.mark.parametrize("chain, n", [("default", 4000), ("validators", 1500)])
    def test_tv_reads_the_marginals_up_to_the_fixed_point(self, monkeypatch, chain, n):
        """On chains whose marginals repeat from T far below n, every TV
        against a limit law (the hidden TV of the limit bound and of
        Gaussian mu, the joint-table TV of driftless discrete mu) reads at
        most T + 1 rows; the profile keeps its bits."""
        spec = default_chain() if chain == "default" else discrete_spec(SYM09, [1.0, 0.0], 2)
        T = _marginals(spec.markov, 2 * n)[1]
        assert T < n // 8
        want = reference_mu(spec, n)
        rows = []

        def counting_tv(p, q):
            if p.ndim == 2 and q.ndim == 1:
                rows.append(p.shape[0])
            return _tv(p, q)

        monkeypatch.setattr("mixcert.process._tv", counting_tv)
        assert np.array_equal(mixing_profile(spec, n).mu, want)
        assert mu_at(spec, n) == want[-1]
        assert rows and max(rows) <= T + 1

    @pytest.mark.parametrize("drift", [True, False], ids=["drifting", "driftless"])
    def test_memory_is_one_time_block(self, drift):
        """On the 64-state ring, with a table drifting toward the next
        state's point or driftless, a block is 5 times of (S, C) = (64, 64)
        rows. _mu holds that block's law, its drift mixture temporaries,
        products and scatter indices, and O(n S) floats per call, not the
        (n, S, C) stack of every time (75 MiB at n = 800). The marginals do
        not repeat within 2n, so both laws change at every time, and at 4n
        the peak grows by at most 8 floats per time added."""
        S, n = 64, 800
        spec = drifting_ring() if drift else lazy_ring(
            np.random.default_rng(S).uniform(0.5, 0.8, size=S), S)
        pistar = stationary_distribution(spec.markov)
        peaks = []
        for size in (n, 4 * n):
            M, T = _marginals(spec.markov, 2 * size)
            assert T > 2 * size
            _mu(spec, pistar, M, T, range(1, 3))
            tracemalloc.start()
            try:
                mu = _mu(spec, pistar, M, T, range(1, size + 1))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            if size == n:
                assert np.array_equal(mu, reference_mu(spec, n))
        assert peaks[0] < 8 * (4 * process._LAG_FLOATS + 2 * n * S) < 4 * 2 ** 20
        assert peaks[1] - peaks[0] < 8 * 8 * 3 * n, peaks


class TestGaussianSlabs:
    """`_gaussian_emission_tv` sums the squared mean gaps over d as (S,
    times) slabs in numpy's pairwise order: sequential below 8 terms, 8
    accumulators up to 128, halves above. It keeps the bits of
    np.linalg.norm's per-(state, time) reduction at every d, in blocks of 1,
    2 and 3 times and the default."""

    DIMS = (*range(1, 10), 16, 17, 128, 129, 257)
    BLOCKS = (1, 2, 3, None)  # times per block; None keeps the default _LAG_FLOATS
    DEFAULT_FLOATS = process._LAG_FLOATS

    @pytest.mark.parametrize("exponent", [0.5, 1.3, 400.0])
    def test_slabs_match_the_norm_form(self, monkeypatch, exponent):
        """Standard normal gap entries, none of which outweighs the rest, so
        the order of the sum over d moves last bits, at scales over six
        decades, with sigma set so that erf runs where its value follows
        them. At exponent 400 the weight underflows to 0 from t = 7 on."""
        rng = np.random.default_rng(int(10 * exponent))
        times = np.arange(1, 40)
        for d in self.DIMS:
            for S in (1, 2, 5):
                means = rng.normal(size=(S, d))
                delta = rng.normal(size=(S, d)) * 10.0 ** rng.uniform(-3.0, 3.0)
                sigma = float(np.linalg.norm(delta, axis=1).max())
                em = EmissionSpec.gaussian(means, sigma, means + delta,
                                           float(rng.uniform(0.2, 1.0)), exponent)
                want = reference_gaussian_tv(em, times)
                assert 0.0 < want.max() < 0.5
                for block in self.BLOCKS:
                    floats = self.DEFAULT_FLOATS if block is None else block * 3 * S * d
                    monkeypatch.setattr("mixcert.process._LAG_FLOATS", floats)
                    got = _gaussian_emission_tv(em, times)
                    assert np.array_equal(got, want), (d, S, block)


class TestEmissionDrift:
    def test_weight_schedule(self):
        em = EmissionSpec.gaussian(means=np.array([[1.0], [-1.0]]), sigma=0.5,
                                   drift_means=np.array([[0.0], [0.0]]),
                                   drift_amplitude=0.5, drift_exponent=0.5)
        # toward zero means the time-t rows are (1 - w_t) * means
        weights = 1.0 - em.rows_at([1, 4, 100])[:, 0, 0]
        assert weights[0] == 0.5 and weights[1] == 0.25
        assert weights[2] == pytest.approx(0.05, abs=1e-15)

    def test_drifted_means_interpolate(self):
        em = EmissionSpec.gaussian(means=np.array([[1.0], [-1.0]]), sigma=0.5,
                                   drift_means=np.array([[3.0], [1.0]]),
                                   drift_amplitude=1.0, drift_exponent=1.0)
        np.testing.assert_allclose(em.rows_at([1])[0], [[3.0], [1.0]])
        np.testing.assert_allclose(em.rows_at([2])[0], [[2.0], [0.0]])

    def test_no_drift_is_constant(self):
        em = EmissionSpec.gaussian(means=np.array([[1.0], [-1.0]]), sigma=0.5)
        assert not em.has_drift()
        np.testing.assert_array_equal(em.rows_at([1])[0], em.rows_at([1000])[0])

    def test_discrete_table_drift(self):
        base = np.array([[0.8, 0.2], [0.2, 0.8]])
        drift = np.array([[0.5, 0.5], [0.5, 0.5]])
        em = EmissionSpec.discrete(alphabet=np.array([[0.0], [1.0]]), table=base,
                                   drift_table=drift, drift_amplitude=1.0,
                                   drift_exponent=1.0)
        np.testing.assert_allclose(em.rows_at([2])[0], 0.5 * base + 0.5 * drift)

    @pytest.mark.parametrize("amplitude, exponent", [(0.0, 0.5), (0.7, 0.5), (0.7, 400.0)])
    def test_rows_at_over_times_stacks_the_single_times(self, amplitude, exponent):
        """rows_at over an array of times is the stack of the time-t laws
        written out one time at a time (law_at), bit for bit, and
        each time's rows do not depend on the other times asked for; a weight
        that underflows to 0 (exponent 400, t >= 7) leaves the rows themselves."""
        means = np.array([[1.0, -2.0], [0.5, 3.0]])
        em = EmissionSpec.gaussian(means=means, sigma=0.5,
                                   drift_means=np.array([[-1.0, 0.25], [2.0, -3.0]]),
                                   drift_amplitude=amplitude, drift_exponent=exponent)
        times = np.arange(1, 40)
        stack = em.rows_at(times)
        assert stack.shape == (39, 2, 2)
        assert np.array_equal(stack, np.stack([law_at(em, int(t)) for t in times]))
        assert all(np.array_equal(stack[i], em.rows_at([int(t)])[0])
                   for i, t in enumerate(times))
        if exponent == 400.0:
            assert drift_weight(em, 6) > 0.0 and drift_weight(em, 7) == 0.0
            assert not np.array_equal(stack[0], means)
            assert all(np.array_equal(rows, means) for rows in stack[6:])

    @pytest.mark.parametrize("mode", ["discrete", "gaussian"])
    def test_rows_at_mixes_in_place(self, mode):
        """rows_at keeps the bits of the mixture taken on a copy, (1 - w) *
        rows + w * drift where w is not 0 and rows, -0.0 included, where it
        underflows (exponent 400, t >= 7); a block of the drifting 64-state
        ring, 5 times of (64, 64) rows, peaks at two arrays of its size
        (tracemalloc), the result and the products w * drift, and 10 KiB that
        do not grow with it (the masked add's buffer, per-time weights)."""
        rows = np.eye(3)
        rows[0, 1] = -0.0
        em = (EmissionSpec.discrete(np.eye(3), rows, np.roll(np.eye(3), 1, axis=1), 0.5, 400.0)
              if mode == "discrete" else
              EmissionSpec.gaussian(rows, 0.5, np.roll(np.eye(3), 1, axis=1), 0.5, 400.0))
        times = np.arange(1, 12)
        mix = np.array([drift_weight(em, t) for t in times]) != 0.0
        assert mix[:6].all() and not mix[6:].any()
        assert same_bits(em.rows_at(times), np.stack([law_at(em, t) for t in times]))
        assert np.signbit(em.rows_at(times)[6:, 0, 1]).all()
        em = drifting_ring().emission
        block = range(1, 6)
        em.rows_at(block)
        tracemalloc.start()
        try:
            em.rows_at(block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * 5 * 64 * 64 + 16 * 1024, peak

    @pytest.mark.parametrize("mode, foreign", [
        ("discrete", {"sigma": 0.5}),
        ("discrete", {"means": [[9.0], [9.0]]}),
        ("gaussian", {"alphabet": [[0.0], [1.0]]}),
        ("gaussian", {"drift_table": np.eye(2)}),
    ])
    def test_rejects_the_other_modes_fields(self, mode, foreign):
        """A field of the other emission mode is an error naming the field
        and the mode, not silently dropped."""
        own = ({"alphabet": [[0.0], [1.0]], "table": np.eye(2)} if mode == "discrete"
               else {"means": [[1.0], [-1.0]], "sigma": 0.5})
        name = next(iter(foreign))
        with pytest.raises(ValueError, match=f"{name} .*{mode}"):
            EmissionSpec(mode=mode, **own, **foreign)

    def test_callers_arrays_stay_writable(self):
        """The spec freezes copies of its float64 inputs, never the caller's
        own arrays, and a later write by the caller leaves the spec as it was."""
        a = np.array([[1.0], [2.0]])
        em = EmissionSpec.gaussian(a, 0.5)
        a[0, 0] = 3.0
        assert em.means[0, 0] == 1.0
        drift = np.array([[0.0], [0.0]])
        alphabet = np.array([[0.0], [1.0]])
        gauss = EmissionSpec.gaussian(a, 0.5, drift_means=drift, drift_amplitude=0.5)
        disc = EmissionSpec.discrete(alphabet=alphabet, table=np.eye(2))
        drift[0, 0] = 5.0
        alphabet[0, 0] = 5.0
        assert gauss.drift_means[0, 0] == 0.0 and disc.alphabet[0, 0] == 0.0

    def test_rejects_negative_amplitude(self):
        with pytest.raises(ValueError):
            EmissionSpec.gaussian(means=np.array([[1.0], [-1.0]]), sigma=0.5,
                                  drift_means=np.array([[0.0], [0.0]]),
                                  drift_amplitude=1.5, drift_exponent=0.5)

    @pytest.mark.parametrize("key", ["sigma", "drift_amplitude", "drift_exponent"])
    def test_rejects_nan_scalars(self, key):
        args = dict(means=np.array([[1.0], [-1.0]]), sigma=0.5,
                    drift_means=np.array([[0.0], [0.0]]), drift_amplitude=0.5,
                    drift_exponent=0.5)
        with pytest.raises(ValueError, match=f"'{key}' must be"):
            EmissionSpec.gaussian(**{**args, key: math.nan})


class TestProcessSpecSerialization:
    def make(self):
        return ProcessSpec(
            markov=MarkovSpec(num_states=2, transition=np.asarray(SYM09, dtype=float),
                              initial=np.array([1.0, 0.0])),
            emission=EmissionSpec.gaussian(means=np.array([[1.0, 1.0], [-1.0, -1.0]]),
                                           sigma=0.5,
                                           drift_means=np.array([[1.0, -1.0], [-1.0, 1.0]]),
                                           drift_amplitude=0.5, drift_exponent=0.5),
            label_map=(1, 2), num_classes=2, input_dim=2)

    def test_json_round_trip(self):
        spec = self.make()
        again = ProcessSpec.from_json_dict(spec.to_json_dict())
        assert again.digest() == spec.digest()
        np.testing.assert_array_equal(again.markov.transition, spec.markov.transition)
        np.testing.assert_array_equal(again.emission.means, spec.emission.means)

    def test_digest_changes_with_content(self):
        spec = self.make()
        other = ProcessSpec(
            markov=MarkovSpec(num_states=2,
                              transition=np.array([[0.8, 0.2], [0.1, 0.9]]),
                              initial=np.array([1.0, 0.0])),
            emission=spec.emission, label_map=(1, 2), num_classes=2, input_dim=2)
        assert other.digest() != spec.digest()

    def test_integral_float_label_map_is_the_integer_one(self):
        """label_map follows the one label rule, as LabeledDataset's labels do:
        an integral float is an integer. It is stored as Python ints, so the
        spec serializes and digests as with integer labels."""
        spec = self.make()
        floats = ProcessSpec(markov=spec.markov, emission=spec.emission, label_map=(1.0, 2.0),
                             num_classes=2, input_dim=2)
        assert floats.label_map == (1, 2) and all(type(v) is int for v in floats.label_map)
        assert floats.to_json_dict() == spec.to_json_dict()
        assert floats.digest() == spec.digest()

    def test_rejects_bad_label_map(self):
        with pytest.raises(ValueError):
            ProcessSpec(
                markov=MarkovSpec(num_states=2, transition=np.asarray(SYM09, dtype=float),
                                  initial=np.array([1.0, 0.0])),
                emission=EmissionSpec.discrete(alphabet=np.array([[0.0], [1.0]]),
                                               table=np.eye(2)),
                label_map=(1, 3), num_classes=2, input_dim=1)


class TestSampling:
    def spec(self):
        return discrete_spec(SYM09, [1.0, 0.0], 2)

    def test_sequence_deterministic(self):
        a = sample_sequence(self.spec(), 50, seed=9)
        b = sample_sequence(self.spec(), 50, seed=9)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.kind == "sequence"

    def test_different_seeds_differ(self):
        a = sample_sequence(self.spec(), 50, seed=9)
        b = sample_sequence(self.spec(), 50, seed=10)
        assert not np.array_equal(a.inputs, b.inputs)

    def test_first_sample_starts_at_state_one(self):
        data = sample_sequence(self.spec(), 5, seed=3)
        assert data.inputs[0, 0] == 0.0
        assert data.labels[0] == 1

    def test_sequence_frequencies_match_marginals(self):
        """Mean occupancy of state 1 over many short runs sits within five
        binomial deviations of the exact average marginal."""
        n, trials = 10, 4000
        X, Y = sample_sequences_batch(self.spec(), n, trials, seed=21)
        assert X.shape == (trials, n, 1) and Y.shape == (trials, n)
        exact = np.mean([_marginals(self.spec().markov, t)[0][t][0] for t in range(1, n + 1)])
        freq = float(np.mean(X[..., 0] == 0.0))
        sigma = np.sqrt(0.25 / (n * trials))
        assert abs(freq - exact) < 5 * sigma

    def test_target_kind_and_determinism(self):
        t1 = sample_target(self.spec(), 40, seed=5)
        t2 = sample_target(self.spec(), 40, seed=5)
        assert t1.kind == "target_iid"
        np.testing.assert_array_equal(t1.inputs, t2.inputs)

    def test_target_empty_allowed(self):
        t = sample_target(self.spec(), 0, seed=5)
        assert t.n == 0

    def test_target_matches_stationary_frequency(self):
        t = sample_target(self.spec(), 20000, seed=5)
        freq = float(np.mean(t.inputs[:, 0] == 0.0))
        assert abs(freq - 0.5) < 5 * np.sqrt(0.25 / 20000)


class TestChainStepping:
    """The column rule of `_inverse_cdf` and the single-chain `_walk_path`
    against the gathered-row formula and the lazy `_walk`. Both walks give
    H_1..H_n; the oracle `reference_walk` gives H_0 first."""

    @pytest.mark.parametrize("S", [1, 2, 3, 16])
    def test_inverse_cdf_matches_gathered_rows(self, S):
        rng = np.random.default_rng(S)
        for _ in range(25):
            R = int(rng.integers(1, 6))
            law = random_law(rng, R, S)
            cum = np.cumsum(law, axis=1)
            states = rng.integers(0, R, size=300)
            u = rng.random(300)
            u[:30] = 0.0
            # u on an exact cumulative value, ties between equal columns included
            u[30:150] = cum[states[30:150], rng.integers(0, S, size=120)]
            # u just above a row's total, where only the cap decides
            u[150:200] = np.nextafter(cum[states[150:200], -1], 2.0)
            got = _inverse_cdf(cum, states, u)
            want = reference_inverse_cdf(cum[states], u)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            # every u in [0, row total) draws an index of positive mass
            below = u < cum[states, -1]
            assert below[:30].all() and (law[states[below], got[below]] > 0.0).all()

    def test_walk_path_matches_walk(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            S = int(rng.integers(1, 17))
            markov = MarkovSpec(num_states=S, transition=random_law(rng, S, S),
                                initial=random_law(rng, 1, S)[0])
            n, seed = int(rng.integers(0, 300)), int(rng.integers(0, 2 ** 31))
            a, b, c = (substream(seed, 0) for _ in range(3))
            got = _walk_path(markov, n, a)
            walk, oracle = _walk(markov, 1, b), reference_walk(markov, 1, c)
            want = np.concatenate([next(oracle) for _ in range(n + 1)])[1:]
            lazy = np.array([next(walk)[0] for _ in range(n)], dtype=np.int64)
            for states in (got, lazy):
                assert states.dtype == want.dtype and np.array_equal(states, want)
            # the same n + 1 uniforms were consumed; a walk asked for no
            # state has not drawn H_0
            after = c.random()
            assert a.random() == after
            assert b.random() == (after if n else substream(seed, 0).random())

    def test_walk_path_on_boundary_uniforms(self):
        """Uniforms that random draws almost never give: 0, exact cumulative
        values, and values just above a row's total, fed in order to both
        walks by a stand-in for the generator."""
        class Scripted:
            """Returns the scripted uniforms in order. A certain draw skips
            them through `bit_generator`, a Philox whose position counts
            the uniforms consumed; `random` moves it as well."""
            def __init__(self, u):
                self.u = np.asarray(u)
                self.bit_generator = np.random.Philox(0)

            def consumed(self):
                state = self.bit_generator.state
                return 4 * int(state["state"]["counter"][0]) + state["buffer_pos"] - 4

            def random(self, size):
                at = self.consumed()
                self.bit_generator.random_raw(size)
                return self.u[at:at + size]

        rng = np.random.default_rng(43)
        for _ in range(40):
            S = int(rng.integers(1, 9))
            markov = MarkovSpec(num_states=S, transition=random_law(rng, S, S),
                                initial=random_law(rng, 1, S)[0])
            cum = np.cumsum(np.vstack([markov.initial, markov.transition]), axis=1)
            pool = np.concatenate([[0.0], cum.ravel(), np.nextafter(cum[:, -1], 2.0)])
            n = int(rng.integers(0, 60))
            u = rng.choice(pool, size=n + 1)
            scripted = Scripted(u)
            got = _walk_path(markov, n, scripted)
            # one uniform per state, drawn or skipped, H_0's included
            assert scripted.consumed() == n + 1
            oracle = reference_walk(markov, 1, Scripted(u))
            path = np.concatenate([next(oracle) for _ in range(n + 1)])  # H_0..H_n
            assert np.array_equal(got, path[1:])
            scripted = Scripted(u)
            walk = _walk(markov, 1, scripted)
            assert np.array_equal([next(walk)[0] for _ in range(n)], path[1:])
            assert scripted.consumed() == (n + 1 if n else 0)
            # each u in [0, row total) moves to a state of positive mass
            laws = np.vstack([markov.initial[None], markov.transition[path[:-1]]])
            rows = np.concatenate([[0], 1 + path[:-1]])
            below = u < cum[rows, -1]
            assert (laws[np.arange(n + 1), path][below] > 0.0).all()

    def test_a_zero_uniform_draws_no_zero_mass(self):
        """random() may return exactly 0.0. With row [0, 1] that draws index
        1, for the start state, each chain step and each emitted point, in
        every sampler's stepping rule."""
        class Zeros:
            """Returns zeros; a certain draw skips them through a Philox."""
            def __init__(self):
                self.bit_generator = np.random.Philox(0)

            def random(self, size):
                return np.zeros(size)

        markov = MarkovSpec(num_states=2, transition=[[0.0, 1.0], [0.5, 0.5]],
                            initial=[0.0, 1.0])
        # H_1 = 0 is the step from H_0 = 1: from state 0 it would be 1
        assert _walk_path(markov, 5, Zeros()).tolist() == [0, 1, 0, 1, 0]
        walk = _walk(markov, 3, Zeros())
        assert [next(walk).tolist() for _ in range(3)] == [[0, 0, 0], [1, 1, 1], [0, 0, 0]]
        em = EmissionSpec.discrete(np.array([[0.0], [1.0]]), [[0.0, 1.0], [0.0, 1.0]])
        assert em.emit(em.law(em.table), np.array([0, 1]), Zeros()).tolist() == [[1.0], [1.0]]

    @pytest.mark.parametrize("row, bad, u", [
        ([0.5, 0.5, -1e-13], 2, 0.99999999999995),
        ([0.5, -1e-13, 0.5], 1, 0.49999999999995),
    ])
    def test_tolerated_negative_mass_loads_as_zero(self, row, bad, u):
        """Entries down to -1e-12 pass the law check and load as 0.0, so each
        cumulative row is nondecreasing and no stepping rule draws the state
        `bad` of negative mass; -0.0 keeps its sign bit."""
        markov = MarkovSpec(num_states=3, transition=[row, row, [0.5, 0.5, -0.0]],
                            initial=row)
        clipped = np.where(np.array(row) < 0.0, 0.0, row)
        assert np.array_equal(markov.transition[:2], [clipped, clipped])
        assert np.array_equal(markov.initial, clipped)
        assert not np.signbit(markov.transition[:2, bad]).any()
        assert np.signbit(markov.transition[2, 2])
        em = EmissionSpec.discrete(np.eye(3), [row, row, row], [row, row, row], 0.5)
        assert np.array_equal(em.table, [clipped] * 3)
        assert np.array_equal(em.drift_table, [clipped] * 3)
        cum = np.cumsum(markov.transition, axis=1)
        assert bad not in _inverse_cdf(cum, np.array([0, 1]), np.array([u, u]))

        class Constant:
            """Returns u; a certain draw skips it through a Philox."""
            def __init__(self):
                self.bit_generator = np.random.Philox(0)

            def random(self, size):
                return np.full(size, u)

        assert bad not in _walk_path(markov, 20, Constant())
        walk = _walk(markov, 4, Constant())
        assert not any(bad in next(walk) for _ in range(21))
        # H_0 from the start law `row`, kept as H_1 by an identity kernel
        still = MarkovSpec(num_states=3, transition=np.eye(3), initial=row)
        assert bad not in _walk_path(still, 1, Constant())
        assert bad not in next(_walk(still, 4, Constant()))


def value_of_inputs(inputs, labels):
    """A value in [0, 1) of each point and label, for sequence_value_means."""
    return (np.abs(inputs).sum(axis=1) * labels) % 1.0


def sampler_outputs(spec, n, trials, seed, f, f_table=None):
    """The outputs of the four samplers at `seed` and of their oracles on
    the same substreams, as two lists in the same order: sample_sequence,
    sample_target of 37 points, sample_sequences_batch, sequence_value_means
    of the callable f and, when f_table is given, of that value table. Each
    call adds its arrays, or the NonUniqueStationary type when it raises
    one."""
    calls = [
        (lambda: sample_sequence(spec, n, seed),
         lambda: reference_sequence(spec, n, substream(seed, _SEQUENCE))),
        (lambda: sample_target(spec, 37, seed),
         lambda: reference_target(spec, 37, substream(seed, _TARGET))),
        (lambda: sample_sequences_batch(spec, n, trials, seed),
         lambda: reference_batch(spec, n, trials, substream(seed, _BATCH))),
        (lambda: sequence_value_means(spec, f, n, trials, seed),
         lambda: reference_means(spec, f, n, trials, substream(seed, _BATCH)))]
    if f_table is not None:
        calls.append((lambda: sequence_value_means(spec, f_table, n, trials, seed),
                      lambda: reference_means(spec, f_table, n, trials,
                                              substream(seed, _BATCH))))
    library, oracle = [], []
    for pair in calls:
        for call, out in zip(pair, (library, oracle)):
            try:
                result = call()
            except NonUniqueStationary as exc:
                out.append(type(exc))
                continue
            if isinstance(result, LabeledDataset):
                result = (result.inputs, result.labels)
            out.extend(result if isinstance(result, tuple) else (result,))
    return library, oracle


class TestOneDraw:
    """The four samplers draw their points by one inverse-CDF rule or one
    Gaussian step. The oracle samplers of `oracles.py` write them out one
    mode at a time, with the drift mixture inline, and step the chain and
    draw points with their own `reference_walk` and `reference_inverse_cdf`,
    not with the code under test; the samplers must match them bit for bit,
    which pins the order in which each consumes its random stream."""

    @staticmethod
    def assert_same(got, want):
        got, want = np.asarray(got), np.asarray(want)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("mode", ["discrete", "gaussian"])
    @pytest.mark.parametrize("drift", ["none", "normal", "underflow"])
    def test_samplers_match_the_per_mode_loops(self, mode, drift):
        rng = np.random.default_rng(["none", "normal", "underflow"].index(drift)
                                    + (10 if mode == "gaussian" else 0))
        for S in (1, 2, 3, 4, 5, 2, 3):
            spec = random_spec(rng, S, mode, drift)
            n, trials = int(rng.integers(1, 40)), int(rng.integers(1, 25))
            seed = int(rng.integers(0, 2 ** 31))
            f_table = None
            if mode == "discrete":
                f_table = rng.random((spec.emission.alphabet.shape[0], spec.num_classes))
            got, want = sampler_outputs(spec, n, trials, seed, value_of_inputs, f_table)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert not isinstance(b, type)  # every random_spec chain is primitive
                self.assert_same(a, b)
            data = sample_target(spec, 0, seed)
            for a, b in zip((data.inputs, data.labels),
                            reference_target(spec, 0, substream(seed, _TARGET))):
                self.assert_same(a, b)
            # one walk for a class: row m has the bits of member m's walk alone
            f = value_of_inputs
            members = (f, lambda X, y: 1.0 - f(X, y), lambda X, y: np.full(len(y), 0.25))
            rows = sequence_value_means(spec, FunctionClass(evaluators=members).evaluate,
                                        n, trials, seed)
            assert rows.shape == (len(members), trials)
            for row, member in zip(rows, members):
                self.assert_same(row, sequence_value_means(spec, member, n, trials, seed))

    def test_a_callable_equals_its_value_table(self):
        """One kernel: a callable that looks its points up in a value table
        draws the same uniforms as that table and adds the same values."""
        rng = np.random.default_rng(22)
        for i in range(51):
            drift = ("none", "normal", "underflow")[i % 3]
            spec = random_spec(rng, int(rng.integers(1, 6)), "discrete", drift)
            alphabet = spec.emission.alphabet
            f_table = rng.random((alphabet.shape[0], spec.num_classes))

            def f(inputs, labels):
                points = (inputs[:, None, :] == alphabet[None]).all(axis=2).argmax(axis=1)
                return f_table[points, labels - 1]
            n, trials = int(rng.integers(1, 60)), int(rng.integers(1, 200))
            seed = int(rng.integers(0, 2 ** 31))
            self.assert_same(sequence_value_means(spec, f, n, trials, seed),
                             sequence_value_means(spec, f_table, n, trials, seed))

    def test_callable_memory_is_bounded_in_n(self):
        """The callable path holds a few arrays of `trials` values and one
        time block of the law, here all n times of it, never the (trials, n,
        d) inputs of all steps."""
        spec = ProcessSpec(
            markov=MarkovSpec(num_states=3, transition=np.array(
                [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.2, 0.2, 0.6]]),
                initial=np.array([1.0, 0.0, 0.0])),
            emission=EmissionSpec.gaussian(
                np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]), 0.5,
                drift_means=np.zeros((3, 2)), drift_amplitude=0.5, drift_exponent=0.5),
            label_map=(1, 2, 2), num_classes=2, input_dim=2)
        n, trials = 800, 2000

        def f(inputs, labels):
            return (labels == 1).astype(np.float64)
        # a first call imports modules lazily, about 0.7 MB that no size changes
        sequence_value_means(spec, f, 2, 2, seed=0)
        tracemalloc.start()
        try:
            sequence_value_means(spec, f, n, trials, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stack = n * spec.markov.num_states * spec.input_dim * 8
        assert peak < 32 * trials * 8 + stack


class TestCertainDraws:
    """A draw whose every row picks one index whatever the uniform reads
    that index and skips its uniforms. On tables with certain rows every
    sampler must keep the bits of its oracle, which draws every uniform."""

    @staticmethod
    def certain_spec(rng):
        S, M = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        d = int(rng.integers(1, 3))
        table = mixed_law(rng, S, M)
        drift = None if rng.random() < 0.3 else mixed_law(rng, S, M)
        # amplitude 1: the time-1 law is the drift table alone; exponent 400:
        # w_t is subnormal by t = 6 and 0 from t = 7, where the table rules
        amplitude = 1.0 if rng.random() < 0.4 else float(rng.uniform(0.1, 0.9))
        exponent = 400.0 if rng.random() < 0.5 else float(rng.uniform(0.2, 1.5))
        initial = mixed_law(rng, 1, S)[0]
        if rng.random() < 0.5:
            initial = np.eye(S)[int(rng.integers(0, S))]
        K = int(rng.integers(2, 4))
        return ProcessSpec(
            markov=MarkovSpec(num_states=S, transition=mixed_law(rng, S, S), initial=initial),
            emission=EmissionSpec.discrete(rng.normal(size=(M, d)), table, drift,
                                           amplitude, exponent),
            label_map=tuple(int(v) for v in rng.integers(1, K + 1, size=S)),
            num_classes=K, input_dim=d)

    def test_samplers_keep_the_bits_of_drawing(self, monkeypatch):
        rng = np.random.default_rng(35)
        skipped = 0
        for _ in range(60):
            spec = self.certain_spec(rng)
            n, trials = int(rng.integers(1, 12)), int(rng.integers(1, 30))
            seed = int(rng.integers(0, 2 ** 31))
            f_table = rng.random((spec.emission.alphabet.shape[0], spec.num_classes))
            calls = []  # the oracles draw by their own rule, never through process._skip
            with monkeypatch.context() as patch:
                patch.setattr(process, "_skip",
                              lambda rng, count: calls.append(count) or _skip(rng, count))
                got, want = sampler_outputs(spec, n, trials, seed, value_of_inputs, f_table)
            skipped += bool(calls)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                if isinstance(b, type):
                    assert a is b
                else:
                    assert a.dtype == b.dtype and np.array_equal(a, b)
        assert skipped > 30

    def test_draw_points_keeps_the_bits_of_drawing(self):
        rng = np.random.default_rng(36)
        for _ in range(300):
            R, C = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            table = mixed_law(rng, R, C)
            states = rng.integers(0, R, size=int(rng.integers(0, 40)))
            seed = int(rng.integers(0, 2 ** 31))
            a, b = substream(seed, 1), substream(seed, 1)
            got, want = _cdf_draw(table)(states, a), reference_draw(table, states, b)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert np.array_equal(a.random(5), b.random(5))

    def test_a_certain_table_calls_no_random(self):
        class Counting:
            """Counts `random` calls; a skip moves the same generator."""
            def __init__(self, seed):
                self.rng = substream(seed, 2)
                self.bit_generator = self.rng.bit_generator
                self.calls = 0

            def random(self, size):
                self.calls += 1
                return self.rng.random(size)

        states = np.array([0, 1, 2, 1, 0])
        certain = [[0.0, 1.0, 0.0], [1.0, 1e-300, 0.0], [0.0, 0.0, 1.0]]
        uncertain = [[0.0, 1.0, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]
        for table, calls in ((certain, 0), (uncertain, 1), ([[1.0]] * 3, 0)):
            counting = Counting(3)
            got = _cdf_draw(np.array(table))(states, counting)
            assert counting.calls == calls
            want = reference_draw(np.array(table), states, substream(3, 2))
            assert np.array_equal(got, want)
        assert _cdf_draw(np.array(certain))(states, Counting(3)).tolist() == [1, 0, 2, 0, 1]
        # a certain kernel and start law: no uniform is generated
        markov = MarkovSpec(num_states=3, transition=np.roll(np.eye(3), 1, axis=1),
                            initial=[0.0, 0.0, 1.0])
        counting = Counting(4)
        walk = _walk(markov, 4, counting)
        assert [next(walk)[0] for _ in range(4)] == [0, 1, 2, 0]  # H_1..H_4, after H_0 = 2
        assert counting.calls == 0
        reference = substream(4, 2)
        reference.random(5 * 4)  # H_0..H_4 of the four chains
        assert counting.rng.random() == reference.random()


class TestSamplerTimeBlocks:
    """A drifting law is read one `_time_blocks` slice at a time, of max(1,
    _LAG_FLOATS // (3 S C)) times: `EmissionSpec.laws` builds the batch
    samplers' per-time draws from one block of rows_at, sample_sequence
    gathers its per-draw rows one block at a time, and step_expectations
    contracts one block at a time. Blocks of 1, 2 and 3 times and the
    default keep the bits of the oracles, which build each time's law alone;
    a driftless law's draw is built once per walk."""

    BLOCKS = (1, 2, 3, None)  # times per block; None keeps the default _LAG_FLOATS
    DEFAULT_FLOATS = process._LAG_FLOATS

    @staticmethod
    def with_certain_rows(spec, rng):
        """The discrete spec with `mixed_law` tables, so its rows draw at the
        times they drift and are certain in places once the weight has
        underflowed to 0 (exponent 400, t >= 7)."""
        em = spec.emission
        S, M = em.table.shape
        emission = EmissionSpec.discrete(em.alphabet, mixed_law(rng, S, M), mixed_law(rng, S, M),
                                         em.drift_amplitude, em.drift_exponent)
        return ProcessSpec(markov=spec.markov, emission=emission, label_map=spec.label_map,
                           num_classes=spec.num_classes, input_dim=spec.input_dim)

    @pytest.mark.parametrize("mode", ["discrete", "gaussian"])
    def test_blocks_match_the_oracles(self, monkeypatch, mode):
        rng = np.random.default_rng({"discrete": 40, "gaussian": 41}[mode])
        for S, drift, certain in itertools.product((1, 2, 3, 5), ("normal", "underflow"),
                                                   (False, True)):
            spec = random_spec(rng, S, mode, drift)
            if certain and mode == "discrete":
                spec = self.with_certain_rows(spec, rng)
            n, trials = int(rng.integers(1, 30)), int(rng.integers(1, 20))
            seed = int(rng.integers(0, 2 ** 31))
            f_table = steps = None
            if mode == "discrete":
                f_table = rng.random((spec.emission.alphabet.shape[0], spec.num_classes))
                steps = reference_expectations(spec, f_table, n)[0]
            for times in self.BLOCKS:
                floats = (self.DEFAULT_FLOATS if times is None
                          else times * 3 * spec.emission.rows.size)
                monkeypatch.setattr("mixcert.process._LAG_FLOATS", floats)
                got, want = sampler_outputs(spec, n, trials, seed, value_of_inputs, f_table)
                assert len(got) == len(want)
                for a, b in zip(got, want):
                    assert a.dtype == b.dtype and np.array_equal(a, b), (S, drift, times)
                if steps is not None:
                    assert np.array_equal(step_expectations(spec, f_table, n), steps)

    @pytest.mark.parametrize("drift", [False, True], ids=["driftless", "drifting"])
    def test_a_driftless_law_is_built_once_per_walk(self, monkeypatch, drift):
        """With 2 states and 3 alphabet points, the batch samplers build the
        start law's and the kernel's draws once and the (2, 3) emission
        table's once per walk, or once per time when the table drifts."""
        em = EmissionSpec.discrete(np.array([[0.0], [1.0], [2.0]]),
                                   [[0.5, 0.25, 0.25], [0.0, 0.5, 0.5]],
                                   [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]] if drift else None, 0.5)
        spec = ProcessSpec(markov=MarkovSpec(num_states=2, transition=[[0.9, 0.1], [0.2, 0.8]],
                                             initial=[1.0, 0.0]),
                           emission=em, label_map=(1, 2), num_classes=2, input_dim=1)
        n, shapes = 12, []

        def counting(law):
            shapes.append(np.shape(law))
            return _cdf_draw(law)
        monkeypatch.setattr("mixcert.process._cdf_draw", counting)
        for call in (lambda: sample_sequences_batch(spec, n, 50, 3),
                     lambda: sequence_value_means(spec, np.eye(3, 2), n, 50, 3),
                     lambda: sequence_value_means(spec, value_of_inputs, n, 50, 3)):
            shapes.clear()
            call()
            assert sorted(shapes) == [(1, 2), (2, 2)] + [(2, 3)] * (n if drift else 1)

    def test_memory_is_one_time_block(self):
        """On the drifting 64-state ring at n = 800, a block is 5 times of
        (S, C) = (64, 64) rows. Every sampler and step_expectations holds
        its outputs, one block of the law with its drift mixture temporary,
        O(trials) floats and, for step_expectations, the (n + 1, S)
        marginals; not the (n, S, C) stack of every time, 26 MB."""
        spec, n, trials = drifting_ring(), 800, 200
        S = spec.markov.num_states
        f_table = (np.arange(S)[:, None] * [0.37, 0.61]) % 1.0

        def calls(n, trials):
            return [lambda: sample_sequence(spec, n, 1),
                    lambda: sample_target(spec, trials, 1),
                    lambda: sample_sequences_batch(spec, n, trials, 1),
                    lambda: sequence_value_means(spec, f_table, n, trials, 1),
                    lambda: sequence_value_means(spec, value_of_inputs, n, trials, 1),
                    lambda: (step_expectations(spec, f_table, n), np.empty((n + 1, S)))]
        for i, (first, call) in enumerate(zip(calls(2, 2), calls(n, trials))):
            first()  # a first call imports modules lazily
            tracemalloc.start()
            try:
                out = call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            if isinstance(out, LabeledDataset):
                out = (out.inputs, out.labels)
            outputs = sum(a.nbytes for a in (out if isinstance(out, tuple) else (out,)))
            assert peak < outputs + 8 * (4 * process._LAG_FLOATS + 32 * trials), i


class TestStepExpectations:
    def test_exact_vs_simulation(self):
        """Per-trial path means are unbiased for the average of the exact
        per-step expectations."""
        spec = discrete_spec(SYM09, [1.0, 0.0], 2)
        f_table = np.array([[1.0, 1.0], [0.0, 0.0]])  # indicator of point 0
        n = 6
        exact = step_expectations(spec, f_table, n)
        sim = sequence_value_means(spec, f_table, n, trials=40000, seed=17)
        stderr = float(sim.std(ddof=1) / np.sqrt(sim.size))
        assert abs(float(sim.mean()) - float(exact.mean())) < 5 * stderr

    def test_exact_matches_marginal(self):
        spec = discrete_spec(SYM09, [1.0, 0.0], 2)
        f_table = np.array([[1.0, 1.0], [0.0, 0.0]])
        exact = step_expectations(spec, f_table, 4)
        for i in range(4):
            assert exact[i] == pytest.approx(_marginals(spec.markov, i + 1)[0][i + 1][0],
                                             abs=1e-14)

    def test_stationary_expectation(self):
        spec = discrete_spec(SYM09, [1.0, 0.0], 2)
        f_table = np.array([[1.0, 1.0], [0.0, 0.0]])
        assert stationary_expectation(spec, f_table) == pytest.approx(0.5, abs=1e-12)

    def test_horizon_zero_is_empty_and_negative_is_rejected(self):
        spec = discrete_spec(SYM09, [1.0, 0.0], 2)
        f_table = np.array([[1.0, 1.0], [0.0, 0.0]])
        assert step_expectations(spec, f_table, 0).shape == (0,)
        with pytest.raises(ValueError, match="'n' must be an integer >= 0"):
            step_expectations(spec, f_table, -1)

    def test_rejects_a_nan_value(self):
        spec = discrete_spec(SYM09, [1.0, 0.0], 2)
        f_table = np.array([[math.nan, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="f_table must be finite"):
            step_expectations(spec, f_table, 4)
        with pytest.raises(ValueError, match="f_table must be finite"):
            stationary_expectation(spec, f_table)

    def test_gaussian_emissions_are_not_discrete(self):
        spec = ProcessSpec(
            markov=MarkovSpec(num_states=2, transition=np.asarray(SYM09, dtype=float),
                              initial=np.array([1.0, 0.0])),
            emission=EmissionSpec.gaussian(np.array([[1.0], [-1.0]]), 0.5),
            label_map=(1, 2), num_classes=2, input_dim=1)
        with pytest.raises(NotDiscrete):
            step_expectations(spec, np.eye(2), 5)
        with pytest.raises(NotDiscrete):
            stationary_expectation(spec, np.eye(2))

    @pytest.mark.parametrize("drift", ["none", "normal", "underflow"])
    def test_one_kernel_matches_the_per_time_loop(self, drift):
        """step_expectations and stationary_expectation share one einsum over
        stacked laws; it returns the per-time loop's floats, bit for bit, on
        alphabets with duplicate points and with drift weights that underflow
        to 0 (exponent 400, t >= 7)."""
        rng = np.random.default_rng({"none": 31, "normal": 32, "underflow": 33}[drift])
        for S in range(1, 17):
            spec = TestOneKernel.sparse_spec(rng, S, "discrete", drift != "none")
            em = spec.emission
            alphabet = em.alphabet.copy()
            alphabet[2] = alphabet[0]
            exponent = 400.0 if drift == "underflow" else em.drift_exponent
            spec = ProcessSpec(
                markov=spec.markov,
                emission=EmissionSpec.discrete(alphabet, em.table, em.drift_table,
                                               em.drift_amplitude, exponent),
                label_map=spec.label_map, num_classes=spec.num_classes, input_dim=2)
            # a function of the point itself, so duplicate points agree
            f_table = (np.sin(alphabet @ [1.3, 2.7])[:, None] * np.arange(1, 4)) % 1.0
            for n in (1, 2, 37, 1500):
                steps, stationary = reference_expectations(spec, f_table, n)
                got = step_expectations(spec, f_table, n)
                assert got.dtype == steps.dtype and np.array_equal(got, steps), (S, n)
                assert stationary_expectation(spec, f_table) == stationary, S


class TestLabeledDatasetIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        data = LabeledDataset(inputs=rng.normal(size=(9, 3)),
                              labels=rng.integers(1, 4, size=9).astype(np.int64),
                              num_classes=3, kind="sequence", seed=77)
        path = tmp_path / "data.txt"
        data.save(path)
        back = LabeledDataset.load(path)
        np.testing.assert_array_equal(back.inputs, data.inputs)
        np.testing.assert_array_equal(back.labels, data.labels)
        assert back.num_classes == 3 and back.kind == "sequence" and back.seed == 77

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), n=st.integers(0, 6), d=st.integers(1, 4), K=st.integers(2, 5),
           kind=st.sampled_from(("sequence", "target_iid")), seed=st.integers(0, 2 ** 64))
    def test_save_load_is_bit_exact(self, data, n, d, K, kind, seed):
        """Any finite inputs, signed zeros and subnormals included, and every
        header field survive save -> load bit for bit."""
        floats = st.floats(allow_nan=False, allow_infinity=False)
        X = np.array(data.draw(st.lists(floats, min_size=n * d, max_size=n * d)),
                     dtype=np.float64).reshape(n, d)
        y = np.array(data.draw(st.lists(st.integers(1, K), min_size=n, max_size=n)),
                     dtype=np.int64)
        ds = LabeledDataset(inputs=X, labels=y, num_classes=K, kind=kind, seed=seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.txt"
            ds.save(path)
            back = LabeledDataset.load(path)
        assert back.inputs.shape == X.shape and back.inputs.tobytes() == X.tobytes()
        assert back.labels.dtype == y.dtype and np.array_equal(back.labels, y)
        assert (back.num_classes, back.kind, back.seed) == (K, kind, seed)

    def test_load_rejects_rows_past_the_header_count(self, tmp_path):
        data = sample_sequence(discrete_spec(SYM09, [1.0, 0.0], 2), 3, seed=1)
        path = tmp_path / "data.txt"
        data.save(path)
        with open(path, "a", encoding="ascii") as fh:
            fh.write("1.0 2\n")
        with pytest.raises(ValueError, match="line 5"):
            LabeledDataset.load(path)

    def test_load_rejects_a_file_cut_short(self, tmp_path):
        """Three rows declared, two present, no final newline."""
        path = tmp_path / "data.txt"
        path.write_text("3 1 2 sequence 0\n0.5 1\n0.25 2", encoding="ascii")
        with pytest.raises(ValueError, match="missing line 4"):
            LabeledDataset.load(path)

    @pytest.mark.parametrize("text, message", [
        ("3 x 2 sequence 0\n", "line 1: d 'x'"),
        ("-1 1 2 sequence 0\n", "line 1: n '-1'"),
        ("2 1 2 sequence 0\n0.5 1\nabc 2\n", "line 3: input 'abc'"),
        ("2 1 2 sequence 0\n0.5 1\n0.25 1.5\n", "line 3: label '1.5'"),
        # past any array axis: named, never turned into an index
        (f"1 {10 ** 100} 2 sequence 0\n0.5 1\n", f"line 1: d '{10 ** 100}': not an integer in"),
    ], ids=["letter-d", "negative-n", "letter-input", "fractional-label", "huge-d"])
    def test_load_names_the_line_and_field(self, tmp_path, text, message):
        path = tmp_path / "data.txt"
        path.write_text(text, encoding="ascii")
        with pytest.raises(ValueError, match=message):
            LabeledDataset.load(path)

    def test_save_is_byte_stable(self, tmp_path):
        data = sample_sequence(discrete_spec(SYM09, [1.0, 0.0], 2), 20, seed=1)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        data.save(p1)
        data.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            LabeledDataset(inputs=np.zeros((2, 1)), labels=np.array([0, 1]),
                           num_classes=2, kind="sequence", seed=0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            LabeledDataset(inputs=np.zeros((2, 1)), labels=np.array([1, 1]),
                           num_classes=2, kind="mystery", seed=0)
