"""Certificate assembly and the four statistical validators.

Frozen reference values come from arbitrary-precision recomputation of the
displayed formulas; statistical checks use fixed seeds and three-sigma
envelopes.
"""

import math
import os
import tracemalloc

import numpy as np
import pytest

from mixcert import (
    Activation,
    Architecture,
    BadDelta,
    EmissionSpec,
    ExperimentConfig,
    FunctionClass,
    LabeledDataset,
    LayerNorms,
    MarkovSpec,
    MixingProfile,
    NetworkParams,
    NotDiscrete,
    ProcessSpec,
    TrainConfig,
    WrongKind,
    certification_run,
    concentration_term,
    constant_class,
    covering_bound_terms,
    empirical_rademacher_exact,
    mcdiarmid_tail_bound,
    mixing_profile,
    network_certificate,
    recompose_total,
    sample_sequence,
    sample_sequences_batch,
    sample_target,
    table_class,
    theorem1_bound,
    train_sgd,
    validate_lemma3,
    validate_mcdiarmid,
    validate_ramp_dominance,
    validate_symmetrization,
)
from mixcert import bounds
from mixcert.bounds import (_EXACT_SIGN_LIMIT, _MC_SIGNS, SymmetrizationReport,
                            _class_step_means, train_seed)
from mixcert.harness import builtin_class
from mixcert.network import dataset_margins, mean_ramp_loss
from mixcert.rademacher import _draw_signs, _exact_rademacher, _sign_sups
from mixcert.seeding import substream
from oracles import discrete_spec, flat_profile, random_spec

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

# empirical 0.2, complexity 0.05, mean drift 0.01, unit dependence factor,
# delta 0.05, n = 200
THEOREM1_REFERENCE = 0.59809683739597622805
# 2 exp(-2) and 2 exp(-4)
MCD_REFERENCE = 0.27067056647322538379
HOEFFDING_02 = 0.036631277777468360587
# 3 sqrt(ln(40) / 200) and twice the one-layer covering terms at n=100
CERT_CONCENTRATION = 0.40743045472218584955
CERT_COMPLEXITY = 183.8626980719825946268


class TestTheorem1Bound:
    def test_frozen_reference(self):
        prof = flat_profile(200, mu=0.01)
        v = theorem1_bound(0.2, 0.05, prof, 0.05, 200)
        assert v == pytest.approx(THEOREM1_REFERENCE, rel=1e-14)

    def test_iid_reduction(self):
        """Trivial profile leaves empirical + 2R + 3 sqrt(ln(2/d)/(2n))."""
        n = 128
        prof = flat_profile(n)
        v = theorem1_bound(0.1, 0.02, prof, 0.1, n)
        expect = 0.1 + 0.04 + 3 * np.sqrt(np.log(20.0) / (2 * n))
        assert v == pytest.approx(expect, rel=1e-14)

    def test_monotonicity(self):
        n = 100
        base = theorem1_bound(0.2, 0.05, flat_profile(n, mu=0.01), 0.05, n)
        assert theorem1_bound(0.3, 0.05, flat_profile(n, mu=0.01), 0.05, n) > base
        assert theorem1_bound(0.2, 0.06, flat_profile(n, mu=0.01), 0.05, n) > base
        assert theorem1_bound(0.2, 0.05, flat_profile(n, mu=0.02), 0.05, n) > base
        assert theorem1_bound(0.2, 0.05, flat_profile(n, 2.0, 0.01), 0.05, n) > base
        assert theorem1_bound(0.2, 0.05, flat_profile(n, mu=0.01), 0.2, n) < base

    def test_delta_to_one_approaches_empirical_floor(self):
        """As delta grows the tail term shrinks toward 3 sqrt(ln2/(2n))."""
        n = 100
        prev = None
        for delta in (0.05, 0.2, 0.5, 0.9, 0.999):
            v = theorem1_bound(0.2, 0.0, flat_profile(n), delta, n)
            if prev is not None:
                assert v < prev
            prev = v
        floor = 0.2 + 3 * np.sqrt(np.log(2.0) / (2 * n))
        assert prev > floor

    def test_bad_delta(self):
        prof = flat_profile(10)
        with pytest.raises(BadDelta):
            theorem1_bound(0.2, 0.05, prof, 0.0, 10)
        with pytest.raises(BadDelta):
            theorem1_bound(0.2, 0.05, prof, 1.0, 10)

    def test_rejects_out_of_range_empirical(self):
        with pytest.raises(ValueError):
            theorem1_bound(1.2, 0.05, flat_profile(10), 0.05, 10)

    @pytest.mark.parametrize("empirical, rademacher, key", [
        (math.nan, 0.05, "empirical"), (0.2, math.nan, "rademacher")])
    def test_rejects_nan_terms(self, empirical, rademacher, key):
        with pytest.raises(ValueError, match=f"'{key}' must be"):
            theorem1_bound(empirical, rademacher, flat_profile(10), 0.05, 10)


class TestMcDiarmidTailBound:
    def test_frozen_values(self):
        assert mcdiarmid_tail_bound(0.1, 100, 0.01, 1.0) == \
            pytest.approx(MCD_REFERENCE, rel=1e-14)
        assert mcdiarmid_tail_bound(0.2, 50, 0.02, 1.0) == \
            pytest.approx(HOEFFDING_02, rel=1e-14)

    def test_epsilon_to_zero_gives_two(self):
        assert mcdiarmid_tail_bound(1e-12, 100, 0.01, 1.0) == pytest.approx(2.0, abs=1e-9)

    def test_doubling_delta_quarters_exponent(self):
        import math
        b1 = mcdiarmid_tail_bound(0.1, 100, 0.01, 1.0)
        b2 = mcdiarmid_tail_bound(0.1, 100, 0.01, 2.0)
        assert math.log(b2 / 2) == pytest.approx(math.log(b1 / 2) / 4, rel=1e-12)

    def test_range(self):
        # eps = 10 underflows the exponential to an exact zero, which is fine
        for eps in (0.01, 0.1, 1.0, 10.0):
            v = mcdiarmid_tail_bound(eps, 50, 0.02, 1.5)
            assert 0.0 <= v <= 2.0

    @pytest.mark.parametrize("args, want", [
        ((0.1, 10, 1e-200, 1.0), 0.0),  # c ** 2 underflows to 0
        ((1e200, 10, 0.1, 1.0), 0.0),  # epsilon ** 2 overflows
        ((1e200, 10, 1e200, 1.0), 2.0 * math.exp(-0.2)),  # both do; the ratio is 0.2
        ((1e154, 10, 1e154, 1.0), 2.0 * math.exp(-0.2)),  # the denominator overflows
        ((1e-200, 10, 1e-200, 1.0), 2.0 * math.exp(-0.2)),  # both squares underflow
        ((0.1, 10 ** 400, 0.1, 1.0), 2.0),  # n is past every float
        ((0.1, 10, 1e-155, 1e155), 2.0 * math.exp(-0.002)),  # delta_inf ** 2 overflows
        ((1e-10, 10, 1e-160, 1e150), 2.0 * math.exp(-0.2))])  # c ** 2 is subnormal
    def test_ends_of_the_float_range(self, args, want):
        """No arithmetic error and no NaN at the ends of the float range:
        the value, rounded to its limit 0.0 or 2.0 where the exponent
        leaves the float range."""
        assert mcdiarmid_tail_bound(*args) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("key", ["epsilon", "c", "delta_inf"])
    def test_rejects_nan(self, key):
        args = dict(epsilon=0.1, n=100, c=0.01, delta_inf=1.0)
        with pytest.raises(ValueError, match=f"'{key}' must be a finite number > 0"):
            mcdiarmid_tail_bound(**{**args, key: math.nan})


class TestConcentrationTerm:
    def test_frozen_value(self):
        v = concentration_term(400, 0.05, 1.0)
        assert v == pytest.approx(0.20371522736109292477, rel=1e-14)

    def test_linear_in_delta_inf(self):
        assert concentration_term(100, 0.05, 3.0) == \
            pytest.approx(3 * concentration_term(100, 0.05, 1.0), rel=1e-15)

    def test_rejects_nan_delta_inf(self):
        with pytest.raises(ValueError, match="'delta_inf' must be a finite number >= 1"):
            concentration_term(10, 0.05, math.nan)

    @pytest.mark.parametrize("args, want", [
        ((10 ** 400, 0.05, 1.0), 3.0 * math.sqrt(math.log(40.0) / 2.0) * 1e-200),
        ((10, 0.05, 1e308), 3.0 * math.sqrt(math.log(40.0) / 20.0) * 1e308),
        ((10, 5e-324, 1.0), 3.0 * math.sqrt((math.log(2.0) - math.log(5e-324)) / 20.0)),
        ((1, 0.05, 1e308), math.inf)])
    def test_ends_of_the_float_range(self, args, want):
        """No arithmetic error at the ends of the float range: the value,
        and inf only where the value itself is past the float range."""
        assert concentration_term(*args) == pytest.approx(want, rel=1e-12)


NARROW_CALLS = {
    "concentration_term": (concentration_term, (np.int64(10), np.float32(0.05),
                                                np.float32(1.5))),
    "mcdiarmid_tail_bound": (mcdiarmid_tail_bound, (np.float32(0.1), np.int32(10),
                                                    np.float32(0.1), np.float32(1e-30))),
    "theorem1_bound": (theorem1_bound, (np.float32(0.1), np.float32(0.2), flat_profile(10),
                                        np.float32(0.05), np.int64(10))),
    "covering_bound_terms": (covering_bound_terms, (
        np.float32(3.0), np.float32(0.7), np.int16(4), np.uint8(10),
        LayerNorms(spectral=(2.0, 0.5), two_one=(1.5, 0.25)))),
}


@pytest.mark.parametrize("call, args", NARROW_CALLS.values(), ids=NARROW_CALLS.keys())
def test_bound_helpers_compute_in_python_floats(call, args):
    """A float32 or a narrow numpy integer argument is checked, then computed
    with as the Python number its check returns: the result is the float64
    call's, in Python floats, with no float32 step and no numpy warning."""
    wide = [float(a) if isinstance(a, np.floating) else int(a) if isinstance(a, np.integer)
            else a for a in args]
    got, want = call(*args), call(*wide)
    if not isinstance(got, tuple):  # covering_bound_terms returns its two terms
        got, want = (got,), (want,)
    assert [type(g) for g in got] == [float] * len(want) and got == want


class TestNetworkCertificate:
    def crafted(self, n=100):
        """Unit-norm rows make B = sqrt(n) exactly 10 at n = 100."""
        inputs = np.zeros((n, 2))
        inputs[:, 0] = 1.0
        labels = (1 + np.arange(n) % 2).astype(np.int64)
        return LabeledDataset(inputs=inputs, labels=labels, num_classes=2,
                              kind="sequence", seed=0)

    def one_layer(self):
        return NetworkParams(layers=(np.array([[2.0, 0.0], [0.0, 2.0]]),),
                             activations=(Activation("identity"),))

    def test_frozen_noncomplexity_terms(self):
        """At n=100, delta=0.05, trivial profile: concentration and small
        terms match the arbitrary-precision references."""
        rep = network_certificate(self.crafted(), self.one_layer(), gammas=(1.0,),
                                  profile=flat_profile(100), delta=0.05)[0]
        assert rep.concentration_term == pytest.approx(CERT_CONCENTRATION, rel=1e-14)
        assert rep.small_term == pytest.approx(0.008, rel=1e-15)
        assert rep.complexity_term == pytest.approx(CERT_COMPLEXITY, rel=1e-12)

    def test_total_recomposes(self):
        rep = network_certificate(self.crafted(), self.one_layer(), gammas=(1.0,),
                                  profile=flat_profile(100), delta=0.05)[0]
        assert recompose_total(rep) == rep.total_bound
        parts = (rep.empirical_ramp_loss + rep.mu_mean + rep.concentration_term
                 + rep.small_term + rep.complexity_term)
        assert rep.total_bound == pytest.approx(parts, rel=1e-12)

    def test_each_term_from_independent_pieces(self):
        """On configs/small.json's first seed, for a random network of its
        architecture, every term of each report equals the same quantity
        computed apart: mu_mean from a fresh profile's mu.mean(), the
        concentration and covering terms from their functions, the empirical
        ramp loss from the data's margins, and the total from the sum in its
        documented order, which theorem1_bound matches up to regrouping the
        two capacity addends."""
        config = ExperimentConfig.load(os.path.join(CONFIG_DIR, "small.json"))
        spec, seed, n, delta = config.process, config.seeds[0], config.n_train, config.delta
        rng = np.random.default_rng(18)
        dims = config.arch.dims
        params = NetworkParams(tuple(rng.standard_normal((b, a))
                                     for a, b in zip(dims[:-1], dims[1:])),
                               config.arch.activations)
        data = sample_sequence(spec, n, seed)
        reports = network_certificate(data, params, config.gamma_list, mixing_profile(spec, n),
                                      delta, seed=seed)
        profile = mixing_profile(spec, n)
        assert profile.mu.min() < profile.mu.mean() < profile.mu.max()
        mu_mean = float(profile.mu.mean())
        conc = concentration_term(n, delta, profile.delta_inf)
        norms = LayerNorms.from_params(params)
        B = float(np.sqrt((data.inputs ** 2).sum()))
        margins = dataset_margins(params, data)
        assert len(reports) == len(config.gamma_list)
        for gamma, rep in zip(config.gamma_list, reports):
            first, second = covering_bound_terms(B, gamma, params.width, n, norms)
            empirical = mean_ramp_loss(margins, gamma)
            assert rep.gamma == gamma and rep.n == n and rep.delta == delta
            assert rep.mu_mean == mu_mean
            assert rep.concentration_term == conc
            assert rep.small_term == 2.0 * first and rep.complexity_term == 2.0 * second
            assert rep.rademacher_term == first + second
            assert rep.empirical_ramp_loss == empirical
            assert rep.total_bound == empirical + mu_mean + conc + 2.0 * first + 2.0 * second
            assert rep.total_bound == pytest.approx(
                theorem1_bound(empirical, first + second, profile, delta, n), rel=1e-15)

    def test_bound_holds_within_one_halfwidth(self, monkeypatch):
        """bound_holds is total >= plug-in zero-one - halfwidth: with the
        total pinned at 0.25 and m = 1000 target points (halfwidth
        sqrt(ln(200) / 2000) = 0.0515), a target risk of 0.28 or 0.30 is
        cleared, and one of 0.33, within two halfwidths, or 0.40 is not."""
        total, m = 0.25, 1000
        monkeypatch.setattr("mixcert.bounds._theorem1_sum", lambda *terms: total)
        halfwidth = math.sqrt(math.log(2.0 / bounds._DELTA_EST) / (2.0 * m))
        inputs = np.zeros((m, 2))
        inputs[:, 0] = 1.0  # scored (2, 0): label 1 is right, label 2 wrong
        for errors, holds in ((280, True), (300, True), (330, False), (400, False)):
            assert (errors / m <= total + halfwidth) == holds
            labels = np.where(np.arange(m) < errors, 2, 1)
            target = LabeledDataset(inputs=inputs, labels=labels, num_classes=2,
                                    kind="target_iid", seed=0)
            rep = network_certificate(self.crafted(), self.one_layer(), gammas=(1.0,),
                                      profile=flat_profile(100), delta=0.05, target=target)[0]
            assert rep.total_bound == total
            assert rep.population_zero_one_estimate == errors / m
            assert rep.population_halfwidth == halfwidth
            assert rep.bound_holds is holds, errors

    def test_all_terms_nonnegative(self):
        rep = network_certificate(self.crafted(), self.one_layer(), gammas=(1.0,),
                                  profile=flat_profile(100), delta=0.05)[0]
        for term in (rep.empirical_ramp_loss, rep.mu_mean, rep.concentration_term,
                     rep.small_term, rep.complexity_term, rep.total_bound):
            assert term >= 0.0

    def test_complexity_term_is_twice_the_covering_second_term(self):
        from mixcert import covering_bound_terms, LayerNorms
        rep = network_certificate(self.crafted(), self.one_layer(), gammas=(1.0,),
                                  profile=flat_profile(100), delta=0.05)[0]
        norms = LayerNorms(spectral=(2.0,), two_one=(4.0,))
        first, second = covering_bound_terms(B=10.0, gamma=1.0, W=rep_width(self.one_layer()),
                                             n=100, norms=norms)
        assert rep.small_term == 2 * first
        assert rep.complexity_term == pytest.approx(2 * second, rel=1e-13)
        assert rep.rademacher_term == pytest.approx(first + second, rel=1e-13)
        assert rep.rademacher_source == "covering_bound"

    def test_gamma_halving_is_exact(self):
        data, params = self.crafted(), self.one_layer()
        r1 = network_certificate(data, params, gammas=(1.0,),
                                 profile=flat_profile(100), delta=0.05)[0]
        r2 = network_certificate(data, params, gammas=(0.5,),
                                 profile=flat_profile(100), delta=0.05)[0]
        assert r2.complexity_term == 2.0 * r1.complexity_term

    def test_zero_inputs_degenerate(self):
        data = LabeledDataset(inputs=np.zeros((64, 2)),
                              labels=(1 + np.arange(64) % 2).astype(np.int64),
                              num_classes=2, kind="sequence", seed=0)
        rep = network_certificate(data, self.one_layer(), gammas=(1.0,),
                                  profile=flat_profile(64), delta=0.05)[0]
        assert rep.complexity_term == 0.0
        assert rep.small_term == pytest.approx(8 / 64 ** 1.5, rel=1e-15)

    def test_zero_layer_certificate(self):
        """A network with a zero layer is the constant 0: its capacity term
        is the covering bound's first term alone. Every report value is
        pinned."""
        params = NetworkParams(
            layers=(np.array([[2.0, 0.0], [0.0, 2.0]]), np.zeros((3, 2)), np.ones((2, 3))),
            activations=("relu", "tanh", "identity"))
        target = LabeledDataset(inputs=np.ones((10, 2)), labels=np.ones(10, dtype=np.int64),
                                num_classes=2, kind="target_iid", seed=0)
        profile = MixingProfile(horizon=64, phi=np.zeros(64), mu=np.full(64, 0.01),
                                delta_inf=1.5, phi_exact=True, mu_exact=False)
        reports = network_certificate(self.crafted(64), params, (0.5, 2.0), profile, 0.05,
                                      target=target, seed=3)
        assert [r.to_json_dict() for r in reports] == [{
            "seed": 3, "gamma": gamma, "n": 64, "delta": 0.05, "empirical_ramp_loss": 1.0,
            "empirical_zero_one": 1.0, "rademacher_term": 0.0078125,
            "rademacher_source": "covering_bound", "mu_mean": 0.01,
            "concentration_term": 0.7639321026040985, "small_term": 0.015625,
            "complexity_term": 0.0, "total_bound": 1.7895571026040984,
            "population_ramp_estimate": 1.0, "population_zero_one_estimate": 1.0,
            "population_halfwidth": 0.5146997846583985, "bound_holds": True,
            "phi_exact": True, "mu_exact": False} for gamma in (0.5, 2.0)]

    def test_zero_weights_degenerate(self):
        params = NetworkParams(layers=(np.zeros((2, 2)),),
                               activations=(Activation("identity"),))
        rep = network_certificate(self.crafted(64), params, gammas=(1.0,),
                                  profile=flat_profile(64), delta=0.05)[0]
        assert rep.complexity_term == 0.0
        assert rep.empirical_ramp_loss == 1.0

    def test_rejects_target_kind(self):
        data = LabeledDataset(inputs=np.ones((10, 2)), labels=np.ones(10, dtype=np.int64),
                              num_classes=2, kind="target_iid", seed=0)
        with pytest.raises(WrongKind):
            network_certificate(data, self.one_layer(), gammas=(1.0,),
                                profile=flat_profile(10), delta=0.05)

    def test_rejects_horizon_mismatch(self):
        with pytest.raises(ValueError):
            network_certificate(self.crafted(50), self.one_layer(), gammas=(1.0,),
                                profile=flat_profile(49), delta=0.05)

    def test_report_serializes(self):
        rep = network_certificate(self.crafted(), self.one_layer(), gammas=(1.0,),
                                  profile=flat_profile(100), delta=0.05)[0]
        doc = rep.to_json_dict()
        for key in ("n", "gamma", "delta", "empirical_ramp_loss", "empirical_zero_one",
                    "rademacher_term", "rademacher_source", "mu_mean",
                    "concentration_term", "small_term", "complexity_term",
                    "total_bound", "phi_exact", "mu_exact", "bound_holds"):
            assert key in doc


def rep_width(params):
    return params.width


class TestIidReduction:
    def test_bit_identical_under_trivial_profile(self):
        """A kernel whose rows equal the start law yields an exactly trivial
        profile, and the certificate must equal the plain iid formula bit
        for bit."""
        spec = ProcessSpec(
            markov=MarkovSpec(num_states=2,
                              transition=np.array([[0.5, 0.5], [0.5, 0.5]]),
                              initial=np.array([0.5, 0.5])),
            emission=EmissionSpec.discrete(alphabet=np.array([[0.0, 1.0], [1.0, 0.0]]),
                                           table=np.eye(2)),
            label_map=(1, 2), num_classes=2, input_dim=2)
        n = 64
        natural = mixing_profile(spec, n)
        assert np.all(natural.phi == 0.0) and np.all(natural.mu == 0.0)
        assert natural.delta_inf == 1.0

        data = sample_sequence(spec, n, seed=5)
        arch = Architecture(dims=(2, 8, 2), activations=("relu", "identity"))
        res = train_sgd(data, arch, TrainConfig(learning_rate=0.1, epochs=10,
                                                batch_size=16, seed=3))
        a = network_certificate(data, res.params, gammas=(1.0,), profile=natural,
                                delta=0.05)[0]
        b = network_certificate(data, res.params, gammas=(1.0,), profile=flat_profile(n),
                                delta=0.05)[0]
        assert a.total_bound == b.total_bound
        assert a.concentration_term == b.concentration_term
        assert a.mu_mean == b.mu_mean == 0.0


class TestValidateMcdiarmid:
    def state_indicator(self):
        def f(x, y):
            return np.where(x[..., 0] < 0.5, 1.0, 0.0)
        return f

    def test_no_violations_on_mixing_chain(self):
        spec = discrete_spec([[0.9, 0.1], [0.1, 0.9]], [1.0, 0.0], 2)
        rep = validate_mcdiarmid(spec, self.state_indicator(), n=50, trials=20000, seed=7)
        assert not any(rep.violations)
        assert np.all(np.asarray(rep.bounds) > 0.0)
        assert np.all(np.asarray(rep.bounds) <= 2.0)

    def test_negative_control_flags(self):
        spec = discrete_spec([[0.9, 0.1], [0.1, 0.9]], [1.0, 0.0], 2)
        rep = validate_mcdiarmid(spec, self.state_indicator(), n=50, trials=20000,
                                 seed=7, delta_inf=0.1)
        assert any(rep.violations)

    def test_flags_at_three_standard_errors(self, monkeypatch):
        """A violation is a tail frequency more than 3 standard errors above
        the bound. With path means fixed by hand (a tenth of them at +-0.1
        around a center of 0, stderr 0.003) and delta_inf solved so that the
        bound at eps = 0.1 is 10 stderr below the frequency, exactly that eps
        is flagged: the frequency clears the bound by more than 3 stderr and
        by less than 30."""
        trials, n, eps = 10000, 300, 0.1
        means = np.zeros(trials)
        means[:500], means[500:1000] = 0.1, -0.1
        hit, stderr = 0.1, math.sqrt(0.1 * 0.9 / trials)
        target = hit - 10.0 * stderr
        # 2 exp(-2 eps**2 n / delta_inf**2) = target
        delta_inf = eps * math.sqrt(2.0 * n / math.log(2.0 / target))
        monkeypatch.setattr(bounds, "sequence_value_means", lambda *args: means)
        spec = discrete_spec([[0.9, 0.1], [0.1, 0.9]], [1.0, 0.0], 2)
        rep = validate_mcdiarmid(spec, self.state_indicator(), n=n, trials=trials, seed=0,
                                 epsilons=(1e-3, eps, 0.2), delta_inf=delta_inf)
        assert rep.frequencies == (hit, hit, 0.0)
        assert rep.stderrs[1] == stderr
        assert hit - 30.0 * stderr < rep.bounds[1] < hit - 3.0 * stderr
        assert rep.bounds[0] > hit
        assert rep.violations == (False, True, False)

    def test_constant_statistic_has_zero_tails(self):
        spec = discrete_spec([[0.5, 0.5], [0.5, 0.5]], [0.5, 0.5], 2)

        def const(x, y):
            return np.full(x.shape[:-1], 0.5)

        rep = validate_mcdiarmid(spec, const, n=20, trials=10000, seed=3)
        np.testing.assert_array_equal(rep.frequencies, 0.0)
        assert not any(rep.violations)

    def test_deterministic(self):
        spec = discrete_spec([[0.9, 0.1], [0.1, 0.9]], [0.5, 0.5], 2)
        r1 = validate_mcdiarmid(spec, self.state_indicator(), n=30, trials=10000, seed=5)
        r2 = validate_mcdiarmid(spec, self.state_indicator(), n=30, trials=10000, seed=5)
        np.testing.assert_array_equal(r1.frequencies, r2.frequencies)


    def test_rejects_a_class_valued_statistic(self):
        spec = discrete_spec([[0.9, 0.1], [0.1, 0.9]], [0.5, 0.5], 2)
        with pytest.raises(ValueError, match="f returned 2 rows"):
            validate_mcdiarmid(spec, lambda x, y: np.zeros((2, len(y))), n=5, trials=10,
                               seed=0)


class TestValidateLemma3:
    def test_tight_case_gap_equals_mu(self):
        """State-1 emission indicator on the symmetric chain started at a
        point mass: the per-step gap is exactly the marginal drift."""
        spec = discrete_spec([[0.9, 0.1], [0.1, 0.9]], [1.0, 0.0], 2)
        table = np.zeros((2, 2))
        table[0, :] = 1.0
        rep = validate_lemma3(spec, table, n=60)
        assert rep.passed
        np.testing.assert_allclose(rep.gaps, rep.mu, rtol=0, atol=1e-14)
        assert rep.max_slack <= 1e-12

    def test_rejects_a_nan_table(self):
        """A NaN value is an error, not a report of NaN gaps."""
        spec = discrete_spec([[0.9, 0.1], [0.1, 0.9]], [1.0, 0.0], 2)
        table = np.array([[math.nan, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="f_table must be finite"):
            validate_lemma3(spec, table, n=5)

    def test_constant_function_has_zero_gaps(self):
        spec = discrete_spec([[0.9, 0.1], [0.2, 0.8]], [1.0, 0.0], 2)
        table = np.full((2, 2), 0.25)
        rep = validate_lemma3(spec, table, n=40)
        assert rep.passed
        np.testing.assert_allclose(rep.gaps, 0.0, atol=1e-15)

    def test_stationary_start_has_zero_gaps(self):
        spec = discrete_spec([[0.5, 0.5], [0.5, 0.5]], [0.5, 0.5], 2)
        table = np.array([[1.0, 0.0], [0.0, 1.0]])
        rep = validate_lemma3(spec, table, n=30)
        assert rep.passed
        np.testing.assert_allclose(rep.gaps, 0.0, atol=1e-15)

    def test_averaged_form_holds(self):
        spec = discrete_spec([[0.9, 0.1], [0.1, 0.9]], [1.0, 0.0], 2)
        table = np.zeros((2, 2))
        table[0, :] = 1.0
        rep = validate_lemma3(spec, table, n=25)
        assert rep.avg_gap <= rep.mu_mean + 1e-12

    def test_rejects_gaussian_emissions(self):
        spec = ProcessSpec(
            markov=MarkovSpec(num_states=2,
                              transition=np.array([[0.9, 0.1], [0.1, 0.9]]),
                              initial=np.array([1.0, 0.0])),
            emission=EmissionSpec.gaussian(means=np.array([[1.0], [-1.0]]), sigma=0.5),
            label_map=(1, 2), num_classes=2, input_dim=1)
        with pytest.raises(NotDiscrete):
            validate_lemma3(spec, np.zeros((2, 2)), n=10)


class TestValidateSymmetrization:
    def test_no_violation_on_builtin_class(self):
        spec = discrete_spec([[0.9, 0.1], [0.1, 0.9]], [1.0, 0.0], 2)
        rep = validate_symmetrization(builtin_class(spec), spec, n=8,
                                      trials=1500, seed=11)
        assert not rep.violation
        assert rep.lhs_mean - 3 * rep.lhs_stderr <= rep.rhs_mean + 3 * rep.rhs_stderr

    def test_singleton_class_lhs_near_zero(self):
        from mixcert import constant_class
        spec = discrete_spec([[0.5, 0.5], [0.5, 0.5]], [0.5, 0.5], 2)
        rep = validate_symmetrization(constant_class([0.5]), spec, n=6,
                                      trials=1200, seed=4)
        assert abs(rep.lhs_mean) <= 3 * rep.lhs_stderr + 1e-12
        assert rep.rhs_mean >= -1e-12

    def test_deterministic(self):
        spec = discrete_spec([[0.9, 0.1], [0.1, 0.9]], [0.5, 0.5], 2)
        cls = builtin_class(spec)
        r1 = validate_symmetrization(cls, spec, n=6, trials=1000, seed=2)
        r2 = validate_symmetrization(cls, spec, n=6, trials=1000, seed=2)
        assert r1.lhs_mean == r2.lhs_mean and r1.rhs_mean == r2.rhs_mean

    def test_monte_carlo_signs_past_the_exact_limit(self):
        """Past n = 12 the rhs samples signs per path. The run passes, reruns
        are bit-identical, and the rhs agrees with twice the mean exact
        complexity of the very same paths."""
        spec = discrete_spec([[0.9, 0.1], [0.1, 0.9]], [0.5, 0.5], 2)
        cls = builtin_class(spec)
        n, trials, seed = 13, 200, 3
        rep = validate_symmetrization(cls, spec, n=n, trials=trials, seed=seed)
        assert rep.signs_method == "monte_carlo"
        assert not rep.violation
        again = validate_symmetrization(cls, spec, n=n, trials=trials, seed=seed)
        assert again.to_json_dict() == rep.to_json_dict()
        X, Y = sample_sequences_batch(spec, n, trials, seed)
        exact = [empirical_rademacher_exact(cls, LabeledDataset(
            inputs=X[t], labels=Y[t], num_classes=2, kind="sequence", seed=seed)).value
            for t in range(trials)]
        assert abs(rep.rhs_mean - 2.0 * float(np.mean(exact))) <= 3.0 * rep.rhs_stderr


def whole_array_symmetrization(fclass, spec, n, trials, seed):
    """The symmetrization validator with every path's class values held at
    once: one `evaluate` over all paths, then `_exact_rademacher` on all of
    them or the per-path Monte Carlo loop."""
    X, Y = sample_sequences_batch(spec, n, trials, seed)
    F = fclass.evaluate(X.reshape(-1, spec.input_dim), Y.reshape(-1))
    F = F.reshape(fclass.size, trials, n)
    centers = _class_step_means(fclass, spec, n, seed, trials)
    lhs_vals = (F.mean(axis=2) - centers[:, None]).max(axis=0)
    if n <= _EXACT_SIGN_LIMIT:
        method, rhat = "exact", _exact_rademacher(F)
    else:
        rng = substream(seed, 3)
        method, rhat = "monte_carlo", np.array([
            float(_sign_sups(F[:, t:t + 1], _draw_signs(rng, _MC_SIGNS, n))[0].mean()) / n
            for t in range(trials)])
    rhs_vals = 2.0 * rhat
    lhs_mean, rhs_mean = float(lhs_vals.mean()), float(rhs_vals.mean())
    lhs_stderr = float(lhs_vals.std(ddof=1) / math.sqrt(trials))
    rhs_stderr = float(rhs_vals.std(ddof=1) / math.sqrt(trials))
    return SymmetrizationReport(
        n=n, trials=trials, class_size=fclass.size, lhs_mean=lhs_mean,
        lhs_stderr=lhs_stderr, rhs_mean=rhs_mean, rhs_stderr=rhs_stderr,
        signs_method=method,
        violation=bool(lhs_mean - 3.0 * lhs_stderr > rhs_mean + 3.0 * rhs_stderr))


class TestSymmetrizationBlocks:
    """The validator evaluates the class one block of paths at a time and
    enumerates the blocks' distinct paths in one call; every field of its
    report equals the whole-array validator's."""

    @staticmethod
    def random_case(rng, mode, members):
        """A random 2-4 state spec of the given emission mode without drift
        (`random_spec`), and a class of `members` random [0, 1]-valued
        functions on it: random float value tables over the alphabet
        (`table_class`) for a discrete spec, elementwise functions of the
        point and label for a Gaussian one."""
        spec = random_spec(rng, int(rng.integers(2, 5)), mode, "none")
        if mode == "discrete":
            shape = (spec.emission.alphabet.shape[0], spec.num_classes)
            return spec, table_class(spec.emission.alphabet,
                                     [rng.random(shape) for _ in range(members)])

        def make(a, b):
            return lambda X, y: (np.abs(X).sum(axis=1) * a + y * b) % 1.0
        return spec, FunctionClass(evaluators=tuple(
            make(*rng.uniform(0.1, 3.0, size=2)) for _ in range(members)))

    @pytest.mark.parametrize("mode", ["discrete", "gaussian"])
    @pytest.mark.parametrize("block", [1, 2, 3, None])
    def test_blocks_equal_the_whole_array(self, monkeypatch, block, mode):
        """n in {1, 6, 12} (exact signs) and {13, 14} (Monte Carlo signs),
        classes of 1, 2 and 6 members, and trial counts on both sides of one
        and of several blocks. The default block runs each trial count at
        one n, cycled over the five, to keep its 12,000-path runs short."""
        if block is not None:
            monkeypatch.setattr(bounds, "_SYMMETRIZATION_BLOCK", block)
        b = bounds._SYMMETRIZATION_BLOCK
        ns = (1, 6, 12, 13, 14)
        rng = np.random.default_rng([b, mode == "gaussian"])
        cases = 0
        for i, trials in enumerate((2, 3, b - 1, b, b + 1, 3 * b + 5)):
            if trials < 2:
                continue
            for j, members in enumerate((1, 2, 6)):
                spec, fclass = self.random_case(rng, mode, members)
                seed = int(rng.integers(0, 2 ** 31))
                for n in ns if block is not None else (ns[(i + j) % len(ns)],):
                    got = validate_symmetrization(fclass, spec, n, trials, seed)
                    want = whole_array_symmetrization(fclass, spec, n, trials, seed)
                    assert got.to_json_dict() == want.to_json_dict(), (trials, members, n)
                    cases += 1
        assert cases >= 18

    def test_memory_is_bounded_in_trials_and_members(self):
        """Beyond the paths X and Y, the validator holds a few floats per
        path, one block of class values with the temporaries of `evaluate`,
        and one block of the sign enumeration, never the class values of
        every path. On a chain with at most 2**6 distinct paths each block
        keeps few of them, so the peak above X and Y stays under one budget
        from 2 to 8 members and from 20,000 to 80,000 trials (three blocks
        of 8 members' values and four floats per path at 80,000), and below
        one copy of all class values."""
        spec = discrete_spec([[0.9, 0.1], [0.1, 0.9]], [1.0, 0.0], 2)
        n = 6
        validate_symmetrization(constant_class([0.0, 1.0]), spec, n, 2, 0)  # lazy imports
        budget = (3 * 8 * bounds._SYMMETRIZATION_BLOCK * n + 4 * 80_000) * 8
        for members in (2, 8):
            fclass = constant_class(np.linspace(0.0, 1.0, members))
            for trials in (20_000, 80_000):
                X, Y = sample_sequences_batch(spec, n, trials, 0)
                tracemalloc.start()
                try:
                    validate_symmetrization(fclass, spec, n, trials, 0)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                above = peak - X.nbytes - Y.nbytes
                assert above < budget, (members, trials, above / budget)
                assert above < members * trials * n * 8, (members, trials)


class TestClassStepMeans:
    """The process means a Gaussian chain's symmetrization check centers on:
    one walk that evaluates the whole class per step."""

    SPEC = ProcessSpec(
        markov=MarkovSpec(num_states=3, transition=np.array(
            [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.2, 0.2, 0.6]]),
            initial=np.array([1.0, 0.0, 0.0])),
        emission=EmissionSpec.gaussian(
            np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]), 0.5,
            drift_means=np.zeros((3, 2)), drift_amplitude=0.5, drift_exponent=0.5),
        label_map=(1, 2, 2), num_classes=2, input_dim=2)

    def test_members_are_averaged_over_the_same_paths(self):
        cls = builtin_class(self.SPEC)  # constants 0, 0.5, 1 and one indicator per label
        means = _class_step_means(cls, self.SPEC, 20, 3, 500)
        assert means.shape == (5,)
        np.testing.assert_array_equal(means[:3], [0.0, 0.5, 1.0])
        assert means[3] + means[4] == pytest.approx(1.0, abs=1e-12)

    def test_one_member_class(self):
        means = _class_step_means(constant_class([0.5]), self.SPEC, 7, 3, 40)
        np.testing.assert_array_equal(means, [0.5])

    def test_memory_is_bounded_in_n(self):
        """Running totals of (members, trials) values and the (n, S, d) law
        stack, never a (trials, n, d) batch of paths or its class values."""
        cls = builtin_class(self.SPEC)
        n, trials = 800, 2000
        # a first call imports modules lazily, about 0.7 MB that no size changes
        _class_step_means(cls, self.SPEC, 2, 0, 2)
        tracemalloc.start()
        try:
            _class_step_means(cls, self.SPEC, n, 0, trials)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stack = n * self.SPEC.markov.num_states * self.SPEC.input_dim * 8
        assert peak < (32 + 4 * cls.size) * trials * 8 + stack


class TestValidateRampDominance:
    def test_clean_run(self):
        rep = validate_ramp_dominance(trials=20000, seed=5)
        assert rep.failures == 0
        assert rep.trials == 20000

    def test_deterministic(self):
        a = validate_ramp_dominance(trials=5000, seed=9)
        b = validate_ramp_dominance(trials=5000, seed=9)
        assert a.failures == b.failures == 0


class TestCertificationRun:
    def drift_spec(self):
        return ProcessSpec(
            markov=MarkovSpec(num_states=2,
                              transition=np.array([[0.9, 0.1], [0.1, 0.9]]),
                              initial=np.array([1.0, 0.0])),
            emission=EmissionSpec.gaussian(means=np.array([[1.0, 1.0], [-1.0, -1.0]]),
                                           sigma=0.5,
                                           drift_means=np.array([[1.0, -1.0], [-1.0, 1.0]]),
                                           drift_amplitude=0.5, drift_exponent=0.5),
            label_map=(1, 2), num_classes=2, input_dim=2)

    def test_reports_per_gamma_share_training(self):
        spec = self.drift_spec()
        n = 300
        prof = mixing_profile(spec, n)
        arch = Architecture(dims=(2, 8, 2), activations=("relu", "identity"))
        cfg = TrainConfig(learning_rate=0.05, epochs=10, batch_size=32, seed=1)
        reports = certification_run(spec, arch, cfg, prof, n_train=n, m_target=2000,
                                    gamma_list=(0.5, 1.0), delta=0.05, seed=21)
        assert len(reports) == 2
        r05, r10 = reports
        assert r05.gamma == 0.5 and r10.gamma == 1.0
        assert r05.empirical_zero_one == r10.empirical_zero_one
        assert r05.complexity_term == 2.0 * r10.complexity_term
        for r in reports:
            assert r.bound_holds in (True, False)
            assert r.population_halfwidth > 0.0

    def test_shared_margins_equal_a_certificate_of_its_own(self):
        """One certificate call runs the network once and reads its margins
        at every gamma; each report of a two-gamma call equals, field by
        field, the report of a one-gamma call, and certification_run returns
        the two-gamma call's reports."""
        spec = self.drift_spec()
        n = 200
        prof = mixing_profile(spec, n)
        arch = Architecture(dims=(2, 8, 2), activations=("relu", "identity"))
        cfg = TrainConfig(learning_rate=0.05, epochs=5, batch_size=32, seed=1)
        for seed in (4, 5):
            data, result = train_seed(spec, arch, cfg, n, seed)
            target = sample_target(spec, 1000, seed)
            reports = network_certificate(data, result.params, (0.5, 1.0), prof, 0.05,
                                          target=target, seed=seed)
            assert len(reports) == 2
            for rep, gamma in zip(reports, (0.5, 1.0)):
                alone = network_certificate(data, result.params, (gamma,), prof, 0.05,
                                            target=target, seed=seed)[0]
                assert rep.to_json_dict() == alone.to_json_dict()
            run = certification_run(spec, arch, cfg, prof, n_train=n, m_target=1000,
                                    gamma_list=(0.5, 1.0), delta=0.05, seed=seed)
            assert [r.to_json_dict() for r in run] == [r.to_json_dict() for r in reports]

    def test_zero_epochs_trivial_bound(self):
        """An untrained network near zero scores everything at margin about
        zero, so the ramp loss saturates and the certificate exceeds one."""
        spec = self.drift_spec()
        n = 100
        prof = mixing_profile(spec, n)
        arch = Architecture(dims=(2, 4, 2), activations=("relu", "identity"))
        cfg = TrainConfig(learning_rate=0.05, epochs=0, batch_size=32, seed=1,
                          init_scale=1e-6)
        reports = certification_run(spec, arch, cfg, prof, n_train=n, m_target=1000,
                                    gamma_list=(1.0,), delta=0.05, seed=3)
        rep = reports[0]
        assert rep.empirical_ramp_loss > 0.99
        assert rep.total_bound >= 1.0
        assert rep.bound_holds

    def test_run_certification_loops_seeds(self):
        spec = self.drift_spec()
        arch = Architecture(dims=(2, 8, 2), activations=("relu", "identity"))
        cfg = TrainConfig(learning_rate=0.05, epochs=5, batch_size=32, seed=1)
        prof = mixing_profile(spec, 200)
        reports = [rep for seed in (4, 5)
                   for rep in certification_run(spec, arch, cfg, prof, n_train=200,
                                                m_target=1000, gamma_list=(1.0,),
                                                delta=0.05, seed=seed)]
        assert len(reports) == 2
        assert reports[0].seed == 4 and reports[1].seed == 5
        assert reports[0].total_bound != reports[1].total_bound
