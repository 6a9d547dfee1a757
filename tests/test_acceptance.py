"""End-to-end acceptance checks.

Each test exercises one release criterion at its stated tolerance; the
terminal summary prints a PASS/FAIL line per criterion (see conftest).
The slow ones are the tail simulation and the twenty-seed certification
sweep; everything else runs in seconds.
"""

import os

import numpy as np

from mixcert import (
    Architecture,
    EmissionSpec,
    LayerNorms,
    MarkovSpec,
    MixingProfile,
    NetworkParams,
    ProcessSpec,
    TrainConfig,
    brute_force_phi,
    certification_run,
    covering_bound_terms,
    empirical_rademacher_exact,
    empirical_rademacher_mc,
    mixing_profile,
    network_certificate,
    phi_coefficient,
    sample_sequence,
    spectral_norm,
    table_class,
    constant_class,
    loss_class,
    train_sgd,
    validate_lemma3,
    validate_mcdiarmid,
    validate_ramp_dominance,
    validate_symmetrization,
)
from mixcert import norms
from mixcert.harness import ExperimentConfig, builtin_class, cmd_certify, cmd_generate, file_digest

from svd_reference import jacobi_singular_values

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def discrete_spec(P, pi0, S, input_dim=1, alphabet=None, table=None):
    if alphabet is None:
        alphabet = np.arange(S, dtype=float).reshape(S, 1)
        input_dim = 1
    return ProcessSpec(
        markov=MarkovSpec(num_states=S, transition=np.asarray(P, dtype=float),
                          initial=np.asarray(pi0, dtype=float)),
        emission=EmissionSpec.discrete(alphabet=np.asarray(alphabet, dtype=float),
                                       table=np.eye(S) if table is None else table),
        label_map=tuple(1 + (i % 2) for i in range(S)),
        num_classes=2, input_dim=input_dim)


def flat_profile(n):
    return MixingProfile(horizon=n, phi=np.zeros(n), mu=np.zeros(n),
                         delta_inf=1.0, phi_exact=True, mu_exact=True)


def test_c01_phi_matches_brute_force_enumeration():
    """Analytic mixing coefficients agree with literal cylinder enumeration
    to 1e-12 across twelve chains, k in {1,2,3}."""
    two_state = [
        ([[0.5, 0.5], [0.5, 0.5]], [0.5, 0.5]),
        ([[0.25, 0.75], [0.25, 0.75]], [0.25, 0.75]),
        ([[0.9, 0.1], [0.1, 0.9]], [0.5, 0.5]),
        ([[0.7, 0.3], [0.3, 0.7]], [0.5, 0.5]),
        ([[0.9, 0.1], [0.2, 0.8]], [1.0, 0.0]),
        ([[0.6, 0.4], [0.3, 0.7]], [0.0, 1.0]),
    ]
    three_state = [
        ([[1 / 3] * 3] * 3, [1 / 3] * 3),
        ([[0.6, 0.3, 0.1], [0.1, 0.6, 0.3], [0.3, 0.1, 0.6]], [1 / 3] * 3),
        ([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]], [1 / 3] * 3),
        ([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]], [1.0, 0.0, 0.0]),
        ([[0.7, 0.2, 0.1], [0.1, 0.7, 0.2], [0.2, 0.1, 0.7]], [0.0, 0.0, 1.0]),
        ([[0.2, 0.4, 0.4], [0.4, 0.2, 0.4], [0.4, 0.4, 0.2]], [1 / 3] * 3),
    ]
    worst = 0.0
    cases = 0
    for P, pi0 in two_state:
        spec = discrete_spec(P, pi0, 2)
        for k in (1, 2, 3):
            a = phi_coefficient(spec, k, horizon=4 + k + 3)
            b = brute_force_phi(spec, k, n_max=4, future_len=3)
            worst = max(worst, abs(a - b))
            cases += 1
    for P, pi0 in three_state:
        spec = discrete_spec(P, pi0, 3)
        for k in (1, 2, 3):
            a = phi_coefficient(spec, k, horizon=4 + k + 2)
            b = brute_force_phi(spec, k, n_max=4, future_len=2)
            worst = max(worst, abs(a - b))
            cases += 1
    assert cases == 36
    assert worst <= 1e-12, f"worst analytic/brute gap {worst}"


def test_c02_stationary_comparison_exact_on_discrete_specs():
    """Marginal-vs-stationary gap stays below the drift sequence with slack
    at most 1e-12 on ten-plus discrete specs, including the tight one."""
    sym09 = [[0.9, 0.1], [0.1, 0.9]]
    fast = [[0.9, 0.1], [0.2, 0.8]]
    asym = [[0.6, 0.4], [0.3, 0.7]]
    lazy3 = [[0.7, 0.2, 0.1], [0.1, 0.7, 0.2], [0.2, 0.1, 0.7]]
    sym3 = [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]
    state0 = np.zeros((2, 2))
    state0[0, :] = 1.0
    state0_3 = np.zeros((3, 2))
    state0_3[0, :] = 1.0
    mixed2 = np.array([[0.3, 0.7], [0.9, 0.1]])
    mixed3 = np.array([[0.3, 0.7], [0.9, 0.1], [0.5, 0.5]])
    cases = [
        (discrete_spec(sym09, [1.0, 0.0], 2), state0, True),  # gap == mu
        (discrete_spec(sym09, [1.0, 0.0], 2), mixed2, False),
        (discrete_spec(sym09, [0.5, 0.5], 2), mixed2, False),
        (discrete_spec(fast, [1.0, 0.0], 2), state0, False),
        (discrete_spec(fast, [1.0, 0.0], 2), np.full((2, 2), 0.25), False),
        (discrete_spec(asym, [0.0, 1.0], 2), state0, False),
        (discrete_spec([[0.5, 0.5], [0.5, 0.5]], [0.5, 0.5], 2), mixed2, False),
        (discrete_spec(sym3, [1.0, 0.0, 0.0], 3), state0_3, False),
        (discrete_spec(lazy3, [0.0, 0.0, 1.0], 3), mixed3, False),
        (discrete_spec(lazy3, [1 / 3] * 3, 3), state0_3, False),
        (discrete_spec([[1 / 3] * 3] * 3, [1 / 3] * 3, 3), mixed3, False),
        (discrete_spec([[0.7, 0.3], [0.3, 0.7]], [0.5, 0.5], 2), state0, False),
    ]
    assert len(cases) >= 10
    for spec, table, tight in cases:
        rep = validate_lemma3(spec, table, n=60)
        assert rep.passed
        assert rep.max_slack <= 1e-12
        if tight:
            np.testing.assert_allclose(rep.gaps, rep.mu, rtol=0, atol=1e-13)


def test_c03_tail_bounds_hold_and_negative_control_trips():
    """One hundred thousand simulated path means stay inside the dependent
    tail bound on three chains; an artificially shrunk dependence factor is
    caught."""
    def indicator(x, y):
        return np.where(x[..., 0] < 0.5, 1.0, 0.0)

    chains = {
        "iid": discrete_spec([[0.5, 0.5], [0.5, 0.5]], [0.5, 0.5], 2),
        "two_state_09": discrete_spec([[0.9, 0.1], [0.1, 0.9]], [1.0, 0.0], 2),
        "three_state": discrete_spec(
            [[0.7, 0.2, 0.1], [0.1, 0.7, 0.2], [0.2, 0.1, 0.7]],
            [0.0, 0.0, 1.0], 3),
    }
    for name, spec in chains.items():
        rep = validate_mcdiarmid(spec, indicator, n=50, trials=100000, seed=7)
        assert not rep.any_violation, f"{name}: frequencies {rep.frequencies!r} " \
                                      f"exceeded bounds {rep.bounds!r}"
    control = validate_mcdiarmid(chains["two_state_09"], indicator, n=50,
                                 trials=100000, seed=7, delta_inf=0.1)
    assert control.any_violation


def test_c04_symmetrization_holds_for_every_shipped_class():
    """Expected supremum deviation stays below twice the Rademacher side,
    within combined three-sigma, for each shipped class constructor."""
    spec = discrete_spec([[0.9, 0.1], [0.1, 0.9]], [1.0, 0.0], 2)
    alphabet = np.arange(2, dtype=float).reshape(2, 1)
    rng = np.random.default_rng(2)
    nets = []
    for _ in range(3):
        layers = (rng.normal(size=(3, 1)), rng.normal(size=(2, 3)))
        nets.append(NetworkParams(layers=tuple(np.asarray(l) for l in layers),
                                  activations=("relu", "identity")))
    classes = {
        "constants": constant_class((0.0, 0.25, 0.5, 0.75, 1.0)),
        "tables": table_class(alphabet, [np.eye(2), np.full((2, 2), 0.5),
                                         np.array([[0.1, 0.9], [0.8, 0.2]])]),
        "losses": loss_class(nets, gamma=1.0),
        "builtin": builtin_class(spec),
    }
    for name, fclass in classes.items():
        rep = validate_symmetrization(fclass, spec, n=8, trials=1000, seed=11)
        assert not rep.violation, f"{name}: lhs {rep.lhs_mean} rhs {rep.rhs_mean}"


def test_c05_ramp_dominates_zero_one_pointwise():
    """No random (score, label, gamma) triple has the zero-one indicator
    above the ramp loss of the negated margin."""
    rep = validate_ramp_dominance(trials=100000, seed=5)
    assert rep.trials == 100000
    assert rep.failures == 0


def test_c06_monte_carlo_complexity_tracks_exact_enumeration():
    """MC estimator lands within three standard errors of full sign
    enumeration for every shipped class on short paths."""
    spec = discrete_spec([[0.9, 0.1], [0.1, 0.9]], [0.5, 0.5], 2)
    data = sample_sequence(spec, 10, seed=3)
    alphabet = np.arange(2, dtype=float).reshape(2, 1)
    rng = np.random.default_rng(4)
    nets = [NetworkParams(layers=(rng.normal(size=(3, 1)), rng.normal(size=(2, 3))),
                          activations=("relu", "identity")) for _ in range(3)]
    classes = {
        "constants": constant_class((0.0, 0.5, 1.0)),
        "tables": table_class(alphabet, [np.eye(2), np.array([[0.2, 0.8], [0.6, 0.4]])]),
        "losses": loss_class(nets, gamma=0.5),
        "builtin": builtin_class(spec),
    }
    for name, fclass in classes.items():
        exact = empirical_rademacher_exact(fclass, data)
        mc = empirical_rademacher_mc(fclass, data, trials=20000, seed=9)
        gap = abs(mc.value - exact.value)
        assert gap <= 3.0 * mc.stderr or mc.stderr == 0.0, \
            f"{name}: exact {exact.value} mc {mc.value} stderr {mc.stderr}"


def test_c07_power_iteration_matches_jacobi_oracle(monkeypatch):
    """Largest singular value agrees with the one-sided Jacobi oracle to
    1e-9 relative on a hundred matrices per size, and scaling one layer
    rescales the capacity term's complexity exactly."""
    monkeypatch.setattr(norms, "_TOL", 1e-13)
    rng = np.random.default_rng(77)
    for size in (4, 16, 64):
        for _ in range(100):
            A = rng.normal(size=(size, size))
            ours = spectral_norm(A)
            oracle = jacobi_singular_values(A)[0]
            assert abs(ours - oracle) <= 1e-9 * oracle

    for c in (0.5, 3.0):
        for trial in range(10):
            layers = [rng.normal(size=(5, 4)), rng.normal(size=(3, 5)),
                      rng.normal(size=(2, 3))]
            base = covering_bound_terms(1.0, 1.0, 1, 2, LayerNorms.from_params(
                NetworkParams(layers=tuple(layers),
                              activations=("relu", "relu", "identity"))))[1]
            scaled_layers = list(layers)
            scaled_layers[trial % 3] = c * scaled_layers[trial % 3]
            scaled = covering_bound_terms(1.0, 1.0, 1, 2, LayerNorms.from_params(
                NetworkParams(layers=tuple(scaled_layers),
                              activations=("relu", "relu", "identity"))))[1]
            assert abs(scaled - c * base) <= 1e-9 * abs(c * base)


def test_c08_certified_bound_holds_across_twenty_seeds():
    """The full pipeline on the shipped drifted-process config produces a
    certificate that dominates the estimated target risk in at least 19 of
    20 seeds (looseness makes 20/20 the expected outcome)."""
    config = ExperimentConfig.load(os.path.join(CONFIG_DIR, "default.json"))
    assert len(config.seeds) == 20
    assert config.n_train == 2000 and config.delta == 0.05
    assert config.gamma_list == (0.5, 1.0)
    profile = mixing_profile(config.process, config.n_train)
    reports = [rep for seed in config.seeds
               for rep in certification_run(config.process, config.arch, config.train,
                                            profile, n_train=config.n_train,
                                            m_target=config.m_target,
                                            gamma_list=config.gamma_list,
                                            delta=config.delta, seed=seed)]
    assert len(reports) == 40
    held = sum(1 for seed in config.seeds
               if all(r.bound_holds for r in reports if r.seed == seed))
    assert held >= 19, f"bound held for only {held}/20 seeds"
    # Gaussian drifting emissions ship sound upper bounds, not exact values;
    # the certificate stays valid either way.
    for rep in reports:
        assert rep.total_bound >= rep.population_ramp_estimate - rep.population_halfwidth


def test_c09_iid_reduction_is_bit_exact():
    """With identically zero mixing terms the certificate equals the plain
    independent-data formula bit for bit."""
    spec = ProcessSpec(
        markov=MarkovSpec(num_states=2,
                          transition=np.array([[0.5, 0.5], [0.5, 0.5]]),
                          initial=np.array([0.5, 0.5])),
        emission=EmissionSpec.discrete(alphabet=np.array([[0.0, 1.0], [1.0, 0.0]]),
                                       table=np.eye(2)),
        label_map=(1, 2), num_classes=2, input_dim=2)
    n = 64
    natural = mixing_profile(spec, n)
    assert np.all(natural.phi == 0.0)
    assert np.all(natural.mu == 0.0)
    assert natural.delta_inf == 1.0

    data = sample_sequence(spec, n, seed=5)
    arch = Architecture(dims=(2, 8, 2), activations=("relu", "identity"))
    result = train_sgd(data, arch, TrainConfig(learning_rate=0.1, epochs=10,
                                               batch_size=16, seed=3))
    dependent = network_certificate(data, result.params, gammas=(1.0,),
                                    profile=natural, delta=0.05)[0]
    independent = network_certificate(data, result.params, gammas=(1.0,),
                                      profile=flat_profile(n), delta=0.05)[0]
    assert dependent.total_bound == independent.total_bound
    assert dependent.concentration_term == independent.concentration_term
    assert dependent.small_term == independent.small_term
    assert dependent.complexity_term == independent.complexity_term
    assert dependent.mu_mean == 0.0 == independent.mu_mean


def test_c10_pipeline_outputs_are_byte_identical_across_runs_and_jobs(tmp_path):
    """Dataset generation and certification rewrite the same bytes on a
    rerun, independent of the worker count."""
    config = ExperimentConfig.load(os.path.join(CONFIG_DIR, "small.json"))

    gen_digests = []
    for run in ("g1", "g2"):
        out = tmp_path / run
        paths = cmd_generate(config, out)
        gen_digests.append([(os.path.basename(p), file_digest(p)) for p in paths])
    assert gen_digests[0] == gen_digests[1]

    cert_digests = []
    for run, jobs in (("c1", 1), ("c2", 1), ("c8", 8)):
        out = tmp_path / run
        paths = cmd_certify(config, out, jobs=jobs)
        cert_digests.append([(os.path.basename(p), file_digest(p)) for p in paths])
    assert cert_digests[0] == cert_digests[1]
    assert cert_digests[0] == cert_digests[2]
