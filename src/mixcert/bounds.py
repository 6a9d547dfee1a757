"""Certificates and desk-scale validators for the dependent-data bounds.

The master inequality bounds the stationary risk of a predictor trained on
one path of a mixing process by four observable pieces: empirical loss,
a complexity term (twice a Rademacher bound), the average marginal drift
mu_bar, and a concentration term scaled by the dependence factor
delta_inf = 1 + 2 * sum_k phi(k). `_theorem1_sum` is the one sum of those
pieces: `network_certificate` assembles the network instantiation of the
inequality from layer norms, `theorem1_bound` is the generic form for a
caller-supplied complexity, and `recompose_total` re-adds a stored report.

Every supporting step has a validator that checks it empirically on
processes whose mixing structure is exactly computable:

* `validate_mcdiarmid`   tail of the path mean vs the dependent-data bound;
* `validate_lemma3`      per-step expectation gaps vs the drift mu_i;
* `validate_symmetrization` deviation of empirical means vs twice the
  expected conditional Rademacher complexity;
* `validate_ramp_dominance` pointwise zero-one <= ramp domination.

Validators return report objects that serialize to JSON documents.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from ._checks import (_as_float, _as_floats, _as_int, _in_logs, _instance, _normal,
                      _one_function)
from .errors import BadDelta, DimensionMismatch, EmptyDataset, NonpositiveGamma, WrongKind
from .network import (
    Architecture,
    NetworkParams,
    TrainConfig,
    TrainResult,
    _row_max,
    dataset_margins,
    error_rate,
    margins_batch,
    mean_ramp_loss,
    ramp_loss,
    train_sgd,
)
from .norms import LayerNorms
from .process import (
    KIND_SEQUENCE,
    KIND_TARGET,
    LabeledDataset,
    MixingProfile,
    ProcessSpec,
    mixing_profile,
    sample_sequence,
    sample_sequences_batch,
    sample_target,
    sequence_value_means,
    stationary_expectation,
    step_expectations,
)
from .rademacher import (
    FunctionClass,
    _distinct_paths,
    _draw_signs,
    _exact_rademacher,
    _sign_sups,
    covering_bound_terms,
)
from .seeding import _CENTERS, _RAMP, _SYMMETRIZATION, combine_seeds, substream

SOURCE_COVERING = "covering_bound"

_EXACT_SIGN_LIMIT = 12  # symmetrization enumerates all signs up to this n
_MC_SIGNS = 256  # sign draws per path beyond it
_SYMMETRIZATION_BLOCK = 4096  # sampled paths per block of class values
_MAX_CLASSES = 5  # the ramp-dominance sweep draws K from 2.._MAX_CLASSES
_MCDIARMID_EPSILONS = (0.02, 0.05, 0.1, 0.2, 0.3)  # tail deviations validate_mcdiarmid checks
_LEMMA3_TOL = 1e-12  # rounding validate_lemma3 forgives in its exact comparison
_DELTA_EST = 0.01  # confidence of the plug-in population estimate


def _check_delta(delta: float) -> float:
    return _as_float(delta, "delta", 0.0, 1.0, error=BadDelta)


def concentration_term(n: int, delta: float, delta_inf: float) -> float:
    """3 * delta_inf * sqrt(ln(2/delta) / (2n)).

    No arithmetic error for any arguments the checks accept, the rule of
    every bound helper: the form is evaluated as written while the powers
    and products in it are normal floats (`_normal`), and in logs otherwise
    (`_in_logs`), so the result is the value, rounded to 0.0 or inf only
    where it leaves the float range."""
    delta = _check_delta(delta)
    n = _as_int(n, "n", 1)
    delta_inf = _as_float(delta_inf, "delta_inf", 1.0, closed=True)
    try:
        scale, ratio, twice_n = 3.0 * delta_inf, 2.0 / delta, 2.0 * n
        quotient = math.log(ratio) / twice_n
        if _normal(scale, ratio, twice_n, quotient):
            return scale * math.sqrt(quotient)
    except OverflowError:  # n past every float
        pass
    return _in_logs(3.0, (delta_inf, 1.0), (math.log(2.0) - math.log(delta), 0.5),
                    (2.0, -0.5), (n, -0.5))


def _theorem1_sum(empirical: float, mu_mean: float, concentration: float,
                  *capacity: float) -> float:
    """The bound's one sum: empirical + mu_mean + concentration, then the
    capacity terms from left to right."""
    total = empirical + mu_mean + concentration
    for term in capacity:
        total += term
    return total


def theorem1_bound(empirical: float, rademacher: float, profile: MixingProfile,
                   delta: float, n: int) -> float:
    """Generic risk bound: empirical + mean(mu) + concentration + 2 * rademacher."""
    delta = _check_delta(delta)
    if _as_int(n, "n", 1) != profile.horizon:
        raise DimensionMismatch(f"profile horizon {profile.horizon} != n {n}")
    empirical = _as_float(empirical, "empirical", 0.0, 1.0, closed=True)
    rademacher = _as_float(rademacher, "rademacher", 0.0, closed=True)
    return _theorem1_sum(empirical, float(profile.mu.mean()),
                         concentration_term(n, delta, profile.delta_inf),
                         2.0 * rademacher)


def mcdiarmid_tail_bound(epsilon: float, n: int, c: float, delta_inf: float) -> float:
    """Two-sided dependent-data bounded-differences tail:
    2 * exp(-2 eps**2 / (n c**2 delta_inf**2)) for per-coordinate range c.

    No arithmetic error for any arguments the checks accept, by the rule of
    `concentration_term`: the exponent is evaluated as written while its
    squares and products are normal floats, and in logs otherwise, so the
    result is the value, rounded to its limit 0.0 or 2.0 at the ends of the
    float range."""
    epsilon, c, delta_inf = (_as_float(value, key, 0.0) for key, value in (
        ("epsilon", epsilon), ("c", c), ("delta_inf", delta_inf)))
    n = _as_int(n, "n", 1)
    try:
        num, c2, d2 = -2.0 * epsilon ** 2, c ** 2, delta_inf ** 2
        den = n * c2 * d2
        if _normal(num, c2, d2, den):
            return 2.0 * math.exp(num / den)
    except OverflowError:  # a square past the float range, or n past every float
        pass
    return 2.0 * math.exp(-_in_logs(2.0, (epsilon, 2.0), (n, -1.0), (c, -2.0),
                                    (delta_inf, -2.0)))


class _Report:
    """Reports serialize field by field; write_json sorts the keys and
    dumps tuples as lists."""

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(kw_only=True)
class BoundReport(_Report):
    """Every term of one certificate, plus the plug-in ground truth.

    total_bound is `_theorem1_sum` of empirical_ramp_loss, mu_mean,
    concentration_term, small_term and complexity_term, in that order; the
    last two are twice the two covering-bound addends, whose sum is
    rademacher_term. rademacher_source names that bound. The fields are
    keyword-only, and their order is the column order of summary.csv.
    """

    seed: int | None = None
    gamma: float
    n: int
    delta: float
    empirical_ramp_loss: float
    empirical_zero_one: float
    rademacher_term: float
    rademacher_source: str
    mu_mean: float
    concentration_term: float
    small_term: float
    complexity_term: float
    total_bound: float
    population_ramp_estimate: float | None = None
    population_zero_one_estimate: float | None = None
    population_halfwidth: float | None = None
    bound_holds: bool | None = None
    phi_exact: bool
    mu_exact: bool


def recompose_total(report: BoundReport) -> float:
    """Recompute total_bound from the stored terms through the same
    `_theorem1_sum` that produced it, so the two agree exactly."""
    return _theorem1_sum(report.empirical_ramp_loss, report.mu_mean,
                         report.concentration_term, report.small_term,
                         report.complexity_term)


def network_certificate(data: LabeledDataset, params: NetworkParams, gammas,
                        profile: MixingProfile, delta: float,
                        target: LabeledDataset | None = None,
                        seed: int | None = None) -> list:
    """The network risk certificates of one trained predictor: one
    BoundReport per margin scale in `gammas`, in order.

    Only the ramp losses and the covering terms depend on gamma, so the
    layer norms, B, the concentration term and the margins are computed once.
    The capacity term is `covering_bound_terms` at B = the total input
    energy sqrt(sum ||x_i||^2), W = the largest layer axis, and the layer
    norms: small_term and complexity_term are its two addends doubled
    (exactly), rademacher_term is the addends' sum, and a network with a
    zero layer gets complexity_term 0. When `target`, an iid target sample,
    is given, plug-in stationary losses on it are attached with the
    two-sided Hoeffding half-width sqrt(ln(2/_DELTA_EST) / (2m)), and
    bound_holds records whether the certificate clears the plug-in zero-one
    estimate minus that half-width. Memory: each margin pass holds its
    (m, d_L) scores and a few floats per point, plus one `forward_batch`
    row block of 2 x 4096 x width floats, whatever m is.
    """
    data = _instance(data, "data", LabeledDataset)
    params = _instance(params, "params", NetworkParams)
    profile = _instance(profile, "profile", MixingProfile)
    if data.kind != KIND_SEQUENCE:
        raise WrongKind("certificates are issued for sequence datasets")
    n = data.n
    if n != profile.horizon:
        raise DimensionMismatch(f"profile horizon {profile.horizon} != n {n}")
    _as_int(n, "n", 2)
    _check_delta(delta)
    gammas = _as_floats(gammas, "gammas", 0.0, error=NonpositiveGamma)
    seed = seed if seed is None else _as_int(seed, "seed", 0)
    if target is not None:
        if target.kind != KIND_TARGET:
            raise WrongKind(f"population estimates need a {KIND_TARGET!r} dataset")
        m = _as_int(target.n, "n", 1, EmptyDataset)
        target_margins = dataset_margins(params, target)
        target_zero_one = error_rate(target_margins)
        halfwidth = math.sqrt(math.log(2.0 / _DELTA_EST) / (2.0 * m))
    norms = LayerNorms.from_params(params)
    B = float(np.sqrt((data.inputs ** 2).sum()))
    conc = concentration_term(n, delta, profile.delta_inf)
    train_margins = dataset_margins(params, data)
    zero_one = error_rate(train_margins)
    mu_mean = float(profile.mu.mean())
    reports = []
    for gamma in gammas:
        first, second = covering_bound_terms(B, gamma, params.width, n, norms)
        small = 2.0 * first
        complexity = 2.0 * second
        rademacher_term = first + second
        empirical = mean_ramp_loss(train_margins, gamma)
        total = _theorem1_sum(empirical, mu_mean, conc, small, complexity)
        report = BoundReport(
            n=n, gamma=gamma, delta=float(delta),
            empirical_ramp_loss=empirical,
            empirical_zero_one=zero_one,
            rademacher_term=rademacher_term,
            rademacher_source=SOURCE_COVERING,
            mu_mean=mu_mean,
            concentration_term=conc,
            small_term=small,
            complexity_term=complexity,
            total_bound=total,
            phi_exact=profile.phi_exact,
            mu_exact=profile.mu_exact,
            seed=seed,
        )
        if target is not None:
            report.population_ramp_estimate = mean_ramp_loss(target_margins, gamma)
            report.population_zero_one_estimate = target_zero_one
            report.population_halfwidth = halfwidth
            report.bound_holds = bool(total >= target_zero_one - halfwidth)
        reports.append(report)
    return reports


@dataclass
class TailReport(_Report):
    """Empirical tail of the path mean against the analytic bound."""

    n: int
    trials: int
    delta_inf: float
    epsilons: tuple
    frequencies: tuple
    stderrs: tuple
    bounds: tuple
    violations: tuple


def validate_mcdiarmid(spec: ProcessSpec, f, n: int, trials: int, seed: int,
                       epsilons: tuple = _MCDIARMID_EPSILONS,
                       delta_inf: float | None = None) -> TailReport:
    """Simulate the path mean (1/n) sum f(Z_i) and compare its two-sided
    tails around the grand mean with the dependent-data bound at
    per-coordinate range c = 1/n.

    `f` is a value table over (alphabet point, label) for discrete
    emissions, or any vectorized callable into [0, 1]. Passing `delta_inf`
    overrides the profile's dependence factor (a deliberately corrupted
    value is the negative control: the bound turns false and violations
    should be flagged).
    """
    _as_int(trials, "trials", 2)
    epsilons = _as_floats(epsilons, "epsilons", 0.0)
    if delta_inf is None:
        delta_inf = mixing_profile(spec, n).delta_inf
    means = _one_function(sequence_value_means(spec, f, n, trials, seed), "f")
    center = float(means.mean())
    freqs, errs, bnds, flags = [], [], [], []
    for eps in epsilons:
        hit = float(np.mean(np.abs(means - center) >= eps))
        stderr = math.sqrt(hit * (1.0 - hit) / trials)
        bound = mcdiarmid_tail_bound(eps, n, 1.0 / n, delta_inf)
        freqs.append(hit)
        errs.append(stderr)
        bnds.append(bound)
        flags.append(bool(hit - 3.0 * stderr > bound))
    return TailReport(n=n, trials=trials, delta_inf=float(delta_inf),
                      epsilons=epsilons,
                      frequencies=tuple(freqs), stderrs=tuple(errs),
                      bounds=tuple(bnds), violations=tuple(flags))


@dataclass
class Lemma3Report(_Report):
    """Exact per-step expectation gaps against the drift sequence."""

    n: int
    gaps: tuple
    mu: tuple
    max_slack: float
    avg_gap: float
    mu_mean: float
    tol: float
    passed: bool


def validate_lemma3(spec: ProcessSpec, f_table, n: int) -> Lemma3Report:
    """Check |E f(Z_i) - E_stationary f| <= mu_i for every i <= n, and the
    averaged version, with both sides computed exactly (discrete emissions
    only). The slack reported is max_i (gap_i - mu_i)."""
    spec = _instance(spec, "spec", ProcessSpec)
    per_step = step_expectations(spec, f_table, n)
    limit = stationary_expectation(spec, f_table)
    profile = mixing_profile(spec, n)
    gaps = np.abs(per_step - limit)
    slack = float((gaps - profile.mu).max())
    avg_gap = float(abs(per_step.mean() - limit))
    mu_mean = float(profile.mu.mean())
    passed = bool(slack <= _LEMMA3_TOL and avg_gap <= mu_mean + _LEMMA3_TOL)
    return Lemma3Report(n=n, gaps=tuple(float(g) for g in gaps),
                        mu=tuple(float(m) for m in profile.mu),
                        max_slack=slack, avg_gap=avg_gap, mu_mean=mu_mean,
                        tol=_LEMMA3_TOL, passed=passed)


@dataclass
class SymmetrizationReport(_Report):
    """Monte Carlo check of the symmetrization inequality."""

    n: int
    trials: int
    class_size: int
    lhs_mean: float
    lhs_stderr: float
    rhs_mean: float
    rhs_stderr: float
    signs_method: str
    violation: bool


def _class_step_means(fclass: FunctionClass, spec: ProcessSpec, n: int,
                      seed: int, trials: int) -> np.ndarray:
    """Per-member process means (1/n) sum_i E f(Z_i).

    Exact via value tables on the finite support for discrete emissions;
    otherwise estimated from independent paths (the extra noise only biases
    the check toward flagging, never toward passing): one
    `sequence_value_means` walk evaluates the whole class per step, so it
    holds the (members, trials) running totals and no batch of paths."""
    if spec.emission.mode == "discrete":
        alphabet = spec.emission.alphabet
        # (members, M, K): each member's value table over (alphabet point, label)
        tables = np.stack([fclass.evaluate(alphabet, np.full(alphabet.shape[0], y))
                           for y in range(1, spec.num_classes + 1)], axis=2)
        return np.array([float(step_expectations(spec, tab, n).mean()) for tab in tables])
    means = sequence_value_means(spec, fclass.evaluate, n, trials, combine_seeds(seed, _CENTERS))
    return means.reshape(fclass.size, trials).mean(axis=1)  # a one-member class comes flat


def validate_symmetrization(fclass: FunctionClass, spec: ProcessSpec, n: int,
                            trials: int, seed: int) -> SymmetrizationReport:
    """Estimate both sides of the symmetrization step over `trials` paths.

    lhs: E sup_f [(1/n) sum_i f(Z_i) - (1/n) sum_i E f(Z_i)];
    rhs: 2 E R_hat, the conditional complexity averaged over paths, with
    signs enumerated exactly when n <= _EXACT_SIGN_LIMIT and _MC_SIGNS sign
    vectors sampled independently per path otherwise. Flags a violation
    when the lhs exceeds the rhs beyond combined 3-stderr bands.

    The class is evaluated on _SYMMETRIZATION_BLOCK paths at a time, and
    Monte Carlo signs are drawn per path, in path order. For exact signs
    each block keeps only its distinct paths (`_distinct_paths`, the
    grouping `_exact_rademacher` uses; the block itself when none
    repeats), and one `_exact_rademacher` call on their concatenation, once
    the paths are freed, gives every path its value: the concatenation
    lists each distinct path first at its earliest trial, so the sign
    kernel enumerates the distinct paths of the whole sample in the same
    order, and gives the same bits, as on all paths at once. So a sample
    with few distinct paths never holds the class values of all paths;
    where every path is distinct (values that vary with continuous inputs)
    the kept values are all of them, held beside the paths by the end of
    the loop and twice while the blocks are joined.
    """
    fclass = _instance(fclass, "fclass", FunctionClass)
    spec = _instance(spec, "spec", ProcessSpec)
    _as_int(trials, "trials", 2)
    X, Y = sample_sequences_batch(spec, n, trials, seed)
    centers = _class_step_means(fclass, spec, n, seed, trials)
    exact = n <= _EXACT_SIGN_LIMIT
    rng = substream(seed, _SYMMETRIZATION)
    lhs_vals = np.empty(trials)
    rhat = np.empty(trials)  # filled per path with Monte Carlo signs
    column = np.empty(trials, dtype=np.int64)  # each path's place among the kept paths
    kept, count = [], 0
    for start in range(0, trials, _SYMMETRIZATION_BLOCK):
        stop = min(start + _SYMMETRIZATION_BLOCK, trials)
        F = fclass.evaluate(X[start:stop].reshape(-1, spec.input_dim), Y[start:stop].reshape(-1))
        F = F.reshape(fclass.size, stop - start, n)
        lhs_vals[start:stop] = (F.mean(axis=2) - centers[:, None]).max(axis=0)
        if exact:
            group, first = _distinct_paths(F)
            kept.append(F if first.size == stop - start else F[:, first])
            column[start:stop] = count + group
            count += first.size
        else:
            for t in range(stop - start):
                sups = _sign_sups(F[:, t:t + 1], _draw_signs(rng, _MC_SIGNS, n))
                rhat[start + t] = float(sups[0].mean()) / n
        del F  # before the next block's values are made
    del X, Y  # the enumeration needs only the kept paths' values
    if exact:
        F = np.concatenate(kept, axis=1)
        del kept
        rhat = _exact_rademacher(F)[column]
    rhs_vals = 2.0 * rhat

    lhs_mean = float(lhs_vals.mean())
    lhs_stderr = float(lhs_vals.std(ddof=1) / math.sqrt(trials))
    rhs_mean = float(rhs_vals.mean())
    rhs_stderr = float(rhs_vals.std(ddof=1) / math.sqrt(trials))
    violation = bool(lhs_mean - 3.0 * lhs_stderr > rhs_mean + 3.0 * rhs_stderr)
    return SymmetrizationReport(n=n, trials=trials, class_size=fclass.size,
                                lhs_mean=lhs_mean, lhs_stderr=lhs_stderr,
                                rhs_mean=rhs_mean, rhs_stderr=rhs_stderr,
                                signs_method="exact" if exact else "monte_carlo",
                                violation=violation)


@dataclass
class RampDominanceReport(_Report):
    trials: int
    failures: int


def validate_ramp_dominance(trials: int, seed: int) -> RampDominanceReport:
    """Random sweep of the pointwise domination: the zero-one indicator
    (argmax error, ties counted as errors) never exceeds the ramp loss of
    the negated margin, for any score vector, label, and gamma."""
    _as_int(trials, "trials", 1)
    rng = substream(seed, _RAMP)
    failures = 0
    done = 0
    while done < trials:
        batch = min(trials - done, 20000)
        K = int(rng.integers(2, _MAX_CLASSES + 1))
        scale = 10.0 ** rng.uniform(-2.0, 2.0)
        logits = rng.standard_normal((batch, K)) * scale
        ties = rng.random(batch) < 0.1
        labels = rng.integers(1, K + 1, size=batch)
        # force exact argmax ties on a slice so the boundary case is exercised
        idx = np.where(ties)[0]
        top = _row_max(logits[idx])
        logits[idx, labels[idx] - 1] = top
        gamma = float(10.0 ** rng.uniform(-2.0, 1.0))
        margins = margins_batch(logits, labels)
        indicator = (margins <= 0.0).astype(np.float64)
        ramp = ramp_loss(-margins, gamma)
        failures += int((indicator > ramp).sum())
        done += batch
    return RampDominanceReport(trials=done, failures=failures)


def train_seed(spec: ProcessSpec, arch: Architecture, train_config: TrainConfig,
               n_train: int, seed: int) -> tuple[LabeledDataset, TrainResult]:
    """Sample the seed's training path and train on it, with the config's
    training seed folded with `seed`."""
    data = sample_sequence(spec, n_train, seed)
    cfg = replace(train_config, seed=combine_seeds(train_config.seed, seed))
    return data, train_sgd(data, arch, cfg)


def certification_run(spec: ProcessSpec, arch: Architecture, train_config: TrainConfig,
                      profile: MixingProfile, n_train: int, m_target: int,
                      gamma_list, delta: float, seed: int) -> list:
    """Sample, train, and certify one seed across every gamma. A wrong
    object in the spec, arch, train_config or profile slot is a TypeError
    naming that slot."""
    spec = _instance(spec, "spec", ProcessSpec)
    arch = _instance(arch, "arch", Architecture)
    train_config = _instance(train_config, "train_config", TrainConfig)
    profile = _instance(profile, "profile", MixingProfile)
    data, result = train_seed(spec, arch, train_config, n_train, seed)
    target = sample_target(spec, m_target, seed)
    return network_certificate(data, result.params, gamma_list, profile, delta,
                               target=target, seed=seed)
