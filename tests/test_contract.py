"""The input contract of the public entry points, as one property.

Every scalar or array argument of every exported function (and of
`FunctionClass.evaluate`), given a value of any of seventeen odd kinds while
its other arguments stay valid, is either accepted or rejected with a
ValueError subclass whose message names that argument. Object arguments
(spec, params, dataset, class) are not varied. No count is ever large: a
valid huge count, such as `validate_ramp_dominance(10**30, 0)`, runs without
end, so every number drawn here is small.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from mixcert import (
    Activation,
    Architecture,
    EmissionSpec,
    LayerNorms,
    MarkovSpec,
    NetworkParams,
    ProcessSpec,
    TrainConfig,
    brute_force_phi,
    certification_run,
    combine_seeds,
    concentration_term,
    constant_class,
    covering_bound_terms,
    empirical_rademacher_mc,
    forward,
    forward_batch,
    loss_class,
    margin,
    margins_batch,
    mcdiarmid_tail_bound,
    mixing_profile,
    mu_at,
    network_certificate,
    norm_2_1_of_transpose,
    phi_coefficient,
    ramp_loss,
    sample_sequence,
    sample_sequences_batch,
    sample_target,
    sequence_value_means,
    spectral_norm,
    stationary_expectation,
    step_expectations,
    substream,
    table_class,
    theorem1_bound,
    validate_lemma3,
    validate_mcdiarmid,
    validate_ramp_dominance,
    validate_symmetrization,
)

SPEC = ProcessSpec(
    markov=MarkovSpec(num_states=2, transition=[[0.9, 0.1], [0.1, 0.9]], initial=[1.0, 0.0]),
    emission=EmissionSpec.discrete(alphabet=[[0.0], [1.0]], table=np.eye(2)),
    label_map=(1, 2), num_classes=2, input_dim=1)
F_TABLE = [[1.0, 1.0], [0.0, 0.0]]
NET = NetworkParams(layers=(np.eye(2),), activations=(Activation("identity"),))
WIDE = NetworkParams(layers=(np.ones((2, 1)),), activations=(Activation("identity"),))
DATA = sample_sequence(SPEC, 5, 0)
PROFILE = mixing_profile(SPEC, 5)
TABLES = table_class([[0.0], [1.0]], [np.eye(2)])
CONSTANTS = constant_class([0.0, 1.0])

# The odd value kinds. Each is a strategy whose simplest value is the one
# named; the others are of the same kind and as small.
SMALL = st.floats(-4.0, 4.0)
KINDS = {
    "string": st.text(max_size=3),
    "string array": st.lists(st.text(max_size=2), min_size=1, max_size=3),
    "true": st.just(True),
    "none": st.none(),
    "nan": st.just(math.nan),
    "inf": st.sampled_from([math.inf, -math.inf]),
    "-1": st.integers(-5, -1),
    "0": st.just(0),
    "-0.0": st.just(-0.0),
    "2.5": st.floats(0.0, 4.0).filter(lambda x: x != int(x)),
    "empty list": st.just([]),
    "ragged list": st.integers(1, 3).map(lambda k: [[0.5] * k, [0.5] * (k + 1)]),
    "two floats": st.lists(SMALL, min_size=2, max_size=2),
    "empty (0, 2) array": st.just(np.zeros((0, 2))),
    "3-d array": st.tuples(st.integers(1, 2), st.integers(1, 2), st.integers(1, 2), SMALL)
    .map(lambda a: np.full(a[:3], a[3])),
    "dict": st.dictionaries(st.text(max_size=2), SMALL, max_size=2),
    "float32": st.floats(0.0, 4.0, width=32).map(np.float32),
}

# entry point -> (call, its valid arguments, {varied argument: other names
# its error may use}). An argument passed on to an inner function, or to the
# batch form of a one-row view, may be named by that function's name for it;
# a count that disagrees with another argument's may be named by that one.
ENTRIES = {
    "brute_force_phi": (brute_force_phi, dict(spec=SPEC, k=1, n_max=3, future_len=1), {}),
    "certification_run": (
        certification_run,
        dict(spec=SPEC, arch=Architecture(dims=(1, 2), activations=("identity",)),
             train_config=TrainConfig(learning_rate=0.1, epochs=1, batch_size=4, seed=0),
             profile=PROFILE, n_train=5, m_target=4, gamma_list=(0.5,), delta=0.05, seed=0),
        {"n_train": ("n",), "m_target": ("m", "n"), "gamma_list": ("gammas",)}),
    "combine_seeds": (combine_seeds, dict(a=1, b=2), {"a": ("seed",), "b": ("seed",)}),
    "concentration_term": (concentration_term, dict(n=10, delta=0.05, delta_inf=1.5), {}),
    "constant_class": (constant_class, dict(values=[0.5]), {}),
    "covering_bound_terms": (
        covering_bound_terms,
        dict(B=1.0, gamma=0.5, W=2, n=10, norms=LayerNorms.from_params(NET)), {}),
    "empirical_rademacher_mc": (
        empirical_rademacher_mc, dict(fclass=CONSTANTS, data=DATA, trials=100, seed=0), {}),
    "forward": (forward, dict(params=NET, x=[0.5, 0.5]), {"x": ("inputs",)}),
    "forward_batch": (forward_batch, dict(params=NET, X=[[0.5, 0.5]]), {"X": ("inputs",)}),
    "loss_class": (loss_class, dict(params_list=[NET], gamma=0.5), {}),
    "margin": (margin, dict(v=[0.1, 0.2], j=1), {"v": ("logits",), "j": ("labels",)}),
    "margins_batch": (margins_batch, dict(logits=[[1.0, 2.0]], labels=[1]),
                      {"logits": ("labels",)}),
    "mcdiarmid_tail_bound": (
        mcdiarmid_tail_bound, dict(epsilon=0.1, n=10, c=0.1, delta_inf=1.5), {}),
    "mixing_profile": (mixing_profile, dict(spec=SPEC, n=5), {}),
    "mu_at": (mu_at, dict(spec=SPEC, i=2), {}),
    "network_certificate": (
        network_certificate,
        dict(data=DATA, params=WIDE, gammas=(0.5,), profile=PROFILE, delta=0.05, seed=0), {}),
    "norm_2_1_of_transpose": (norm_2_1_of_transpose, dict(A=[[1.0, 2.0]]), {}),
    "phi_coefficient": (phi_coefficient, dict(spec=SPEC, k=1, horizon=5), {}),
    "ramp_loss": (ramp_loss, dict(r=[0.5], gamma=1.0), {}),
    "sample_sequence": (sample_sequence, dict(spec=SPEC, n=5, seed=0), {}),
    "sample_sequences_batch": (
        sample_sequences_batch, dict(spec=SPEC, n=3, trials=2, seed=0), {}),
    "sample_target": (sample_target, dict(spec=SPEC, m=5, seed=0), {}),
    "sequence_value_means": (
        sequence_value_means, dict(spec=SPEC, f=F_TABLE, n=3, trials=4, seed=0), {}),
    "spectral_norm": (spectral_norm, dict(A=[[1.0, 2.0]]), {}),
    "stationary_expectation": (stationary_expectation, dict(spec=SPEC, f_table=F_TABLE), {}),
    "step_expectations": (step_expectations, dict(spec=SPEC, f_table=F_TABLE, n=3), {}),
    "substream": (lambda seed, tag: substream(seed, tag), dict(seed=0, tag=1),
                  {"tag": ("tags",)}),
    "table_class": (table_class, dict(alphabet=[[0.0], [1.0]], tables=[np.eye(2)]),
                    {"tables": ("table",)}),
    "theorem1_bound": (
        theorem1_bound,
        dict(empirical=0.1, rademacher=0.1, profile=PROFILE, delta=0.05, n=5), {}),
    "validate_lemma3": (validate_lemma3, dict(spec=SPEC, f_table=F_TABLE, n=3), {}),
    "validate_mcdiarmid": (
        validate_mcdiarmid,
        dict(spec=SPEC, f=F_TABLE, n=3, trials=10, seed=0, epsilons=(0.1,), delta_inf=None),
        {}),
    "validate_ramp_dominance": (validate_ramp_dominance, dict(trials=10, seed=0), {}),
    "validate_symmetrization": (
        validate_symmetrization, dict(fclass=CONSTANTS, spec=SPEC, n=3, trials=4, seed=0), {}),
    "FunctionClass.evaluate": (TABLES.evaluate, dict(inputs=[[0.0]], labels=[1]),
                               {"inputs": ("labels",)}),
}
OBJECTS = (ProcessSpec, NetworkParams, LayerNorms, Architecture, TrainConfig,
           type(DATA), type(PROFILE), type(CONSTANTS))


def varied(args: dict) -> list:
    """The scalar and array arguments of a call: every one but the objects."""
    return [key for key, value in args.items()
            if not isinstance(value, OBJECTS) and key != "params_list"]


@pytest.mark.parametrize("entry", ENTRIES)
# Every example calls each entry point once per argument and kind, so a
# failing one is reported as found, without shrinking.
@settings(max_examples=4, deadline=None, derandomize=True, phases=[Phase.generate],
          report_multiple_bugs=False, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_rejected_value_raises_a_value_error_naming_its_argument(entry, data):
    call, args, aliases = ENTRIES[entry]
    for key in varied(args):
        for kind, values in KINDS.items():
            value = data.draw(values, label=f"{key} <- {kind}")
            try:
                call(**dict(args, **{key: value}))
            except ValueError as exc:
                names = (key,) + aliases.get(key, ())
                assert any(name in str(exc) for name in names), (key, kind, str(exc))
