"""The input rules applied to the arguments of the public functions.

Each case is one public call with one malformed argument and the named error
it must raise. None of them may compute a value from the argument: strings
are not parsed, booleans are not numbers, floats are not truncated to
integers, and a misshapen array is never indexed into a raw IndexError.
"""

import itertools

import numpy as np
import pytest

from mixcert import (
    Activation,
    BadLabel,
    DimensionMismatch,
    EmissionSpec,
    FunctionClass,
    LabeledDataset,
    LayerNorms,
    MarkovSpec,
    MixingProfile,
    NetworkParams,
    NonpositiveGamma,
    ProcessSpec,
    brute_force_phi,
    combine_seeds,
    concentration_term,
    constant_class,
    covering_bound_terms,
    forward_batch,
    loss_class,
    margins_batch,
    mixing_profile,
    network_certificate,
    norm_2_1_of_transpose,
    ramp_loss,
    sample_sequence,
    sample_sequences_batch,
    sequence_value_means,
    spectral_norm,
    step_expectations,
    substream,
    table_class,
    theorem1_bound,
    validate_lemma3,
    validate_mcdiarmid,
    validate_ramp_dominance,
)
from mixcert._checks import _numbers

SPEC = ProcessSpec(
    markov=MarkovSpec(num_states=2, transition=[[0.9, 0.1], [0.1, 0.9]], initial=[1.0, 0.0]),
    emission=EmissionSpec.discrete(alphabet=[[0.0], [1.0]], table=np.eye(2)),
    label_map=(1, 2), num_classes=2, input_dim=1)
F_TABLE = [[1.0, 1.0], [0.0, 0.0]]
TABLES = table_class([[0.0], [1.0]], [np.eye(2)])
NET = NetworkParams(layers=(np.eye(2),), activations=(Activation("identity"),))
PROFILE = MixingProfile(horizon=5, phi=np.zeros(5), mu=np.zeros(5), delta_inf=1.0,
                        phi_exact=True, mu_exact=True)
NUMBERS = "must be a rectangular array of numbers"
SEED = "'seed' must be an integer >= 0"
OFF_ALPHABET = "input point is not an alphabet point"
TAGS = "'tags' must be an integer >= 0"


DRIFT = EmissionSpec.gaussian(means=[[1.0], [-1.0]], sigma=0.5, drift_means=[[0.0], [0.0]],
                              drift_amplitude=0.5)
TIMES = "'times' must be a 1-d sequence of integers >= 1"


def certificate(seed, gammas=(0.5,)):
    net = NetworkParams(layers=(np.ones((2, 1)),), activations=("identity",))
    return network_certificate(sample_sequence(SPEC, 20, 0), net, gammas,
                               mixing_profile(SPEC, 20), 0.05, seed=seed)[0]


def dataset(labels):
    return LabeledDataset(inputs=[[0.0], [1.0]], labels=labels, num_classes=2,
                          kind="sequence", seed=0)


CASES = {
    # arrays passed in, not stored: strings and booleans are not numbers
    "margins_batch string logits": (lambda: margins_batch([["1", "2"]], [1]), ValueError, NUMBERS),
    "ramp_loss string margins": (lambda: ramp_loss(np.array(["0.5"]), 1.0), ValueError, NUMBERS),
    "ramp_loss NaN margin": (lambda: ramp_loss(np.array([0.5, np.nan]), 1.0), ValueError,
                             "r must not be NaN"),
    "spectral_norm string matrix": (lambda: spectral_norm([["1", "2"]]), ValueError, NUMBERS),
    "norm_2_1 boolean matrix":
        (lambda: norm_2_1_of_transpose([[True, False]]), ValueError, NUMBERS),
    "forward_batch string inputs":
        (lambda: forward_batch(NET, [["1", "2"]]), ValueError, NUMBERS),
    "evaluate string inputs": (lambda: TABLES.evaluate([["0"]], [1]), ValueError, NUMBERS),
    # misshapen arrays are named, not indexed
    "margins_batch 1-d logits":
        (lambda: margins_batch([1.0, 2.0], [1]), DimensionMismatch, "logits must be a 2-d"),
    "margins_batch label count":
        (lambda: margins_batch([[1.0, 2.0]], [1, 2]), DimensionMismatch, r"labels must be \(1,\)"),
    "evaluate label count": (lambda: constant_class([0.5]).evaluate(np.zeros((2, 1)), [1]),
                             DimensionMismatch, r"labels must be \(2,\)"),
    # labels
    "boolean labels": (lambda: dataset([True, True]), BadLabel, "labels must be integers"),
    "ragged labels": (lambda: dataset([[1], [2, 1]]), BadLabel, "labels must be integers"),
    "label above a table's K":
        (lambda: TABLES.evaluate([[0.0]], [3]), BadLabel, r"labels must lie in 1\.\.2"),
    # times of a drifting law: integers >= 1, not parsed, rounded or powered into complex
    "rows_at string time": (lambda: DRIFT.rows_at(["4"]), ValueError, TIMES),
    "rows_at time 0": (lambda: DRIFT.rows_at([0]), ValueError, TIMES),
    "rows_at negative time": (lambda: DRIFT.rows_at([-1]), ValueError, TIMES),
    "rows_at float time": (lambda: DRIFT.rows_at([2.5]), ValueError, TIMES),
    "rows_at boolean time": (lambda: DRIFT.rows_at([True, 2]), ValueError, TIMES),
    "drift_weight string time": (lambda: DRIFT.drift_weight("4"), ValueError, "'t' must be"),
    "drift_weight time 0": (lambda: DRIFT.drift_weight(0), ValueError, "'t' must be"),
    "drift_weight negative time": (lambda: DRIFT.drift_weight(-1), ValueError, "'t' must be"),
    "drift_weight float time": (lambda: DRIFT.drift_weight(2.5), ValueError, "'t' must be"),
    "drift_weight boolean time": (lambda: DRIFT.drift_weight(True), ValueError, "'t' must be"),
    # the margin scales of a certificate: a non-empty 1-d array of positive numbers
    "certificate of no gammas": (lambda: certificate(0, ()), ValueError, "'gammas' must be"),
    "certificate of a scalar gamma":
        (lambda: certificate(0, 0.5), DimensionMismatch, "gammas must be a 1-d array"),
    "certificate of a zero gamma":
        (lambda: certificate(0, (0.5, 0.0)), NonpositiveGamma, "'gammas' must be"),
    "certificate of string gammas": (lambda: certificate(0, ["0.5"]), ValueError, NUMBERS),
    # seeds
    "float seed": (lambda: sample_sequences_batch(SPEC, 3, 2, 2.7), ValueError, SEED),
    "float seed folded": (lambda: combine_seeds(1.5, 2), ValueError, SEED),
    "string seed of a report": (lambda: certificate("abc"), ValueError, SEED),
    "boolean seed": (lambda: substream(True), ValueError, SEED),
    "negative seed": (lambda: substream(-1), ValueError, SEED),
    # stream tags: integers >= 0, not parsed or truncated onto another stream
    "string stream tag": (lambda: substream(0, "3"), ValueError, TAGS),
    "float stream tag": (lambda: substream(0, 2.7), ValueError, TAGS),
    "boolean stream tag": (lambda: substream(0, True), ValueError, TAGS),
    # counts
    "ramp sweep of no trials":
        (lambda: validate_ramp_dominance(trials=0, seed=0), ValueError, "'trials' must be"),
    "ramp sweep of negative trials":
        (lambda: validate_ramp_dominance(trials=-3, seed=0), ValueError, "'trials' must be"),
    "ramp sweep of fractional trials":
        (lambda: validate_ramp_dominance(trials=1.5, seed=0), ValueError, "'trials' must be"),
    "theorem1 string n": (lambda: theorem1_bound(0.1, 0.1, PROFILE, 0.05, n="5"),
                          ValueError, "'n' must be an integer >= 1"),
    "step_expectations float n":
        (lambda: step_expectations(SPEC, F_TABLE, 2.5), ValueError, "'n' must be"),
    "step_expectations boolean n":
        (lambda: step_expectations(SPEC, F_TABLE, True), ValueError, "'n' must be"),
    "lemma3 float n": (lambda: validate_lemma3(SPEC, F_TABLE, 2.5), ValueError, "'n' must be"),
    "brute_force_phi float k":
        (lambda: brute_force_phi(SPEC, 1.5, 1, 1), ValueError, "'k' must be"),
    "table means float n":
        (lambda: sequence_value_means(SPEC, F_TABLE, 2.5, 3, 0), ValueError, "'n' must be"),
    # reals
    "string epsilon": (lambda: validate_mcdiarmid(SPEC, F_TABLE, 5, 10, 0, epsilons=("0.1",)),
                       ValueError, "'epsilons' must be"),
    "no epsilons": (lambda: validate_mcdiarmid(SPEC, F_TABLE, 5, 10, 0, epsilons=()),
                    ValueError, "'epsilons' must be a non-empty"),
    "string constant": (lambda: constant_class(["0.5"]), ValueError, "'values' must be"),
    # finiteness is a real's own, at any width: a float32 infinity is not finite
    "float32 infinite dependence factor":
        (lambda: concentration_term(10, 0.05, np.float32("inf")), ValueError,
         "'delta_inf' must be a finite number >= 1"),
    # the members a class is built from: checked when the class is built
    "loss_class of a string": (lambda: loss_class("x", 1.0), TypeError,
                               r"params_list\[0\] must be a NetworkParams, not str"),
    "loss_class of None": (lambda: loss_class([NET, None], 1.0), TypeError,
                           r"params_list\[1\] must be a NetworkParams, not NoneType"),
    "loss_class of a number": (lambda: loss_class(5, 1.0), TypeError,
                               "params_list must be a sequence, not int"),
    "FunctionClass of a string": (lambda: FunctionClass(evaluators=("x",)), TypeError,
                                  r"evaluators\[0\] must be a Callable, not str"),
    # the objects the capacity term is computed from
    "covering bound of no norms": (lambda: covering_bound_terms(1.0, 0.5, 2, 10, None),
                                   TypeError, "norms must be a LayerNorms, not NoneType"),
    "layer norms of a weight list": (lambda: LayerNorms.from_params([np.eye(2)]), TypeError,
                                     "params must be a NetworkParams, not list"),
    # points looked up in a table class's alphabet: matched bitwise, never rounded
    "evaluate point off the alphabet": (lambda: TABLES.evaluate([[0.5]], [1]),
                                        ValueError, OFF_ALPHABET),
    "evaluate point of another dimension": (lambda: TABLES.evaluate([[0.0, 1.0]], [1]),
                                            ValueError, OFF_ALPHABET),
    "evaluate -0.0 against an alphabet 0.0": (lambda: TABLES.evaluate([[-0.0]], [1]),
                                              ValueError, OFF_ALPHABET),
    "table_class of zero-dimensional points":
        (lambda: table_class(np.zeros((2, 0)), [np.full((2, 2), 0.5)]), DimensionMismatch,
         "alphabet points need at least one coordinate"),
    # the values a caller's function returns
    "statistic above 1": (lambda: validate_mcdiarmid(SPEC, lambda X, y: 5.0 * (y == 1), 5, 10, 0),
                          ValueError, r"f left \[0, 1\]"),
    "statistic of strings":
        (lambda: sequence_value_means(SPEC, lambda X, y: np.full(len(y), "1"), 5, 10, 0),
         ValueError, NUMBERS),
    # f is applied one step at a time, to the `trials` points of that step
    "statistic of the wrong count":
        (lambda: sequence_value_means(SPEC, lambda X, y: np.zeros(len(y) + 1), 5, 10, 0),
         ValueError, "f returned 11 values for 10 points"),
    "statistic of NaN":
        (lambda: sequence_value_means(SPEC, lambda X, y: np.full(len(y), np.nan), 5, 10, 0),
         ValueError, r"f left \[0, 1\]"),
    # a class is one row per function, each of the step's `trials` points
    "class rows of the wrong count":
        (lambda: sequence_value_means(SPEC, lambda X, y: np.zeros((3, len(y) + 1)), 5, 10, 0),
         ValueError, r"f returned 33 values for 10 points \(shape \(3, 11\)\)"),
    "class values of three axes":
        (lambda: sequence_value_means(SPEC, lambda X, y: np.zeros((2, 1, len(y))), 5, 10, 0),
         ValueError, r"f returned 20 values for 10 points \(shape \(2, 1, 10\)\)"),
    "class rows that change between steps":
        (lambda: sequence_value_means(
            SPEC, lambda X, y, calls=itertools.count(1): np.zeros((next(calls), len(y))),
            5, 10, 0), ValueError, r"f returned shape \(2, 10\) at step 2, \(10,\) before"),
    "class rows from one member":
        (lambda: FunctionClass(evaluators=(lambda X, y: np.zeros((2, len(y))),)).evaluate(
            np.zeros((3, 1)), [1, 1, 1]), ValueError, "member 0 returned 2 rows"),
    "class rows for the tail validator":
        (lambda: validate_mcdiarmid(SPEC, lambda X, y: np.zeros((2, len(y))), 5, 10, 0),
         ValueError, "f returned 2 rows"),
}


@pytest.mark.parametrize("call, error, match", CASES.values(), ids=CASES.keys())
def test_malformed_argument_raises_its_named_error(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_a_float64_argument_is_not_copied():
    """Arrays a function only reads pass on their dtype alone, so the rules
    cost no copy on the hot paths."""
    a = np.zeros((3, 2))
    assert _numbers(a, "a", 2) is a
    assert _numbers(a, "a", 2, copy=True) is not a
