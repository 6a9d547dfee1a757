"""The input contract of the public entry points, config documents and
data files, as three properties.

Every scalar or array argument of every exported function (and of
`FunctionClass.evaluate`), given a value of any of seventeen odd kinds while
its other arguments stay valid, is either accepted or rejected with a
ValueError subclass whose message names that argument. Object arguments
(spec, params, dataset, class) are not varied there; instead each object
slot of `train_sgd`, `certification_run`, `mixing_profile`,
`sample_sequence`, `network_certificate`, `forward_batch`,
`validate_lemma3` and `validate_symmetrization`, given a wrong object,
raises a TypeError that names the slot. No count passed to a function
is ever large: a valid huge count, such as `validate_ramp_dominance(10**30,
0)`, runs without end, so every number drawn for a call is small.

Every leaf of every shipped config, given a value of each odd kind or
deleted, either loads or is rejected with a ValueError or TypeError that
names its key; loading runs nothing, so a huge count is one of the kinds
there. Every cut, header-token swap, dropped line and duplicated line of a
data file and a weights file either loads or is rejected with a ValueError
that names a line.
"""

import copy
import itertools
import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from mixcert import (
    Activation,
    Architecture,
    EmissionSpec,
    ExperimentConfig,
    LabeledDataset,
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
    forward_batch,
    loss_class,
    main,
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
    train_sgd,
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
ARCH = Architecture(dims=(1, 2), activations=("identity",))
TRAIN = TrainConfig(learning_rate=0.1, epochs=1, batch_size=4, seed=0)

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
# its error may use}). An argument passed on to an inner function may be
# named by that function's name for it; a count that disagrees with another
# argument's may be named by that one.
ENTRIES = {
    "brute_force_phi": (brute_force_phi, dict(spec=SPEC, k=1, n_max=3, future_len=1), {}),
    "certification_run": (
        certification_run,
        dict(spec=SPEC, arch=ARCH, train_config=TRAIN, profile=PROFILE, n_train=5, m_target=4,
             gamma_list=(0.5,), delta=0.05, seed=0),
        {"n_train": ("n",), "m_target": ("m", "n"), "gamma_list": ("gammas",)}),
    "combine_seeds": (combine_seeds, dict(a=1, b=2), {"a": ("seed",), "b": ("seed",)}),
    "concentration_term": (concentration_term, dict(n=10, delta=0.05, delta_inf=1.5), {}),
    "constant_class": (constant_class, dict(values=[0.5]), {}),
    "covering_bound_terms": (
        covering_bound_terms,
        dict(B=1.0, gamma=0.5, W=2, n=10, norms=LayerNorms.from_params(NET)), {}),
    "empirical_rademacher_mc": (
        empirical_rademacher_mc, dict(fclass=CONSTANTS, data=DATA, trials=100, seed=0), {}),
    "forward_batch": (forward_batch, dict(params=NET, X=[[0.5, 0.5]]), {"X": ("inputs",)}),
    "loss_class": (loss_class, dict(params_list=[NET], gamma=0.5), {}),
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
    "train_sgd": (train_sgd, dict(train_data=DATA, arch=ARCH, config=TRAIN), {}),
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
# entry point -> its object slots, each of which a wrong object fails with a
# TypeError naming the slot
SLOTS = {
    "certification_run": ("spec", "arch", "train_config", "profile"),
    "forward_batch": ("params",),
    "mixing_profile": ("spec",),
    "network_certificate": ("data", "params", "profile"),
    "sample_sequence": ("spec",),
    "train_sgd": ("train_data", "arch", "config"),
    "validate_lemma3": ("spec",),
    "validate_symmetrization": ("fclass", "spec"),
}


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


@pytest.mark.parametrize("entry, slot", [(entry, slot) for entry, slots in SLOTS.items()
                                         for slot in slots])
def test_a_wrong_object_raises_a_type_error_naming_its_slot(entry, slot):
    """None, a number, or another class's object in an object slot."""
    call, args, _ = ENTRIES[entry]
    other = SPEC if isinstance(args[slot], NetworkParams) else NET
    for wrong in (None, 0, other):
        with pytest.raises(TypeError) as exc:
            call(**dict(args, **{slot: wrong}))
        assert str(exc.value).startswith(f"{slot} must be a"), (wrong, str(exc.value))


CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
CONFIGS = sorted(name for name in os.listdir(CONFIG_DIR) if name.endswith(".json"))
DELETED = object()  # the kind that removes the leaf


def config_document(name: str) -> dict:
    with open(os.path.join(CONFIG_DIR, name), encoding="ascii") as fh:
        return json.load(fh)


def leaf_paths(doc, path=()):
    """The path (keys and indices) to every leaf of a JSON document: each
    scalar, and each empty array or object."""
    if not isinstance(doc, (dict, list)) or not doc:
        yield path
        return
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        yield from leaf_paths(value, path + (key,))


def edited(doc: dict, path: tuple, value) -> dict:
    """A deep copy of doc whose leaf at path is value, or is removed."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETED:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def key_names(path: tuple) -> tuple:
    """What a rejection of the leaf at path may name: its innermost key, and
    for a validator entry the word "validator" (each validator error names
    its validator, as in "unknown validator 'x'")."""
    key = next(k for k in reversed(path) if isinstance(k, str))
    return (key, "validator") if path[0] == "validators" else (key,)


@pytest.mark.parametrize("name", CONFIGS)
@settings(max_examples=2, deadline=None, derandomize=True, phases=[Phase.generate],
          report_multiple_bugs=False, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_config_leaf_loads_or_is_rejected_naming_its_key(name, data):
    base = config_document(name)
    kinds = dict(KINDS, huge=st.just(10 ** 400), deleted=st.just(DELETED))
    for path in leaf_paths(base):
        for kind, values in kinds.items():
            value = data.draw(values, label=f"{'.'.join(map(str, path))} <- {kind}")
            try:
                ExperimentConfig.from_json_dict(edited(base, path, value))
            except (ValueError, TypeError) as exc:
                assert any(key in str(exc) for key in key_names(path)), (path, kind, str(exc))


@pytest.mark.parametrize("name", CONFIGS)
@pytest.mark.parametrize("path, value, message", [
    (("arch", "dims"), DELETED, "missing key 'dims'"),
    # a network that does not fit the process fails at load, not in training
    (("arch", "dims", 0), 5, "'arch.dims' must run from 'process.input_dim'"),
    (("arch", "dims", -1), 3, "'process.num_classes' 2, not"),
    # a count past every float is compared exactly, then fails the fit
    (("process", "num_classes"), 10 ** 400, "'arch.dims' must run from"),
    (("process", "markov", "num_states"), 10 ** 400, "num_states"),
    (("arch", "activations", 0), "x", "'activations' must be activation names"),
    (("arch", "activations", 0), DELETED, "'activations' must name one per layer"),
    (("validators",), [{"name": []}], "unknown validator []"),
    (("validators",), [{"name": {}}], "unknown validator {}"),
], ids=["no-dims", "dims-input", "dims-output", "huge-num_classes", "huge-num_states",
        "bad-activation", "one-activation-short", "list-validator-name", "dict-validator-name"])
def test_the_cli_ends_a_rejected_config_with_exit_2(tmp_path, capsys, name, path, value,
                                                    message):
    """The CLI exits 2 with the config error that names the key, and writes
    nothing."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(edited(config_document(name), path, value)), encoding="ascii")
    assert main(["generate", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    out = capsys.readouterr().out
    assert out.startswith("config error: ") and message in out, out
    assert not (tmp_path / "out").exists()


def file_variants(text: str, headers: tuple):
    """(kind, text) for every cut of text, every swap of two tokens of a
    header line (line indices in `headers`), and every dropped and every
    duplicated line."""
    lines = text.split("\n")
    for i in range(len(text)):
        yield "cut", text[:i]
    for h in headers:
        for a, b in itertools.combinations(range(len(lines[h].split())), 2):
            tokens = lines[h].split()
            tokens[a], tokens[b] = tokens[b], tokens[a]
            yield "swap", "\n".join(lines[:h] + [" ".join(tokens)] + lines[h + 1:])
    for i, line in enumerate(lines):
        kind = "line" if line.strip() else "blank line"
        yield f"dropped {kind}", "\n".join(lines[:i] + lines[i + 1:])
        yield f"duplicated {kind}", "\n".join(lines[:i + 1] + lines[i:])


DATA_SPEC = ProcessSpec(
    markov=MarkovSpec(num_states=2, transition=[[0.4, 0.6], [0.5, 0.5]], initial=[1.0, 0.0]),
    emission=EmissionSpec.discrete(alphabet=[[0.0, 0.5], [1.0, 0.25]], table=np.eye(2)),
    label_map=(1, 2), num_classes=2, input_dim=2)
FILES = {
    # a 4-row path over both points; its header is line 1
    "dataset": (sample_sequence(DATA_SPEC, 4, 1), LabeledDataset.load, (0,)),
    # two layers and a slope; its headers are the layer count and each "rows cols"
    "weights": (NetworkParams(layers=(np.full((2, 2), 0.5), np.eye(2)),
                              activations=("relu", "leaky_relu:0.5")),
                NetworkParams.load, (0, 1, 4)),
}


@pytest.mark.parametrize("name", FILES)
def test_a_damaged_file_loads_or_is_rejected_naming_a_line(tmp_path, name):
    """A dropped or duplicated line that is not blank is always rejected;
    a cut (inside the last number, say) or a swap (of equal tokens) may
    leave a file that loads."""
    obj, load, headers = FILES[name]
    path = tmp_path / "file.txt"
    obj.save(path)
    for kind, text in file_variants(path.read_text(encoding="ascii"), headers):
        path.write_text(text, encoding="ascii")
        try:
            load(path)
        except ValueError as exc:
            assert re.search(r"line \d+", str(exc)), (kind, text, str(exc))
        else:
            assert kind in ("cut", "swap") or "blank" in kind, (kind, text)
