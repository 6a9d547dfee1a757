"""Experiment configs, pipeline commands, and the command-line front end."""

import csv
import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mixcert
from mixcert import (
    Architecture,
    EmissionSpec,
    LabeledDataset,
    MarkovSpec,
    NetworkParams,
    ProcessSpec,
    TrainConfig,
    harness,
)
from mixcert.harness import (
    _CSV_COLUMNS,
    ExperimentConfig,
    builtin_class,
    cmd_certify,
    cmd_generate,
    cmd_rademacher,
    cmd_train,
    cmd_validate,
    file_digest,
    main,
    write_json,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
DEMO_DIR = CONFIG_DIR.parent / "demos"
# the shipped configs and the one the benchmark loads, which is read only here
SHIPPED_CONFIGS = [CONFIG_DIR / f"{name}.json" for name in ("default", "small", "validators")]
SHIPPED_CONFIGS.append(CONFIG_DIR.parent / "perfbench" / "validate_discrete.json")


def package_env() -> dict:
    """The environment with the package under test first on PYTHONPATH, so a
    child process imports it and never an installed copy."""
    src_dir = Path(mixcert.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src_dir), env.get("PYTHONPATH")) if p)
    return env


def drop_key(doc, path):
    """Delete doc[path[0]][path[1]]...; the config document minus one key."""
    for key in path[:-1]:
        doc = doc[key]
    del doc[path[-1]]


def set_key(doc, path, value):
    """Set doc[path[0]][path[1]]... to value; the empty path replaces doc."""
    if not path:
        return value
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


WRONG_TYPE_CASES = [
    ((), "config section top level must be a JSON object, not int"),
    (("train",), "config section train must be a JSON object, not int"),
    (("arch",), "config section arch must be a JSON object, not int"),
    (("process",), "config section process must be a JSON object, not int"),
    (("process", "markov"), "config section process.markov must be a JSON object, not int"),
    (("process", "emission"), "config section process.emission must be a JSON object, not int"),
    (("seeds",), "key 'seeds' in config section top level must be a JSON array, not int"),
    (("gamma_list",), "key 'gamma_list' in config section top level must be a JSON array"),
    (("validators",), "key 'validators' in config section top level must be a JSON array"),
    (("arch", "dims"), "key 'dims' in config section arch must be a JSON array, not int"),
    (("arch", "activations"), "key 'activations' in config section arch must be a JSON array"),
    (("process", "label_map"), "key 'label_map' in config section process must be a JSON array"),
]


# (path, value) of a config field and a value it must not hold
BAD_VALUE_CASES = [
    (("gamma_list",), [float("nan")]),
    (("gamma_list",), [0.5, 0.5]),
    (("seeds",), [1.5, 2.7]),
    (("seeds",), [-3]),
    (("process", "num_classes"), 2.9),
    (("process", "label_map"), [[1], 2]),
    (("arch", "dims"), [2, "16", 2]),
    (("process", "emission", "drift_amplitude"), True),
    (("process", "emission", "sigma"), float("nan")),
    (("n_train",), 200.5),
    (("n_train",), "200"),
    (("m_target",), 3.0),
    (("delta",), "0.05"),
    (("train", "epochs"), 2.5),
    (("train", "seed"), -1),
    (("train", "learning_rate"), float("nan")),
    (("arch", "activations"), ["leaky_relu:abc", "identity"]),
    (("validators",), [{"name": "lemma3", "n": 10}, {"name": "lemma3", "n": 20}]),
]

# (process, path, value) of a config array field and a value that is not a
# rectangular array of numbers
ARRAY_VALUE_CASES = [
    ("gaussian", ("process", "markov", "transition"), [["0.9", "0.1"], ["0.1", "0.9"]]),
    ("gaussian", ("process", "markov", "transition"), [[0.9, 0.1], [0.1]]),
    ("gaussian", ("process", "markov", "initial"), [True, False]),
    ("gaussian", ("process", "markov", "initial"), [1.0, False]),
    ("gaussian", ("process", "markov", "initial"), {"a": 1}),
    ("gaussian", ("process", "markov", "initial"), [None, 1.0]),
    ("gaussian", ("process", "emission", "means"), "abc"),
    ("discrete", ("process", "emission", "table"), [["1", "0"], ["0", "1"]]),
    ("discrete", ("process", "emission", "alphabet"), [["0"], ["1"]]),
]


def discrete_process():
    return ProcessSpec(
        markov=MarkovSpec(num_states=2,
                          transition=np.array([[0.9, 0.1], [0.1, 0.9]]),
                          initial=np.array([1.0, 0.0])),
        emission=EmissionSpec.discrete(alphabet=np.array([[0.0], [1.0]]),
                                       table=np.eye(2)),
        label_map=(1, 2), num_classes=2, input_dim=1)


def gaussian_process():
    return ProcessSpec(
        markov=MarkovSpec(num_states=2,
                          transition=np.array([[0.9, 0.1], [0.1, 0.9]]),
                          initial=np.array([1.0, 0.0])),
        emission=EmissionSpec.gaussian(means=np.array([[1.0, 1.0], [-1.0, -1.0]]),
                                       sigma=0.5),
        label_map=(1, 2), num_classes=2, input_dim=2)


def small_config(out_dir, process=None, validators=(), seeds=(3, 4)):
    return ExperimentConfig(
        process=process if process is not None else discrete_process(),
        arch=Architecture(dims=(1, 4, 2), activations=("relu", "identity"))
        if process is None else
        Architecture(dims=(2, 4, 2), activations=("relu", "identity")),
        train=TrainConfig(learning_rate=0.05, epochs=2, batch_size=16, seed=11),
        n_train=40, m_target=200, gamma_list=(1.0,), delta=0.05,
        seeds=seeds, out_dir=str(out_dir), validators=validators)


class TestExperimentConfig:
    def test_round_trip_identity(self):
        cfg = small_config("out/x", validators=("lemma4", {"name": "lemma3", "n": 30}))
        doc = cfg.to_json_dict()
        again = ExperimentConfig.from_json_dict(doc)
        assert again.to_json_dict() == doc
        # and the documents survive a JSON text round trip untouched
        assert json.loads(json.dumps(doc)) == doc

    def test_save_load(self, tmp_path):
        cfg = small_config(tmp_path / "out")
        path = tmp_path / "config.json"
        cfg.save(path)
        loaded = ExperimentConfig.load(path)
        assert loaded.to_json_dict() == cfg.to_json_dict()

    def test_validator_string_gets_defaults(self):
        cfg = small_config("o", validators=("mcdiarmid",))
        entry = dict(cfg.validators[0])
        assert entry["name"] == "mcdiarmid"
        assert entry["n"] == 50 and entry["trials"] == 20000
        assert entry["delta_override"] is None

    def test_validator_override_merges(self):
        cfg = small_config("o", validators=({"name": "symmetrization", "trials": 5},))
        entry = dict(cfg.validators[0])
        assert entry["trials"] == 5
        assert entry["n"] == 8  # untouched default

    def test_unknown_validator_rejected(self):
        with pytest.raises(ValueError, match="unknown validator"):
            small_config("o", validators=("lemma99",))

    def test_unknown_validator_param_rejected(self):
        with pytest.raises(ValueError, match="parameter"):
            small_config("o", validators=({"name": "lemma4", "bogus": 1},))

    @pytest.mark.parametrize("entry, message", [
        ({"name": "symmetrization", "n": "x"}, "'n' must be an integer >= 1"),
        ({"name": "lemma3", "n": 0}, "'n' must be an integer >= 1"),
        ({"name": "mcdiarmid", "n": True}, "'n' must be an integer >= 1"),
        ({"name": "mcdiarmid", "n": 50.0}, "'n' must be an integer >= 1"),
    ])
    def test_validator_n_checked(self, entry, message):
        with pytest.raises(ValueError, match=f"validator {entry['name']}: {message}"):
            small_config("o", validators=(entry,))

    @pytest.mark.parametrize("entry, message", [
        ({"name": "mcdiarmid", "trials": 1}, "'trials' must be an integer >= 2"),
        ({"name": "symmetrization", "trials": False}, "'trials' must be an integer >= 2"),
        ({"name": "lemma4", "trials": -5}, "'trials' must be an integer >= 1"),
        ({"name": "lemma4", "trials": 0}, "'trials' must be an integer >= 1"),
    ])
    def test_validator_trials_checked(self, entry, message):
        with pytest.raises(ValueError, match=f"validator {entry['name']}: {message}"):
            small_config("o", validators=(entry,))
        low = 1 if entry["name"] == "lemma4" else 2
        cfg = small_config("o", validators=(dict(entry, trials=low),))
        assert dict(cfg.validators[0])["trials"] == low

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", None])
    def test_validator_seed_checked(self, seed):
        with pytest.raises(ValueError, match="validator lemma4: 'seed' must be an integer >= 0"):
            small_config("o", validators=({"name": "lemma4", "seed": seed},))
        assert dict(small_config("o", validators=({"name": "lemma4", "seed": 0},))
                    .validators[0])["seed"] == 0

    @pytest.mark.parametrize("epsilons", [[], [0.1, 0.0], [-0.2], ["0.1"], [True], 0.1, None])
    def test_validator_epsilons_checked(self, epsilons):
        with pytest.raises(ValueError, match="validator mcdiarmid: 'epsilons' must be a "
                                             "non-empty array of positive numbers"):
            small_config("o", validators=({"name": "mcdiarmid", "epsilons": epsilons},))

    @pytest.mark.parametrize("value", [0, -1.0, float("nan"), "2", [2.0], True])
    def test_validator_delta_override_checked(self, value):
        with pytest.raises(ValueError, match="validator mcdiarmid: 'delta_override' must be "
                                             "null or a positive number"):
            small_config("o", validators=({"name": "mcdiarmid", "delta_override": value},))
        cfg = small_config("o", validators=({"name": "mcdiarmid", "delta_override": 2},))
        assert dict(cfg.validators[0])["delta_override"] == 2

    def test_shipped_validator_entries_load_unchanged(self):
        for path in SHIPPED_CONFIGS:
            doc = json.loads(path.read_text())
            assert ExperimentConfig.from_json_dict(doc).to_json_dict() == doc

    @pytest.mark.parametrize("name", sorted(harness._VALIDATORS))
    def test_validator_defaults_pass_their_own_checks(self, name):
        """Each validator's defaults are integers at or above its own lows or
        the reals that _VALIDATOR_REALS describes, so a bad default fails
        here and not first in a config that names the validator."""
        defaults, lows, run = harness._VALIDATORS[name]
        assert callable(run) and set(lows) <= set(defaults)
        for key, value in defaults.items():
            assert key in lows or key in harness._VALIDATOR_REALS, key
            assert harness._validator_value(key, value, lows) == value, key
        assert harness._normalize_validator(name) == tuple(
            sorted(dict(defaults, name=name).items()))

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.stem)
    def test_numpy_scalars_load_as_python_numbers(self, path):
        """Every integer and real of a config may be a numpy scalar; it is
        stored as the Python int or float it equals."""
        def to_numpy(v):
            if isinstance(v, dict):
                return {k: to_numpy(x) for k, x in v.items()}
            if isinstance(v, list):
                return [to_numpy(x) for x in v]
            if isinstance(v, bool) or v is None or isinstance(v, str):
                return v
            return np.int64(v) if isinstance(v, int) else np.float64(v)

        def leaf_types(v):
            if isinstance(v, (dict, list)):
                return set().union(*map(leaf_types, v.values() if isinstance(v, dict) else v))
            return {type(v)}

        doc = json.loads(path.read_text())
        got = ExperimentConfig.from_json_dict(to_numpy(doc)).to_json_dict()
        assert got == doc
        assert leaf_types(got) <= {int, float, str, type(None)}
        assert json.dumps(got, sort_keys=True) == json.dumps(doc, sort_keys=True)

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            small_config("o", seeds=())
        with pytest.raises(ValueError):
            small_config("o", seeds=(3, 3))
        base = small_config("o").to_json_dict()
        for patch in ({"gamma_list": []}, {"gamma_list": [0.0]},
                      {"delta": 0.0}, {"delta": 1.0},
                      {"n_train": 0}, {"m_target": 0}):
            doc = dict(base)
            doc.update(patch)
            with pytest.raises(ValueError):
                ExperimentConfig.from_json_dict(doc)

    def test_unknown_top_level_key_rejected(self):
        doc = small_config("o").to_json_dict()
        doc["seedz"] = [5]
        with pytest.raises(ValueError, match="'seedz' in config section top level"):
            ExperimentConfig.from_json_dict(doc)

    def test_unknown_nested_key_rejected(self):
        # an emission section may carry only its own mode's fields
        for process, section, key in ((None, "train", "epoch"), (None, "arch", "dim"),
                                      (None, "process", "labels"), (None, "markov", "init"),
                                      (None, "emission", "drift_amplitud"),
                                      (None, "emission", "sigma"),
                                      (gaussian_process(), "emission", "table")):
            doc = small_config("o", process=process).to_json_dict()
            target = doc["process"] if section in ("markov", "emission") else doc
            target[section][key] = 1
            with pytest.raises(ValueError, match=f"'{key}' in config section"):
                ExperimentConfig.from_json_dict(doc)
        # the mode is checked before the keys it decides
        doc = small_config("o").to_json_dict()
        doc["process"]["emission"].update(mode="poisson", sigma=1.0)
        with pytest.raises(ValueError, match="unknown emission mode 'poisson'"):
            ExperimentConfig.from_json_dict(doc)

    @pytest.mark.parametrize("path, section", [
        (("train",), "top level"), (("arch",), "top level"), (("process",), "top level"),
        (("seeds",), "top level"), (("train", "epochs"), "train"),
        (("arch", "dims"), "arch"), (("process", "markov"), "process"),
        (("process", "emission"), "process"), (("process", "markov", "initial"), "process.markov"),
        (("process", "emission", "mode"), "process.emission")])
    def test_missing_required_key_rejected(self, path, section):
        """A field with no default that a section lacks is named, not a raw
        KeyError or a TypeError from the constructor."""
        doc = small_config("o").to_json_dict()
        drop_key(doc, path)
        with pytest.raises(ValueError, match=re.escape(
                f"missing key {path[-1]!r} in config section {section}")):
            ExperimentConfig.from_json_dict(doc)

    @pytest.mark.parametrize("path, message", WRONG_TYPE_CASES)
    def test_section_of_wrong_type_rejected(self, path, message):
        """A section that is not a JSON object, or a list that is not a JSON
        array, is named before its keys are read."""
        doc = set_key(small_config("o").to_json_dict(), path, 5)
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig.from_json_dict(doc)

    def test_wrong_type_beyond_sections(self):
        doc = small_config("o").to_json_dict()
        for path, value, message in (
                (("seeds",), "7", "key 'seeds' in config section top level must be a JSON "
                                  "array, not str"),
                (("process", "markov"), [1, 2], "config section process.markov must be a "
                                                "JSON object, not list"),
                (("process", "emission", "mode"), ["x"], "unknown emission mode ['x']")):
            bad = set_key(json.loads(json.dumps(doc)), path, value)
            with pytest.raises(ValueError, match=re.escape(message)):
                ExperimentConfig.from_json_dict(bad)

    def test_defaulted_keys_may_be_left_out(self):
        doc = small_config("o").to_json_dict()
        for key in ("out_dir", "validators"):
            del doc[key]
        del doc["train"]["init_scale"]
        cfg = ExperimentConfig.from_json_dict(doc)
        assert cfg.out_dir == "out" and cfg.validators == () and cfg.train.init_scale is None

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), name=st.sampled_from(["default", "small", "validators"]))
    def test_json_round_trip_property(self, data, name):
        """Shipped configs with varied numeric fields survive to_json_dict,
        JSON text and from_json_dict with the same document and digest."""
        doc = json.loads((CONFIG_DIR / f"{name}.json").read_text())
        unit = st.floats(0.001, 0.999)
        doc.update(
            n_train=data.draw(st.integers(1, 10**6)), m_target=data.draw(st.integers(1, 10**6)),
            delta=data.draw(unit),
            gamma_list=data.draw(st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=4,
                                          unique=True)),
            seeds=data.draw(st.lists(st.integers(0, 2**31), min_size=1, max_size=5, unique=True)))
        doc["train"].update(
            learning_rate=data.draw(st.floats(0.0, 10.0)), epochs=data.draw(st.integers(0, 50)),
            batch_size=data.draw(st.integers(1, 512)), seed=data.draw(st.integers(0, 2**31)),
            init_scale=data.draw(st.none() | st.floats(1e-3, 10.0)))
        em = doc["process"]["emission"]
        em.update(drift_amplitude=data.draw(st.floats(0.0, 1.0)),
                  drift_exponent=data.draw(st.floats(1e-3, 400.0)))
        if em["mode"] == "gaussian":
            em["sigma"] = data.draw(st.floats(1e-3, 100.0))
        cfg = ExperimentConfig.from_json_dict(doc)
        again = ExperimentConfig.from_json_dict(json.loads(json.dumps(cfg.to_json_dict())))
        assert again.to_json_dict() == cfg.to_json_dict()
        assert again.process.digest() == cfg.process.digest()


class TestSmallHelpers:
    def test_write_json_sorted_and_digest_stable(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_json({"b": 2, "a": 1}, p1)
        write_json({"a": 1, "b": 2}, p2)
        assert file_digest(p1) == file_digest(p2)
        raw = p1.read_bytes()
        assert file_digest(p1) == hashlib.sha256(raw).hexdigest()
        assert raw.index(b'"a"') < raw.index(b'"b"')

    def test_builtin_class_size(self):
        cls = builtin_class(discrete_process())
        assert cls.size == 5  # three constants plus one indicator per label
        X = np.array([[0.0], [1.0], [0.0]])
        y = np.array([1, 2, 1])
        vals = cls.evaluate(X, y)
        assert vals.shape == (5, 3)
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        np.testing.assert_array_equal(vals[3], [1.0, 0.0, 1.0])  # label-1 indicator


class TestPipelineCommands:
    def test_generate_writes_per_seed_and_target(self, tmp_path):
        cfg = small_config(tmp_path)
        paths = cmd_generate(cfg, tmp_path)
        names = sorted(os.path.basename(p) for p in paths)
        assert names == ["data_seed3.txt", "data_seed4.txt", "target.txt"]
        assert all(os.path.exists(p) for p in paths)

    def test_generate_deterministic(self, tmp_path):
        cfg = small_config(tmp_path)
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        p1 = cmd_generate(cfg, d1)
        p2 = cmd_generate(cfg, d2)
        for a, b in zip(p1, p2):
            assert file_digest(a) == file_digest(b)

    def test_train_persists_params_and_losses(self, tmp_path):
        cfg = small_config(tmp_path)
        paths = cmd_train(cfg, tmp_path)
        assert sorted(os.path.basename(p) for p in paths) == [
            "losses_seed3.json", "losses_seed4.json",
            "params_seed3.txt", "params_seed4.txt"]
        params = NetworkParams.load(tmp_path / "params_seed3.txt")
        assert params.input_dim == 1 and params.output_dim == 2
        doc = json.loads((tmp_path / "losses_seed3.json").read_text())
        assert doc["seed"] == 3
        assert len(doc["epoch_losses"]) == 2

    def test_written_files_load_back_bit_for_bit(self, tmp_path):
        """Every data and weights file that generate and train write on
        configs/small.json loads back and saves to the same bytes, so the
        file readers accept all that the writers produce."""
        cfg = ExperimentConfig.load(CONFIG_DIR / "small.json")
        paths = [Path(p) for p in cmd_generate(cfg, tmp_path) + cmd_train(cfg, tmp_path)]
        texts = [p for p in paths if p.suffix == ".txt"]
        assert len(texts) == 2 * len(cfg.seeds) + 1
        for path in texts:
            cls = NetworkParams if path.name.startswith("params") else LabeledDataset
            again = tmp_path / "again.txt"
            cls.load(path).save(again)
            assert again.read_bytes() == path.read_bytes(), path.name

    def test_certify_reports_and_summary(self, tmp_path):
        cfg = small_config(tmp_path)
        paths = cmd_certify(cfg, tmp_path)
        basenames = sorted(os.path.basename(p) for p in paths)
        assert basenames == ["report_seed3_gamma1.0.json",
                             "report_seed4_gamma1.0.json", "summary.csv"]
        with open(tmp_path / "summary.csv", newline="", encoding="ascii") as fh:
            rows = list(csv.reader(fh))
        assert tuple(rows[0]) == _CSV_COLUMNS
        assert len(rows) == 3
        seeds = [int(r[0]) for r in rows[1:]]
        assert seeds == [3, 4]  # sorted by seed then gamma
        for row in rows[1:]:
            rec = dict(zip(_CSV_COLUMNS, row))
            assert rec["bound_holds"] in ("true", "false")
            assert float(rec["total_bound"]) > 0.0
            assert rec["phi_exact"] == "true"
        rep = json.loads((tmp_path / "report_seed3_gamma1.0.json").read_text())
        assert rep["seed"] == 3 and rep["gamma"] == 1.0

    def test_certify_jobs_byte_identical(self, tmp_path):
        cfg = small_config(tmp_path)
        d1, d2 = tmp_path / "j1", tmp_path / "j2"
        p1 = cmd_certify(cfg, d1, jobs=1)
        p2 = cmd_certify(cfg, d2, jobs=2)
        assert [os.path.basename(p) for p in p1] == [os.path.basename(p) for p in p2]
        for a, b in zip(p1, p2):
            assert file_digest(a) == file_digest(b)

    @pytest.mark.parametrize("seeds, jobs, started", [
        ((3, 4), 500, [2]), ((3, 4), 2, [2]), ((3,), 4, []), ((3, 4), 1, [])],
        ids=["jobs500-seeds2", "jobs2-seeds2", "jobs4-seeds1", "jobs1-seeds2"])
    def test_certify_pool_never_outnumbers_the_seeds(self, tmp_path, monkeypatch, seeds,
                                                     jobs, started):
        """The pool forks all its workers at once, so it gets at most one per
        seed, and none when that is one. A stand-in pool records its size and
        maps serially, so no process is started."""
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(harness.concurrent.futures, "ProcessPoolExecutor", SerialPool)
        cfg = small_config(tmp_path, seeds=seeds)
        got = cmd_certify(cfg, tmp_path / "pool", jobs=jobs)
        assert sizes == started
        want = cmd_certify(cfg, tmp_path / "serial", jobs=1)
        assert [file_digest(p) for p in got] == [file_digest(p) for p in want]

    def test_validate_all_four_on_discrete(self, tmp_path):
        cfg = small_config(tmp_path, validators=(
            {"name": "mcdiarmid", "n": 20, "trials": 2000},
            {"name": "lemma3", "n": 30},
            {"name": "symmetrization", "n": 6, "trials": 200},
            {"name": "lemma4", "trials": 2000},
        ))
        paths = cmd_validate(cfg, tmp_path)
        assert sorted(os.path.basename(p) for p in paths) == [
            "validate_lemma3.json", "validate_lemma4.json",
            "validate_mcdiarmid.json", "validate_symmetrization.json"]
        mcd = json.loads((tmp_path / "validate_mcdiarmid.json").read_text())
        assert not any(mcd["violations"])
        lem3 = json.loads((tmp_path / "validate_lemma3.json").read_text())
        assert lem3["passed"] is True
        lem4 = json.loads((tmp_path / "validate_lemma4.json").read_text())
        assert lem4["failures"] == 0

    def test_validate_empty_is_noop(self, tmp_path):
        cfg = small_config(tmp_path, validators=())
        assert cmd_validate(cfg, tmp_path) == []

    def test_rademacher_report(self, tmp_path):
        cfg = small_config(tmp_path)
        (path,) = cmd_rademacher(cfg, tmp_path)
        doc = json.loads(open(path, encoding="ascii").read())
        assert doc["n"] == 12  # capped below n_train
        assert doc["class_size"] == 5
        assert doc["within_3_stderr"] is True
        assert doc["gap"] == pytest.approx(abs(doc["mc_value"] - doc["exact"]), abs=0)


class TestPerfbenchContract:
    """The benchmark rebinds library names by module attribute
    (perfbench/workloads.py, TRACED_NAMES) to time each stage. It is read
    here, never edited, so a change that drops one of those calls fails in
    tier-1 and not first as a silent zero in a traced benchmark run."""

    @pytest.fixture
    def workloads(self, monkeypatch):
        monkeypatch.syspath_prepend(str(CONFIG_DIR.parent / "perfbench"))
        import workloads
        return workloads

    def test_every_traced_name_is_bound_in_its_target(self, workloads):
        for target, names in workloads.TRACED_NAMES:
            # Tracer.patched reads vars(target)[attr], not an inherited attribute
            missing = [attr for attr in names if attr not in vars(target)]
            assert not missing, (target.__name__, missing)

    def test_validate_calls_each_validator_through_its_module_name(self, tmp_path,
                                                                  monkeypatch):
        """Each configured validator reaches harness.validate_<name> once,
        with that entry's parameters under the validator's own names."""
        calls = {}

        def recorder(name):
            fn = getattr(harness, name)

            def record(*args, **kwargs):
                bound = inspect.signature(fn).bind(*args, **kwargs).arguments
                calls.setdefault(name, []).append(bound)
                return fn(*args, **kwargs)
            return record

        names = ("validate_mcdiarmid", "validate_lemma3", "validate_symmetrization",
                 "validate_ramp_dominance")
        for name in names:
            monkeypatch.setattr(harness, name, recorder(name))
        cfg = small_config(tmp_path, validators=(
            {"name": "mcdiarmid", "n": 6, "trials": 40, "seed": 3, "epsilons": [0.1, 0.2],
             "delta_override": 2.5},
            {"name": "lemma3", "n": 9},
            {"name": "symmetrization", "n": 5, "trials": 30, "seed": 4},
            {"name": "lemma4", "trials": 50, "seed": 9},
        ))
        cmd_validate(cfg, tmp_path)
        want = {
            "validate_mcdiarmid": {"n": 6, "trials": 40, "seed": 3, "epsilons": (0.1, 0.2),
                                   "delta_inf": 2.5},
            "validate_lemma3": {"n": 9},
            "validate_symmetrization": {"n": 5, "trials": 30, "seed": 4},
            "validate_ramp_dominance": {"trials": 50, "seed": 9},
        }
        assert sorted(calls) == sorted(names)
        for name in names:
            (bound,) = calls[name]
            assert bound.pop("spec", cfg.process) is cfg.process
            params = {k: v for k, v in bound.items() if k not in ("f", "f_table", "fclass")}
            assert params == want[name], name


class TestMainEntry:
    def write_config(self, tmp_path, **kw):
        cfg = small_config(tmp_path / "out", **kw)
        path = tmp_path / "config.json"
        cfg.save(path)
        return path

    def test_generate_rc0(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        rc = main(["generate", "--config", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "data_seed3.txt" in out and "target.txt" in out
        assert (tmp_path / "out" / "target.txt").exists()

    def test_out_flag_overrides_config_dir(self, tmp_path):
        path = self.write_config(tmp_path)
        rc = main(["generate", "--config", str(path), "--out", str(tmp_path / "alt")])
        assert rc == 0
        assert (tmp_path / "alt" / "target.txt").exists()
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("entry, message", [
        ({"name": "symmetrization", "n": "x"},
         "validator symmetrization: 'n' must be an integer >= 1, not 'x'"),
        ({"name": "lemma4", "trials": -5},
         "validator lemma4: 'trials' must be an integer >= 1, not -5"),
    ])
    def test_bad_validator_parameter_rc2(self, tmp_path, capsys, entry, message):
        config = self.write_config(tmp_path)
        doc = json.loads(config.read_text())
        doc["validators"] = [entry]
        config.write_text(json.dumps(doc))
        rc = main(["validate", "--config", str(config)])
        assert rc == 2
        assert capsys.readouterr().out == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_nan_initial_law_rc2(self, tmp_path, capsys):
        """json reads the literal NaN; the chain's start law rejects it."""
        config = self.write_config(tmp_path)
        doc = json.loads(config.read_text())
        doc["process"]["markov"]["initial"][0] = float("nan")
        config.write_text(json.dumps(doc))
        assert "NaN" in config.read_text()
        rc = main(["certify", "--config", str(config)])
        assert rc == 2
        assert capsys.readouterr().out == "config error: initial entries must lie in [0, 1]\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("path, value", BAD_VALUE_CASES, ids=[
        f"{'.'.join(path)}={json.dumps(value)}" for path, value in BAD_VALUE_CASES])
    def test_bad_config_value_rc2(self, tmp_path, capsys, path, value):
        """A value that is not what its field holds (a truncated integer, a
        NaN, a bool or a string for a number, a repeat) is a config error that
        names its key; nothing runs."""
        config = self.write_config(tmp_path, process=gaussian_process())
        doc = set_key(json.loads(config.read_text()), path, value)
        config.write_text(json.dumps(doc))
        rc = main(["certify", "--config", str(config)])
        assert rc == 2
        out = capsys.readouterr().out
        assert out.startswith(f"config error: {path[-1]!r} must be "), out
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("process, path, value", ARRAY_VALUE_CASES, ids=[
        f"{'.'.join(path)}={json.dumps(value)}" for _, path, value in ARRAY_VALUE_CASES])
    def test_bad_config_array_rc2(self, tmp_path, capsys, process, path, value):
        """Strings, booleans, nulls, objects and ragged rows are no arrays of
        numbers: a config error that names the field; nothing runs."""
        builder = discrete_process if process == "discrete" else gaussian_process
        config = self.write_config(tmp_path, process=builder())
        doc = set_key(json.loads(config.read_text()), path, value)
        config.write_text(json.dumps(doc))
        rc = main(["certify", "--config", str(config)])
        assert rc == 2
        out = capsys.readouterr().out
        assert out == f"config error: {path[-1]} must be a rectangular array of numbers\n"
        assert not (tmp_path / "out").exists()

    def test_missing_config_rc2(self, tmp_path, capsys):
        rc = main(["certify", "--config", str(tmp_path / "nope.json")])
        assert rc == 2
        assert capsys.readouterr().out.startswith("config error:")

    def test_invalid_config_values_rc2(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        doc = json.loads(path.read_text())
        doc["delta"] = 2.0
        path.write_text(json.dumps(doc))
        rc = main(["certify", "--config", str(path)])
        assert rc == 2
        assert "config error:" in capsys.readouterr().out

    @pytest.mark.parametrize("path", [("train",), ("seeds",), ("train", "epochs"),
                                      ("process", "markov"), ("process", "emission", "mode")])
    def test_missing_config_key_rc2(self, tmp_path, capsys, path):
        config = self.write_config(tmp_path)
        doc = json.loads(config.read_text())
        drop_key(doc, path)
        config.write_text(json.dumps(doc))
        rc = main(["certify", "--config", str(config)])
        assert rc == 2
        assert capsys.readouterr().out.startswith(
            f"config error: missing key {path[-1]!r} in config section")

    @pytest.mark.parametrize("path, message", WRONG_TYPE_CASES)
    def test_wrong_type_config_rc2(self, tmp_path, capsys, path, message):
        config = self.write_config(tmp_path)
        doc = set_key(json.loads(config.read_text()), path, 5)
        config.write_text(json.dumps(doc))
        rc = main(["validate", "--config", str(config)])
        assert rc == 2
        assert capsys.readouterr().out.startswith(f"config error: {message}")

    def test_unknown_config_key_rc2(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        doc = json.loads(path.read_text())
        doc["train"]["epoch"] = 99
        path.write_text(json.dumps(doc))
        rc = main(["train", "--config", str(path)])
        assert rc == 2
        assert capsys.readouterr().out.startswith(
            "config error: unknown key 'epoch' in config section train")

    def test_pipeline_error_rc1(self, tmp_path, capsys):
        """lemma3 on Gaussian emissions cannot run; the CLI reports, not raises."""
        cfg = ExperimentConfig(
            process=gaussian_process(),
            arch=Architecture(dims=(2, 4, 2), activations=("relu", "identity")),
            train=TrainConfig(learning_rate=0.05, epochs=1, batch_size=16, seed=1),
            n_train=20, m_target=100, gamma_list=(1.0,), delta=0.05,
            seeds=(1,), out_dir=str(tmp_path / "out"),
            validators=({"name": "lemma3", "n": 10},))
        path = tmp_path / "config.json"
        cfg.save(path)
        rc = main(["validate", "--config", str(path)])
        assert rc == 1
        assert capsys.readouterr().out.startswith("error: NotDiscrete")

    def test_bad_jobs_rejected(self, tmp_path):
        path = self.write_config(tmp_path)
        with pytest.raises(SystemExit):
            main(["certify", "--config", str(path), "--jobs", "0"])

    @pytest.mark.parametrize("command", ["generate", "train", "validate", "rademacher"])
    def test_jobs_belongs_to_certify_alone(self, tmp_path, capsys, command):
        path = self.write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(path), "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_console_script_smoke(self, tmp_path):
        """``python -m mixcert`` runs a subcommand, and the ``mixcert`` script
        declared in pyproject.toml resolves to a working front end.

        The script is checked through the launcher an installer would write
        from the declaration, so the test needs no installed copy and cannot
        pick up a stale one: both children import the package under test.
        """
        env = package_env()
        path = self.write_config(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "mixcert", "rademacher",
             "--config", str(path), "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "RuntimeWarning" not in proc.stderr, proc.stderr
        assert (tmp_path / "out" / "rademacher.json").exists()

        if sys.version_info >= (3, 11):
            import tomllib
        else:
            tomllib = pytest.importorskip("tomli")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            scripts = tomllib.load(fh)["project"].get("scripts", {})
        assert "mixcert" in scripts, scripts
        module, _, func = scripts["mixcert"].partition(":")
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        launcher = bin_dir / "mixcert"
        launcher.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {func}\n"
            f"sys.exit({func}())\n")
        launcher.chmod(0o755)
        env["PATH"] = os.pathsep.join(
            p for p in (str(bin_dir), env.get("PATH")) if p)
        script = subprocess.run(
            ["mixcert", "--help"], capture_output=True, text=True, timeout=60,
            env=env)
        assert script.returncode == 0, script.stdout + script.stderr
        assert script.stdout.startswith("usage: mixcert "), script.stdout
        listed = re.search(r"\{([^}]*)\}", script.stdout).group(1).split(",")
        for cmd in ("generate", "train", "certify", "validate", "rademacher"):
            assert cmd in listed, listed


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMO_DIR.glob("*.py")))
def test_demo_runs(demo, tmp_path):
    """Each demo runs to exit 0 against the package under test, so removing
    a public name a demo imports fails here."""
    proc = subprocess.run([sys.executable, str(DEMO_DIR / demo)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300, env=package_env())
    assert proc.returncode == 0, proc.stdout + proc.stderr
