"""Experiment configuration and the command-line pipeline.

Subcommands: generate (write datasets), train (fit and persist networks),
certify (end-to-end certificates as JSON plus a summary CSV), validate
(run the configured lemma validators), rademacher (exact vs Monte Carlo
complexity on a built-in class). All outputs are deterministic functions of
the config: files carry no timestamps, floats are written with repr, JSON
keys are sorted, and --jobs only changes wall time, never bytes.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import functools
import hashlib
import json
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from ._checks import _as_float, _as_int, _check_keys
from .bounds import (
    _MCDIARMID_EPSILONS,
    BoundReport,
    certification_run,
    train_seed,
    validate_lemma3,
    validate_mcdiarmid,
    validate_ramp_dominance,
    validate_symmetrization,
)
from .network import Architecture, TrainConfig
from .process import ProcessSpec, mixing_profile, sample_sequence, sample_target
from .rademacher import (
    FunctionClass,
    constant_class,
    empirical_rademacher_exact,
    empirical_rademacher_mc,
)

# One entry per validator: its parameter defaults, the lower bounds of its
# integer parameters and run(spec, **params). mcdiarmid and symmetrization
# estimate a spread across trials and need two; lemma4 checks each trial on
# its own, so one is enough. Each run looks its validate_* up by name when
# called, so a rebinding of that module global reaches it.
_VALIDATORS = {
    "mcdiarmid": (
        {"n": 50, "trials": 20000, "seed": 7,
         "epsilons": list(_MCDIARMID_EPSILONS), "delta_override": None},
        {"n": 1, "trials": 2, "seed": 0},
        lambda spec, epsilons, delta_override, **p: validate_mcdiarmid(
            spec, _label_indicator_f(spec), epsilons=tuple(epsilons),
            delta_inf=delta_override, **p)),
    "lemma3": (
        {"n": 100}, {"n": 1},
        lambda spec, **p: validate_lemma3(spec, _label_indicator_f(spec), **p)),
    "symmetrization": (
        {"n": 8, "trials": 1000, "seed": 11}, {"n": 1, "trials": 2, "seed": 0},
        lambda spec, **p: validate_symmetrization(builtin_class(spec), spec, **p)),
    "lemma4": (
        {"trials": 100000, "seed": 5}, {"trials": 1, "seed": 0},
        lambda spec, **p: validate_ramp_dominance(**p)),
}
# What each real validator parameter holds.
_VALIDATOR_REALS = {"epsilons": "a non-empty array of positive numbers",
                    "delta_override": "null or a positive number"}
# The summary.csv columns: every certificate field, in BoundReport's order.
_CSV_COLUMNS = tuple(f.name for f in fields(BoundReport))


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Everything one pipeline run depends on; serializes to JSON."""

    process: ProcessSpec
    arch: Architecture
    train: TrainConfig
    n_train: int
    m_target: int
    gamma_list: tuple
    delta: float
    seeds: tuple
    out_dir: str = "out"
    validators: tuple = ()

    def __post_init__(self):
        if not isinstance(self.out_dir, str):
            raise ValueError(f"'out_dir' must be a string, not {self.out_dir!r}")
        for key, value in (
                ("n_train", _as_int(self.n_train, "n_train", 1)),
                ("m_target", _as_int(self.m_target, "m_target", 1)),
                ("gamma_list", _distinct(tuple(
                    _as_float(g, "gamma_list", 0.0) for g in self.gamma_list), "gamma_list")),
                ("delta", _as_float(self.delta, "delta", 0.0, 1.0)),
                ("seeds", _distinct(tuple(_as_int(s, "seeds", 0) for s in self.seeds), "seeds")),
                ("validators", _validators(self.validators))):
            object.__setattr__(self, key, value)

    def to_json_dict(self) -> dict:
        return {
            "process": self.process.to_json_dict(),
            "arch": {"dims": list(self.arch.dims),
                     "activations": list(self.arch.activations)},
            "train": asdict(self.train),
            "n_train": self.n_train,
            "m_target": self.m_target,
            "gamma_list": list(self.gamma_list),
            "delta": self.delta,
            "seeds": list(self.seeds),
            "out_dir": self.out_dir,
            "validators": [dict(v) for v in self.validators],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ExperimentConfig":
        doc = dict(_check_keys(doc, cls, "top level"))
        for name, builder in (("arch", Architecture), ("train", TrainConfig)):
            doc[name] = builder(**_check_keys(doc[name], builder, name))
        doc["process"] = ProcessSpec.from_json_dict(doc["process"])
        return cls(**doc)

    def save(self, path) -> None:
        write_json(self.to_json_dict(), path)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="ascii") as fh:
            return cls.from_json_dict(json.load(fh))


def _validators(entries) -> tuple:
    """The normalized validator entries; ValueError naming 'validators' if
    one names a validator twice, since each writes validate_<name>.json."""
    out = tuple(_normalize_validator(v) for v in entries)
    names = [dict(v)["name"] for v in out]
    if len(set(names)) != len(names):
        raise ValueError(f"'validators' must be an array of distinct validators, not {names!r}")
    return out


def _normalize_validator(entry) -> tuple:
    if isinstance(entry, str):
        name, params = entry, {}
    elif isinstance(entry, dict):
        params = dict(entry)
        name = params.pop("name", None)
    else:
        name, params = None, {}
    if name not in _VALIDATORS:
        raise ValueError(f"unknown validator {name!r}")
    defaults, lows, _ = _VALIDATORS[name]
    for key in params:
        if key not in defaults:
            raise ValueError(f"unknown {name} parameter {key!r}")
    try:
        merged = {key: _validator_value(key, val, lows)
                  for key, val in dict(defaults, **params).items()}
    except ValueError as exc:
        raise ValueError(f"validator {name}: {exc}") from None
    return tuple(sorted(dict(merged, name=name).items()))


def _validator_value(key: str, value, lows: dict):
    """One validator parameter, checked and coerced: an integer >= its
    entry in `lows`, or the real value that _VALIDATOR_REALS describes."""
    if key in lows:
        return _as_int(value, key, lows[key])
    try:
        if key == "delta_override":
            return None if value is None else _as_float(value, key, 0.0)
        if isinstance(value, (list, tuple)) and value:
            return [_as_float(v, key, 0.0) for v in value]
    except ValueError:
        pass
    raise ValueError(f"{key!r} must be {_VALIDATOR_REALS[key]}, not {value!r}")


def _distinct(values: tuple, key: str) -> tuple:
    """`values` if it is non-empty and repeats no value; else ValueError naming `key`."""
    if values and len(set(values)) == len(values):
        return values
    raise ValueError(f"{key!r} must be a non-empty array of distinct values, "
                     f"not {list(values)!r}")


def write_json(doc: dict, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _label_indicator_f(spec: ProcessSpec):
    """Default statistic: indicator of label 1, as a table when possible."""
    em = spec.emission
    if em.mode == "discrete":
        tab = np.zeros((em.alphabet.shape[0], spec.num_classes))
        tab[:, 0] = 1.0
        return tab
    return lambda X, y: (y == 1).astype(np.float64)


def builtin_class(spec: ProcessSpec) -> FunctionClass:
    """Small canonical class: constants plus one indicator per label."""
    def make(k: int):
        return lambda X, y, k=k: (y == k).astype(np.float64)
    members = list(constant_class((0.0, 0.5, 1.0)).evaluators)
    members.extend(make(k) for k in range(1, spec.num_classes + 1))
    return FunctionClass(evaluators=tuple(members))


def cmd_generate(config: ExperimentConfig, out_dir) -> list:
    """Write one sequence dataset per seed plus the shared target sample."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for seed in config.seeds:
        ds = sample_sequence(config.process, config.n_train, seed)
        path = os.path.join(out_dir, f"data_seed{seed}.txt")
        ds.save(path)
        paths.append(path)
    target = sample_target(config.process, config.m_target, config.seeds[0])
    tpath = os.path.join(out_dir, "target.txt")
    target.save(tpath)
    paths.append(tpath)
    return paths


def cmd_train(config: ExperimentConfig, out_dir) -> list:
    """Train one network per seed; persist weights and loss trajectories."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for seed in config.seeds:
        _, result = train_seed(config.process, config.arch, config.train,
                               config.n_train, seed)
        path = os.path.join(out_dir, f"params_seed{seed}.txt")
        result.params.save(path)
        paths.append(path)
        lpath = os.path.join(out_dir, f"losses_seed{seed}.json")
        write_json({"seed": seed, "epoch_losses": list(result.epoch_losses)}, lpath)
        paths.append(lpath)
    return paths


def cmd_certify(config: ExperimentConfig, out_dir, jobs: int = 1) -> list:
    """Certificates for every seed x gamma; JSON per pair plus summary.csv."""
    os.makedirs(out_dir, exist_ok=True)
    profile = mixing_profile(config.process, config.n_train)
    run = functools.partial(certification_run, config.process, config.arch, config.train,
                            profile, config.n_train, config.m_target, config.gamma_list,
                            config.delta)
    workers = min(jobs, len(config.seeds))  # a pool starts all its workers up front
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            per_seed = list(pool.map(run, config.seeds))
    else:
        per_seed = list(map(run, config.seeds))
    reports = [r for batch in per_seed for r in batch]
    paths = []
    for rep in reports:
        path = os.path.join(out_dir, f"report_seed{rep.seed}_gamma{repr(rep.gamma)}.json")
        write_json(rep.to_json_dict(), path)
        paths.append(path)
    rows = [",".join(_CSV_COLUMNS)]
    for rep in sorted(reports, key=lambda r: (r.seed, r.gamma)):
        rows.append(",".join(_csv_field(getattr(rep, c)) for c in _CSV_COLUMNS))
    cpath = os.path.join(out_dir, "summary.csv")
    with open(cpath, "w", encoding="ascii") as fh:
        fh.write("\n".join(rows) + "\n")
    paths.append(cpath)
    return paths


def _csv_field(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def cmd_validate(config: ExperimentConfig, out_dir) -> list:
    """Run every configured validator and write one JSON report each."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for entry in config.validators:
        params = dict(entry)
        name = params.pop("name")
        report = _VALIDATORS[name][2](config.process, **params)
        path = os.path.join(out_dir, f"validate_{name}.json")
        write_json(report.to_json_dict(), path)
        paths.append(path)
    return paths


def cmd_rademacher(config: ExperimentConfig, out_dir) -> list:
    """Exact vs Monte Carlo complexity of the built-in class on a short path."""
    os.makedirs(out_dir, exist_ok=True)
    n = min(config.n_train, 12)
    data = sample_sequence(config.process, n, config.seeds[0])
    fclass = builtin_class(config.process)
    exact = empirical_rademacher_exact(fclass, data)
    mc = empirical_rademacher_mc(fclass, data, trials=10000, seed=config.seeds[0])
    gap = abs(mc.value - exact.value)
    doc = {
        "n": n,
        "class_size": fclass.size,
        "exact": exact.value,
        "mc_value": mc.value,
        "mc_stderr": mc.stderr,
        "mc_trials": mc.trials,
        "gap": gap,
        "within_3_stderr": bool(gap <= 3.0 * mc.stderr or mc.stderr == 0.0),
    }
    path = os.path.join(out_dir, "rademacher.json")
    write_json(doc, path)
    return [path]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mixcert",
        description="certification pipeline for networks trained on mixing sequences")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, cmd in (
            ("generate", "write datasets for every seed", cmd_generate),
            ("train", "train and persist one network per seed", cmd_train),
            ("certify", "emit bound reports and a summary table", cmd_certify),
            ("validate", "run the configured lemma validators", cmd_validate),
            ("rademacher", "compare exact and Monte Carlo complexity", cmd_rademacher)):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(cmd=cmd)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", default=None, help="output directory (default: config out_dir)")
        if cmd is cmd_certify:
            p.add_argument("--jobs", type=int, default=1, help="worker processes")
    args = parser.parse_args(argv)
    jobs = {"jobs": args.jobs} if "jobs" in args else {}  # certify's alone
    if jobs.get("jobs", 1) < 1:
        parser.error("--jobs must be >= 1")
    try:
        config = ExperimentConfig.load(args.config)
    except (OSError, ValueError, TypeError) as exc:
        print(f"config error: {exc}", flush=True)
        return 2
    out_dir = args.out if args.out is not None else config.out_dir
    try:
        paths = args.cmd(config, out_dir, **jobs)
    except Exception as exc:  # pipeline errors are reported, not raised, at the CLI
        print(f"error: {type(exc).__name__}: {exc}", flush=True)
        return 1
    for path in paths:
        print(f"{file_digest(path)}  {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
