"""One benchmark process: set up a workload, run its passes, print JSON.

Started by run.py with BLAS pinned to one thread and src/ on PYTHONPATH.
Modes:
  setup   import mixcert and load the workload's config or spec, then report
          the time since --t0 (run.py's CLOCK_MONOTONIC just before spawning);
  timed   one untimed reference pass at seed 0 whose digests must match
          reference.json, then untraced passes at --seed for --seconds;
  trace   the reference pass, untraced and traced, then untraced passes
          alternating with traced passes at --seed for --seconds;
  record  write reference.json from seed 0 (only when results change on
          purpose; say so in the change that does it).
The last stdout line is one JSON object.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

import mixcert
import workloads

REFERENCE_PATH = os.path.join(workloads.BENCH_DIR, "reference.json")
MIN_TIMED_PASSES = 3
MIN_TRACED_PASSES = 2

# The host's speed swings by 20-40% over tens of seconds (other tenants share
# its cores), and every wall time swings with it. So each timed call is
# divided by the time of a fixed calibration loop measured beside it, and
# multiplied by CAL_REF_S, the loop's typical time on the machine the benchmark
# was defined on (2-vCPU x86_64, Python 3.11, numpy 2.4). All times the
# benchmark reports are in these reference seconds. Never change CAL_REF_S or
# the loop: every earlier number would change with them.
CAL_REF_S = 0.010
_CAL_RNG = np.random.default_rng(0)
_CAL_X = _CAL_RNG.standard_normal((64, 2))
_CAL_Y = _CAL_RNG.integers(0, 2, size=64)
_CAL_ROWS = np.arange(64)
_CAL_W1 = 0.5 * _CAL_RNG.standard_normal((16, 2))
_CAL_W2 = 0.5 * _CAL_RNG.standard_normal((2, 16))
_CAL_LARGE = np.linspace(0.0, 1.0, 200000)
_CAL_BUF = np.empty_like(_CAL_LARGE)


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class Outcome:
    """Operations attempted and failed, with a reason per failure kind."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ops: int, failed: int, problem: str | None = None):
        self.attempted += ops
        self.failed += failed
        if failed and problem and problem not in self.problems:
            self.problems.append(problem)


def guarded(outcome: Outcome, ops: int, fn):
    """fn() or None; an exception fails every operation of the pass."""
    try:
        return fn()
    except Exception:  # a failing pass is counted and reported, not fatal
        traceback.print_exc(file=sys.stderr)
        outcome.record(ops, ops, "pass raised")
        return None


def checked(work, outputs, outcome: Outcome, reference: dict | None = None):
    failed = work.check(outputs)
    problem = "output check failed"
    if reference is not None:
        got = work.digests(outputs)
        bad = sorted(k for k in reference if got.get(k) != reference[k])
        if bad:
            failed, problem = work.ops_per_pass, "reference digests differ: " + ",".join(bad)
    outcome.record(work.ops_per_pass, failed, problem)


def reference_pass(cls, work_dir, outcome: Outcome, traced: bool):
    """Seed-0 pass(es), compared bit for bit with reference.json. A traced
    pass also yields certify-default's profile and weights, so it is
    compared on every recorded digest."""
    with open(REFERENCE_PATH, "r", encoding="ascii") as fh:
        expected = json.load(fh)[cls.name]
    work = cls(workloads.REFERENCE_SEED, work_dir)
    out = guarded(outcome, work.ops_per_pass, work.run)
    if out is not None:
        keys = work.digests(out).keys()
        checked(work, out, outcome, {k: expected[k] for k in keys})
    if traced:
        res = guarded(outcome, work.ops_per_pass,
                      lambda: workloads.traced_run(work, "reference"))
        if res is not None:
            checked(work, res[0], outcome, expected)


def calibration_s() -> float:
    """Median time of nine runs of a fixed loop shaped like mixcert's passes:
    a 2-16-2 softmax network's forward and backward steps on 64 points, a
    200k-element reduction and plain interpreter work. It allocates nothing
    large, so page faults do not enter it."""
    times = []
    for _ in range(9):
        t0 = time.perf_counter()
        w1, w2 = _CAL_W1, _CAL_W2
        for _ in range(100):
            h = _CAL_X @ w1.T
            a = np.maximum(h, 0.0)
            o = a @ w2.T
            e = np.exp(o - o.max(axis=1, keepdims=True))
            p = e / e.sum(axis=1, keepdims=True)
            p[_CAL_ROWS, _CAL_Y] -= 1.0
            d = (p @ w2) * (h > 0.0)
            w2 = w2 - 1e-3 * (p.T @ a)
            w1 = w1 - 1e-3 * (d.T @ _CAL_X)
        for _ in range(10):
            np.subtract(_CAL_LARGE, 0.5, out=_CAL_BUF)
            np.abs(_CAL_BUF, out=_CAL_BUF)
            float(_CAL_BUF.sum())
        x = 0
        for i in range(50000):
            x += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def calibrated(outcome: Outcome, ops: int, fn, cal_before: float):
    """Run fn once and calibrate after it. Returns (output or None, wall s,
    factor from seconds to reference seconds, the calibration after)."""
    t0 = time.perf_counter()
    out = guarded(outcome, ops, fn)
    wall = time.perf_counter() - t0
    cal_after = calibration_s()
    return out, wall, CAL_REF_S / (0.5 * (cal_before + cal_after)), cal_after


def timed_passes(work, seconds: float, outcome: Outcome) -> tuple[list, list]:
    """Untraced passes for `seconds` (at least MIN_TIMED_PASSES): raw wall
    times and the same in reference seconds."""
    walls, ref_walls = [], []
    cal = calibration_s()
    begin = time.perf_counter()
    for attempt in itertools.count():
        if time.perf_counter() - begin >= seconds and attempt >= MIN_TIMED_PASSES:
            break
        out, wall, scale, cal = calibrated(outcome, work.ops_per_pass, work.run, cal)
        if out is None:
            continue
        walls.append(wall)
        ref_walls.append(wall * scale)
        checked(work, out, outcome)
    return walls, ref_walls


def layer_metrics(work, tracer, scale: float) -> dict:
    """Per-layer numbers of one traced pass: self times in reference seconds
    (`scale` converts) and counts."""
    self_s = tracer.self_times()
    counts = tracer.counts()
    m = {f"{name}_s": scale * self_s.get(name, 0.0) for name in (
        "process.mixing_profile", "process.sample_sequence", "process.sample_target",
        "process.sequence_value_means", "process.sample_sequences_batch",
        "network.train_sgd", "norms.layer_norms", "bounds.network_certificate",
        "bounds.validate_mcdiarmid", "bounds.validate_lemma3",
        "bounds.validate_symmetrization", "bounds.validate_ramp_dominance",
        "rademacher.exact", "rademacher.mc", "harness")}
    m["harness.self_s"] = m.pop("harness_s")
    steps = work.sgd_steps() if counts.get("network.train_sgd") else 0
    m["network.sgd_steps"] = steps
    m["network.us_per_sgd_step"] = 1e6 * m["network.train_sgd_s"] / steps if steps else 0.0
    m["bounds.certificates"] = counts.get("bounds.network_certificate", 0)
    m["trace.wall_s"] = scale * tracer.wall()
    return m


def traced_passes(work, seconds: float, outcome: Outcome, run_id: str):
    """Alternate untraced and traced passes of the same inputs; both are
    checked, each as a pass of its own."""
    walls, ref_walls, per_pass, covered = [], [], [], []
    cal = calibration_s()
    begin = time.perf_counter()
    for attempt in itertools.count():
        if time.perf_counter() - begin >= seconds and attempt >= MIN_TRACED_PASSES:
            break
        plain, wall, scale, cal = calibrated(outcome, work.ops_per_pass, work.run, cal)
        traced, _, traced_scale, cal = calibrated(
            outcome, work.ops_per_pass,
            lambda: workloads.traced_run(work, f"{run_id}-{attempt}"), cal)
        if plain is None or traced is None:
            continue
        walls.append(wall)
        ref_walls.append(wall * scale)
        checked(work, plain, outcome)
        outputs, tracer = traced
        checked(work, outputs, outcome)
        per_pass.append(layer_metrics(work, tracer, traced_scale))
        covered.append(sum(tracer.self_times().values()) / tracer.wall())
    return walls, ref_walls, per_pass, covered


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.REFERENCE_SEED)
    ap.add_argument("--mode", required=True, choices=("setup", "timed", "trace", "record"))
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--t0", type=int, default=0, help="CLOCK_MONOTONIC ns at spawn")
    ap.add_argument("--work-dir", required=True)
    args = ap.parse_args(argv)

    src = os.path.join(workloads.ROOT, "src")
    if not os.path.abspath(mixcert.__file__).startswith(src + os.sep):
        print(f"mixcert was imported from {mixcert.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.mode == "record":
        return record(args.work_dir)
    if args.workload is None:
        ap.error("--workload is required in this mode")
    cls = workloads.WORKLOADS[args.workload]
    os.makedirs(args.work_dir, exist_ok=True)
    work = cls(args.seed, args.work_dir)
    if args.mode == "setup":
        elapsed = (time.clock_gettime_ns(time.CLOCK_MONOTONIC) - args.t0) / 1e9
        print(json.dumps({"setup_s": elapsed * CAL_REF_S / calibration_s(),
                          "setup_raw_s": elapsed}))
        return 0

    outcome = Outcome()
    result = {"machine": machine_facts(), "sizes": work.sizes(),
              "ops_per_pass": work.ops_per_pass}
    reference_pass(cls, os.path.join(args.work_dir, "reference"), outcome,
                   traced=args.mode == "trace")
    if args.mode == "timed":
        result["walls"], result["ref_walls"] = timed_passes(work, args.seconds, outcome)
    else:
        walls, ref_walls, per_pass, covered = traced_passes(work, args.seconds, outcome,
                                                            f"{cls.name}-{args.seed}")
        result["walls"], result["ref_walls"] = walls, ref_walls
        result["self_time_share"] = statistics.median(covered) if covered else 0.0
        layers = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]} \
            if per_pass else {}
        if layers:
            layers["process.t_fix"] = workloads.t_fix(work.spec)
            layers["process.mixing_profile_peak_mb"] = workloads.profile_peak_mb(
                work.spec, work.profile_horizon)
            layers["trace.overhead_s"] = layers["trace.wall_s"] - statistics.median(ref_walls)
        result["layers"] = layers
        result["traced_passes"] = len(per_pass)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(attempted=outcome.attempted, failed=outcome.failed,
                  problems=outcome.problems)
    print(json.dumps(result))
    return 0


def record(work_dir: str) -> int:
    """Digests of every workload at the reference seed, from a traced run,
    after checking the untraced run agrees with it."""
    ref = {}
    for name, cls in workloads.WORKLOADS.items():
        work = cls(workloads.REFERENCE_SEED, os.path.join(work_dir, name))
        plain = work.digests(work.run())
        traced, _ = workloads.traced_run(work, "record")
        ref[name] = work.digests(traced)
        if work.check(traced) or any(ref[name][k] != v for k, v in plain.items()):
            print(f"{name}: outputs fail their checks; reference not written", file=sys.stderr)
            return 1
    with open(REFERENCE_PATH, "w", encoding="ascii") as fh:
        fh.write(json.dumps(ref, sort_keys=True, indent=2) + "\n")
    shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({"wrote": REFERENCE_PATH}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
