"""mixcert benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the checkout's src/
is what gets measured. Workloads: certify-default, mixing-long, mixing-ring,
validate-discrete (see NOTES.md for why each exists).

--trace 0 prints the end-to-end metrics of BENCHMARK.json: the median
set-up time of several fresh processes, and the median wall time of the
untraced passes made in --seconds by one worker process with BLAS pinned to
one thread. Times are in reference seconds: each is scaled by a calibration
loop timed beside it, so that the host's speed swings cancel (worker.py,
CAL_REF_S). --trace 1 prints the per-layer metrics from a separate traced
run. Every output is checked before a number is reported: seed-0 digests
against reference.json, and invariants for the workload seed. Lines before
the last one are a readable summary: machine facts, workload sizes, every
metric with its unit, failed_frac and, on certify-default, certs_per_s.

    python3 perfbench/run.py --record-reference

rewrites reference.json; do that only in a change whose results differ on
purpose, and say so there.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
WORKLOADS = ("certify-default", "mixing-long", "mixing-ring", "validate-discrete")
SETUP_PROBES = 5
DEADLINE_S = 170.0  # a run must end within 180 s
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ, **PINNED)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def worker(args: list, deadline: float) -> dict:
    """Run worker.py to completion and return its last stdout line as JSON.
    subprocess.run kills and reaps the child if `deadline` (monotonic) passes."""
    t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, WORKER, "--t0", str(t0)] + args,
                              env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} ran over {timeout:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def load_metric_specs() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(name, seed, seconds, work_dir, deadline) -> tuple[dict, dict]:
    common = ["--workload", name, "--seed", str(seed), "--work-dir", work_dir]
    setups = [worker(common + ["--mode", "setup"], deadline) for _ in range(SETUP_PROBES)]
    res = worker(common + ["--mode", "timed", "--seconds", str(seconds)], deadline)
    if not res["walls"]:
        raise BenchError("no pass completed")
    res["setup_raw_s"] = [p["setup_raw_s"] for p in setups]
    wall = statistics.median(res["ref_walls"])
    metrics = {"setup_s": statistics.median(p["setup_s"] for p in setups), "wall_s": wall,
               "ops_per_s": res["ops_per_pass"] / wall, "peak_rss_mb": res["peak_rss_mb"]}
    return metrics, res


def per_layer(name, seed, seconds, work_dir, deadline) -> tuple[dict, dict]:
    res = worker(["--workload", name, "--seed", str(seed), "--work-dir", work_dir,
                  "--mode", "trace", "--seconds", str(seconds)], deadline)
    if not res["layers"]:
        raise BenchError("no traced pass completed")
    return res["layers"], res


def summarize(name, seed, trace, res, metrics, specs) -> None:
    print(f"# perfbench {name} seed={seed} trace={trace}")
    print("# machine " + json.dumps(res["machine"], sort_keys=True))
    print("# sizes " + json.dumps(res["sizes"], sort_keys=True))
    walls = ", ".join(f"{w:.4f}" for w in res["walls"])
    ref_walls = ", ".join(f"{w:.4f}" for w in res["ref_walls"])
    print(f"# untraced passes: {len(res['walls'])} (+ seed-0 reference)")
    print(f"# wall s as measured: {walls}")
    print(f"# wall s in reference seconds: {ref_walls}")
    if "setup_raw_s" in res:
        print("# setup s as measured: " + ", ".join(f"{w:.4f}" for w in res["setup_raw_s"]))
    if trace:
        print(f"# traced passes: {res['traced_passes']}")
        print(f"# span self times, harness.self_s included, cover "
              f"{100 * res['self_time_share']:.3f}% of the traced wall time")
    for spec in specs:
        print(f"{spec['name']:34s} {metrics[spec['name']]:.6g} {spec['unit']}")
    print(f"{'failed_frac':34s} {res['failed'] / max(res['attempted'], 1):.6g} "
          f"({res['failed']} of {res['attempted']} operations)")
    if not trace and name == "certify-default":
        print(f"{'certs_per_s':34s} {metrics['ops_per_s']:.6g} 1/s")
    for problem in res["problems"]:
        print(f"# FAILED: {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "mixcert", "__init__.py")):
        print(f"no mixcert sources under {ROOT}/src; run inside a checkout", file=sys.stderr)
        return 2
    work_dir = os.path.join(BENCH_DIR, ".work", f"{os.getpid()}")
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.record_reference:
            print(worker(["--mode", "record", "--work-dir", work_dir], deadline + 600.0))
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        specs = load_metric_specs()["per_layer" if args.trace else "end_to_end"]
        measure = per_layer if args.trace else end_to_end
        metrics, res = measure(args.workload, args.seed, args.seconds, work_dir, deadline)
        missing = [s["name"] for s in specs if s["name"] not in metrics]
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
        summarize(args.workload, args.seed, args.trace, res, metrics, specs)
        result = {
            "correct": res["failed"] == 0,
            "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]}
                        for s in specs},
        }
        print(json.dumps(result))
        return 0
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work_dir))


if __name__ == "__main__":
    raise SystemExit(main())
