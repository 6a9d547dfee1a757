"""Scaling sweep of mixing_profile, run on demand; not a gated workload.

    python3 perfbench/sweep.py

Points: n in {1000, 2000, 4000, 8000} on the 2-state Gaussian chain of
configs/default.json, and S in {2, 4, 8, 16} on the lazy ring of
mixing-ring at n=1000. Each point reports process.mixing_profile_s (median
of REPEATS calls, in reference seconds as run.py reports them; raw_s is
the same as measured), process.mixing_profile_peak_mb and process.t_fix,
and whether the profile passed the workload's check. The last line is JSON.
"""
from __future__ import annotations

import os

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import workloads  # noqa: E402
from worker import Outcome, calibrated, calibration_s, machine_facts  # noqa: E402

REPEATS = 3


def point(work) -> dict:
    outcome = Outcome()
    raw, ref = [], []
    cal = calibration_s()
    for _ in range(REPEATS):
        out, wall, scale, cal = calibrated(outcome, work.ops_per_pass, work.run, cal)
        raw.append(wall)
        ref.append(wall * scale)
    return {"n": work.n, "states": work.spec.markov.num_states,
            "process.mixing_profile_s": statistics.median(ref),
            "raw_s": statistics.median(raw),
            "process.mixing_profile_peak_mb": workloads.profile_peak_mb(work.spec, work.n),
            "process.t_fix": workloads.t_fix(work.spec),
            "ok": out is not None and work.check(out) == 0}


def main() -> int:
    seed = workloads.REFERENCE_SEED
    works = []
    for n in (1000, 2000, 4000, 8000):
        work = workloads.MixingLong(seed, work_dir=None)
        work.n = n
        works.append(("n", work))
    works += [("S", workloads.MixingRing(seed, work_dir=None, states=S, n=1000))
              for S in (2, 4, 8, 16)]
    points = []
    for axis, work in works:
        p = dict(point(work), axis=axis)
        points.append(p)
        print(f"{axis}-sweep n={p['n']:5d} S={p['states']:2d}  "
              f"{p['process.mixing_profile_s']:9.4f} s ({p['raw_s']:.4f} as measured)  "
              f"{p['process.mixing_profile_peak_mb']:8.3f} MB  "
              f"t_fix={p['process.t_fix']}  ok={p['ok']}", flush=True)
    print(json.dumps({"machine": machine_facts(), "points": points}))
    return 0 if all(p["ok"] for p in points) else 1


if __name__ == "__main__":
    raise SystemExit(main())
