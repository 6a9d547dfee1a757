"""SHA-256 of every file the mixcert CLI writes on the shipped configs.

    python tools/output_digests.py SRC OUT

runs `python -m mixcert` generate, train, certify (at --jobs 1 and at
--jobs 2), validate and rademacher on configs/default.json, small.json and
validators.json of this checkout, importing mixcert from the source tree SRC
(PYTHONPATH=SRC), with each run's outputs under OUT/<config>/<run>. It then
prints one "sha256  path" line per file, sorted by path relative to OUT. Two
source trees write the same bytes exactly when their listings are equal:

    python tools/output_digests.py /path/to/parent/src /tmp/a > a.txt
    python tools/output_digests.py src /tmp/b > b.txt
    diff a.txt b.txt
"""
import hashlib
import os
import subprocess
import sys

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs")
RUNS = {"generate": (), "train": (), "certify-jobs1": ("--jobs", "1"),
        "certify-jobs2": ("--jobs", "2"), "validate": (), "rademacher": ()}


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src, out = (os.path.abspath(a) for a in argv)
    if os.path.isdir(out) and os.listdir(out):
        print(f"output directory {out} is not empty", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    for config in ("default", "small", "validators"):
        for run, flags in RUNS.items():
            subprocess.run([sys.executable, "-m", "mixcert", run.split("-")[0],
                            "--config", os.path.join(CONFIG_DIR, f"{config}.json"),
                            "--out", os.path.join(out, config, run), *flags],
                           env=env, check=True, stdout=subprocess.DEVNULL)
    paths = sorted(os.path.relpath(os.path.join(root, name), out)
                   for root, _, names in os.walk(out) for name in names)
    for path in paths:
        with open(os.path.join(out, path), "rb") as fh:
            print(f"{hashlib.sha256(fh.read()).hexdigest()}  {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
