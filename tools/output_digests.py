"""SHA-256 of every file the mixcert CLI writes on the shipped configs, of
what each demo prints, and of library runs that the shipped configs skip.

    python tools/output_digests.py SRC OUT

runs `python -m mixcert` once per argv of `cli_runs` (generate, train,
certify at --jobs 1 and at --jobs 2, validate and rademacher on each of
CONFIGS in configs/ of this checkout), importing mixcert from the source
tree SRC (PYTHONPATH=SRC), with each run's outputs under OUT/<config>/<run>.
It prints, in this order:
- one "sha256  <config>/<run>/<file>" line per output file, sorted by path
  relative to OUT;
- one "sha256  demos/<name>" line per script in demos/ of this checkout,
  the digest of its stdout run with the same PYTHONPATH;
- the lines of each section of SECTIONS, in its order: rings/, signs/,
  capacity/, forward/ and draws/. Each section's docstring says what its
  lines cover.

    python tools/output_digests.py --rings [--signs ...]

prints the lines of the named sections alone, in argument order, importing
mixcert from PYTHONPATH. Run the tool with OPENBLAS_NUM_THREADS=1
(`forward_digests` says why). Two source trees write the same bytes
exactly when their listings are equal:

    python tools/output_digests.py /path/to/parent/src /tmp/a > a.txt
    python tools/output_digests.py src /tmp/b > b.txt
    diff a.txt b.txt
"""
import hashlib
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
CONFIG_DIR = os.path.join(ROOT, "configs")
DEMO_DIR = os.path.join(ROOT, "demos")
CONFIGS = ("default", "small", "validators")
RUNS = {"generate": (), "train": (), "certify-jobs1": ("--jobs", "1"),
        "certify-jobs2": ("--jobs", "2"), "validate": (), "rademacher": ()}
RING_STATES = (16, 20, 21, 32, 64)
RING_N = 800
FIXED_POINT_N = 1500
LONG_N = 4000
GAUSS_DIM = 9
SIGN_MEMBERS = 5
LOOKUP_POINTS = 20000
CAPACITY_NETWORKS = 300
FORWARD_ACTIVATIONS = ("relu", "leaky_relu", "leaky_relu:0.3", "tanh", "identity")
FORWARD_ROWS = 3 * 4096 + 5
DRAW_N = 40


def ring_digests() -> None:
    """Print the "sha256  rings/<chain>-n<n>" lines: the digest of phi, mu
    and repr(delta_inf) of each chain's `mixing_profile` at horizon n.

    First come "S<S>-n800", one per slow lazy ring of RING_STATES states at
    n = RING_N: directed rings that stay put with probabilities drawn
    uniformly from [0.5, 0.8], started at state 0, with state-revealing
    emissions. No marginal fixed point falls inside 2n there, so these
    lines cover the reduction over conditioning times that the shipped
    configs skip. The 20- and 21-state rings sit on either side of the rule
    by which `_phi_lags` lays a block of L lags out lags innermost, L >= S:
    L = 20 at S = 20 and L = 18 at S = 21. Two lines cover mu where no
    shipped config does: "validators-n1500", the driftless 2-state discrete
    chain of configs/validators.json at n = FIXED_POINT_N, whose marginals
    repeat from T = 158 on, inside n; and "S64-drift-n800", the 64-state
    ring with a table drifting toward the next state's point (amplitude
    0.5, exponent 0.5), whose law spans many of mu's time blocks. Two more
    cover Gaussian mu: "long-n4000", the drifting 2-state chain of
    configs/default.json at n = LONG_N, whose marginals repeat inside n
    while its emission term moves at every time; and "gauss-d9-n800", a
    random drifting 3-state spec in GAUSS_DIM dimensions, the first d whose
    sum of squared mean gaps numpy adds in pairwise order, not in sequence.
    Its standard normal mean gaps give sums of squares that the order of
    the sum moves in their last bits at about one time in six."""
    import numpy as np
    from mixcert import (EmissionSpec, ExperimentConfig, MarkovSpec, ProcessSpec,
                         mixing_profile)

    def gaussian(S, d):
        rng = np.random.default_rng(d)
        P = rng.uniform(0.1, 1.0, size=(S, S))
        means = rng.normal(size=(S, d))
        gaps = rng.normal(size=(S, d))
        return ProcessSpec(
            markov=MarkovSpec(S, P / P.sum(axis=1, keepdims=True), np.eye(S)[0]),
            emission=EmissionSpec.gaussian(means, float(np.abs(gaps).max()), means + gaps,
                                           0.5, 0.5),
            label_map=tuple(1 + s % 2 for s in range(S)), num_classes=2, input_dim=d)

    def ring(S, drift_table=None):
        stay = np.random.default_rng(S).uniform(0.5, 0.8, size=S)
        return ProcessSpec(
            markov=MarkovSpec(S, np.diag(stay) + np.roll(np.diag(1.0 - stay), 1, axis=1),
                              np.eye(S)[0]),
            emission=EmissionSpec.discrete(np.arange(S, dtype=np.float64)[:, None], np.eye(S),
                                           drift_table, 0.0 if drift_table is None else 0.5),
            label_map=tuple(1 + s % 2 for s in range(S)), num_classes=2, input_dim=1)

    validators = ExperimentConfig.load(os.path.join(CONFIG_DIR, "validators.json")).process
    default = ExperimentConfig.load(os.path.join(CONFIG_DIR, "default.json")).process
    chains = [(f"S{S}-n{RING_N}", ring(S), RING_N) for S in RING_STATES]
    chains += [(f"validators-n{FIXED_POINT_N}", validators, FIXED_POINT_N),
               (f"S64-drift-n{RING_N}", ring(64, np.roll(np.eye(64), 1, axis=1)), RING_N),
               (f"long-n{LONG_N}", default, LONG_N),
               (f"gauss-d{GAUSS_DIM}-n{RING_N}", gaussian(3, GAUSS_DIM), RING_N)]
    for name, spec, n in chains:
        prof = mixing_profile(spec, n)
        digest = hashlib.sha256(prof.phi.tobytes() + prof.mu.tobytes()
                                + repr(prof.delta_inf).encode("ascii"))
        print(f"{digest.hexdigest()}  rings/{name}")


def sign_digests() -> None:
    """Print the "sha256  signs/<call>" lines: the repr of
    `validate_symmetrization` (exact and Monte Carlo signs) and of exact and
    Monte Carlo `empirical_rademacher_*` for a class of SIGN_MEMBERS value
    tables drawn uniformly from [0, 1) on the chain of
    configs/validators.json. Their signed sums round differently when
    summed in another order. The shipped configs only run the sign kernel
    on the built-in class, whose values 0, 0.5 and 1 sum exactly in any
    order, so only these lines see a last-bit change in it. The last line,
    "signs/table-lookup-n20000", is the digest of `table_class(...).evaluate`
    on LOOKUP_POINTS points over that alphabet with its first point
    repeated, the one line that covers a lookup of a repeated alphabet
    point."""
    import numpy as np
    from mixcert import (ExperimentConfig, empirical_rademacher_exact,
                         empirical_rademacher_mc, sample_sequence, table_class,
                         validate_symmetrization)

    spec = ExperimentConfig.load(os.path.join(CONFIG_DIR, "validators.json")).process
    alphabet = np.asarray(spec.emission.alphabet)
    rng = np.random.default_rng(2024)
    fclass = table_class(alphabet, [rng.random((alphabet.shape[0], spec.num_classes))
                                    for _ in range(SIGN_MEMBERS)])
    data = sample_sequence(spec, 12, 7)
    for name, result in (
            ("symmetrization-exact-n8", validate_symmetrization(fclass, spec, 8, 1000, 11)),
            ("symmetrization-mc-n14", validate_symmetrization(fclass, spec, 14, 200, 11)),
            ("rademacher-exact-n12", empirical_rademacher_exact(fclass, data)),
            ("rademacher-mc-n12", empirical_rademacher_mc(fclass, data, 10000, 7))):
        print(f"{hashlib.sha256(repr(result).encode('ascii')).hexdigest()}  signs/{name}")
    rng = np.random.default_rng(2025)
    repeated = np.concatenate([alphabet, alphabet[:1]])
    tables = [rng.random((alphabet.shape[0], spec.num_classes)) for _ in range(SIGN_MEMBERS)]
    pick = rng.integers(0, repeated.shape[0], size=LOOKUP_POINTS)
    values = table_class(repeated, [np.concatenate([t, t[:1]]) for t in tables]).evaluate(
        repeated[pick], rng.integers(1, spec.num_classes + 1, size=LOOKUP_POINTS))
    print(f"{hashlib.sha256(values.tobytes()).hexdigest()}  signs/table-lookup-n{LOOKUP_POINTS}")


def capacity_digest() -> None:
    """Print the "sha256  capacity/covering-and-zero-layer" line: the repr
    of `covering_bound_terms` on CAPACITY_NETWORKS random networks of depth
    1 to 3 and weight scales 1e-3 to 1e3 at random B, gamma, W and n, then
    of each report of a two-layer network whose second layer is zero and
    whose first is random, certified on configs/small.json's first seed.
    The shipped configs reach the capacity term only on trained networks
    and never reach a zero layer."""
    import numpy as np
    from mixcert import (ExperimentConfig, LayerNorms, NetworkParams, covering_bound_terms,
                         mixing_profile, network_certificate, sample_sequence,
                         sample_target)

    rng = np.random.default_rng(2026)
    parts = []
    for _ in range(CAPACITY_NETWORKS):
        dims = rng.integers(1, 9, size=rng.integers(2, 5))
        layers = tuple(10.0 ** rng.uniform(-3.0, 3.0) * rng.standard_normal((b, a))
                       for a, b in zip(dims[:-1], dims[1:]))
        norms = LayerNorms.from_params(NetworkParams(layers, ("relu",) * len(layers)))
        parts.append(covering_bound_terms(
            float(10.0 ** rng.uniform(-2.0, 3.0)), float(10.0 ** rng.uniform(-2.0, 1.0)),
            int(rng.integers(1, 100)), int(rng.integers(2, 10 ** 6)), norms))
    config = ExperimentConfig.load(os.path.join(CONFIG_DIR, "small.json"))
    spec, seed = config.process, config.seeds[0]
    dims = config.arch.dims
    params = NetworkParams((rng.standard_normal((dims[1], dims[0])),
                            np.zeros((dims[2], dims[1]))), config.arch.activations)
    data = sample_sequence(spec, config.n_train, seed)
    reports = network_certificate(data, params, config.gamma_list,
                                  mixing_profile(spec, config.n_train), config.delta,
                                  target=sample_target(spec, config.m_target, seed), seed=seed)
    parts.extend(report.to_json_dict() for report in reports)
    digest = hashlib.sha256(repr(parts).encode("ascii")).hexdigest()
    print(f"{digest}  capacity/covering-and-zero-layer")


def forward_digests() -> None:
    """Print the "sha256  forward/<activation>-n<rows>" lines, one per
    activation: the digest of `forward_batch` on FORWARD_ROWS standard
    normal rows for networks of depth 1, 2 and 3 with standard normal
    weights and layer sizes drawn uniformly from 1..64. The shipped configs
    run only relu and identity at width 16, and FORWARD_ROWS, three row
    blocks and five rows, ends in a cut block. The relu line's first
    network has a one-unit layer of 41 inputs: a matrix-vector product,
    which OpenBLAS splits among its threads when it spans all 12,293 rows,
    so a tree that runs the layers over all rows at once reads the same
    there only on one BLAS thread (OPENBLAS_NUM_THREADS=1)."""
    import numpy as np
    from mixcert import NetworkParams, forward_batch

    rng = np.random.default_rng(2027)
    for act in FORWARD_ACTIVATIONS:
        digest = hashlib.sha256()
        for depth in (1, 2, 3):
            dims = rng.integers(1, 65, size=depth + 1)
            params = NetworkParams(tuple(rng.standard_normal((b, a))
                                         for a, b in zip(dims[:-1], dims[1:])), (act,) * depth)
            digest.update(forward_batch(params, rng.standard_normal((FORWARD_ROWS, dims[0])))
                          .tobytes())
        print(f"{digest.hexdigest()}  forward/{act}-n{FORWARD_ROWS}")


def draw_digest() -> None:
    """Print the "sha256  draws/certain-n<DRAW_N>" line: the digest of every
    sampler (`sample_sequence`, `sample_target`, `sample_sequences_batch`
    and `sequence_value_means` with a value table and with a callable), at
    DRAW_N times and 300 trials, on two discrete specs whose draws are
    certain in places: a 3-state chain with a point-mass start law, a
    kernel row that is a point mass and an emission table that is certain
    only once its drift has underflowed to 0 (from t = 7 on), and a 1-state
    chain. Where a draw is certain, its uniforms are skipped, not
    generated; the shipped configs skip only at rows and tables that are
    certain throughout."""
    import numpy as np
    from mixcert import (EmissionSpec, MarkovSpec, ProcessSpec, sample_sequence,
                         sample_sequences_batch, sample_target, sequence_value_means)

    alphabet = np.array([[0.0], [1.0], [2.5]])
    three = ProcessSpec(
        markov=MarkovSpec(3, [[0.0, 1.0, 0.0], [0.2, 0.5, 0.3], [0.6, 0.0, 0.4]],
                          [1.0, 0.0, 0.0]),
        emission=EmissionSpec.discrete(alphabet, np.eye(3), np.full((3, 3), 1.0 / 3.0),
                                       0.5, 400.0),
        label_map=(1, 2, 1), num_classes=2, input_dim=1)
    one = ProcessSpec(markov=MarkovSpec(1, [[1.0]], [1.0]),
                      emission=EmissionSpec.discrete(alphabet, [[0.25, 0.0, 0.75]]),
                      label_map=(2,), num_classes=2, input_dim=1)
    f_table = np.array([[0.1, 0.9], [0.4, 0.35], [0.8, 0.05]])

    def f(inputs, labels):
        return (inputs[:, 0] * labels) % 1.0

    digest = hashlib.sha256()
    for spec in (three, one):
        for data in (sample_sequence(spec, DRAW_N, 3), sample_target(spec, 300, 3)):
            digest.update(data.inputs.tobytes() + data.labels.tobytes())
        for array in (*sample_sequences_batch(spec, DRAW_N, 300, 3),
                      sequence_value_means(spec, f_table, DRAW_N, 300, 3),
                      sequence_value_means(spec, f, DRAW_N, 300, 3)):
            digest.update(array.tobytes())
    print(f"{digest.hexdigest()}  draws/certain-n{DRAW_N}")


SECTIONS = {"--rings": ring_digests, "--signs": sign_digests, "--capacity": capacity_digest,
            "--forward": forward_digests, "--draws": draw_digest}


def cli_runs(out: str):
    """The argv, after `mixcert`, of each run of RUNS on each of CONFIGS,
    writing its outputs under out/<config>/<run>."""
    for config in CONFIGS:
        for run, flags in RUNS.items():
            yield [run.split("-")[0], "--config", os.path.join(CONFIG_DIR, f"{config}.json"),
                   "--out", os.path.join(out, config, run), *flags]


def main(argv) -> int:
    if argv and all(arg in SECTIONS for arg in argv):
        for arg in argv:
            SECTIONS[arg]()
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src, out = (os.path.abspath(a) for a in argv)
    if os.path.isdir(out) and os.listdir(out):
        print(f"output directory {out} is not empty", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    for args in cli_runs(out):
        subprocess.run([sys.executable, "-m", "mixcert", *args], env=env, check=True,
                       stdout=subprocess.DEVNULL)
    paths = sorted(os.path.relpath(os.path.join(root, name), out)
                   for root, _, names in os.walk(out) for name in names)
    for path in paths:
        with open(os.path.join(out, path), "rb") as fh:
            print(f"{hashlib.sha256(fh.read()).hexdigest()}  {path}")
    for name in sorted(n for n in os.listdir(DEMO_DIR) if n.endswith(".py")):
        stdout = subprocess.run([sys.executable, os.path.join(DEMO_DIR, name)], env=env,
                                check=True, stdout=subprocess.PIPE).stdout
        print(f"{hashlib.sha256(stdout).hexdigest()}  demos/{name}")
    sys.stdout.flush()
    subprocess.run([sys.executable, os.path.abspath(__file__), *SECTIONS], env=env, check=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
