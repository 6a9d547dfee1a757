"""Feed-forward network tests: margins, losses, gradients, training."""

import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixcert import (
    Activation,
    Architecture,
    BadLabel,
    DimensionMismatch,
    DivergedLoss,
    EmptyDataset,
    LabeledDataset,
    NetworkParams,
    NonpositiveGamma,
    TrainConfig,
    WrongKind,
    forward_batch,
    margins_batch,
    network_certificate,
    ramp_loss,
    substream,
    train_sgd,
)
from mixcert.network import (
    _ROW_BLOCK,
    _ce_forward,
    _loss_and_grads,
    _row_max,
    dataset_margins,
    error_rate,
    mean_ramp_loss,
)
from mixcert.seeding import _TRAIN
from oracles import flat_profile, reference_forward, reference_margin


def masked_copy_margins(logits, labels):
    """The earlier body of margins_batch: a masked copy of the scores with
    each label's entry set to -inf, the row maxima taken column by column,
    subtracted from the label scores."""
    K = logits.shape[1]
    masked = logits.copy()
    flat = np.arange(logits.shape[0]) * K + (labels - 1)
    true = masked.take(flat)
    masked.ravel()[flat] = -np.inf
    top = masked[:, 0]
    for k in range(1, K):
        top = np.maximum(top, masked[:, k])
    return true - top


def row_margin(v, j):
    """The margin of score vector v at label j: the one row of margins_batch."""
    return float(margins_batch(np.asarray(v)[None], [j])[0])


def certify_with_target(params, target, gamma):
    """The one report of a certificate, on a fixed four-point sequence, that
    carries the plug-in losses of `params` on `target`."""
    data = LabeledDataset(inputs=np.ones((4, 2)), labels=np.array([1, 2, 1, 2]),
                          num_classes=2, kind="sequence", seed=0)
    return network_certificate(data, params, (gamma,), flat_profile(4), 0.05, target=target)[0]


def random_params(rng, max_layers=3, max_dim=6):
    """A random 1..max_layers network with mixed activations and scales."""
    L = int(rng.integers(1, max_layers + 1))
    dims = [int(d) for d in rng.integers(1, max_dim + 1, size=L + 1)]
    names = ("relu", "leaky_relu:0.1", "tanh", "identity")
    return NetworkParams(
        layers=tuple(rng.normal(size=(dims[i + 1], dims[i])) * rng.uniform(0.1, 3.0)
                     for i in range(L)),
        activations=tuple(Activation.parse(names[int(rng.integers(4))]) for _ in range(L)))


BLOCK_ACTIVATIONS = ("relu", "leaky_relu", "leaky_relu:0.3", "tanh", "identity")
# one-unit layers fed by many units: products that OpenBLAS runs as
# matrix-vector code, which rounds the last rows of each thread's share
BLOCK_EDGE_DIMS = ((64, 1), (64, 1, 2), (1, 64, 1), (2, 64, 64, 1))


def unblocked_forward(params, X):
    """The chain forward_batch runs, over all rows at once."""
    Z = X
    for W, act in zip(params.layers, params.activations):
        Z = act.apply(Z @ W.T)
    return Z


def block_cases(n):
    """(network, inputs) pairs on n rows: every activation at depths 1-3
    with widths drawn from 1..64, the chains of BLOCK_EDGE_DIMS, and for
    each network C-ordered inputs, their columns reversed and a transposed
    (Fortran-ordered) view."""
    rng = np.random.default_rng(n)
    chains = [(tuple(int(d) for d in rng.integers(1, 65, size=depth + 1)), (act,) * depth)
              for depth in (1, 2, 3) for act in BLOCK_ACTIVATIONS]
    chains += [(dims, tuple(BLOCK_ACTIVATIONS[i % 5] for i in range(len(dims) - 1)))
               for dims in BLOCK_EDGE_DIMS]
    for dims, acts in chains:
        p = NetworkParams(layers=tuple(rng.normal(size=(b, a)) for a, b in zip(dims, dims[1:])),
                          activations=acts)
        X = rng.normal(size=(n, dims[0]))
        for view in (X, X[:, ::-1], np.ascontiguousarray(X.T).T):
            yield p, view


def block_mismatches(n):
    """The cases of block_cases(n) where forward_batch and the unblocked
    chain differ in any bit."""
    return [(p, X) for p, X in block_cases(n)
            if not np.array_equal(forward_batch(p, X), unblocked_forward(p, X))]


def tiny_params(seed=77, dims=(3, 5, 4, 3), acts=("tanh", "leaky_relu:0.1", "identity")):
    rng = np.random.default_rng(seed)
    layers = tuple(rng.normal(size=(dims[i + 1], dims[i])) * 0.5
                   for i in range(len(dims) - 1))
    return NetworkParams(layers=layers,
                         activations=tuple(Activation.parse(a) for a in acts))


class TestActivation:
    def test_parse_round_trip(self):
        a = Activation.parse("leaky_relu:0.25")
        assert a.kind == "leaky_relu" and a.slope == 0.25
        assert Activation.parse(a.name()).slope == 0.25

    def test_relu_values(self):
        a = Activation("relu")
        np.testing.assert_array_equal(a.apply(np.array([-2.0, 0.0, 3.0])),
                                      [0.0, 0.0, 3.0])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Activation("sigmoid")

    def test_lipschitz_is_one(self):
        """Every activation is 1-Lipschitz, which the capacity term assumes
        when it leaves the activations out of T."""
        z = np.linspace(-4.0, 4.0, 8001)
        for name in ("relu", "tanh", "identity", "leaky_relu:0.5"):
            slopes = np.abs(np.diff(Activation.parse(name).apply(z)) / np.diff(z))
            assert slopes.max() <= 1.0 + 1e-12

    @pytest.mark.parametrize("name", ["relu", "leaky_relu:0.25", "tanh", "identity"])
    def test_saved_forward_keeps_the_bits_of_the_chain_rule_in_z(self, name):
        """What _forward saves gives backward the bits of the chain rule
        written in the pre-activations z (the relu mask as a bool), and its
        outputs are apply's, at signed zeros and on both sides of them."""
        act = Activation.parse(name)
        rng = np.random.default_rng(3)
        z = rng.normal(size=(64, 16))
        z[::5, ::3] = 0.0
        z[1::5, ::3] = -0.0
        d = rng.normal(size=(64, 16))
        d[::4] = -d[::4]
        local = {"relu": z > 0.0, "leaky_relu": np.where(z > 0.0, 1.0, 0.25),
                 "tanh": 1.0 - np.tanh(z) * np.tanh(z), "identity": 1.0}[act.kind]
        out, saved = act._forward(z)
        assert out.tobytes() == act.apply(z).tobytes()
        assert act.backward(saved, d).tobytes() == (d * local).tobytes()


class TestNetworkParams:
    def test_rejects_chain_mismatch(self):
        with pytest.raises(DimensionMismatch):
            NetworkParams(layers=(np.zeros((4, 3)), np.zeros((2, 5))),
                          activations=(Activation("relu"), Activation("identity")))

    def test_width_includes_input_dim(self):
        p = NetworkParams(layers=(np.zeros((2, 7)), np.zeros((3, 2))),
                          activations=(Activation("relu"), Activation("identity")))
        assert p.width == 7

    def test_save_load_round_trip(self, tmp_path):
        p = tiny_params()
        path = tmp_path / "w.txt"
        p.save(path)
        q = NetworkParams.load(path)
        for a, b in zip(p.layers, q.layers):
            np.testing.assert_array_equal(a, b)
        assert tuple(a.name() for a in q.activations) == \
            tuple(a.name() for a in p.activations)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), dims=st.lists(st.integers(1, 4), min_size=2, max_size=4))
    def test_save_load_is_bit_exact(self, data, dims):
        """Any finite weights, signed zeros and subnormals included, and any
        activation survive save -> load bit for bit."""
        floats = st.floats(allow_nan=False, allow_infinity=False)
        layers = tuple(
            np.array(data.draw(st.lists(floats, min_size=r * c, max_size=r * c)),
                     dtype=np.float64).reshape(r, c)
            for c, r in zip(dims, dims[1:]))
        kinds = st.sampled_from(("relu", "tanh", "identity")).map(Activation)
        leaky = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(
            lambda s: Activation("leaky_relu", s))
        acts = tuple(data.draw(kinds | leaky) for _ in layers)
        p = NetworkParams(layers=layers, activations=acts)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "w.txt"
            p.save(path)
            q = NetworkParams.load(path)
        assert len(q.layers) == len(p.layers)
        for a, b in zip(p.layers, q.layers):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert q.activations == p.activations

    def test_load_rejects_trailing_garbage(self, tmp_path):
        path = tmp_path / "w.txt"
        tiny_params().save(path)
        lines = path.read_text(encoding="ascii").count("\n")
        with open(path, "a", encoding="ascii") as fh:
            fh.write("\ngarbage\n")
        with pytest.raises(ValueError, match=f"line {lines + 2}"):
            NetworkParams.load(path)

    @pytest.mark.parametrize("text, message", [
        ("", r"line 1 has 0 fields, wanted 1 \(layer count\)"),
        ("1\n-2 2\n0.5 0.5\n0.5 0.5\nrelu\n", "line 2: rows '-2'"),
        ("1\n1 2\n0.5 x\nrelu\n", "line 3: weight 'x'"),
        ("1\n1 1\n0.5\nleaky_relu:abc\n", "line 4: activation 'leaky_relu:abc'"),
        # past any array axis: named, never turned into an index
        (f"1\n1 {10 ** 100}\n0.5\nrelu\n", f"line 2: cols '{10 ** 100}': not an integer in"),
    ], ids=["empty-file", "negative-rows", "letter-weight", "letter-slope", "huge-cols"])
    def test_load_names_the_line_and_field(self, tmp_path, text, message):
        path = tmp_path / "w.txt"
        path.write_text(text, encoding="ascii")
        with pytest.raises(ValueError, match=message):
            NetworkParams.load(path)

    def test_load_rejects_a_file_cut_short(self, tmp_path):
        """A 2x1 layer with one row present and no activation line."""
        path = tmp_path / "w.txt"
        path.write_text("1\n2 1\n0.5", encoding="ascii")
        with pytest.raises(ValueError, match="missing line 4"):
            NetworkParams.load(path)


class TestMargin:
    def test_frozen_value(self):
        v = np.array([0.2, 0.9, -0.1])
        assert row_margin(v, 2) == pytest.approx(0.7, abs=1e-15)
        assert row_margin(v, 1) == pytest.approx(-0.7, abs=1e-15)

    def test_tie_gives_zero(self):
        assert row_margin(np.array([1.0, 1.0]), 1) == 0.0

    def test_labels_are_one_indexed(self):
        with pytest.raises(BadLabel):
            row_margin(np.array([1.0, 2.0]), 0)
        with pytest.raises(BadLabel):
            row_margin(np.array([1.0, 2.0]), 3)

    def test_labels_must_be_integers(self):
        v = np.array([1.0, 2.0, 0.5])
        for j in (1.5, 2.9, np.nan, np.inf):
            with pytest.raises(BadLabel):
                row_margin(v, j)
        with pytest.raises(BadLabel):
            margins_batch(np.vstack([v, v]), np.array([1.0, 2.5]))
        # integral floats are accepted as their integer values
        assert np.array_equal(margins_batch(np.vstack([v, v]), np.array([1.0, 3.0])),
                              margins_batch(np.vstack([v, v]), [1, 3]))

    def test_batch_matches_scalar(self):
        """margins_batch equals the per-vector oracle bit for bit, ties
        included, on whole batches and on one-row batches."""
        rng = np.random.default_rng(5)
        for K in range(2, 7):
            V = rng.normal(size=(200, K)) * 10.0 ** rng.uniform(-3, 3, size=(200, 1))
            y = rng.integers(1, K + 1, size=200)
            V[::4, 0] = V[::4].max(axis=1)
            oracle = np.array([reference_margin(V[i], int(y[i])) for i in range(200)])
            assert np.array_equal(margins_batch(V, y), oracle)
            assert np.array_equal([row_margin(V[i], int(y[i])) for i in range(200)], oracle)

    def test_batch_matches_the_reduction_along_the_class_axis(self):
        """margins_batch equals its earlier form, the true score less
        `masked.max(axis=1)`, with exact ties, +-inf scores (so also
        inf - inf = nan) and labels in every column. The row maxima are taken
        column by column, so only the sign of a zero maximum may differ,
        which np.array_equal ignores and no loss or error rate reads."""
        rng = np.random.default_rng(11)
        for K in range(2, 7):
            V = rng.normal(size=(600, K))
            V[rng.random(V.shape) < 0.1] = np.inf
            V[rng.random(V.shape) < 0.1] = -np.inf
            y = rng.integers(1, K + 1, size=600)
            y[:K] = np.arange(1, K + 1)
            tie = rng.random(600) < 0.3
            V[tie, rng.integers(0, K)] = V[tie, y[tie] - 1]
            idx = np.arange(600)
            masked = V.copy()
            masked[idx, y - 1] = -np.inf
            with np.errstate(invalid="ignore"):
                want = V[idx, y - 1] - masked.max(axis=1)
                got = margins_batch(V, y)
            assert np.array_equal(got, want, equal_nan=True), K
            assert set(y) == set(range(1, K + 1))
            assert np.any(got == 0.0) and np.any(np.isnan(got)) and np.any(np.isinf(got))

    def test_bits_match_the_masked_copy(self):
        """Every bit of the masked-copy form over all rows at once, the sign
        of zero and NaN payloads included, on ties, +-0.0, +-inf and NaN
        scores, in one row block and across several with a cut last one."""
        rng = np.random.default_rng(29)
        specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0])
        B = _ROW_BLOCK
        sizes = [int(m) for m in rng.integers(0, 40, size=294)] + [B - 1, B, B + 1, 3 * B + 5] * 2
        for case, m in enumerate(sizes):
            K = int(rng.integers(2, 7))
            V = rng.normal(size=(m, K))
            hit = rng.random(V.shape) < rng.uniform(0.0, 0.6)
            V[hit] = rng.choice(specials, size=int(hit.sum()))
            y = rng.integers(1, K + 1, size=m)
            with np.errstate(invalid="ignore"):
                want = masked_copy_margins(V, y)
                got = margins_batch(V, y)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), case

    def test_memory_is_a_few_vectors(self):
        """Above its (m, 2) scores margins_batch holds its (m,) margins and
        one row block's masked copy, not a masked copy of all scores: the
        form over all rows at once peaks at about seven (m,) arrays."""
        m = 200_000
        rng = np.random.default_rng(3)
        V, y = rng.normal(size=(m, 2)), rng.integers(1, 3, size=m)
        margins_batch(V[:10], y[:10])
        tracemalloc.start()
        try:
            margins_batch(V, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * m * 8


class TestRampLoss:
    def test_anchor_values(self):
        """Argument is the negated margin: 1 at margin 0, 0 at margin gamma."""
        assert ramp_loss(0.0, 1.0) == 1.0
        assert ramp_loss(-1.0, 1.0) == 0.0
        assert ramp_loss(-0.25, 0.5) == 0.5
        assert ramp_loss(2.0, 1.0) == 1.0

    def test_array_form_and_range(self):
        r = np.linspace(-3, 3, 101)
        vals = ramp_loss(r, 0.7)
        assert vals.shape == r.shape
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        assert np.all(np.diff(vals) >= -1e-15)

    def test_lipschitz_in_argument(self):
        gamma = 0.4
        r = np.linspace(-2, 2, 4001)
        vals = ramp_loss(r, gamma)
        slopes = np.abs(np.diff(vals) / np.diff(r))
        assert np.max(slopes) <= 1.0 / gamma + 1e-9

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(NonpositiveGamma):
            ramp_loss(0.1, 0.0)

    def test_rejects_nan_gamma(self):
        with pytest.raises(NonpositiveGamma, match="'gamma' must be a finite number > 0"):
            ramp_loss(0.3, math.nan)


class TestLosses:
    def data(self):
        inputs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, -1.0]])
        labels = np.array([1, 2, 1, 2])
        return LabeledDataset(inputs=inputs, labels=labels, num_classes=2,
                              kind="sequence", seed=0)

    def identity_net(self):
        return NetworkParams(layers=(np.eye(2),),
                             activations=(Activation("identity"),))

    def test_zero_one_counts_ties_as_errors(self):
        data = LabeledDataset(inputs=np.array([[0.5, 0.5]]), labels=np.array([1]),
                              num_classes=2, kind="sequence", seed=0)
        assert error_rate(dataset_margins(self.identity_net(), data)) == 1.0

    def test_frozen_losses_on_identity_net(self):
        """Margins are (1, 1, 0, 0), so half the points are errors and the
        ramp at gamma=2 is (1/4)(1/2 + 1/2 + 1 + 1)."""
        margins = dataset_margins(self.identity_net(), self.data())
        assert error_rate(margins) == 0.5
        assert mean_ramp_loss(margins, gamma=2.0) == pytest.approx(0.75, abs=1e-15)
        assert mean_ramp_loss(margins, gamma=1.0) == pytest.approx(0.5, abs=1e-15)

    def test_ramp_dominates_zero_one(self):
        rng = np.random.default_rng(11)
        p = tiny_params(dims=(2, 6, 2), acts=("relu", "identity"))
        d = LabeledDataset(inputs=rng.normal(size=(50, 2)),
                           labels=rng.integers(1, 3, size=50).astype(np.int64),
                           num_classes=2, kind="sequence", seed=0)
        margins = dataset_margins(p, d)
        for gamma in (0.1, 0.5, 2.0):
            assert mean_ramp_loss(margins, gamma) >= error_rate(margins) - 1e-15

    def test_ramp_is_taken_in_place(self):
        """mean_ramp_loss holds the negated margins and one ramp array: the
        ramp is the same floats as 1 + min(r, 0) / gamma clipped to [0, 1]."""
        m = 200_000
        margins = np.random.default_rng(4).normal(size=m)
        r = -margins
        want = np.clip(1.0 + np.minimum(r, 0.0) / 0.3, 0.0, 1.0)
        assert np.array_equal(ramp_loss(r, 0.3), want)
        assert mean_ramp_loss(margins, 0.3) == float(np.mean(want))
        tracemalloc.start()
        try:
            mean_ramp_loss(margins, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * m * 8

    def test_empty_dataset_rejected(self):
        def empty(kind):
            return LabeledDataset(inputs=np.zeros((0, 2)), labels=np.zeros(0, dtype=np.int64),
                                  num_classes=2, kind=kind, seed=0)
        arch = Architecture(dims=(2, 2), activations=("identity",))
        with pytest.raises(EmptyDataset):
            train_sgd(empty("sequence"), arch, TrainConfig(learning_rate=0.1, epochs=1,
                                                           batch_size=1, seed=0))
        with pytest.raises(EmptyDataset):
            certify_with_target(self.identity_net(), empty("target_iid"), gamma=1.0)


class TestForward:
    def test_batch_matches_single(self):
        """A one-row forward_batch equals the per-vector oracle bit for bit
        on random networks, and a batch of rows agrees with it row by row."""
        rng = np.random.default_rng(8)
        for _ in range(200):
            p = random_params(rng)
            X = rng.normal(size=(5, p.input_dim)) * 10.0 ** rng.uniform(-3, 3)
            oracle = np.array([reference_forward(p, x) for x in X])
            assert all(np.array_equal(forward_batch(p, x[None])[0], o)
                       for x, o in zip(X, oracle))
            # A multi-row product may round differently from a matrix-vector
            # one. Each pass errs by at most (sum of the layers' input dims +
            # one activation rounding per layer) * eps/2 * scale, where scale
            # = |X|_inf * prod ||W||_inf bounds every partial sum (the
            # activations are 1-Lipschitz and fix 0); the two passes differ by
            # at most twice that, plus one eps for the gamma_d slack.
            scale = np.abs(X).max() * np.prod([np.abs(W).sum(axis=1).max() for W in p.layers])
            terms = sum(W.shape[1] for W in p.layers) + len(p.layers) + 1
            np.testing.assert_allclose(forward_batch(p, X), oracle, rtol=0,
                                       atol=terms * np.finfo(np.float64).eps * scale)
        p = tiny_params()
        X = np.random.default_rng(8).normal(size=(10, 3))
        oracle = np.array([reference_forward(p, x) for x in X])
        np.testing.assert_allclose(forward_batch(p, X), oracle, rtol=0, atol=1e-14)

    def test_lipschitz_bound(self):
        """Output displacement never exceeds the product of layer spectral
        norms times input displacement."""
        from mixcert import LayerNorms
        p = tiny_params(seed=4)
        norms = LayerNorms.from_params(p)
        lip = float(np.prod(norms.spectral))
        rng = np.random.default_rng(41)
        for _ in range(50):
            x, dx = rng.normal(size=(1, 3)), rng.normal(size=(1, 3))
            lhs = np.linalg.norm(forward_batch(p, x + dx) - forward_batch(p, x))
            assert lhs <= lip * np.linalg.norm(dx) + 1e-9

    def test_dimension_check(self):
        p = tiny_params()
        with pytest.raises(DimensionMismatch):
            forward_batch(p, np.zeros((1, 4)))

    @pytest.mark.parametrize("n", [0, 1, _ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1,
                                   3 * _ROW_BLOCK + 5])
    def test_blocks_keep_the_bits_of_the_unblocked_chain(self, n):
        """Row blocks change no bit of a product of many rows. The one
        exception is a one-unit layer over more than one block: it is a
        matrix-vector product, which OpenBLAS splits among its threads at a
        row that depends on the row count and rounds the last rows of each
        share differently, so neither form has bits independent of the
        thread count there (test_blocks_keep_every_bit_on_one_blas_thread)."""
        for p, X in block_mismatches(n):
            assert n >= 2 * _ROW_BLOCK and min(W.shape[0] for W in p.layers) == 1
            np.testing.assert_allclose(forward_batch(p, X), unblocked_forward(p, X),
                                       rtol=1e-12, atol=1e-12)

    def test_blocks_keep_every_bit_on_one_blas_thread(self):
        """With one BLAS thread no product is split, and every case of
        several blocks, one-unit layers of 64 inputs included, keeps every
        bit."""
        tests = Path(__file__).resolve().parent
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
            (str(tests.parent / "src"), str(tests))))
        proc = subprocess.run(
            [sys.executable, "-c", "import test_network as t; "
             "print(len(t.block_mismatches(3 * t._ROW_BLOCK + 5)))"],
            env=env, capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "0"

    def test_memory_is_one_block_whatever_n(self):
        """Beyond its output, forward_batch holds one block of products and
        activations, so its peak above the output is the same, within one
        block, at 100,000 and 200,000 rows."""
        p = tiny_params(dims=(2, 64, 64, 2), acts=("relu", "tanh", "identity"))
        block = 2 * _ROW_BLOCK * 64 * 8  # one block's product and activation
        rng = np.random.default_rng(12)
        forward_batch(p, rng.normal(size=(3, 2)))
        above = []
        for n in (100_000, 200_000):
            X = rng.normal(size=(n, 2))
            tracemalloc.start()
            try:
                out = forward_batch(p, X)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            above.append(peak - out.nbytes)
        assert abs(above[1] - above[0]) <= block, above
        assert max(above) <= 3 * block, above


class TestGradient:
    def test_finite_difference_agreement(self):
        p = tiny_params()
        rng = np.random.default_rng(12)
        X = rng.normal(size=(6, 3))
        y = np.array([1, 2, 3, 1, 2, 3])
        grads = _loss_and_grads(p.layers, p.activations, X, y)[1]
        h = 1e-6
        for li, W in enumerate(p.layers):
            for idx in [(0, 0), (W.shape[0] - 1, W.shape[1] - 1)]:
                Wp = [w.copy() for w in p.layers]
                Wm = [w.copy() for w in p.layers]
                Wp[li][idx] += h
                Wm[li][idx] -= h
                pp = NetworkParams(layers=tuple(Wp), activations=p.activations)
                pm = NetworkParams(layers=tuple(Wm), activations=p.activations)
                num = (_ce_forward(pp.layers, pp.activations, X, y)[3]
                       - _ce_forward(pm.layers, pm.activations, X, y)[3]) / (2 * h)
                assert abs(num - grads[li][idx]) < 1e-7

    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_loss_is_the_mean_cross_entropy(self, n):
        """The batch loss is np.mean of the per-sample cross-entropy over the
        max-shifted scores of forward_batch, bit for bit."""
        p = tiny_params()
        rng = np.random.default_rng(n)
        X = rng.normal(size=(n, 3))
        y = rng.integers(1, 4, size=n)
        logits = forward_batch(p, X)
        shift = logits - logits.max(axis=1, keepdims=True)
        want = float(np.mean(np.log(np.exp(shift).sum(axis=1)) - shift[np.arange(n), y - 1]))
        assert _ce_forward(p.layers, p.activations, X, y)[3] == want

    @pytest.mark.parametrize("seed", range(30))
    def test_step_has_the_bits_of_a_matmul_backprop(self, seed):
        """The loss and gradients, fresh or written into given buffers, equal
        backprop written with `@` and a scatter of -1 at each label, bit for
        bit: `np.dot` and the one-hot rows change only the cost. Random
        depths, activations and widths (one unit included), K >= 2, and
        batches of one row."""
        rng = np.random.default_rng(seed)
        p = random_params(rng)
        while p.layers[-1].shape[0] < 2:
            p = random_params(rng)
        m, K = int(rng.choice([1, 2, 7, 64])), p.layers[-1].shape[0]
        X = rng.normal(size=(m, p.input_dim))
        y = rng.integers(1, K + 1, size=m)

        saved, post = [], [X]
        for W, act in zip(p.layers, p.activations):
            out, keep = act._forward(post[-1] @ W.T)
            saved.append(keep)
            post.append(out)
        shift = post[-1] - _row_max(post[-1])[:, None]
        expv = np.exp(shift)
        total = expv.sum(axis=1, keepdims=True)
        flat = np.arange(m) * K + (y - 1)
        loss = float(np.mean(np.log(total[:, 0]) - shift.ravel()[flat]))
        d_post = expv / total
        d_post.ravel()[flat] -= 1.0
        d_post /= m
        want = [None] * p.num_layers
        for i in range(p.num_layers - 1, -1, -1):
            d_pre = p.activations[i].backward(saved[i], d_post)
            want[i] = d_pre.T @ post[i]
            d_post = d_pre @ p.layers[i]

        buffers = [np.full(W.shape, np.nan) for W in p.layers]
        for grads in (None, buffers):
            got_loss, got = _loss_and_grads(p.layers, p.activations, X, y, grads=grads)
            assert got_loss == loss
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert all(g is b for g, b in zip(got, buffers))

    def test_zero_gradient_at_symmetric_point(self):
        """All-zero weights score every class equally on every input, a
        stationary point of the averaged cross entropy for balanced labels."""
        p = NetworkParams(layers=(np.zeros((2, 2)),),
                          activations=(Activation("identity"),))
        X = np.array([[1.0, 2.0], [1.0, 2.0]])
        y = np.array([1, 2])
        g = _loss_and_grads(p.layers, p.activations, X, y)[1]
        np.testing.assert_allclose(g[0], 0.0, atol=1e-15)


class TestTrainSGD:
    def spec_data(self, n=200, seed=1, num_classes=2):
        rng = np.random.default_rng(seed)
        labels = rng.integers(1, num_classes + 1, size=n).astype(np.int64)
        centers = np.array([[2.0, 2.0], [-2.0, -2.0], [2.0, -2.0], [-2.0, 2.0]])
        inputs = centers[labels - 1] + 0.3 * rng.normal(size=(n, 2))
        return LabeledDataset(inputs=inputs, labels=labels, num_classes=num_classes,
                              kind="sequence", seed=seed)

    def test_deterministic(self):
        data = self.spec_data()
        arch = Architecture(dims=(2, 8, 2), activations=("relu", "identity"))
        cfg = TrainConfig(learning_rate=0.1, epochs=5, batch_size=32, seed=9)
        r1 = train_sgd(data, arch, cfg)
        r2 = train_sgd(data, arch, cfg)
        for a, b in zip(r1.params.layers, r2.params.layers):
            np.testing.assert_array_equal(a, b)
        assert r1.epoch_losses == r2.epoch_losses

    @pytest.mark.parametrize("key", ["learning_rate", "init_scale"])
    def test_config_rejects_nan(self, key):
        args = dict(learning_rate=0.1, epochs=5, batch_size=32, seed=9, init_scale=1.0)
        with pytest.raises(ValueError, match=f"'{key}' must be a finite number"):
            TrainConfig(**{**args, key: math.nan})

    def test_loss_decreases_and_separates(self):
        data = self.spec_data()
        arch = Architecture(dims=(2, 8, 2), activations=("relu", "identity"))
        cfg = TrainConfig(learning_rate=0.1, epochs=30, batch_size=32, seed=9)
        res = train_sgd(data, arch, cfg)
        assert res.epoch_losses[-1] < res.epoch_losses[0]
        assert res.epoch_losses[-1] < 0.05
        assert error_rate(dataset_margins(res.params, data)) <= 0.02

    @pytest.mark.parametrize("dims, activations", [
        ((2, 2), ("identity",)),
        ((2, 5, 2), ("leaky_relu:0.1", "tanh")),
        ((2, 6, 3, 2), ("tanh", "relu", "identity")),
        ((2, 4, 4, 2), ("relu", "identity", "leaky_relu")),
        ((2, 5, 3), ("tanh", "identity")),
        ((2, 6, 4, 4), ("relu", "leaky_relu:0.1", "identity")),
    ], ids=["identity", "leaky-tanh", "tanh-relu-identity", "relu-identity-leaky",
            "k3-tanh-identity", "k4-relu-leaky-identity"])
    @pytest.mark.parametrize("batch_size", [16, 1, 100], ids=["batch16", "batch1", "batch100"])
    def test_matches_hand_loop_over_gradient(self, dims, activations, batch_size):
        """Training is plain W - lr * g steps over _loss_and_grads, on the same
        initialization and batch order: one backprop, not two. Bit for bit at
        depths 1 to 3, for every activation, with 2, 3 and 4 classes, a short
        last batch (70 % 16), one-sample batches, and one batch larger than
        the data."""
        data = self.spec_data(n=70, num_classes=dims[-1])
        arch = Architecture(dims=dims, activations=activations)
        cfg = TrainConfig(learning_rate=0.2, epochs=3, batch_size=batch_size, seed=4)
        res = train_sgd(data, arch, cfg)

        acts = tuple(Activation.parse(a) for a in arch.activations)
        rng = substream(cfg.seed, _TRAIN)
        layers = [rng.uniform(-1.0 / np.sqrt(d_in), 1.0 / np.sqrt(d_in), size=(d_out, d_in))
                  for d_in, d_out in zip(arch.dims, arch.dims[1:])]
        losses = []
        for _ in range(cfg.epochs):
            order = rng.permutation(data.n)
            total = 0.0
            for start in range(0, data.n, cfg.batch_size):
                take = order[start:start + cfg.batch_size]
                params = NetworkParams(layers=tuple(layers), activations=acts)
                Xb, yb = data.inputs[take], data.labels[take]
                total += _ce_forward(params.layers, params.activations, Xb, yb)[3] * take.size
                grads = _loss_and_grads(params.layers, params.activations, Xb, yb)[1]
                layers = [W - cfg.learning_rate * g for W, g in zip(layers, grads)]
            losses.append(total / data.n)
        for got, want in zip(res.params.layers, layers):
            assert np.array_equal(got, want)
        assert res.epoch_losses == tuple(losses)

    def test_epoch_losses_length(self):
        data = self.spec_data(n=40)
        arch = Architecture(dims=(2, 4, 2), activations=("relu", "identity"))
        cfg = TrainConfig(learning_rate=0.05, epochs=7, batch_size=16, seed=2)
        res = train_sgd(data, arch, cfg)
        assert len(res.epoch_losses) == 7

    def test_diverging_rate_raises(self):
        """A step size past float range overflows the scores; the trainer
        must stop at the first non-finite batch loss, and say where: the
        first step is finite, so the second batch (samples 16-31) diverges."""
        data = self.spec_data(n=60)
        arch = Architecture(dims=(2, 8, 2), activations=("identity", "identity"))
        cfg = TrainConfig(learning_rate=1e200, epochs=5, batch_size=16, seed=2)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergedLoss, match=r"became nan in epoch 1 of 5, in the batch "
                                                   r"from sample 16 of that epoch's shuffled"):
                train_sgd(data, arch, cfg)

    def test_diverging_rate_names_the_training_seed(self):
        """The error ends with the config's training seed, so a run that
        trains many seeds says which one diverged."""
        data = self.spec_data(n=60)
        arch = Architecture(dims=(2, 8, 2), activations=("identity", "identity"))
        cfg = TrainConfig(learning_rate=1e200, epochs=5, batch_size=16, seed=37)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergedLoss, match=r"shuffled order, training seed 37$"):
                train_sgd(data, arch, cfg)

    def test_init_scale_zero_epochs(self):
        """Zero epochs returns the raw initialization untouched."""
        data = self.spec_data(n=30)
        arch = Architecture(dims=(2, 4, 2), activations=("relu", "identity"))
        cfg = TrainConfig(learning_rate=0.1, epochs=0, batch_size=8, seed=3,
                          init_scale=0.5)
        res = train_sgd(data, arch, cfg)
        assert tuple(res.epoch_losses) == ()
        for W in res.params.layers:
            assert np.max(np.abs(W)) <= 0.5


class TestPopulationEstimate:
    def target(self, n=400):
        rng = np.random.default_rng(6)
        labels = rng.integers(1, 3, size=n).astype(np.int64)
        centers = np.array([[2.0, 2.0], [-2.0, -2.0]])
        inputs = centers[labels - 1] + 0.3 * rng.normal(size=(n, 2))
        return LabeledDataset(inputs=inputs, labels=labels, num_classes=2,
                              kind="target_iid", seed=6)

    def test_halfwidth_formula(self):
        p = NetworkParams(layers=(np.eye(2),), activations=(Activation("identity"),))
        rep = certify_with_target(p, self.target(400), gamma=1.0)
        expect = np.sqrt(np.log(2.0 / 0.01) / (2.0 * 400))
        assert rep.population_halfwidth == pytest.approx(expect, rel=1e-15)

    def test_rejects_sequence_kind(self):
        p = NetworkParams(layers=(np.eye(2),), activations=(Activation("identity"),))
        d = LabeledDataset(inputs=np.zeros((3, 2)), labels=np.array([1, 1, 2]),
                           num_classes=2, kind="sequence", seed=0)
        with pytest.raises(WrongKind):
            certify_with_target(p, d, gamma=1.0)

    def test_memory_at_a_large_target(self):
        """The plug-in losses on 200,000 target points hold one block of
        hidden activations, not the (m, 16) products of the default
        architecture (48.8 MiB when unblocked)."""
        p = tiny_params(dims=(2, 16, 2), acts=("relu", "identity"))
        target = self.target(200_000)
        certify_with_target(p, self.target(10), gamma=0.5)
        tracemalloc.start()
        try:
            certify_with_target(p, target, gamma=0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2 ** 20, peak / 2 ** 20

    def test_losses_in_range(self):
        p = tiny_params(dims=(2, 5, 2), acts=("relu", "identity"))
        rep = certify_with_target(p, self.target(), gamma=0.5)
        assert 0.0 <= rep.population_zero_one_estimate <= 1.0
        assert 0.0 <= rep.population_ramp_estimate <= 1.0
        assert rep.bound_holds in (True, False)
