"""Seed derivation tests: reproducibility, stream separation, the skip and
the stream table."""

import os
import sys
from collections import defaultdict

import numpy as np
import pytest

from mixcert import combine_seeds, harness, seeding
from mixcert.harness import ExperimentConfig
from mixcert.seeding import _SEQUENCE, _skip, substream

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
# (config, command) of every CLI run the stream guard traces
TRACED_RUNS = (*((config, command) for config in ("small", "validators")
                 for command in ("generate", "train", "certify", "validate", "rademacher")),
               ("default", "validate"), ("default", "rademacher"))


class TestSubstream:
    def test_same_tags_same_draws(self):
        a = substream(42, 0).uniform(size=100)
        b = substream(42, 0).uniform(size=100)
        np.testing.assert_array_equal(a, b)

    def test_different_tags_differ(self):
        a = substream(42, 0).uniform(size=100)
        b = substream(42, 1).uniform(size=100)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = substream(42, 0).uniform(size=100)
        b = substream(43, 0).uniform(size=100)
        assert not np.array_equal(a, b)

    def test_multi_tag_paths_are_distinct(self):
        """(7, 1, 2) and (7, 2, 1) address different streams."""
        a = substream(7, 1, 2).uniform(size=50)
        b = substream(7, 2, 1).uniform(size=50)
        assert not np.array_equal(a, b)


class TestCombineSeeds:
    def test_deterministic(self):
        assert combine_seeds(11, 13) == combine_seeds(11, 13)

    def test_sensitive_to_both_arguments(self):
        base = combine_seeds(11, 13)
        assert combine_seeds(12, 13) != base
        assert combine_seeds(11, 14) != base

    def test_fits_in_seed_range(self):
        for a in (0, 1, 2**31, 2**63 - 1):
            s = combine_seeds(a, 999)
            assert 0 <= s < 2**64


SKIPS = (*range(10), 12499, 12500, 12501)
LATER = {
    "integers": lambda rng: rng.integers(0, 10, size=9),
    "random": lambda rng: rng.random(9),
    "standard_normal": lambda rng: rng.standard_normal(9),
    "random_raw": lambda rng: rng.bit_generator.random_raw(9),
}


class TestSkip:
    """`_skip(rng, k)` leaves the generator as `rng.random(k)` does."""

    @staticmethod
    def pair(drawn, half):
        """Two equal generators with `drawn` doubles read from their buffer
        and, if `half`, a pending 32-bit half of a bounded integer draw."""
        pair = substream(2024, 7), substream(2024, 7)
        for rng in pair:
            if half:
                rng.integers(0, 10)
            rng.random(drawn)
        return pair

    @pytest.mark.parametrize("later", sorted(LATER))
    def test_later_draws_equal_those_after_the_uniforms(self, later):
        for drawn in range(9):
            for half in (False, True):
                for k in SKIPS:
                    drew, skipped = self.pair(drawn, half)
                    drew.random(k)
                    _skip(skipped, k)
                    assert skipped.bit_generator.state["has_uint32"] == int(half)
                    for _ in range(2):
                        assert np.array_equal(LATER[later](skipped), LATER[later](drew))

    def test_state_equals_the_state_after_the_uniforms(self):
        for drawn in range(9):
            for half in (False, True):
                for k in SKIPS:
                    drew, skipped = self.pair(drawn, half)
                    drew.random(k)
                    _skip(skipped, k)
                    a, b = drew.bit_generator.state, skipped.bit_generator.state
                    assert a["buffer_pos"] == b["buffer_pos"]
                    assert np.array_equal(a["state"]["counter"], b["state"]["counter"])
                    # the outputs not yet read; a fresh buffer's are never read
                    pos = a["buffer_pos"]
                    assert np.array_equal(a["buffer"][pos:], b["buffer"][pos:])
                    assert (a["has_uint32"], a["uinteger"]) == (b["has_uint32"], b["uinteger"])

    def test_the_counter_carries_into_its_next_word(self):
        for k in (4, 5, 12500):
            drew, skipped = substream(3, 1), substream(3, 1)
            for rng in (drew, skipped):
                state = rng.bit_generator.state
                state["state"]["counter"] = np.array([2 ** 64 - 2, 2 ** 64 - 1, 5, 0],
                                                     dtype=np.uint64)
                rng.bit_generator.state = state
            drew.random(k)
            _skip(skipped, k)
            assert np.array_equal(skipped.bit_generator.state["state"]["counter"],
                                  drew.bit_generator.state["state"]["counter"])
            assert np.array_equal(skipped.random(9), drew.random(9))


class TestStreamTable:
    def test_each_stream_is_opened_by_one_routine(self, monkeypatch, tmp_path):
        """Every substream the traced CLI runs open, keyed by (seed, tags), is
        opened by one function, which may reopen it (spectral_norm's starts,
        per matrix shape). The one exception, listed exactly, is `mixcert
        rademacher`'s (seeds[0], _SEQUENCE): its path and its signs."""
        opened = defaultdict(set)

        def traced(seed, *tags):
            opened[seed, tags].add(sys._getframe(1).f_code.co_name)
            return substream(seed, *tags)

        # every module of the package that draws, found by its `substream` name
        drawing = [module for name, module in sys.modules.items()
                   if name.startswith("mixcert.") and module is not seeding
                   and getattr(module, "substream", None) is substream]
        for module in drawing:
            monkeypatch.setattr(module, "substream", traced)
        for config, command in TRACED_RUNS:
            argv = [command, "--config", os.path.join(CONFIG_DIR, f"{config}.json"),
                    "--out", str(tmp_path / config / command)]
            assert harness.main(argv + ["--jobs", "1"] * (command == "certify")) == 0
        assert {name for names in opened.values() for name in names} == {
            "sample_sequence", "sample_target", "sample_sequences_batch",
            "sequence_value_means", "validate_symmetrization", "validate_ramp_dominance",
            "train_sgd", "spectral_norm", "empirical_rademacher_mc"}
        first = {ExperimentConfig.load(os.path.join(CONFIG_DIR, f"{config}.json")).seeds[0]
                 for config, command in TRACED_RUNS if command == "rademacher"}
        assert {key: names for key, names in opened.items() if len(names) > 1} == {
            (seed, (_SEQUENCE,)): {"sample_sequence", "empirical_rademacher_mc"}
            for seed in first}
