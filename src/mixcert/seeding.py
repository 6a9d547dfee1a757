"""Counter-based RNG substreams, and the table of their tags.

Every stochastic routine draws from a Philox generator keyed by (seed, its
tag in the table below), so results do not depend on thread count or call
order, and a draw known in advance skips its uniforms in O(1) (`_skip`).
"""
from __future__ import annotations

import numpy as np

from ._checks import _as_int

_PHILOX_WORDS = 4  # 64-bit outputs of one Philox4x64 block, one counter value each

# The stream table, the one place tags are chosen. Each (seed, tags) pair a CLI
# run opens is one routine's, but for the last entry's (tests/test_seeding.py).
_SEQUENCE = 0  # sample_sequence
_TARGET = 1  # sample_target
_BATCH = 2  # sample_sequences_batch and sequence_value_means
_SYMMETRIZATION = 3  # validate_symmetrization's Monte Carlo signs
_RAMP = 0  # validate_ramp_dominance
_TRAIN = 0  # train_sgd, under the training seed folded with the path's
_CENTERS = 1  # folded into _class_step_means' seed: its walk is not the batch's
_NORM_SEEDS = (101, 211)  # spectral_norm's two starts, tagged by the matrix shape
# empirical_rademacher_mc: shared, as `mixcert rademacher` draws path and signs
# under seeds[0], so sign 2j+1 is the path's uniform j >= 0.5 (ROADMAP item 11b)
_RADEMACHER = _SEQUENCE


def substream(seed: int, *tags: int) -> np.random.Generator:
    """Generator for the substream identified by ``tags`` under ``seed``."""
    ss = np.random.SeedSequence(_as_int(seed, "seed", 0),
                                spawn_key=tuple(_as_int(t, "tags", 0) for t in tags))
    return np.random.Generator(np.random.Philox(ss))


def _skip(rng: np.random.Generator, count: int) -> None:
    """Move the Philox generator `rng` past `count` uniforms without
    generating them: every later draw of any kind equals the draw after
    `rng.random(count)`.

    Each uniform takes one 64-bit output. Philox makes them a block of four
    at a time, the block of the counter's next value, and reads the block
    from `buffer_pos`: so `counter` blocks and `buffer_pos` outputs of the
    last one, 4 * (counter - 1) + buffer_pos outputs in all, have been
    read. The skip adds `count` to that, sets the 256-bit counter to the
    block before the one where it ends and regenerates that block with
    `random_raw`, which leaves the buffer and its position as the uniforms
    would. `has_uint32` and `uinteger` are kept, as a uniform draw keeps
    them. The state is set directly, not through `Philox.advance`, which
    would clear both the buffer and the pending 32-bit half."""
    bits = rng.bit_generator
    state = bits.state
    words = state["state"]["counter"]
    counter = sum(int(w) << (64 * i) for i, w in enumerate(words))
    read = _PHILOX_WORDS * (counter - 1) + state["buffer_pos"] + count
    before, last = divmod(read - 1, _PHILOX_WORDS)  # blocks before the last one; its reads - 1
    state["state"]["counter"] = np.array([(before >> (64 * i)) & 0xFFFFFFFFFFFFFFFF
                                          for i in range(len(words))], dtype=np.uint64)
    state["buffer_pos"] = _PHILOX_WORDS
    bits.state = state
    bits.random_raw(last + 1)


def combine_seeds(a: int, b: int) -> int:
    """Deterministically fold two seeds into one (order matters)."""
    seeds = [_as_int(s, "seed", 0) for s in (a, b)]
    return int(np.random.SeedSequence(entropy=seeds).generate_state(1, np.uint64)[0])
