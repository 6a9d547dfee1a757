"""Counter-based RNG substreams.

Every stochastic routine in the package draws from a Philox generator keyed
by (seed, stream tags...). Streams are independent of execution schedule, so
results do not depend on thread count or call order.

Because Philox is counter-based, a draw whose value is known in advance can
move the stream past its uniforms in O(1) time (`_skip`). The skip sets the
counter and the buffer position in `bit_generator.state` directly rather
than calling `Philox.advance`: advance also empties the output buffer and
drops a pending 32-bit half (`has_uint32`, left by bounded integer draws),
so the draws after it would differ from the draws after the uniforms.
"""
from __future__ import annotations

import numpy as np

from ._checks import _as_int

_PHILOX_WORDS = 4  # 64-bit outputs of one Philox4x64 block, one counter value each


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
