"""Counter-based RNG substreams.

Every stochastic routine in the package draws from a Philox generator keyed
by (seed, stream tags...). Streams are independent of execution schedule, so
results do not depend on thread count or call order.
"""
from __future__ import annotations

import numpy as np

from ._checks import _as_int


def substream(seed: int, *tags: int) -> np.random.Generator:
    """Generator for the substream identified by ``tags`` under ``seed``."""
    ss = np.random.SeedSequence(_as_int(seed, "seed", 0),
                                spawn_key=tuple(_as_int(t, "tags", 0) for t in tags))
    return np.random.Generator(np.random.Philox(ss))


def combine_seeds(a: int, b: int) -> int:
    """Deterministically fold two seeds into one (order matters)."""
    seeds = [_as_int(s, "seed", 0) for s in (a, b)]
    return int(np.random.SeedSequence(entropy=seeds).generate_state(1, np.uint64)[0])
