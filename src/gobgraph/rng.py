"""Splittable, reproducible random streams.

Every stream is a pure function of (master_seed, key): numpy SeedSequence
spawn keys give statistically independent substreams whose draws do not
depend on creation order, so replicates can run on any worker in any
order and still reproduce bit-for-bit.
"""

import numpy as np

MAX_SEED = 2 ** 64


def substream(master_seed, key):
    """Independent generator for an integer key tuple under one master seed."""
    master_seed = int(master_seed)
    if not 0 <= master_seed < MAX_SEED:
        raise ValueError(f"master seed must be a 64-bit unsigned int, got {master_seed}")
    if isinstance(key, int):
        key = (key,)
    key = tuple(int(k) for k in key)
    if any(k < 0 for k in key):
        raise ValueError(f"stream key entries must be nonnegative, got {key}")
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=key)
    return np.random.default_rng(ss)
