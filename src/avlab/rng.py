"""Seeded random-number streams.

All sampling in the package goes through explicitly seeded
``numpy.random.Generator`` objects backed by the PCG64 bit generator.
PCG64 is fixed for the lifetime of a release so that a given
(config, seed) pair reproduces bit-identical outputs.

Independent substreams are derived from a root seed plus a key path,
e.g. ``substream(seed, "aug", epoch, batch)``.  Substreams are stable
under reordering of work: sample ``i`` of a dataset is always drawn
from ``substream(seed, "sample", i)`` no matter when it is generated.
"""

from __future__ import annotations

import zlib

import numpy as np


def _key_to_int(key) -> int:
    if isinstance(key, (int, np.integer)):
        if key < 0:
            raise ValueError(f"substream keys must be non-negative, got {key}")
        return int(key)
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8"))
    raise TypeError(f"substream keys must be int or str, got {type(key).__name__}")


def _seed_sequence(seed: int, path) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(_key_to_int(k) for k in path))


def substream(seed: int, *path) -> np.random.Generator:
    """Return a generator for the stream identified by ``(seed, *path)``."""
    return np.random.Generator(np.random.PCG64(_seed_sequence(seed, path)))


def derive_seed(seed: int, *path) -> int:
    """Collapse ``(seed, *path)`` to a single 63-bit integer seed."""
    return int(_seed_sequence(seed, path).generate_state(1, dtype=np.uint64)[0] >> 1)
