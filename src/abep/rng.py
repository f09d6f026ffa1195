"""Deterministic random-stream management for Monte Carlo tasks.

Every stochastic routine derives its generator from (global seed, task
label, batch index), so a result depends only on those three values and not
on how the batches are grouped or ordered.
"""
from __future__ import annotations

import zlib

import numpy as np

_SEED_MASK = (1 << 63) - 1


def stream(seed: int, task: str, index: int = 0) -> np.random.Generator:
    """Return the generator for one (seed, task, index) cell."""
    key = (int(seed) & _SEED_MASK, zlib.crc32(task.encode("utf8")), int(index))
    return np.random.default_rng(np.random.SeedSequence(key))


def as_generator(seed, task: str) -> np.random.Generator:
    """Accept either an integer seed or an existing Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return stream(int(seed), task)

