"""Deterministic random-stream management for Monte Carlo tasks.

Every stochastic routine derives one generator from (global seed, task
label) and draws all of its randomness from it, so a result depends only
on the seed and the routine's own arguments.
"""
from __future__ import annotations

import zlib

import numpy as np

from .core import _count


def stream(seed: int, task: str) -> np.random.Generator:
    """Return the generator for one (seed, task) pair.  ParameterError unless
    seed is a whole number in [0, 2**63), so no two seeds share a stream."""
    # the third entry is fixed at 0: changing or dropping it would change
    # every stream, and with it every seeded result
    key = (_count(seed, "seed", 0, 2**63), zlib.crc32(task.encode("utf8")), 0)
    return np.random.default_rng(np.random.SeedSequence(key))


def as_generator(seed, task: str) -> np.random.Generator:
    """Accept either an integer seed or an existing Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return stream(seed, task)
