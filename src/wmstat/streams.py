"""Seeded, keyed random streams.

All randomness in the package flows through ``substream``: a seed and a path
of integers (e.g. domain, trial) deterministically name an independent
generator.  This models a shared secret key on both the generation and
detection sides, and makes every Monte Carlo experiment reproducible: each
logical unit of work owns its own stream.
"""

from __future__ import annotations

from typing import Callable, TypeVar

import numpy as np

MASK64 = (1 << 64) - 1

T = TypeVar("T")


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for ``(seed, path)``.

    Same pair -> same sequence; distinct paths -> statistically independent
    streams (SeedSequence spawn keys feed a PCG64 generator).
    """
    parts = tuple(int(p) & MASK64 for p in path)
    ss = np.random.SeedSequence(entropy=int(seed) & MASK64, spawn_key=parts)
    return np.random.Generator(np.random.PCG64(ss))


def map_trials(fn: Callable[[int], T], n_trials: int) -> list[T]:
    """Evaluate ``fn(t)`` for t = 0..n_trials-1, in order.

    A unit t is one trial or one fixed block of trials: ``rates`` maps its
    Monte Carlo sample blocks and ``schemes`` its blocks of keyed trials.
    ``fn`` must derive any randomness from its index via ``substream``.
    """
    return [fn(t) for t in range(n_trials)]
