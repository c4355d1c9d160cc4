"""Seeded, keyed random streams.

All randomness in the package flows through keyed streams: a seed and a path
of integers (e.g. domain, trial) deterministically name an independent
generator, ``substream(seed, *path)``.  This models a shared secret key on
both the generation and detection sides, and makes every Monte Carlo
experiment reproducible: each logical unit of work owns its own stream.

``substream_uniforms`` and ``substream_keys`` are the batched twins for a
block of paths: row r of their result is bit for bit what
``substream(seed_r, *path_r)`` gives for ``.random(n)`` and
``.integers(1 << 62)``.  They run numpy's two fixed integer algorithms over
the whole block with array arithmetic (``_bitgen``): the ``SeedSequence``
hash of the seed and path words into a pool of four uint32 words, and PCG64
seeding, its 128-bit LCG and its XSL-RR output, where ``random()`` is
``(next_uint64 >> 11) * 2**-53``.  Below ``SMALL_BATCH`` paths they call
``substream`` row by row, which costs less there; ``_bitgen`` is imported on
the first larger batch, so code that never draws one never compiles it.
"""

from __future__ import annotations

from typing import Callable, TypeVar

import numpy as np

MASK64 = (1 << 64) - 1
SMALL_BATCH = 16  # below this many paths the twins loop over substream (measured crossover)

T = TypeVar("T")


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for ``(seed, path)``.

    Same pair -> same sequence; distinct paths -> statistically independent
    streams (SeedSequence spawn keys feed a PCG64 generator).
    """
    parts = tuple(int(p) & MASK64 for p in path)
    ss = np.random.SeedSequence(entropy=int(seed) & MASK64, spawn_key=parts)
    return np.random.Generator(np.random.PCG64(ss))


def _paths(seeds, path) -> tuple[np.ndarray, list[np.ndarray]]:
    """Seeds and path entries as uint64 ``[B]`` arrays, each int repeated B times.

    Entries are read modulo 2**64: ints and sequences of ints are masked,
    integer arrays wrap as ``astype(np.uint64)`` does, which is the same.
    """
    cols = [
        np.uint64(int(x) & MASK64) if isinstance(x, (int, np.integer))
        else x.astype(np.uint64) if isinstance(x, np.ndarray)
        else np.array([int(v) & MASK64 for v in x], dtype=np.uint64)
        for x in (seeds, *path)
    ]
    batch = max((len(c) for c in cols if c.ndim), default=1)
    if any(c.shape not in ((), (batch,)) for c in cols):
        raise ValueError(f"seeds and path entries must be ints or [{batch}] arrays")
    seeds, *cols = (np.full(batch, c) if c.ndim == 0 else c for c in cols)
    return seeds, cols


def substream_uniforms(seeds, path, n: int) -> np.ndarray:
    """``[B, n]`` uniforms; row r is ``substream(seeds[r], *path[:][r]).random(n)``.

    ``seeds`` and each entry of ``path`` are ints or ``[B]`` integer arrays;
    an int stands for B equal entries.  Entries are read modulo 2**64, as
    ``substream`` reads them.
    """
    seeds, cols = _paths(seeds, path)
    if len(seeds) < SMALL_BATCH:
        rows = [substream(*map(int, row)).random(n) for row in zip(seeds, *cols)]
        return np.array(rows, dtype=np.float64).reshape(len(seeds), n)
    from . import _bitgen  # compiled on the first batch, not when the package is imported

    return _bitgen.uniforms(seeds, cols, n)


def substream_keys(seeds, path) -> np.ndarray:
    """``[B]`` int64 keys; entry r is ``substream(seeds[r], *path[:][r]).integers(1 << 62)``.

    For a power-of-two range numpy's bounded integers never reject, so a key
    is the first ``next_uint64`` shifted right by 2.
    """
    seeds, cols = _paths(seeds, path)
    if len(seeds) < SMALL_BATCH:
        keys = [substream(*map(int, row)).integers(1 << 62) for row in zip(seeds, *cols)]
        return np.array(keys, dtype=np.int64).reshape(len(seeds))
    from . import _bitgen

    return _bitgen.keys(seeds, cols)


def map_trials(fn: Callable[[int], T], n_trials: int) -> list[T]:
    """Evaluate ``fn(t)`` for t = 0..n_trials-1, in order.

    A unit t is one trial or one fixed block of trials: ``rates`` maps its
    Monte Carlo sample blocks and ``schemes`` its blocks of keyed trials.
    ``fn`` must derive any randomness from its index via keyed streams.
    """
    return [fn(t) for t in range(n_trials)]
