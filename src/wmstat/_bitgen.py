"""numpy's ``SeedSequence`` hash over a batch of streams.

The batched half of ``streams.substreams``, which imports it on the first
batch it builds, so importing the package does not compile it.  Row r of a
batch is the stream ``substream(seeds[r], *(col[r] for col in cols))``:
the ``SeedSequence`` hash of the seed and path words into a pool of four
uint32 words and its ``generate_state(4, uint64)`` output, computed with
uint32 array arithmetic bit for bit as numpy computes them.  numpy's own
``PCG64`` is seeded from each row's words, so every draw is numpy's.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

M32 = 0xFFFFFFFF

# numpy's SeedSequence hash: pool of 4 words, hashmix and mix constants
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_consts(init: int, mult: int, calls: int) -> np.ndarray:
    """``[calls, 2]`` (xor, multiply) words of successive hash calls.

    Call c xors its value with the running constant h_c, then multiplies by
    h_{c+1} = h_c * mult mod 2**32.
    """
    out, h = [], init
    for _ in range(calls):
        nxt = h * mult & M32
        out.append((h, nxt))
        h = nxt
    return np.array(out, dtype=np.uint32)


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """One hash call per row of ``consts``, broadcast over the last axis."""
    value = (value ^ consts[:, :1]) * consts[:, 1:]
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_L - y * _MIX_R
    return out ^ (out >> np.uint32(16))


# hash calls 0-3 fill the pool from the run entropy padded to 4 words, calls
# 4-15 cross-mix the pool, and calls 16 + 4k .. 19 + 4k mix in spawn word k
_MIXER = _hash_consts(_INIT_A, _MULT_A, 16)
_PAD = _hashmix(np.zeros((2, 1), dtype=np.uint32), _MIXER[2:4])  # pool words 2, 3: zero entropy
_OTHERS = [np.array([d for d in range(_POOL) if d != s]) for s in range(_POOL)]
# generate_state(4, uint64): 8 output words cycling through the pool
_STATE = _hash_consts(_INIT_B, _MULT_B, 8)
_CYCLE = np.arange(8) % _POOL


@lru_cache(maxsize=8)
def _spawn_consts(words: int) -> np.ndarray:
    """``[words, 4, 2]`` hash constants of the spawn words (read-only: cached)."""
    consts = _hash_consts(_INIT_A, _MULT_A, 16 + _POOL * words)[16:].reshape(words, _POOL, 2)
    consts.flags.writeable = False
    return consts


def _words(cols: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """``[W, B]`` spawn-key words, each row's packed first, and each row's count.

    An entry below 2**32 is one word, any other two (low word first).
    """
    batch = cols[0].shape[0] if cols else 0
    two = [col > M32 for col in cols]
    width = len(cols) + sum(bool(t.any()) for t in two)
    words = np.zeros((width, batch), dtype=np.uint32)
    count = np.zeros(batch, dtype=np.int64)
    rows = np.arange(batch)
    for col, t in zip(cols, two):
        words[count, rows] = col & M32
        words[count[t] + 1, rows[t]] = col[t] >> 32
        count += 1 + t
    return words, count


def _seed_state(seeds: np.ndarray, cols: list[np.ndarray]) -> np.ndarray:
    """``[B, 4]``: each row's ``SeedSequence(seed, spawn_key=path).generate_state(4, uint64)``.

    A run entropy of one word padded to the pool with zeros hashes as the
    two-word form with a zero high word, so every seed takes the same path.
    """
    pool = np.empty((_POOL, len(seeds)), dtype=np.uint32)
    pool[:2] = _hashmix(np.ascontiguousarray(seeds, "<u8").view("<u4").reshape(-1, 2).T, _MIXER[:2])
    pool[2:] = _PAD
    for src in range(_POOL):
        dst = _OTHERS[src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], _MIXER[4 + 3 * src : 7 + 3 * src]))
    words, count = _words(cols)
    consts = _spawn_consts(len(words))
    for k, word in enumerate(words):
        mixed = _mix(pool, _hashmix(word, consts[k]))
        pool = mixed if (count > k).all() else np.where(count > k, mixed, pool)
    out = _hashmix(pool[_CYCLE], _STATE).astype(np.uint64)
    # uint64 word j is uint32 words 2j (low) and 2j+1; PCG64 reads each row's raw buffer
    return np.ascontiguousarray((out[0::2] | (out[1::2] << np.uint64(32))).T)


class _State(ISeedSequence):
    """One row's precomputed ``generate_state(4, uint64)``, the only request PCG64 makes."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"only generate_state(4, uint64) is precomputed, got ({n_words}, {dtype})")
        return self.words


def generators(seeds: np.ndarray, cols: list[np.ndarray]) -> list[np.random.Generator]:
    """One ``Generator(PCG64)`` per row, seeded by numpy from the row's state words."""
    return [np.random.Generator(np.random.PCG64(_State(row))) for row in _seed_state(seeds, cols)]
