"""numpy's ``SeedSequence`` and ``PCG64`` arithmetic over a batch of streams.

The batched half of ``streams.substream_uniforms`` and
``streams.substream_keys``, which import it on the first batch they draw,
so importing the package does not compile it.  Row r of a batch is the
stream ``substream(seeds[r], *(col[r] for col in cols))``: the
``SeedSequence`` hash of the seed and path words into a pool of four uint32
words, PCG64 seeding, its 128-bit LCG and its XSL-RR output, all with
uint32 and uint64 array arithmetic, bit for bit as numpy computes them.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

import numpy as np

from .streams import MASK64

MASK128 = (1 << 128) - 1
M32 = 0xFFFFFFFF
CHUNK = 1 << 13  # outputs per pass: bounds each working array at 64 KiB

# numpy's SeedSequence hash: pool of 4 words, hashmix and mix constants
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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
    """``[8, B]`` uint32 words of ``SeedSequence(seed, spawn_key=path).generate_state(4, uint64)``.

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
    return _hashmix(pool[_CYCLE], _STATE)


def _split(value: int) -> tuple[int, int, int, int]:
    """A 128-bit constant as (high 64 bits, low 64 bits, low's high and low 32 bits)."""
    lo = value & MASK64
    return value >> 64, lo, lo >> 32, lo & M32


@lru_cache(maxsize=32)
def _jumps(n: int) -> tuple[np.ndarray, ...]:
    """Jump constants of output positions 1..n from the seeding state.

    With t = initstate + inc, output k reads the state
    ``A_k * t + C_k * inc`` (mod 2**128), where A_k = M**(k+1) and
    C_k = 1 + M + ... + M**k for the LCG multiplier M.  Returns the halves and
    low quarters of A and C as ``[n]`` uint64 arrays (read-only: cached).
    """
    a, c, rows = _PCG_MULT, 1, []
    for _ in range(n):
        a, c = a * _PCG_MULT & MASK128, (c * _PCG_MULT + 1) & MASK128
        rows.append(_split(a) + _split(c))
    consts = np.array(rows, dtype=np.uint64).reshape(n, 8).T.copy()
    consts.flags.writeable = False
    return tuple(consts)


def _outputs(seeds: np.ndarray, cols: list[np.ndarray], n: int) -> Iterator[tuple[int, np.ndarray]]:
    """The first n ``next_uint64`` outputs of ``PCG64`` seeded from each path.

    Yields ``(start, out)`` with ``out[j, r]`` the output at position
    start + j of row r, in chunks of at most ``CHUNK`` outputs (one position
    at least).  Each chunk accumulates in place; the 128-bit products take
    their high words from 32-bit halves, their low words wrap.
    """
    w = _seed_state(seeds, cols).astype(np.uint64)
    s_hi, s_lo = w[0] | (w[1] << 32), w[2] | (w[3] << 32)
    q_hi, q_lo = w[4] | (w[5] << 32), w[6] | (w[7] << 32)
    # pcg64_srandom: inc = 2 * initseq + 1, state = (initstate + inc) * M + inc
    i_hi, i_lo = (q_hi << 1) | (q_lo >> 63), (q_lo << 1) | 1
    t_lo = s_lo + i_lo
    t_hi = s_hi + i_hi + (t_lo < s_lo)
    t0, t1, i0, i1 = t_lo & M32, t_lo >> 32, i_lo & M32, i_lo >> 32
    jumps = _jumps(n)
    step = max(1, CHUNK // len(seeds))
    for start in range(0, n, step):
        a_hi, a_lo, a1, a0, c_hi, c_lo, c1, c0 = (v[start : start + step, None] for v in jumps)
        # state = A*t + C*inc: low 32 bits, middle 32 bits (with carries) and
        # high 64 bits, one partial product alive at a time
        p = a0 * t0
        low, mid = p & M32, p >> 32
        p = c0 * i0
        low += p & M32
        mid += p >> 32
        hi = a1 * t1
        hi += c1 * i1
        for x, y in ((a1, t0), (a0, t1), (c1, i0), (c0, i1)):
            p = x * y
            mid += p & M32
            hi += p >> 32
        del p
        mid += low >> 32
        hi += mid >> 32
        for x, y in ((a_lo, t_hi), (a_hi, t_lo), (c_lo, i_hi), (c_hi, i_lo)):
            hi += x * y
        mid <<= 32
        low &= M32
        mid |= low  # the state's low 64 bits
        del low
        # XSL-RR: (hi ^ lo) rotated right by the top 6 bits of the state
        rot = hi >> 58
        hi ^= mid
        del mid
        out = hi >> rot
        hi <<= (64 - rot) & 63
        out |= hi
        yield start, out


def uniforms(seeds: np.ndarray, cols: list[np.ndarray], n: int) -> np.ndarray:
    """``[B, n]``: each row's ``random(n)``, i.e. ``(next_uint64 >> 11) * 2**-53``."""
    result = np.empty((n, len(seeds)))
    for start, out in _outputs(seeds, cols, n):
        out >>= 11
        chunk = result[start : start + len(out)]
        chunk[...] = out
        chunk *= 1.0 / (1 << 53)
    return result.T


def keys(seeds: np.ndarray, cols: list[np.ndarray]) -> np.ndarray:
    """``[B]``: each row's ``integers(1 << 62)``, i.e. ``next_uint64 >> 2``."""
    _, out = next(_outputs(seeds, cols, 1))
    return (out[0] >> 2).astype(np.int64)
