"""The batched keyed streams against ``substream``, bit for bit."""

import numpy as np
import pytest

from wmstat.streams import SMALL_BATCH, substream, substream_keys, substream_uniforms

EDGE = [0, 2**32 - 1, 2**32, 2**62, 2**64 - 1]
ROWS = 2500  # per path length: 10**4 rows over the four lengths


def words(rng: np.random.Generator, size: int) -> np.ndarray:
    """uint64 entries: about a third one-word, a third two-word, a third edge words."""
    small = rng.integers(0, 2**32, size=size, dtype=np.uint64)
    large = rng.integers(2**32, 2**64 - 1, size=size, dtype=np.uint64, endpoint=True)
    edge = np.array(EDGE, dtype=np.uint64)[rng.integers(0, len(EDGE), size=size)]
    return np.choose(rng.integers(0, 3, size=size), [small, large, edge])


def rows_of(seeds, path, count):
    """Each row's (seed, *path) as Python ints, scalars broadcast."""
    cols = [np.broadcast_to(np.asarray(x, dtype=object), (count,)) for x in (seeds, *path)]
    return [tuple(int(v) for v in row) for row in zip(*cols)]


def reference_uniforms(seeds, path, count, n):
    rows = [substream(*row).random(n) for row in rows_of(seeds, path, count)]
    return np.array(rows, dtype=np.float64).reshape(count, n)


def reference_keys(seeds, path, count):
    return [int(substream(*row).integers(1 << 62)) for row in rows_of(seeds, path, count)]


def assert_same_bits(got, want):
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("length", [0, 1, 2, 3])
def test_uniforms_match_substream(length):
    rng = np.random.default_rng(length)
    seeds = words(rng, ROWS)
    path = tuple(words(rng, ROWS) for _ in range(length))
    for n in (0, 1, 100):
        assert_same_bits(substream_uniforms(seeds, path, n), reference_uniforms(seeds, path, ROWS, n))


@pytest.mark.parametrize("length", [0, 1, 2, 3])
def test_keys_match_substream(length):
    rng = np.random.default_rng(10 + length)
    seeds = words(rng, ROWS)
    path = tuple(words(rng, ROWS) for _ in range(length))
    got = substream_keys(seeds, path)
    assert got.dtype == np.int64
    assert got.tolist() == reference_keys(seeds, path, ROWS)


@pytest.mark.parametrize("seed", [0, 20240901, 2**32, 2**64 - 1, -3])
def test_scalar_seed_broadcasts_against_array_path(seed):
    trials = np.arange(300)
    path = (100, trials)
    assert_same_bits(substream_uniforms(seed, path, 7), reference_uniforms(seed, path, 300, 7))
    assert substream_keys(seed, (101, trials)).tolist() == reference_keys(seed, (101, trials), 300)


def test_signed_entries_wrap_like_substream():
    # substream reads every entry modulo 2**64, so -1 is the word 2**64 - 1
    seeds = np.arange(-20, 20, dtype=np.int64) * (2**62)
    path = (np.arange(-40, 0, dtype=np.int64), -7)
    assert_same_bits(substream_uniforms(seeds, path, 5), reference_uniforms(seeds, path, 40, 5))


@pytest.mark.parametrize("count", [5, 40])
def test_int_lists_read_modulo_2_64(count):
    # the schemes pass [key.seed for key in keys]: Python ints of any size or sign
    seeds = [(-1) ** i * (2**64 + 3 * i) + (2**70 if i % 3 else 0) for i in range(count)]
    path = ([2**64 - 1 - i for i in range(count)], 9)
    assert_same_bits(substream_uniforms(seeds, path, 4), reference_uniforms(seeds, path, count, 4))
    assert substream_keys(seeds, path).tolist() == reference_keys(seeds, path, count)


@pytest.mark.parametrize("count", [0, 1, SMALL_BATCH - 1, SMALL_BATCH, SMALL_BATCH + 1])
def test_every_batch_size(count):
    # below SMALL_BATCH the twins call substream row by row; both sides agree
    seeds = np.arange(count, dtype=np.uint64) + np.uint64(2**40)
    path = (3, np.arange(count) * 2**31)
    for n in (0, 1, 5):
        assert_same_bits(substream_uniforms(seeds, path, n), reference_uniforms(seeds, path, count, n))
    assert substream_keys(seeds, path).tolist() == reference_keys(seeds, path, count)
