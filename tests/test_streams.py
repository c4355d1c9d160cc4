"""The batched keyed streams against ``substream``, bit for bit."""

import numpy as np
import pytest

from wmstat import _bitgen
from wmstat.streams import substream, substream_keys, substream_uniforms, substreams

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
    # per-key scheme calls pass [key.seed]: a Python int of any size or sign
    seeds = [(-1) ** i * (2**64 + 3 * i) + (2**70 if i % 3 else 0) for i in range(count)]
    path = ([2**64 - 1 - i for i in range(count)], 9)
    assert_same_bits(substream_uniforms(seeds, path, 4), reference_uniforms(seeds, path, count, 4))
    assert substream_keys(seeds, path).tolist() == reference_keys(seeds, path, count)


@pytest.mark.parametrize("count", [0, 1, 15, 16, 17])
def test_every_batch_size(count):
    seeds = np.arange(count, dtype=np.uint64) + np.uint64(2**40)
    path = (3, np.arange(count) * 2**31)
    for n in (0, 1, 5):
        assert_same_bits(substream_uniforms(seeds, path, n), reference_uniforms(seeds, path, count, n))
    assert substream_keys(seeds, path).tolist() == reference_keys(seeds, path, count)


@pytest.mark.parametrize("count", [0, 1, 15, 16, 17, 1000])
def test_substreams_match_substream(count):
    # every Generator method numpy runs on the stream, drawn in sequence, so
    # each draw also checks the state the one before it left
    rng = np.random.default_rng(30 + count)
    seeds = words(rng, count)
    path = (words(rng, count), rng.integers(0, 8, size=count), 2**64 - 1)
    gens = substreams(seeds, path)
    assert len(gens) == count
    vocab, length = 7, 5
    tiled = np.tile(np.arange(vocab), (length, 1))
    for gen, row in zip(gens, rows_of(seeds, path, count)):
        want = substream(*row)
        assert_same_bits(gen.random((3, length)), want.random((3, length)))
        assert np.array_equal(gen.permutation(vocab), want.permutation(vocab))
        assert np.array_equal(gen.permuted(tiled, axis=1), want.permuted(tiled, axis=1))
        assert gen.integers(1 << 62) == want.integers(1 << 62)


def test_substreams_rows_are_independent():
    gens = substreams(77, (3, np.arange(4)))
    assert len({id(gen.bit_generator) for gen in gens}) == 4
    gens[0].random(1000)
    gens[2].permutation(50)
    for t in (1, 3):
        assert_same_bits(gens[t].random(5), substream(77, 3, t).random(5))


def test_precomputed_state_serves_only_pcg64_seeding():
    state = _bitgen._State(np.zeros(4, dtype=np.uint64))
    assert state.generate_state(4, np.uint64) is state.words
    for request in ((8, np.uint32), (4, np.uint32), (2, np.uint64)):
        with pytest.raises(ValueError):
            state.generate_state(*request)


@pytest.mark.parametrize(
    "seeds, path, message",
    [
        (np.arange(3), [np.arange(2)], r"must be ints or \[3\] arrays"),
        (7, [np.arange(2), np.arange(4)], r"must be ints or \[4\] arrays"),
        (np.zeros((2, 2), dtype=np.int64), [1], r"must be ints or \[2\] arrays"),
    ],
    ids=["path-shorter", "paths-differ", "two-dim-seeds"],
)
def test_input_checks(seeds, path, message):
    with pytest.raises(ValueError, match=message):
        substreams(seeds, path)
