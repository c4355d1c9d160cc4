"""First-order Markov toy language model.

Small enough that sequence laws can be enumerated exactly, rich enough that
per-token entropy varies with context; used as the text source for the
watermarking schemes and their error estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .dist import DiscreteDist, _cdf_of, padded, parse_field, read_table, search
from .dist import sample  # noqa: F401  kept bound: perfbench/tracing.py wraps wmstat.lm.sample


class ChainTables(NamedTuple):
    """Per-row arrays of a ``ToyLM``: ``probs``, ``cdf`` and ``logp`` are ``[V+1, V]``.

    Row t is the law of the token after token t; row V, the initial law.  CDF
    rows are ``dist._cdf_of`` (last entry guarded up to 1) and log rows come
    from ``math.log``, so table lookups give the same bits as the per-token
    calls on the ``DiscreteDist`` rows.  ``breaks`` are the sorted distinct CDF
    values, ``dist.padded``, and ``draw[s, r]`` (the smallest dtype holding
    V - 1) is the token row s yields for a uniform with r breaks <= it.
    """

    probs: np.ndarray
    cdf: np.ndarray
    logp: np.ndarray
    breaks: np.ndarray
    draw: np.ndarray


@dataclass(frozen=True)
class ToyLM:
    vocab_size: int
    initial: DiscreteDist
    transitions: tuple[DiscreteDist, ...]

    def __post_init__(self):
        object.__setattr__(self, "transitions", tuple(self.transitions))
        if self.vocab_size < 2:
            raise ValueError("vocab size must be >= 2")
        if self.initial.k != self.vocab_size:
            raise ValueError("initial distribution size must match vocab size")
        if len(self.transitions) != self.vocab_size:
            raise ValueError("need one transition row per token")
        for row in self.transitions:
            if row.k != self.vocab_size:
                raise ValueError("transition row size must match vocab size")

    def next_dist(self, prev: int | None) -> DiscreteDist:
        return self.initial if prev is None else self.transitions[prev]

    @cached_property
    def tables(self) -> ChainTables:
        rows = (*self.transitions, self.initial)
        probs = np.array([row.as_floats() for row in rows])
        logp = [[math.log(p) if p > 0.0 else -math.inf for p in row] for row in probs.tolist()]
        cdf = np.array([_cdf_of(row.probs) for row in rows])
        breaks = np.unique(cdf)
        # draw[s, r]: row s's interior entries of rank <= r (no uniform passes the last)
        draw = np.zeros((len(rows), len(breaks) + 1), np.min_scalar_type(self.vocab_size - 1))
        np.add.at(draw, (np.arange(len(rows))[:, None], search(padded(breaks), cdf[:, :-1])), 1)
        np.cumsum(draw, axis=1, dtype=draw.dtype, out=draw)
        return ChainTables(probs=probs, cdf=cdf, logp=np.array(logp), breaks=padded(breaks), draw=draw)

    def paths(self, count: int, n: int, step: Callable[[int, np.ndarray], np.ndarray]):
        """``count`` token paths of length ``n`` as an int64 array ``[count, n]``.

        The one Markov sampling loop, vectorised across paths: ``step(j, prev)``
        returns the tokens at position j of every path from the tables row of
        the previous token (row V at j = 0).
        """
        tokens = np.empty((n, count), dtype=np.int64)  # position-major: prev is a contiguous row
        prev = np.full(count, self.vocab_size)
        for j in range(n):
            tokens[j] = step(j, prev)
            prev = tokens[j]
        return np.ascontiguousarray(tokens.T)

    def sample_paths(self, us: np.ndarray) -> np.ndarray:
        """Model paths by inverse transform, one uniform ``us[path, j]`` per token, each
        ranked among ``breaks`` up front so that a step is one ``draw`` gather."""
        draw, ranks = self.tables.draw, search(self.tables.breaks, us)
        return self.paths(len(us), us.shape[1], lambda j, prev: draw[prev, ranks[:, j]])

    def step_logprobs(self, paths: np.ndarray) -> np.ndarray:
        """``[count, n+1]``: 0.0, then each token's log-probability given the token before."""
        count = len(paths)
        prev = np.concatenate([np.full((count, 1), self.vocab_size), paths[:, :-1]], axis=1)
        return np.concatenate([np.zeros((count, 1)), self.tables.logp[prev, paths]], axis=1)

    def logprobs(self, paths: np.ndarray) -> np.ndarray:
        """Log-probability of each path, added up position by position from 0.0."""
        return np.add.accumulate(self.step_logprobs(paths), axis=1)[:, -1]

    def sample_sequence(self, n: int, rng: np.random.Generator) -> tuple[int, ...]:
        return tuple(self.sample_paths(rng.random(n)[None, :])[0].tolist())

    def sequence_logprob(self, tokens) -> float:
        return float(self.logprobs(np.array([tuple(tokens)], dtype=np.int64))[0])


def fair_coin_lm() -> ToyLM:
    half = DiscreteDist(probs=(0.5, 0.5))
    return ToyLM(vocab_size=2, initial=half, transitions=(half, half))


def biased_binary_lm(p_one: float = 0.7, sticky: float = 0.6) -> ToyLM:
    """Binary Markov chain whose rows have different entropies."""
    return ToyLM(
        vocab_size=2,
        initial=DiscreteDist(probs=(1.0 - p_one, p_one)),
        transitions=(
            DiscreteDist(probs=(sticky, 1.0 - sticky)),
            DiscreteDist(probs=(1.0 - p_one, p_one)),
        ),
    )


def deterministic_lm(vocab_size: int = 2) -> ToyLM:
    """Cycles deterministically through the vocabulary; zero entropy."""
    rows = tuple(
        DiscreteDist.point_mass(vocab_size, (tok + 1) % vocab_size)
        for tok in range(vocab_size)
    )
    return ToyLM(
        vocab_size=vocab_size,
        initial=DiscreteDist.point_mass(vocab_size, 0),
        transitions=rows,
    )


def drifting_lm(vocab_size: int = 4) -> ToyLM:
    """Near-uniform rows with a mild preference to advance; varied entropy."""
    rows = []
    for tok in range(vocab_size):
        weights = [1.0] * vocab_size
        weights[(tok + 1) % vocab_size] = 2.0
        weights[tok] = 0.5
        rows.append(DiscreteDist.from_weights(weights))
    return ToyLM(
        vocab_size=vocab_size,
        initial=DiscreteDist.uniform(vocab_size),
        transitions=tuple(rows),
    )


def load_lm(path: str | Path) -> ToyLM:
    """Read 'vocab N', one line of initial probs, then N transition rows."""

    def parse_row(n: int, fields: list[str]) -> DiscreteDist:
        if len(fields) != n:
            raise ValueError(f"row has {len(fields)} entries, expected {n}")
        return DiscreteDist(probs=tuple(parse_field(float, tok) for tok in fields))

    n, rows = read_table(path, "lm", "vocab", 2, parse_row)
    if len(rows) != 1 + n:
        raise ValueError(f"{path}: expected initial row plus {n} transition rows")
    return ToyLM(vocab_size=n, initial=rows[0], transitions=tuple(rows[1:]))


def save_lm(lm: ToyLM, path: str | Path) -> None:
    rows = [f"vocab {lm.vocab_size}", _fmt_row(lm.initial)]
    rows.extend(_fmt_row(t) for t in lm.transitions)
    Path(path).write_text("\n".join(rows) + "\n")


def _fmt_row(d: DiscreteDist) -> str:
    return " ".join(repr(float(p)) for p in d.probs)
