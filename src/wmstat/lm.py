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

from .dist import DiscreteDist, ResourceLimit, _cdf_of, parse_field, read_records
from .dist import sample  # noqa: F401  kept bound: perfbench/tracing.py wraps wmstat.lm.sample


class ChainTables(NamedTuple):
    """Per-row arrays of a ``ToyLM``, each ``[V+1, V]``.

    Row t is the law of the token after token t; row V, the initial law.  CDF
    rows are ``dist._cdf_of`` (last entry guarded up to 1) and log rows come
    from ``math.log``, so table lookups give the same bits as the per-token
    calls on the ``DiscreteDist`` rows.
    """

    probs: np.ndarray
    cdf: np.ndarray
    logp: np.ndarray


def inverse_cdf(cdf: np.ndarray, u: np.ndarray, side: str) -> np.ndarray:
    """``np.searchsorted(cdf[i], u[i], side)`` for each non-decreasing row i."""
    below = cdf <= u[:, None] if side == "right" else cdf < u[:, None]
    return below.sum(axis=1)


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
        return ChainTables(
            probs=probs, cdf=np.array([_cdf_of(row.probs) for row in rows]), logp=np.array(logp)
        )

    def paths(self, count: int, n: int, step: Callable[[int, np.ndarray], np.ndarray]):
        """``count`` token paths of length ``n`` as an int array ``[count, n]``.

        The one Markov sampling loop: it walks the positions, vectorised
        across paths.  ``step(j, prev)`` returns the tokens at position j of
        every path from the tables row of the previous token (row V at j = 0).
        """
        tokens = np.empty((count, n), dtype=np.int64)
        prev = np.full(count, self.vocab_size)
        for j in range(n):
            prev = tokens[:, j] = step(j, prev)
        return tokens

    def sample_paths(self, us: np.ndarray) -> np.ndarray:
        """Model paths by inverse transform, one uniform ``us[path, j]`` per token."""
        cdf = self.tables.cdf

        def drawn(j: int, prev: np.ndarray) -> np.ndarray:
            return inverse_cdf(cdf[prev], us[:, j], "right")

        return self.paths(len(us), us.shape[1], drawn)

    def logprobs(self, paths: np.ndarray) -> np.ndarray:
        """Log-probability of each path, added up position by position from 0.0."""
        count = len(paths)
        prev = np.concatenate([np.full((count, 1), self.vocab_size), paths[:, :-1]], axis=1)
        terms = np.concatenate([np.zeros((count, 1)), self.tables.logp[prev, paths]], axis=1)
        return np.add.accumulate(terms, axis=1)[:, -1]

    def sample_sequence(self, n: int, rng: np.random.Generator) -> tuple[int, ...]:
        return tuple(self.sample_paths(rng.random(n)[None, :])[0].tolist())

    def sequence_logprob(self, tokens) -> float:
        return float(self.logprobs(np.array([tuple(tokens)], dtype=np.int64))[0])

    def enumerate_sequences(self, n: int):
        """All (tokens, probability) pairs of length n; for exact-law checks."""
        if self.vocab_size**n > 1_000_000:
            raise ResourceLimit("sequence space too large to enumerate")
        frontier: list[tuple[tuple[int, ...], float]] = [((), 1.0)]
        for _ in range(n):
            nxt = []
            for tokens, prob in frontier:
                prev = tokens[-1] if tokens else None
                row = self.next_dist(prev)
                for tok in range(self.vocab_size):
                    p = float(row.probs[tok])
                    if p > 0.0:
                        nxt.append((tokens + (tok,), prob * p))
            frontier = nxt
        return frontier


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
    records = read_records(path)
    if not records:
        raise ValueError(f"lm file {path} is empty; expected 'vocab N' first")
    line, head = records[0]
    if len(head) != 2 or head[0] != "vocab":
        raise ValueError(f"first line must be 'vocab N', got {' '.join(head)!r}")
    n = parse_field(int, head[1], path, line)
    if len(records) != 2 + n:
        raise ValueError(f"expected initial row plus {n} transition rows")

    def parse_row(line: int, fields: list[str]) -> DiscreteDist:
        probs = tuple(parse_field(float, tok, path, line) for tok in fields)
        if len(probs) != n:
            raise ValueError(f"row has {len(probs)} entries, expected {n}")
        return DiscreteDist(probs=probs)

    return ToyLM(
        vocab_size=n,
        initial=parse_row(*records[1]),
        transitions=tuple(parse_row(*record) for record in records[2:]),
    )


def save_lm(lm: ToyLM, path: str | Path) -> None:
    rows = [f"vocab {lm.vocab_size}", _fmt_row(lm.initial)]
    rows.extend(_fmt_row(t) for t in lm.transitions)
    Path(path).write_text("\n".join(rows) + "\n")


def _fmt_row(d: DiscreteDist) -> str:
    return " ".join(repr(float(p)) for p in d.probs)
