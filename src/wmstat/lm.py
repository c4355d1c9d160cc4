"""First-order Markov toy language model.

Small enough that sequence laws can be enumerated exactly, rich enough that
per-token entropy varies with context; used as the text source for the
watermarking schemes and their error estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dist import DiscreteDist, ResourceLimit, sample


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

    def sample_sequence(self, n: int, rng: np.random.Generator) -> tuple[int, ...]:
        tokens = []
        prev: int | None = None
        for _ in range(n):
            prev = sample(self.next_dist(prev), rng)
            tokens.append(prev)
        return tuple(tokens)

    def sequence_logprob(self, tokens) -> float:
        log_p = 0.0
        prev: int | None = None
        for tok in tokens:
            p = float(self.next_dist(prev).probs[tok])
            if p <= 0.0:
                return -math.inf
            log_p += math.log(p)
            prev = tok
        return log_p

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
    lines = [ln.strip() for ln in Path(path).read_text().splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError(f"lm file {path} is empty; expected 'vocab N' first")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "vocab":
        raise ValueError(f"first line must be 'vocab N', got {lines[0]!r}")
    n = int(head[1])
    if len(lines) != 2 + n:
        raise ValueError(f"expected initial row plus {n} transition rows")

    def parse_row(ln: str) -> DiscreteDist:
        probs = tuple(float(tok) for tok in ln.split())
        if len(probs) != n:
            raise ValueError(f"row has {len(probs)} entries, expected {n}")
        return DiscreteDist(probs=probs)

    return ToyLM(
        vocab_size=n,
        initial=parse_row(lines[1]),
        transitions=tuple(parse_row(ln) for ln in lines[2 : 2 + n]),
    )


def save_lm(lm: ToyLM, path: str | Path) -> None:
    rows = [f"vocab {lm.vocab_size}", _fmt_row(lm.initial)]
    rows.extend(_fmt_row(t) for t in lm.transitions)
    Path(path).write_text("\n".join(rows) + "\n")


def _fmt_row(d: DiscreteDist) -> str:
    return " ".join(repr(float(p)) for p in d.probs)
