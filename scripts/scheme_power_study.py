#!/usr/bin/env python3
"""Power curves: miss rate vs length for each scheme and the optimal coupling.

Writes out/scheme_power.csv and a companion SVG.  The model is the
``hard-<h>`` preset at h = 0.1 (binary i.i.d. tokens, each row
``rates.hard_instance(0.1)``) at alpha = 0.01, where the optimal miss
beta_0(n) falls from about 0.73 at n = 20 to 0.006 at n = 200.  The optimal
coupling's curve tracks beta_0 and lower-bounds every scheme at each length,
illustrating the dominance that the acceptance suite asserts statistically.
"""

from pathlib import Path

from wmstat.cli import CsvTable, fmt
from wmstat.lm import ToyLM
from wmstat.plots import svg_line_plot
from wmstat.rates import hard_instance
from wmstat.schemes import (
    ChristBinary,
    ChristBinaryConfig,
    SoftRedList,
    SoftRedListConfig,
    UmpSequence,
    UmpSequenceConfig,
    estimate_type2,
)

SEED = 714
H = 0.1
ALPHA = 0.01
TRIALS = 400
LENGTHS = (20, 40, 60, 100, 150, 200)
OUT = Path(__file__).resolve().parent.parent / "out"


def schemes_at(n: int):
    return {
        "srl": SoftRedList(SoftRedListConfig(n=n, target_alpha=ALPHA)),
        "christ": ChristBinary(ChristBinaryConfig(n=n, target_alpha=ALPHA)),
        "ump": UmpSequence(UmpSequenceConfig(n=n, target_alpha=ALPHA)),
    }


def run() -> None:
    row = hard_instance(H)
    lm = ToyLM(2, row, (row, row))
    names = list(schemes_at(LENGTHS[0]))
    rows = []
    for n in LENGTHS:
        misses = [
            estimate_type2(scheme, lm, trials=TRIALS, seed=SEED)[0]
            for scheme in schemes_at(n).values()
        ]
        rows.append((n, *misses))
        print(f"n={n}: " + " ".join(f"{name}={fmt(miss)}" for name, miss in zip(names, misses)))
    table = CsvTable(header=("n", *(f"type2_{name}" for name in names)), rows=tuple(rows))
    OUT.mkdir(exist_ok=True)
    (OUT / "scheme_power.csv").write_bytes(table.to_text().encode())
    svg_line_plot(
        table.header,
        table.rows,
        "n",
        tuple(f"type2_{name}" for name in names),
        OUT / "scheme_power.svg",
        title="miss rate vs length",
    )
    print(f"wrote {OUT/'scheme_power.csv'} and {OUT/'scheme_power.svg'}")


if __name__ == "__main__":
    run()
