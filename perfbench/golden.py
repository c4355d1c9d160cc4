#!/usr/bin/env python3
"""Golden check: the CLI still reproduces the committed ``out/*.csv``.

    python3 perfbench/golden.py

Regenerates the five CSVs of ``scripts/run_all.py`` (its argument lists and
seed) into a temporary directory through ``wmstat.cli.main`` and compares
them byte for byte with ``out/``, which it never writes.  A CSV missing from
``out/`` (matched by ``.gitignore``, so a checkout may lack it) is a failure.
Prints ``cli.<experiment>_s`` per run and, as the last line, one JSON object
like the benchmark's.  Exit 0 when every CSV matches, 1 otherwise.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import harness

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def golden(expected_dir: Path = ROOT / "out") -> dict:
    """Run every ``run_all.py`` experiment; returns the result object."""
    harness.load_library(ROOT / "src")
    main = importlib.import_module("wmstat.cli").main
    spec = importlib.util.spec_from_file_location("run_all", ROOT / "scripts" / "run_all.py")
    run_all = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_all)

    metrics, failed = {}, []
    with tempfile.TemporaryDirectory() as tmp:
        for args in run_all.RUNS:
            name = args[0]
            path = Path(tmp) / f"{name}.csv"
            t0 = perf_counter()
            code = main(args + ["--seed", str(run_all.SEED), "--out", str(path)])
            metrics[f"cli.{name}_s"] = {"value": perf_counter() - t0, "unit": "s"}
            expected = expected_dir / f"{name}.csv"
            if code != 0:
                failed.append(f"{name}: exit {code}")
            elif not expected.is_file():
                failed.append(f"{name}: no expected CSV at {expected}")
            elif path.read_bytes() != expected.read_bytes():
                failed.append(f"{name}: CSV differs from {expected}")
    return {
        "correct": not failed,
        "attempted": len(run_all.RUNS),
        "failed": len(failed),
        "failures": failed,
        "metrics": metrics,
    }


def main() -> int:
    result = golden()
    for name, m in result["metrics"].items():
        print(f"{name:20s} {m['value']:.4f} {m['unit']}")
    for msg in result.pop("failures"):
        print(f"FAILED: {msg}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
