#!/usr/bin/env python3
"""wmstat benchmark: one workload per run, single process, library defaults.

    python3 perfbench/run.py --workload mc-schemes --seed 1 --seconds 30 --trace 0

Run from the repository root (or any checkout of it): the library is
imported from ``src/`` next to this directory, never from an installed copy.
With ``--trace 0`` the last line of stdout is one JSON object holding the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it holds the
per-layer metrics of a traced run.  Every figure the run produced, the
machine block, failures and (traced) span statistics also go to
``perfbench/out/<workload>-seed<seed>-trace<t>.json``; spans to ``.npz``.
Exit codes: 0 measured, 2 bad arguments or no library to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import harness  # noqa: E402  (after HERE is on sys.path, as the script dir)
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# BENCHMARK.json's end_to_end list; the other figures are printed and saved
GATED = ("setup_s", "wall_ref", "peak_rss_mb")
ITS_CELL_BYTES = 12  # float32 cost, cumulative sum and window sums per cell


def _cache_mib(level: int) -> float | None:
    """Size of the unified or data cache at ``level`` of CPU 0, if exposed."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            if int((index / "level").read_text()) != level:
                continue
            if (index / "type").read_text().strip() == "Instruction":
                continue
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 / 1024, "M": 1.0, "G": 1024.0}.get(size[-1], 1 / 1024**2)
        return float(size.rstrip("KMG")) * scale
    return None


def machine(its_cells: int) -> dict:
    model = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    l3 = _cache_mib(3)
    block = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2_mib": _cache_mib(2),
        "l3_mib": l3,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    if its_cells:
        working_set = its_cells * ITS_CELL_BYTES / 1024**2
        block["its_alignment_working_set_mib"] = working_set
        block["its_alignment_working_set_over_l3"] = working_set / l3 if l3 else None
    return block


def measure(workload: str, seed: int, seconds: float, trace: bool, sizes=None) -> dict:
    """Run one workload and return the full report (see module docstring)."""
    # set-ups on both sides of the timed section, so their median spans the
    # machine's speed drift over the run
    before, after = harness.SETUP_REPS
    wl, setup_times, setup_ratios = harness.setup(WORKLOADS[workload], SRC, seed, sizes, before)
    tracer = Tracer(wl.lib) if trace else None
    records = harness.run_passes(wl, seconds, tracer)
    _, times, ratios = harness.setup(WORKLOADS[workload], SRC, seed, sizes, after)
    bad = harness.failures(wl, records)
    e2e = harness.end_to_end(wl, records, setup_times + times, setup_ratios + ratios, len(bad))
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": len(records),
        "failed": len(bad),
        "failures": sorted({msg for msg in bad.values()}),
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "wall_share": harness.wall_shares(wl, records),
        "computed": wl.computed(),
        "machine": machine(wl.computed().get("schemes.its.alignment_cells", 0)),
    }
    if tracer is not None:
        layer, detail = harness.per_layer(wl, records, tracer)
        units = dict(harness.per_layer_names())
        report["per_layer"] = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
        report["trace_detail"] = detail
        report["tracer"] = tracer
    return report


def result_line(report: dict) -> dict:
    if report["trace"]:
        metrics = report["per_layer"]
    else:
        metrics = {k: report["end_to_end"][k] for k in GATED}
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def save(report: dict) -> None:
    OUT.mkdir(exist_ok=True)
    stem = f"{report['workload']}-seed{report['seed']}-trace{report['trace']}"
    tracer = report.pop("tracer", None)
    if tracer is not None:
        tracer.save(OUT / f"{stem}.spans.npz")
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except harness.LibraryNotFound as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    for name, m in report["end_to_end"].items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    for label, share in report["wall_share"].items():
        print(f"wall_share.{label:21s} {share:.3f}")
    for name, m in report.get("per_layer", {}).items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    for key, value in report["machine"].items():
        print(f"machine.{key:30s} {value}")
    for msg in report["failures"]:
        print(f"FAILED: {msg}")
    line = result_line(report)
    save(report)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
