#!/usr/bin/env python3
"""End-to-end timings of wmstat, written to ``BENCH_<n>.json``.

    python3 scripts/bench.py --pr 6 --seeds 5201,5202,5203

Runs ``perfbench/run.py --trace 0`` once per workload and seed and
``--trace 1`` once per workload (with the first seed), then times the tier-1
suite, acceptance criterion 8 (its call time under pytest's ``--durations``),
``scripts/run_all.py`` and each CLI experiment at its default config
(``wmstat <name> --seed 1``, CSV to a pipe).  ``run_all.py`` runs from a
temporary copy, so it never writes ``out/``; its CSVs are compared with
``out/`` byte for byte, and every CSV it is meant to write must be there.
Each benchmark run lasts the benchmark's own ``run_seconds``.  The JSON
file at the repository root has a ``machine`` block, from the benchmark's
own report; an ``e2e`` block: each workload's gated metrics per seed with
their medians, and each timing, the CLI's as ``cli.<name>_s`` with its
``cli.<name>_exit``; a ``layers`` block: each workload's per-layer metrics
from its traced run; and ``src_lines``, the line count of
``src/wmstat/*.py`` as ``cat src/wmstat/*.py | wc -l`` gives it.
Run it from any directory; it exits 1 if any step failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]
from run_all import RUNS  # noqa: E402  (the experiments run_all.py runs, one CSV each)
from wmstat.cli import EXPERIMENTS  # noqa: E402

WORKLOADS = ("mc-schemes", "rate-scan", "lp-flow")
GATED = ("setup_s", "wall_ref", "peak_rss_mb")
CRITERION_8 = "tests/test_acceptance.py::test_criterion_8_scheme_calibration_and_dominance"
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
RUN_ALL_CSVS = {f"{args[0]}.csv" for args in RUNS}  # what run_all.py writes when it succeeds


def _run(args: list[str], cwd: Path = ROOT, src: bool = True) -> tuple[subprocess.CompletedProcess, float]:
    """Run a command, with ``src/`` on PYTHONPATH if ``src``; returns it and its wall time."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src")) if src else None
    start = perf_counter()
    proc = subprocess.run(args, cwd=cwd, env=env, capture_output=True, text=True)
    return proc, perf_counter() - start


def bench_run(name: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run: the seed, correctness and failures, and the saved report."""
    # as the benchmark is run: it imports wmstat from src/ itself
    proc, _ = _run([sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
                    "--seconds", str(RUN_SECONDS), "--trace", str(trace)], src=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} seed {seed} exited {proc.returncode}: {proc.stderr.strip()}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((ROOT / "perfbench" / "out" / f"{name}-seed{seed}-trace{trace}.json").read_text())
    return {"seed": seed, "correct": line["correct"], "failed": line["failed"]}, report


def workload(name: str, seed: int) -> tuple[dict, dict]:
    """One untraced benchmark run: its figures and the report's machine block."""
    run, report = bench_run(name, seed, 0)
    run.update({k: report["end_to_end"][k]["value"] for k in (*GATED, "wall_s")})
    return run, report["machine"]


def layers(name: str, seed: int) -> dict:
    """One traced benchmark run: its per-layer metrics."""
    run, report = bench_run(name, seed, 1)
    run["metrics"] = {k: m["value"] for k, m in report["per_layer"].items()}
    return run


def pytest_run(args: list[str]) -> dict:
    proc, wall = _run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args])
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {kind: int(num) for num, kind in re.findall(r"(\d+) (passed|failed|error)", summary)}
    return {"wall_s": wall, "exit": proc.returncode, "summary": summary, **counts, "stdout": proc.stdout}


def criterion_8() -> dict:
    result = pytest_run([CRITERION_8, "--durations=1"])
    call = re.search(r"([\d.]+)s call\s+\S*test_criterion_8", result.pop("stdout"))
    result["call_s"] = float(call.group(1)) if call else None
    return result


def run_all() -> dict:
    """``scripts/run_all.py`` from a temporary copy, its CSVs compared with ``out/``."""
    with tempfile.TemporaryDirectory() as tmp:
        script = Path(tmp) / "scripts" / "run_all.py"
        script.parent.mkdir()
        shutil.copy(ROOT / "scripts" / "run_all.py", script)
        proc, wall = _run([sys.executable, str(script)], cwd=Path(tmp))
        written = sorted((Path(tmp) / "out").glob("*.csv"))
        same = {p.name for p in written} == RUN_ALL_CSVS and all(
            (ROOT / "out" / p.name).exists() and p.read_bytes() == (ROOT / "out" / p.name).read_bytes()
            for p in written)
    return {"wall_s": wall, "exit": proc.returncode, "csvs": len(written), "match_out": same}


def cli_runs() -> dict:
    """Wall time of ``wmstat <name> --seed 1`` per experiment, and each exit code."""
    result = {}
    for name in EXPERIMENTS:
        proc, wall = _run([sys.executable, "-m", "wmstat.cli", name, "--seed", "1"])
        result[f"{name}_s"] = wall
        result[f"{name}_exit"] = proc.returncode
    return result


def src_lines() -> int:
    """Newlines in ``src/wmstat/*.py``, as ``cat src/wmstat/*.py | wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (ROOT / "src" / "wmstat").glob("*.py"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="n in BENCH_<n>.json")
    parser.add_argument("--seeds", default="1,2,3", help="comma-separated benchmark seeds")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]

    e2e, machine = {}, {}
    for name in WORKLOADS:
        runs = []
        for seed in seeds:
            run, machine = workload(name, seed)
            runs.append(run)
            print(f"{name} seed {seed}: " + ", ".join(f"{k} {run[k]:.4g}" for k in GATED), flush=True)
        e2e[name] = {"runs": runs, "median": {k: statistics.median(r[k] for r in runs) for k in GATED}}
    traced = {name: layers(name, seeds[0]) for name in WORKLOADS}
    for name in WORKLOADS:
        print(f"{name} traced seed {seeds[0]}: {len(traced[name]['metrics'])} metrics", flush=True)
    tier1 = pytest_run(["--continue-on-collection-errors"])
    tier1.pop("stdout")
    e2e["tier1"] = tier1
    e2e["criterion_8"] = criterion_8()
    e2e["run_all"] = run_all()
    e2e["cli"] = cli_runs()
    for key in ("tier1", "criterion_8", "run_all", "cli"):
        print(f"{key}: {e2e[key]}", flush=True)

    bench = {
        "pr": args.pr,
        "date": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%MZ"),
        "command": " ".join(["scripts/bench.py", *(argv if argv is not None else sys.argv[1:])]),
        "machine": {**machine, "platform": platform.platform()},
        "src_lines": src_lines(),
        "e2e": e2e,
        "layers": traced,
    }
    (ROOT / f"BENCH_{args.pr}.json").write_text(json.dumps(bench, indent=1) + "\n")
    ok = (all(r["correct"] for w in WORKLOADS for r in [*e2e[w]["runs"], traced[w]])
          and e2e["tier1"]["exit"] == 0 and e2e["criterion_8"]["exit"] == 0
          and e2e["run_all"]["exit"] == 0 and e2e["run_all"]["match_out"]
          and all(code == 0 for key, code in e2e["cli"].items() if key.endswith("_exit")))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
