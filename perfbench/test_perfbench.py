"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import golden  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_what_the_runs_print():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.GATED)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == harness.per_layer_names()
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric_without_failures(workload, trace):
    report = run.measure(workload, 5, 0.0, trace, TINY[workload])
    line = run.result_line(report)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    e2e = report["end_to_end"]
    assert e2e["fail_ratio"]["value"] == 0.0
    expected = {"setup_s", "setup_wall_s", "wall_s", "wall_ref", "peak_rss_mb", "fail_ratio",
                *WORKLOADS[workload].groups.values()}
    assert set(e2e) == expected
    assert math.isclose(sum(report["wall_share"].values()), 1.0)
    assert all(m["value"] > 0 for k, m in e2e.items() if k != "fail_ratio")
    if trace:
        assert list(line["metrics"]) == [name for name, _ in harness.per_layer_names()]
        assert report["trace_detail"]["missing_wrappers"] == []
    else:
        assert list(line["metrics"]) == list(run.GATED)


def _wrong_type1_level(wl, monkeypatch):
    monkeypatch.setattr(wl, "alpha", 0.0)


def _wrong_upper_bound(wl, monkeypatch):
    lower = wl.lib.rates.min_tokens_lower_bound
    monkeypatch.setattr(wl.lib.rates, "min_tokens_upper_bound", lambda h, a, b, k: lower(h, a, b))


def _wrong_worst_set_gap(wl, monkeypatch):
    monkeypatch.setattr(wl.lib.agnostic, "worst_set_gap", lambda rho, law: 0.5)


@pytest.mark.parametrize(
    "workload, corrupt",
    [
        ("mc-schemes", _wrong_type1_level),
        ("rate-scan", _wrong_upper_bound),
        ("lp-flow", _wrong_worst_set_gap),
    ],
)
def test_wrong_oracle_value_is_a_failure(workload, corrupt, monkeypatch):
    wl, setup_times, setup_ratios = harness.setup(WORKLOADS[workload], run.SRC, 5, TINY[workload])
    corrupt(wl, monkeypatch)
    records = harness.run_passes(wl, 0.0)
    bad = harness.failures(wl, records)
    e2e = harness.end_to_end(wl, records, setup_times, setup_ratios, len(bad))
    assert e2e["fail_ratio"][0] > 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_seeds_change_inputs_not_sizes(workload):
    a = run.measure(workload, 1, 0.0, True, TINY[workload])
    b = run.measure(workload, 2, 0.0, True, TINY[workload])
    assert list(a["per_layer"]) == list(b["per_layer"])
    assert list(a["end_to_end"]) == list(b["end_to_end"])
    assert a["computed"] == b["computed"]
    for name in harness.COMPUTED:
        assert a["per_layer"][name] == b["per_layer"][name]


def test_tail_level_keeps_ten_samples_beyond():
    assert harness.tail_level(19) == 1.0
    assert harness.tail_level(20) == 0.5
    assert harness.tail_level(100) == 0.9
    assert harness.tail_level(10_000) == 0.999


@pytest.mark.skipif(
    not (HERE.parent / "out" / "ump.csv").is_file(),
    reason="no out/*.csv: out/ is matched by .gitignore, so a checkout may lack it",
)
def test_golden_check_compares_every_csv(tmp_path):
    # the local CSVs, with one changed and one missing: exactly those fail
    for csv in (HERE.parent / "out").glob("*.csv"):
        shutil.copy(csv, tmp_path / csv.name)
    (tmp_path / "ump.csv").write_text("changed\n")
    (tmp_path / "rates.csv").unlink()
    result = golden.golden(tmp_path)
    assert result["failures"] == [
        f"ump: CSV differs from {tmp_path / 'ump.csv'}",
        f"rates: no expected CSV at {tmp_path / 'rates.csv'}",
    ]
    assert set(result["metrics"]) == {f"cli.{n}_s" for n in ("ump", "rates", "agnostic", "robust", "schemes")}


def test_fails_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "rate-scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
