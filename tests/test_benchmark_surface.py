"""The library calls the benchmark makes still work.

``perfbench/`` drives wmstat through its public names (``simplex_solve(p,
exact=True)``, ``type2_product_exact(..., method="count-vectors")``, the
``vocab_size`` config fields, ...).  A change that drops one fails here in
seconds: each workload is set up once and runs one pass at its tiny sizes,
and every operation's oracle must accept the result.  It runs in a child
interpreter because ``harness.load_library`` re-imports ``wmstat`` afresh,
which would replace the modules the other tests hold.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]

CHILD = """
import json, sys
from pathlib import Path
import harness
from workloads import TINY, WORKLOADS
wl, _, _ = harness.setup(WORKLOADS[sys.argv[1]], Path(sys.argv[2]), 1, TINY[sys.argv[1]], reps=1)
records = harness.run_passes(wl, 0.0)
print(json.dumps({"ops": len(records), "failures": list(harness.failures(wl, records).values())}))
"""


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_tiny_pass_has_no_failures(workload):
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, workload, str(ROOT / "src")],
        cwd=PERFBENCH, capture_output=True, text=True, timeout=240,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["ops"] >= 1
    assert report["failures"] == []
