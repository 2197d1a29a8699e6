"""Reports stay byte-identical to the digests pinned in perfbench/.

Runs the benchmark's jobs in-process, with the arguments
`perfbench/workloads.job_args` builds, and compares the SHA-256 of each
report without `timing` (the recipe of `perfbench/run.report_digest`)
with `perfbench/digests.json`.  Only reads files under perfbench/.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from walg.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload,seed", [
    ("ell-sl3-min", 0),
    ("theorem-sl4-211", 0),
    ("poisson-sl4-22", 0),
    ("conj-sl4-22", 3),
])
def test_report_matches_pinned_digest(tmp_path, workload, seed):
    out = tmp_path / "report.json"
    args = workloads.job_args(workload, seed)
    assert main(["run"] + args + ["--out", str(out), "--quiet"]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    body = {k: v for k, v in report.items() if k != "timing"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    pinned = DIGESTS[workload]
    if isinstance(pinned, dict):
        pinned = pinned[str(seed % workloads.CONJ_VARIANTS)]
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == pinned
