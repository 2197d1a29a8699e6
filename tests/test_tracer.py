"""The bench tracer still finds every name it wraps.

`perfbench/tracer.py` wraps walg's functions by name from outside `src/`,
so a renamed or deleted function breaks `--trace` runs only.  This runs
traced jobs the way the bench does and reads their spans.  Only reads
files under perfbench/.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def traced_span_names(tmp_path, walg_args):
    """The span names of one traced `perfbench/job.py` run of `walg run`
    with walg_args."""
    marks, spans, out = (tmp_path / name for name in
                         ("marks.json", "spans.json", "report.json"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "job.py"), str(marks),
         "--trace", str(spans), "--"] + walg_args +
        ["--quiet", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {span[0] for span in json.loads(spans.read_text())["spans"]}


def test_traced_job_records_the_h_basis_and_theorem_spans(tmp_path):
    names = traced_span_names(tmp_path, [
        "--algebra", "sl2", "--nilpotent", "regular", "--max-degree", "2",
        "--checks", "theorem,poisson"])
    assert {"whittaker.h_basis", "whittaker.verify_theorem"} <= names


def test_traced_job_records_the_whittaker_and_comparison_spans(tmp_path):
    """The wrapped checks that take their basis run under `--trace` too."""
    names = traced_span_names(tmp_path, [
        "--algebra", "sl3", "--nilpotent", "minimal", "--ell",
        "lagrangian-auto", "--max-degree", "4", "--checks",
        "whittaker,center,ell-independence,cohomology"])
    assert {"whittaker.whittaker_vectors", "whittaker.ell_comparison",
            "whittaker.ce_cohomology"} <= names
