"""The bench tracer still finds every name it wraps.

`perfbench/tracer.py` wraps walg's functions by name from outside `src/`,
so a renamed or deleted function breaks `--trace` runs only.  This runs
one traced job the way the bench does and reads its spans.  Only reads
files under perfbench/.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_job_records_the_h_basis_and_theorem_spans(tmp_path):
    marks, spans, out = (tmp_path / name for name in
                         ("marks.json", "spans.json", "report.json"))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "job.py"), str(marks),
         "--trace", str(spans), "--", "--algebra", "sl2", "--nilpotent",
         "regular", "--max-degree", "2", "--checks", "theorem,poisson",
         "--quiet", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    names = {span[0] for span in json.loads(spans.read_text())["spans"]}
    assert {"whittaker.h_basis", "whittaker.verify_theorem"} <= names
