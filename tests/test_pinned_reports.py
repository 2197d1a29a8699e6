"""Reports stay byte-identical to pinned digests.

Runs the benchmark's jobs in-process, with the arguments
`perfbench/workloads.job_args` builds, and compares the SHA-256 of each
report without `timing` (the recipe of `perfbench/run.report_digest`)
with `perfbench/digests.json`.  Only reads files under perfbench/.

The jobs of `PINNED_HERE` are pinned in this file.  The first four build
an H basis with n_max <= top, the largest slice degree, where `h_basis`
reads every degree off the exact kernel.  The fifth is the `theorem` and
`poisson` path of the `conj-sl4-22` workload on the builtin coordinates of
sl4 [2,2], above top: the monomial basis, its commutators, the invariant
lifts and the reduced bracket.  The last two run the `structure`,
`decomposition` and `whittaker` checks, which no bench workload runs:
the graded basis of Ker ad f, the sum a^perp = [n_ell, e] + Ker ad f, and
the Whittaker vectors read off the certificate.
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


def report_digest(tmp_path, args):
    out = tmp_path / "report.json"
    assert main(["run"] + args + ["--out", str(out), "--quiet"]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    body = {k: v for k, v in report.items() if k != "timing"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("workload,seed", [
    ("ell-sl3-min", 0),
    ("theorem-sl4-211", 0),
    ("poisson-sl4-22", 0),
    ("conj-sl4-22", 3),
])
def test_report_matches_pinned_digest(tmp_path, workload, seed):
    pinned = DIGESTS[workload]
    if isinstance(pinned, dict):
        pinned = pinned[str(seed % workloads.CONJ_VARIANTS)]
    assert report_digest(tmp_path, workloads.job_args(workload, seed)) == pinned


PINNED_HERE = [
    ("sl4 regular, deg 8, five checks",
     ["--algebra", "sl4", "--nilpotent", "regular", "--max-degree", "8",
      "--checks", "theorem,poisson,cohomology,whittaker,center"],
     "c79074e07af6f25ef74379e9d10343e5892d4495a52922fb6ee240808dc89919"),
    ("sl4 [2,1,1] lagrangian-auto, deg 4, five checks",
     ["--algebra", "sl4", "--nilpotent", "[2,1,1]", "--ell",
      "lagrangian-auto", "--max-degree", "4", "--checks",
      "theorem,poisson,whittaker,center,ell-independence"],
     "b33b9d1cc78a5a1332f1ffd61192431461a0e3f7d77b0316bb6160ff46899d63"),
    ("sl3 regular, deg 6, three checks",
     ["--algebra", "sl3", "--nilpotent", "regular", "--max-degree", "6",
      "--checks", "theorem,poisson,whittaker"],
     "352e194d1ef85f42450beff15e1a4fed09e6ae745f01b7b551e884ccb8389d85"),
    ("sl4 [2,1,1] ell zero, deg 4, four checks",
     ["--algebra", "sl4", "--nilpotent", "[2,1,1]", "--ell", "zero",
      "--max-degree", "4", "--checks",
      "theorem,cohomology,center,ell-independence"],
     "98572080f9cc30c24e1ce480a72ec5deaf79cce19b8ffd694984bbd17e167eeb"),
    ("sl4 [2,2] lagrangian-auto, deg 6, theorem and poisson",
     ["--algebra", "sl4", "--nilpotent", "[2,2]", "--ell", "lagrangian-auto",
      "--max-degree", "6", "--checks", "theorem,poisson"],
     "f549508a09ea7cab281c2659d21cba09a4c259e92015843192980faef092e5d0"),
    ("sl4 [2,1,1] lagrangian-auto, deg 4, structure to whittaker",
     ["--algebra", "sl4", "--nilpotent", "[2,1,1]", "--ell",
      "lagrangian-auto", "--max-degree", "4", "--checks",
      "structure,decomposition,whittaker"],
     "08ff1dcaa96db8f14ea3ddead5a209fe24bae335dc91ebf610d85275238621a2"),
    ("sl3 regular, deg 6, structure to whittaker",
     ["--algebra", "sl3", "--nilpotent", "regular", "--max-degree", "6",
      "--checks", "structure,decomposition,whittaker"],
     "2fed88d848d2b4a1cf7e12541d7c03f2e1063d296ad65612926a7c5a5c179359"),
]


@pytest.mark.parametrize("args,pinned", [job[1:] for job in PINNED_HERE],
                         ids=[job[0] for job in PINNED_HERE])
def test_report_up_to_the_top_degree_matches_pinned_digest(tmp_path, args,
                                                           pinned):
    assert report_digest(tmp_path, args) == pinned
