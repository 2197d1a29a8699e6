"""Tests of the benchmark itself, on a tiny job (sl3 regular, degree 4).

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads

sys.path.insert(0, str(run.ROOT / "src"))

TINY = ["--algebra", "sl3", "--nilpotent", "regular", "--ell", "zero",
        "--max-degree", "4", "--checks", "theorem"]


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Register a `tiny` workload with its digest pinned from a clean job."""
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", {"args": TINY, "why": ""})
    job = run.Job(tmp_path, "pin", TINY, timeout=60)
    with open(job.report_path, encoding="utf-8") as fh:
        digest = run.report_digest(json.load(fh))
    assert job.failure(digest) is None
    monkeypatch.setattr(run, "load_digests", lambda: {"tiny": digest})
    return digest


def last_json(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def benchmark_metrics(kind):
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(tiny, capsys, trace, kind):
    assert run.main(["--workload", "tiny", "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)]) == 0
    lines, result = last_json(capsys)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == benchmark_metrics(kind)
    for name, unit in emitted.items():
        assert any(line.startswith(f"{name}: ") and line.endswith(f" {unit}")
                   for line in lines)
    if trace:
        metrics = result["metrics"]
        assert metrics["whittaker.verify_theorem_calls"]["value"] == 1
        assert metrics["whittaker.h_basis_calls"]["value"] == 1
        assert metrics["pbw.mul_terms_calls"]["value"] > 0
        assert metrics["poisson.invariant_lift_calls"]["value"] == 0
        total = metrics["trace.job_s"]["value"]
        assert 0 < metrics["whittaker.h_basis_self_s"]["value"] \
            <= metrics["whittaker.h_basis_s"]["value"] < total
    else:
        assert any(line.startswith("fail_frac: 0.0000 share") for line in lines)


def test_tampered_report_counts_as_failed(tiny, capsys, monkeypatch):
    failure = run.Job.failure

    def tamper_then_check(self, expected):
        with open(self.report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        report["checks"][0]["details"]["generators"][0]["form"] += " + 1"
        with open(self.report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
        return failure(self, expected)

    monkeypatch.setattr(run.Job, "failure", tamper_then_check)
    assert run.main(["--workload", "tiny", "--seed", "0", "--seconds", "1",
                     "--trace", "0"]) == 0
    lines, result = last_json(capsys)
    assert not result["correct"]
    failed, attempted = result["failed"], result["attempted"]
    assert failed == 1 and attempted == 2     # the set-up probe, then the job
    assert result["metrics"]["pass_frac"]["value"] == 0.5
    assert "fail_frac: 0.5000 share (1 of 2)" in lines
    assert any("digest" in line and line.startswith("FAILED") for line in lines)


def test_verdict_rejects_status_and_dimension_changes(tiny, tmp_path):
    job = run.Job(tmp_path, "job", TINY, timeout=60)
    with open(job.report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    assert run.verdict(report, tiny) is None
    failed = dict(report, status="fail")
    assert run.verdict(failed, tiny).startswith("status")
    report["checks"][0]["details"]["gr_dims"][2] += 1
    assert "Hilbert" in run.verdict(report, tiny)


def test_conj_seeds_differ_in_coordinates_not_in_gr_dims():
    from walg import cli

    a, b = workloads.conj_nilpotent(0), workloads.conj_nilpotent(1)
    assert a != b
    dims = []
    for coords in (a, b):
        config = cli.JobConfig(algebra="sl4",
                               nilpotent=",".join(map(str, coords)),
                               ell="lagrangian-auto", max_degree=3,
                               checks=["theorem"])
        report = cli.run(config)
        assert report["status"] == "pass"
        dims.append(report["checks"][0]["details"]["gr_dims"])
    assert dims[0] == dims[1]


def test_conj_digest_pinned_for_every_seed():
    digests = run.load_digests()
    for seed in range(3 * workloads.CONJ_VARIANTS):
        assert run.pinned_digest(digests, "conj-sl4-22", seed)
    for name in workloads.WORKLOADS:
        assert run.pinned_digest(digests, name, 12345)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ell-sl3-min",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_refuses_different_backends(tmp_path):
    import compare

    rec = {"workload": "w", "environment": {"backend": "python"},
           "metrics": {"job_s": 1.0}}
    other = dict(rec, environment={"backend": "compiled"})
    for name, r in (("a", rec), ("b", other)):
        (tmp_path / name).write_text(json.dumps(r) + "\n")
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "a")]) == 0
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 2
