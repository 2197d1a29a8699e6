"""Job benchmark for `walg run`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client, closed loop: jobs of one workload run one after another, each
in a fresh interpreter with WALG_THREADS unset, until S seconds are used.
Every job is checked: exit code 0, report status "pass", and the SHA-256
of the report without its `timing` section equal to the digest pinned in
perfbench/digests.json.  A job that fails any check, or times out, counts
as failed; its wall time stays in the sample.

--trace 0 reports the end-to-end metrics (medians over the run):
  job_s        spawn to verified report
  setup_s      spawn to the return of `cli.Case` (interpreter start,
               import, algebra, sl2-triple, SliceContext); a set-up-only
               spawn before each job and after the last adds samples
  peak_rss_mb  peak resident memory of the job process (child rusage)
  pass_frac    spawns (jobs and set-up probes) that passed / attempted
--trace 1 runs one plain job and one traced job (see tracer.py) and
reports per-layer inclusive and self times and exact counts, plus the
tracing overhead (traced minus plain wall time).

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Lines before it name every metric with its unit, `fail_frac`,
the environment (backend, Python, nproc) and a drift witness: the time of
a fixed pure-Fraction loop before and after the jobs, recorded but never
compared.  --record FILE appends the whole record as one JSON line, for
compare.py.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

RUN_LIMIT_S = 170.0     # a run, set-up included, ends well within 180 s

END_TO_END = {"job_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "pass_frac": "share"}


PER_LAYER = {
    **{f"{span}{suffix}": unit for span in tracer.SPANS
       for suffix, unit in (("_s", "s"), ("_self_s", "s"), ("_calls", "count"))},
    "pbw.cache_entries": "count", "linalg.rref_cells": "count",
    "linalg.rref_dense_share": "share", "linalg.rref_max_bits": "bits",
    "whittaker.q_dim": "count", "whittaker.h_dim": "count",
    "trace.job_s": "s", "trace.plain_job_s": "s", "trace.overhead_s": "s",
}


def load_digests():
    with open(HERE / "digests.json", encoding="utf-8") as fh:
        return json.load(fh)


def pinned_digest(digests, workload, seed):
    entry = digests.get(workload)
    if isinstance(entry, dict):
        return entry.get(str(seed % workloads.CONJ_VARIANTS))
    return entry


def report_digest(report):
    """SHA-256 of the deterministic part of a report (`timing` removed)."""
    body = {k: v for k, v in report.items() if k != "timing"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def verdict(report, expected_digest):
    """None if the report is correct, else the reason it is not."""
    if report.get("status") != "pass":
        return "status " + str(report.get("status"))
    for check in report.get("checks", []):
        if check["name"] == "theorem":
            dims = check["details"]["gr_dims"]
            if dims != report["case"]["slice_hilbert"][:len(dims)]:
                return "gr_dims differ from the slice Hilbert series"
    digest = report_digest(report)
    if digest != expected_digest:
        return f"digest {digest[:12]} != pinned {str(expected_digest)[:12]}"
    return None


def drift_witness():
    """Seconds for a fixed pure-Fraction loop (host speed, not walg's)."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 40001):
        acc += Fraction(k % 97 + 1, k % 89 + 2)
    return time.perf_counter() - t0


def log(line):
    print(line, flush=True)


def job_env():
    env = dict(os.environ)
    env.pop("WALG_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


class Job:
    """One spawned `walg run` (or set-up-only) process and what it left."""

    def __init__(self, tmp, tag, args, timeout, trace=False, setup_only=False):
        self.report_path = tmp / f"{tag}.report.json"
        marks_path = tmp / f"{tag}.marks.json"
        self.spans_path = tmp / f"{tag}.spans.json" if trace else None
        opts = [str(marks_path)]
        if trace:
            opts += ["--trace", str(self.spans_path)]
        if setup_only:
            opts.append("--setup-only")
        cmd = [sys.executable, str(HERE / "job.py")] + opts + [
            "--"] + args + ["--quiet", "--out", str(self.report_path)]
        self.timed_out = False
        start = time.monotonic()
        proc = subprocess.Popen(cmd, env=job_env(), cwd=str(tmp),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL)
        timer = threading.Timer(max(timeout, 0.0), self._kill, (proc,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        self.wall_s = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.returncode = proc.returncode
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.setup_s = None
        try:
            with open(marks_path, encoding="utf-8") as fh:
                done = json.load(fh).get("setup_done")
            if done is not None:
                self.setup_s = done - start
        except (OSError, ValueError):
            pass

    def _kill(self, proc):
        self.timed_out = True
        proc.send_signal(signal.SIGKILL)

    def failure(self, expected_digest):
        """None if the job passed every check, else why it failed."""
        if self.timed_out:
            return "timeout"
        if self.returncode != 0:
            return f"exit code {self.returncode}"
        try:
            with open(self.report_path, encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            return f"no report ({exc})"
        return verdict(report, expected_digest)

    def spans(self):
        with open(self.spans_path, encoding="utf-8") as fh:
            return json.load(fh)


def environment():
    probe = subprocess.run(
        [sys.executable, "-c",
         "from walg import backend; print(backend.backend_name())"],
        env=job_env(), capture_output=True, text=True, timeout=60, check=True)
    return {"backend": probe.stdout.strip(),
            "python": platform.python_version(), "nproc": os.cpu_count()}


def timed_run(args, expected, seconds, tmp, deadline):
    """Jobs until `seconds` are used, each after a set-up probe; one last probe.

    Every spawn, probe or job, counts as attempted; `failures` lists those
    that failed.
    """
    t0 = time.monotonic()
    setups, jobs, failures = [], [], []
    spawned = 0

    def spawn(tag, setup_only=False):
        nonlocal spawned
        spawned += 1
        return Job(tmp, f"{tag}{spawned}", args, deadline - time.monotonic(),
                   setup_only=setup_only)

    def probe():
        job = spawn("setup", setup_only=True)
        if job.returncode != 0 or job.setup_s is None:
            failures.append(f"set-up probe: exit code {job.returncode}")
        else:
            setups.append(job.setup_s)

    while not failures:
        elapsed = time.monotonic() - t0
        if jobs and elapsed + statistics.median(j.wall_s for j in jobs) > seconds:
            break
        probe()
        job = spawn("job")
        jobs.append(job)
        why = job.failure(expected)
        if why:
            failures.append(f"job {len(jobs) - 1}: {why}")
        elif job.setup_s is not None:
            setups.append(job.setup_s)
        log(f"job {len(jobs) - 1}: {job.wall_s:.3f} s, set-up "
            f"{job.setup_s if job.setup_s is None else round(job.setup_s, 3)} s,"
            f" peak RSS {job.peak_rss_mb:.1f} MB, {why or 'pass'}")
        if job.timed_out:
            break
    if not failures:
        probe()
    metrics = {
        "job_s": statistics.median(j.wall_s for j in jobs) if jobs else None,
        "setup_s": statistics.median(setups) if setups else None,
        "peak_rss_mb": (statistics.median(j.peak_rss_mb for j in jobs)
                        if jobs else None),
        "pass_frac": 1 - len(failures) / spawned,
    }
    samples = {"job_s": [j.wall_s for j in jobs], "setup_s": setups,
               "peak_rss_mb": [j.peak_rss_mb for j in jobs]}
    return metrics, samples, spawned, failures


def traced_run(args, expected, tmp, deadline):
    """One plain job, then one traced job; per-layer metrics."""
    failures = []
    plain = Job(tmp, "plain", args, deadline - time.monotonic())
    traced = Job(tmp, "traced", args, deadline - time.monotonic(), trace=True)
    for tag, job in (("plain", plain), ("traced", traced)):
        why = job.failure(expected)
        if why:
            failures.append(f"{tag} job: {why}")
        log(f"{tag} job: {job.wall_s:.3f} s, {why or 'pass'}")
    metrics = {}
    if not failures:
        doc = traced.spans()
        for name, agg in tracer.summarize(doc).items():
            metrics[f"{name}_s"] = agg["s"]
            metrics[f"{name}_self_s"] = agg["self_s"]
            metrics[f"{name}_calls"] = agg["calls"]
        counters = doc["counters"]
        rref_calls = metrics["linalg.rref_calls"]
        metrics["linalg.rref_dense_share"] = (
            counters.pop("linalg.rref_dense_calls") / rref_calls
            if rref_calls else 0.0)
        metrics.update(counters)
        metrics["trace.job_s"] = traced.wall_s
        metrics["trace.plain_job_s"] = plain.wall_s
        metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    return metrics, {}, 2, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None,
                        help="append the full record as a JSON line here")
    opts = parser.parse_args(argv)
    if not (ROOT / "src" / "walg" / "cli.py").is_file():
        print(f"error: no walg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    expected = pinned_digest(load_digests(), opts.workload, opts.seed)
    args = workloads.job_args(opts.workload, opts.seed)
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        env = environment()
        drift = [drift_witness()]
        if opts.trace:
            metrics, samples, attempted, failures = traced_run(
                args, expected, tmp, deadline)
            units = PER_LAYER
        else:
            metrics, samples, attempted, failures = timed_run(
                args, expected, opts.seconds, tmp, deadline)
            units = END_TO_END
        drift.append(drift_witness())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    for why in failures:
        log(f"FAILED {why}")
    log(f"environment: backend {env['backend']}, Python {env['python']}, "
        f"nproc {env['nproc']}")
    log(f"drift witness: {drift[0]:.4f} s before, {drift[1]:.4f} s after")
    log(f"fail_frac: {len(failures) / attempted:.4f} share "
        f"({len(failures)} of {attempted})")
    for name, unit in units.items():
        value = metrics.get(name)
        log(f"{name}: {'n/a' if value is None else round(value, 6)} {unit}")
    if opts.record:
        rec = {"workload": opts.workload, "seed": opts.seed, "trace": opts.trace,
               "environment": env, "drift_s": drift, "metrics": metrics,
               "samples": samples, "failures": failures}
        with open(opts.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(rec) + "\n")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics.get(name), "unit": unit}
                    for name, unit in units.items()
                    if metrics.get(name) is not None},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
