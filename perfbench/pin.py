"""Re-pin the report digests in digests.json from the current code.

    python3 perfbench/pin.py [WORKLOAD ...]

Runs one job per workload (per sign variant for conj-sl4-22), requires it
to pass, and writes the SHA-256 of its report without `timing`.  Pin only
from a commit whose reports are known to be right: run.py counts every
later mismatch as a failed job.
"""

import json
import shutil
import sys
import time

import run
import workloads


def digest_of(workload, seed, tmp):
    job = run.Job(tmp, f"pin-{workload}-{seed}", workloads.job_args(workload, seed),
                  timeout=run.RUN_LIMIT_S)
    try:
        with open(job.report_path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError):
        raise SystemExit(f"{workload} seed {seed}: no report "
                         f"(exit code {job.returncode})")
    digest = run.report_digest(report)
    why = job.failure(digest)
    if why:
        raise SystemExit(f"{workload} seed {seed}: {why}")
    print(f"{workload} seed {seed}: {digest} ({job.wall_s:.1f} s)", flush=True)
    return digest


def main(names):
    path = run.HERE / "digests.json"
    digests = run.load_digests() if path.exists() else {}
    tmp = run.ROOT / ".perfbench_tmp" / f"pin-{int(time.time())}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        for name in names or sorted(workloads.WORKLOADS):
            if name == "conj-sl4-22":
                digests[name] = {str(v): digest_of(name, v, tmp)
                                 for v in range(workloads.CONJ_VARIANTS)}
            else:
                digests[name] = digest_of(name, 0, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
