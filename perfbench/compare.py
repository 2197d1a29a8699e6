"""Compare two sets of benchmark records (run.py --record FILE).

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Prints, per workload and metric, each side's median over its runs and the
ratio CHANGE / BASE.  Refuses (exit 2) when the two sides ran on different
kernel backends, Python versions or core counts: such results do not
measure the same program.
"""

import json
import statistics
import sys


def load(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def environments(records):
    return {json.dumps(r["environment"], sort_keys=True) for r in records}


def medians(records):
    out = {}
    for rec in records:
        for name, value in rec["metrics"].items():
            if value is not None:
                out.setdefault((rec["workload"], name), []).append(value)
    return {key: statistics.median(vals) for key, vals in out.items()}


def main(argv):
    base, change = load(argv[0]), load(argv[1])
    envs = environments(base) | environments(change)
    if len(envs) != 1:
        print("error: records come from different environments: "
              + "; ".join(sorted(envs)), file=sys.stderr)
        return 2
    mb, mc = medians(base), medians(change)
    for key in sorted(set(mb) & set(mc)):
        ratio = mc[key] / mb[key] if mb[key] else float("nan")
        print(f"{key[0]:<16} {key[1]:<36} {mb[key]:>14.6g} {mc[key]:>14.6g}"
              f"  x{ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
