"""Run one `walg run` job in this fresh interpreter, as the `walg` script does.

    python3 perfbench/job.py MARKS [--trace SPANS] [--setup-only] -- WALG-RUN-ARGS

MARKS receives, as JSON, the CLOCK_MONOTONIC time at which `cli.Case`
returned (the end of set-up).  With --setup-only the job stops there.
With --trace, the public functions of walg's layers are wrapped from
outside (nothing under src/ changes) and the recorded spans and counters
are written to SPANS when the job ends.
"""

import json
import sys
import time


def _mark_setup(cli, marks, stop):
    init = cli.Case.__init__

    def marked_init(self, config):
        init(self, config)
        marks["setup_done"] = time.monotonic()
        if stop:
            raise SystemExit(0)

    cli.Case.__init__ = marked_init


def main(argv):
    sep = argv.index("--")
    opts, walg_args = argv[:sep], argv[sep + 1:]
    marks_path = opts[0]
    trace_path = opts[opts.index("--trace") + 1] if "--trace" in opts else None
    marks = {}
    recorder = None
    if trace_path:
        import tracer
        recorder = tracer.install()
    from walg import cli
    _mark_setup(cli, marks, "--setup-only" in opts)
    try:
        code = cli.main(["run"] + walg_args)
    finally:
        with open(marks_path, "w", encoding="utf-8") as fh:
            json.dump(marks, fh)
        if recorder is not None:
            recorder.dump(trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
