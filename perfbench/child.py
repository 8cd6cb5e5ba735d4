"""One pass over a workload's query list, in a fresh interpreter.

Usage: python3 child.py WORKLOAD SEED WORKDIR TRACE SPANS_PATH

The child imports finkit from the checkout's src/, writes the seeded input
files into WORKDIR and runs every query in process through finkit.cli.run,
one after the other.  It prints one JSON line: the monotonic time at which
set-up ended, the pass wall time, the peak resident memory and, per query,
(exit code, sha256 of stdout, seconds).  With TRACE=1 the finkit functions
are wrapped first, the line also carries the per-layer totals and the spans
are written to SPANS_PATH.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(workload: str, seed: int, workdir: str, trace: bool, spans_path: str) -> None:
    sys.path.insert(0, SRC)
    import finkit.cli

    if not os.path.abspath(finkit.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"finkit imported from {finkit.__file__}, not from {SRC}")
    import workloads

    files, queries = workloads.build(workload, seed)
    os.chdir(workdir)
    for name, text in files.items():
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(text)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    tracer = None
    run = finkit.cli.run
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        run = tracer.timed("query", finkit.cli.run)  # the wrapped run
    results = []
    start = time.perf_counter()
    for i, argv in enumerate(queries):
        if tracer is not None:
            tracer.qid[0] = i
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
        except Exception as exc:  # a raising query is a failed query, not a crash
            traceback.print_exc()
            code = f"raised {type(exc).__name__}"
        seconds = time.perf_counter() - t0
        digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
        results.append([code, digest, seconds])
    solve = time.perf_counter() - start
    report = {
        "ready": ready,
        "solve_s": solve,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "queries": results,
    }
    if tracer is not None:
        report["totals"] = tracer.totals()
        tracer.dump(spans_path)
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    wl, sd, wd, tr, sp = sys.argv[1:6]
    main(wl, int(sd), wd, tr == "1", sp)
