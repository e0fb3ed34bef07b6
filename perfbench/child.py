"""One fresh interpreter of the polinv benchmark.

Usage: python3 child.py JOB_FILE

The job file is JSON: {"calls": [argv, ...], "trace": bool, "spans_file": path}.
The interpreter imports polinv.cli first and notes the monotonic clock, so the
parent can time start-up (its own clock reading at launch is on the same
system-wide clock).  It then runs every argv through polinv.cli.main in this
one process, captures each report, and prints one JSON result on stdout.
"""

import time

import polinv.cli

IMPORTED_AT = time.monotonic()

import contextlib  # noqa: E402  (timed start-up ends at the polinv import)
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def main(job_path: str) -> None:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    tracer = None
    if job["trace"]:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    calls = []
    for argv in job["calls"]:
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = polinv.cli.main(argv)
        except Exception:  # a crash is one failed call; later calls still run
            code = None
            sys.stderr.write(traceback.format_exc())
        seconds = time.perf_counter() - start
        calls.append({"code": code, "seconds": seconds, "stdout": out.getvalue()})
    result = {"imported_at": IMPORTED_AT,
              "polinv_file": polinv.cli.__file__,
              "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "calls": calls}
    if tracer is not None:
        result["layers"] = tracer.totals()
        tracer.save(job["spans_file"])
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main(sys.argv[1])
