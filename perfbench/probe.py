"""Set-up probe: a fresh interpreter imports hrx and runs one cold job.

    python3 perfbench/probe.py <workload> <out-csv>

Prints one JSON line: import_s (``import hrx``), first_s (the workload's
first job, with the norming cache and quadrature still cold) and whether
that job's output passed its check.
"""
import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
sys.path.insert(0, _SRC)

import hrx  # noqa: E402

_T1 = time.perf_counter()

import json  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import make_workload, run_cli  # noqa: E402


def main() -> int:
    if not os.path.abspath(hrx.__file__).startswith(_SRC + os.sep):
        print(f"error: imported hrx from {hrx.__file__}, not {_SRC}",
              file=sys.stderr)
        return 2
    workload = make_workload(sys.argv[1], 0, Path(sys.argv[2]))
    job = workload.first_job()
    t2 = time.perf_counter()
    rc, out, err = run_cli(hrx.cli, workload.argv(job))
    t3 = time.perf_counter()
    outcome = workload.check(job, rc, out, err)
    print(json.dumps({"import_s": _T1 - _T0, "first_s": t3 - t2,
                      "ok": outcome.ok, "detail": outcome.detail}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
