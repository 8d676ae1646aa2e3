"""One benchmark child process: set up a workload, then run one job.

A CLI user pays interpreter start, imports and the command itself in a
fresh process every time, so every job runs in a fresh child: run.py starts
them one at a time, with a hermetic environment. The child reports to its
parent as JSON objects, one per stdout line:

    {"kind": "ready"}                       set-up finished
    {"kind": "fingerprint", ...}            interpreter, numpy and BLAS facts
    {"kind": "job", ...}                    time, check, sha256, peak RSS
    {"kind": "done"}                        finished

With --spans-out the job runs with the layers wrapped, and its spans are
written there as JSON lines after the job.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def emit(kind: str, **fields) -> None:
    print(json.dumps({"kind": kind, **fields}), flush=True)


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, read through ctypes."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def fingerprint() -> dict:
    import numpy
    from gatefid import sampling

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": blas_threads(),
        "algorithm_id": sampling.ALGORITHM_ID,
    }


def sha256(path: Path):
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def job_seed(seed: int, job: int) -> int:
    """The CLI seed of one job: every job of a run samples afresh, so a run's
    median spans many seeds and seed-dependent work (net sizes, descent
    lengths) averages out instead of shifting whole runs."""
    return seed * 65536 + job


def run_job(workload, workdir: Path, seed: int, job: int = 0, tracer=None) -> dict:
    """One pass of the command sequence through gatefid.cli.main."""
    from gatefid import cli

    for name in workload.artifacts:
        (workdir / name).unlink(missing_ok=True)
    commands = workload.commands(workdir, job_seed(seed, job))
    out, err = io.StringIO(), io.StringIO()

    def sequence():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            # looked up on the module at call time, so a traced job sees the wrapper
            return [cli.main(argv) for argv in commands]

    start = time.perf_counter()
    codes = sequence() if tracer is None else tracer.run_job(job, sequence)
    seconds = time.perf_counter() - start
    return {"seconds": seconds, "codes": codes, "output": out.getvalue() + err.getvalue()}


def judge(workload, workdir: Path, expected: dict, result: dict) -> dict:
    try:
        problems = workload.check(workdir, expected, result["codes"])
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as err:
        problems = [f"artifact unreadable: {err!r}"]
    return {
        "seconds": result["seconds"],
        "ok": not problems,
        "problems": problems,
        "sha256": {name: sha256(workdir / name) for name in workload.artifacts},
        "output": result["output"].strip().splitlines(),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--job", type=int, required=True)
    ap.add_argument("--spans-out", type=Path, default=None, help="trace the job, spans here")
    args = ap.parse_args()
    workload = workloads.WORKLOADS[args.workload]

    import gatefid
    import gatefid.cli  # noqa: F401  part of what every CLI invocation imports

    where = Path(gatefid.__file__).resolve()
    if ROOT / "src" not in where.parents:
        print(f"gatefid imported from {where}, not from this checkout", file=sys.stderr)
        return 3
    inputs = workload.setup(args.workdir, args.seed)
    emit("ready")

    emit("fingerprint", **fingerprint())
    expected = workload.expect(inputs)
    tracer = None
    if args.spans_out is not None:
        from spans import Tracer

        tracer = Tracer()
    result = run_job(workload, args.workdir, args.seed, args.job, tracer)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    emit("job", index=args.job, traced=tracer is not None, peak_rss_mb=peak,
         **judge(workload, args.workdir, expected, result))
    if tracer is not None:
        with open(args.spans_out, "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    emit("done")
    return 0


if __name__ == "__main__":
    sys.exit(main())
