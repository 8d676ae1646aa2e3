"""gatefid benchmark: CLI workloads measured end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload stats-lowrank --seed 1 --seconds 20 --trace 0

A CLI user starts a fresh process for every command, so a run starts fresh
child processes (perfbench/child.py) one at a time, each of which sets up
the workload and runs one job, until --seconds is spent (at least
MIN_CHILDREN of them). Children get PYTHONPATH pointing at this checkout's
src/ and lose GATEFID_SEED and the BLAS/OpenMP thread variables, so the
CLI's shipped defaults for --threads and BLAS threading are what gets
measured. Inputs and artifacts live in a temporary directory under
.perfbench_work/ that is removed when the run ends.

--trace 0 prints the end-to-end metrics:
  setup_s      median over children of child start to ready: interpreter
               start, imports and writing the workload's input files
  job_s        median over children of the job's wall time
  peak_rss_mb  the largest peak resident memory of any child, through its
               set-up and job: the memory one CLI invocation may need
--trace 1 alternates untraced and traced children and prints the per-layer
metrics (medians over the traced jobs) plus trace.job_s and
trace.overhead_s; the spans of the run go to .perfbench_out/.

Each job's artifacts are checked against closed forms; a failing check or
nonzero exit counts in `failed`. The last stdout line is the JSON result;
lines before it, prefixed with '#', are information: the machine
fingerprint, every job with its artifacts' sha256, and the error rate.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
MIN_CHILDREN = 5  # end-to-end: at least this many samples of every metric
MIN_TRACE_CHILDREN = 4  # two untraced and two traced jobs
RUN_TIMEOUT_S = 170
SCRUBBED_ENV = ("GATEFID_SEED", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "job_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def info(text: str) -> None:
    print(f"# {text}", flush=True)


def child_env(workdir: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(workdir)
    return env


def run_child(args, workdir: Path, deadline: float, job: int, spans_out: Path | None):
    """Start one child and wait for it; return (set-up seconds, its messages).

    The child traces its job when spans_out is given. It is killed if it is
    still running at `deadline` (monotonic).
    """
    workdir.mkdir()
    argv = [sys.executable, str(CHILD), "--workload", args.workload, "--seed", str(args.seed),
            "--workdir", str(workdir), "--job", str(job)]
    if spans_out is not None:
        argv += ["--spans-out", str(spans_out)]
    messages = []
    setup_s = None
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(workdir), stdout=subprocess.PIPE,
                            text=True)
    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        for line in proc.stdout:
            try:
                msg = json.loads(line)
            except json.JSONDecodeError:
                print(line.rstrip("\n"), file=sys.stderr)
                continue
            if msg.get("kind") == "ready":
                setup_s = time.perf_counter() - start
            messages.append(msg)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        shutil.rmtree(workdir, ignore_errors=True)
    if code != 0 or setup_s is None or messages[-1].get("kind") != "done":
        raise BenchError(f"child exited with code {code}")
    return setup_s, messages


def run_children(args, work: Path, deadline: float) -> list:
    """Children one at a time, one job each, until --seconds is spent.

    With --trace 1 every second child traces its job. Returns one record
    per child: set-up seconds, its job message and its fingerprint.
    """
    least = MIN_TRACE_CHILDREN if args.trace else MIN_CHILDREN
    records, walls = [], []
    start = time.perf_counter()
    k = 0
    while k < least or time.perf_counter() - start + statistics.median(walls) <= args.seconds:
        began = time.perf_counter()
        spans_out = work / f"spans{k}.jsonl" if args.trace and k % 2 else None
        setup_s, messages = run_child(args, work / f"child{k}", deadline, k, spans_out)
        walls.append(time.perf_counter() - began)
        records.append({
            "setup_s": setup_s,
            "job": next(m for m in messages if m["kind"] == "job"),
            "fingerprint": next(m for m in messages if m["kind"] == "fingerprint"),
            "spans": spans_out,
        })
        k += 1
    return records


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def end_to_end(args, records: list):
    setups = [r["setup_s"] for r in records]
    peaks = [r["job"]["peak_rss_mb"] for r in records]
    info(f"setup_s samples {' '.join(f'{x:.4f}' for x in setups)}; "
         f"peak_rss_mb samples {' '.join(f'{x:.1f}' for x in peaks)}")
    metrics = {
        "setup_s": statistics.median(setups),
        "job_s": statistics.median(r["job"]["seconds"] for r in records),
        "peak_rss_mb": max(peaks),
    }
    return metrics, []


def traced(args, records: list):
    per_job, problems, all_spans = [], [], []
    for r in records:
        if r["spans"] is None:
            continue
        with open(r["spans"], encoding="utf-8") as fh:
            job_spans = [json.loads(line) for line in fh]
        problems += spans.check_spans(job_spans)
        per_job.append(spans.job_metrics(job_spans))
        all_spans += job_spans
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(span) + "\n" for span in all_spans)
    metrics = spans.median_metrics(per_job)
    on = statistics.median(r["job"]["seconds"] for r in records if r["spans"] is not None)
    off = statistics.median(r["job"]["seconds"] for r in records if r["spans"] is None)
    metrics["trace.job_s"] = on
    metrics["trace.overhead_s"] = on - off
    info(f"spans written to {spans_path.relative_to(ROOT)}; traced job_s {on:.4f}, "
         f"untraced {off:.4f}; cli.self_s is {metrics['cli.self_s'] / metrics['cli.cmd_s']:.1%} "
         f"of cli.cmd_s")
    return metrics, problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 0 <= args.seed < 2**32:
        ap.error("--seed must lie in [0, 2**32)")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "gatefid" / "__init__.py").is_file():
        print(f"no gatefid sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_TIMEOUT_S
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        records = run_children(args, work, deadline)
        metrics, problems = (traced if args.trace else end_to_end)(args, records)
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()  # only succeeds once no other run uses it

    fp = {k: v for k, v in records[0]["fingerprint"].items() if k != "kind"}
    info("fingerprint " + json.dumps({**fp, "commit": git_commit(), "workload": args.workload,
                                      "seed": args.seed}))
    jobs = [r["job"] for r in records]
    for job in jobs:
        status = "ok" if job["ok"] else "FAILED " + "; ".join(job["problems"] + job["output"])
        digests = " ".join(f"{name}={digest}" for name, digest in job["sha256"].items())
        info(f"job {job['index']} traced={int(job['traced'])} {job['seconds']:.4f} s "
             f"{status} sha256 {digests}")
    for problem in problems:
        info(f"trace invariant violated: {problem}")
    failed = sum(not j["ok"] for j in jobs)
    info(f"error_rate {failed / len(jobs):.4f} ({failed} of {len(jobs)} jobs failed)")

    units = spans.PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
