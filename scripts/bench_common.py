"""What the bench scripts share: how a probe runs against one checkout, and
how a parent/change pair is run and judged.

A probe is one measurement of the gatefid on sys.path, printed as one JSON
line by `python3 scripts/bench_<topic>.py --probe NAME [ARG ...]`. run_fresh
runs it in a fresh interpreter whose PYTHONPATH is one checkout's src/, so
the script's own code measures either tree; every probe runs with BLAS
pinned to one thread by gatefid._blas.pin_single_thread, as the CLI pins it.

alternating takes samples of both trees round by round, the trees
alternating which goes first, and compare gives each side's inclusive
quartiles and the change's per-round wins (lower wins).

End to end: for each benchmark workload and each seed of the script's
SEEDS, one `perfbench/run.py --workload W --seed S --seconds 20 --trace 0`
run per tree, from that tree's own checkout, alternating which side runs
first. Both trees run without bytecode: every __pycache__ under each
src/ is removed first and the runs get PYTHONDONTWRITEBYTECODE=1, since
.pyc files alone move peak_rss_mb by about 2 MB. Medians, quartiles and
per-pair wins of setup_s, job_s and peak_rss_mb are recorded, and every
job index both sides reached has its artifacts' sha256 compared. The
claim is the gain rule applied to the script's (workload, metric). The
record, BENCH_<topic>.json, also holds the machine fingerprint: core
count, BLAS name, the process's BLAS thread count (read before the CLI
pins it) and the thread count the CLI runs at.
Keep both checkouts in one directory: peak_rss_mb has been seen to shift
with the checkout's location alone.

    git archive --prefix=parent/ PARENT | tar -x -C /tmp
    PYTHONPATH=src python3 scripts/bench_<topic>.py --baseline /tmp/parent
"""

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from child import blas_threads, fingerprint, job_seed, run_job  # noqa: E402,F401
from workloads import WORKLOADS as SPECS  # noqa: E402

METRICS = ("setup_s", "job_s", "peak_rss_mb")
BYTECODE = "none: __pycache__ removed under each src/, runs with PYTHONDONTWRITEBYTECODE=1"
JOB_LINE = re.compile(r"^# job (\d+) traced=\d [\d.]+ s .* sha256 (.*)$")


def median_time(fn, repeats: int):
    fn()  # warm-up: first-call and BLAS thread start-up costs stay out
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def quartiles(values: list) -> list:
    return [round(q, 4) for q in statistics.quantiles(values, n=4, method="inclusive")]


def run_fresh(script, tree: Path, probe: str, *args):
    """What `script --probe probe *args` prints, run on tree's src/."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    cmd = [sys.executable, str(script), "--probe", probe, *map(str, args)]
    out = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def alternating(trees: dict, rounds, sample) -> dict:
    """{side: [sample(tree, r) for r in rounds]}, the sides alternating which goes first."""
    samples = {side: [] for side in trees}
    for i, r in enumerate(rounds):
        for side in list(trees)[:: 1 if i % 2 == 0 else -1]:
            samples[side].append(sample(trees[side], r))
    return samples


def compare(parent: list, change: list) -> dict:
    return {
        "parent_q1_median_q3": quartiles(parent),
        "change_q1_median_q3": quartiles(change),
        "change_wins": f"{sum(c < p for p, c in zip(parent, change))}/{len(parent)}",
    }


def run_perfbench(tree: Path, workload: str, seed: int, trace: int = 0) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "20", "--trace", str(trace)]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    lines = subprocess.run(cmd, cwd=tree, env=env, check=True, capture_output=True,
                           text=True).stdout.splitlines()
    result = json.loads(lines[-1])
    jobs = {}
    for line in lines:
        m = JOB_LINE.match(line)
        if m:
            jobs[int(m.group(1))] = dict(pair.split("=", 1) for pair in m.group(2).split())
    return {
        "metrics": {k: round(m["value"], 4) for k, m in result["metrics"].items()},
        "failed_attempted": [result["failed"], result["attempted"]],
        "sha256": jobs,
    }


def compare_artifacts(parent: list, change: list) -> dict:
    compared = {}
    mismatched = {}
    for a, b in zip(parent, change):
        for job in sorted(set(a["sha256"]) & set(b["sha256"])):
            for name, digest in a["sha256"][job].items():
                compared[name] = compared.get(name, 0) + 1
                if b["sha256"][job].get(name) != digest:
                    mismatched[name] = mismatched.get(name, 0) + 1
    return {name: {"jobs_compared": n, "sha256_mismatches": mismatched.get(name, 0)}
            for name, n in compared.items()}


def paired_runs(trees: dict, workload: str, seeds) -> dict:
    """One perfbench pair per seed, alternating which side runs first."""
    def run(tree, seed):
        result = run_perfbench(tree, workload, seed)
        print(f"{workload} seed {seed} {tree.name}: job_s {result['metrics']['job_s']}",
              flush=True)
        return result

    for tree in trees.values():
        for cache in (tree / "src").rglob("__pycache__"):
            shutil.rmtree(cache)
    seeds = list(seeds)
    runs = alternating(trees, seeds, run)
    record = {
        "seeds": seeds,
        "bytecode": BYTECODE,
        "first_in_pair": [list(trees)[i % 2] for i in range(len(seeds))],
        "failed_of_attempted": {
            side: "{}/{}".format(*[sum(r["failed_attempted"][i] for r in runs[side])
                                   for i in (0, 1)])
            for side in trees
        },
    }
    for metric in METRICS:
        parent = [r["metrics"][metric] for r in runs["parent"]]
        change = [r["metrics"][metric] for r in runs["change"]]
        m = record[metric] = {"parent": parent, "change": change, **compare(parent, change)}
        m["median_diff"] = round(m["change_q1_median_q3"][1] - m["parent_q1_median_q3"][1], 4)
        m["parent_iqr"] = round(m["parent_q1_median_q3"][2] - m["parent_q1_median_q3"][0], 4)
    record["artifacts"] = compare_artifacts(runs["parent"], runs["change"])
    return record


def cli_blas_threads() -> int:
    """BLAS threads after gatefid.cli.main has run once in this process."""
    from gatefid.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        main(["bounds", "levy", "--d", "2", "--eps", "0.5", "--out", f"{tmp}/levy.json"])
    return blas_threads()


def gain_claim(record: dict, workload: str, metric: str) -> dict:
    """The gain rule applied to one metric of one workload's paired runs."""
    m = record[metric]
    wins = int(m["change_wins"].split("/")[0])
    parent_median = m["parent_q1_median_q3"][1]
    return {
        "metric": metric,
        "workload": workload,
        "rule": "change wins >= 9/10 of alternating pairs and the median falls by more "
                "than the parent's IQR",
        "change_wins": m["change_wins"],
        "parent_median": parent_median,
        "change_median": m["change_q1_median_q3"][1],
        "median_diff": m["median_diff"],
        "median_fall": round(-m["median_diff"] / parent_median, 4),
        "parent_iqr": m["parent_iqr"],
        "met": wins >= 0.9 * len(record["seeds"]) and -m["median_diff"] > m["parent_iqr"],
    }


def main(script, doc: str, probes: dict, measure, claim: tuple, seeds) -> None:
    """The command line of a paired bench script.

    --baseline PARENT runs measure(trees), whose sections go into the
    record, then the paired perfbench runs of every workload, the claim's
    workload first, and writes BENCH_<topic>.json. The hidden --probe NAME
    [ARG ...] prints probes[NAME](*ARGS) as one JSON line.
    """
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("--baseline", type=Path, help="checkout of the parent commit")
    ap.add_argument("--probe", nargs="+", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.probe:
        from gatefid._blas import pin_single_thread

        pin_single_thread()
        name, *rest = args.probe
        print(json.dumps(probes[name](*rest)))
        return
    if args.baseline is None:
        ap.error("--baseline is required")
    topic = Path(script).stem.removeprefix("bench_")
    trees = {"parent": args.baseline.resolve(), "change": ROOT}
    sections = measure(trees)
    workload, metric = claim
    order = (workload, *sorted(set(SPECS) - {workload}))
    end_to_end = {w: paired_runs(trees, w, seeds) for w in order}
    record = {
        "topic": topic,
        "harness": f"PYTHONPATH=src python3 scripts/bench_{topic}.py --baseline PARENT",
        "machine": {**fingerprint(), "cli_blas_threads": cli_blas_threads()},
        **sections,
        "end_to_end": end_to_end,
        "claim": gain_claim(end_to_end[workload], workload, metric),
    }
    out = ROOT / f"BENCH_{topic}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
