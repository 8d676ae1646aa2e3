#!/usr/bin/env python3
"""Time net packing and the descent before and after a change, then end to end.

Layers: build_net(3, 0.2) and reference_minimum on a d=16 phase-spread
unitary with 8 starts, the inputs of the min-search workload, each the
median of REPEATS runs after one warm-up. They run in a fresh
interpreter against each tree's src/, and the same interpreter records
reference_minimum at the first VALUE_JOBS job seeds of every entry of
SEEDS (perfbench's job_seed), so the two trees' reference values can be
compared where perfbench only shows differing sha256.

Scan routes: in a fresh interpreter on this tree's src/, with BLAS
pinned to one thread as the CLI pins it, both routes of the net scan,
_min_distances (np.abs of the complex overlap) and minimum._far (the real
Gram matrix of lifted states), are timed two ways. Chunk scan: one
256-sample chunk against a SCAN_NET-state net at each d in SCAN_DIMS, the
chunk's lift included, the median of SCAN_REPEATS runs. Net build: whole
build_net calls at each (d, epsilon) of NET_BUILDS, forced onto each
route through minimum.LIFT_MAX_DIM, the median of REPEATS runs, with the
tracemalloc peak of one more run; both routes must give the same net.
The two tables back minimum.LIFT_MAX_DIM.

End to end: for each of the four workloads and each seed in SEEDS, one
`perfbench/run.py --workload W --seed S --seconds 20 --trace 0` run per
tree, from that tree's own checkout, alternating which side runs
first. Every job index both runs reached has its artifacts' sha256
compared. Medians, inclusive quartiles and per-pair wins of setup_s,
job_s and peak_rss_mb go to BENCH_minimum.json with the machine
fingerprint (core count, BLAS name and BLAS thread count); the claim is
job_s on min-search.

    git archive --prefix=parent/ PARENT | tar -x -C /tmp
    PYTHONPATH=src python3 scripts/bench_minimum.py --baseline /tmp/parent
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

from bench_kernel import ROOT, _median_time
from child import blas_threads, fingerprint, job_seed  # bench_kernel put perfbench/ on sys.path

METRICS = ("setup_s", "job_s", "peak_rss_mb")
JOB_LINE = re.compile(r"^# job (\d+) traced=\d [\d.]+ s .* sha256 (.*)$")
NET_D, NET_EPS, REF_D, REF_STARTS = 3, 0.2, 16, 8
WORKLOADS = ("min-search", "stats-lowrank", "sweep-unitary", "twin-dense")
SEEDS = range(31, 41)
REPEATS = 5
VALUE_JOBS = 3  # job seeds per entry of SEEDS whose reference values are compared
VALUE_SEEDS = [job_seed(s, k) for s in SEEDS for k in range(VALUE_JOBS)]
SCAN_DIMS = (2, 3, 4, 6, 8, 12, 16)
SCAN_NET = 1500
SCAN_REPEATS = 41
# min-search's net, large and small nets up to the last lifted d, then
# nets above it: at larger d only an epsilon near sqrt(2) keeps a net
# within the 2000-state budget
NET_BUILDS = ((3, 0.2), (4, 0.6), (6, 0.6), (8, 0.7), (8, 0.9), (12, 1.0), (16, 1.2),
              (64, 1.36), (256, 1.405))
OUT = ROOT / "BENCH_minimum.json"


def layers() -> dict:
    """Layer times and reference values of the gatefid found on sys.path."""
    import numpy as np

    from gatefid.channels import phase_spread_unitary
    from gatefid.minimum import build_net, reference_minimum

    def unitary(seed):
        return phase_spread_unitary(REF_D, np.random.default_rng([seed, REF_D]))

    ch = unitary(1)
    net_s, net = _median_time(lambda: build_net(NET_D, NET_EPS, rng=1), REPEATS)
    ref_s, _ = _median_time(lambda: reference_minimum(ch, None, REF_STARTS, rng=1), REPEATS)
    values = {str(s): reference_minimum(unitary(s), None, REF_STARTS, rng=s) for s in VALUE_SEEDS}
    return {
        "build_net_s": round(net_s, 6),
        "net_states": len(net.states),
        "reference_minimum_s": round(ref_s, 6),
        "reference_values": values,
    }


def scan_tables() -> dict:
    """Both routes of the net scan, per chunk and per build_net, at one BLAS thread."""
    from gatefid._blas import pin_single_thread

    pin_single_thread()
    return {"chunk_scan": chunk_scan(), "net_build": net_build()}


def chunk_scan() -> dict:
    from gatefid.minimum import _DISTANCE_CHUNK, LIFT_MAX_DIM, _far, _lift, _min_distances
    from gatefid.sampling import haar_states

    rows = []
    for d in SCAN_DIMS:
        net = haar_states(d, SCAN_NET, rng=d)
        chunk = haar_states(d, _DISTANCE_CHUNK, rng=1000 + d)
        lifted_net = _lift(net)
        exact_s, exact = _median_time(lambda: _min_distances(chunk, net) >= NET_EPS, SCAN_REPEATS)
        lift_s, lifted = _median_time(lambda: _far(chunk, net, lifted_net, NET_EPS), SCAN_REPEATS)
        if not (exact == lifted).all():
            raise RuntimeError(f"the two routes decide differently at d={d}")
        rows.append({
            "d": d,
            "abs_ms": round(1e3 * exact_s, 4),
            "lift_ms": round(1e3 * lift_s, 4),
            "speedup": round(exact_s / lift_s, 2),
            "lifted_in_grow": d <= LIFT_MAX_DIM,
        })
    return {
        "inputs": f"one {_DISTANCE_CHUNK}-sample chunk against a {SCAN_NET}-state net, "
                  f"epsilon {NET_EPS}; lift_ms includes lifting the chunk",
        "blas_threads": blas_threads(),
        "rows": rows,
    }


def net_build() -> dict:
    import tracemalloc

    from gatefid import minimum

    limit = minimum.LIFT_MAX_DIM
    rows = []
    for d, eps in NET_BUILDS:
        row = {"d": d, "epsilon": eps, "lifted_in_grow": d <= limit}
        nets = set()
        for route, lift_max in (("abs", d - 1), ("lift", d)):
            minimum.LIFT_MAX_DIM = lift_max
            seconds, net = _median_time(lambda: minimum.build_net(d, eps, rng=1), REPEATS)
            tracemalloc.start()
            minimum.build_net(d, eps, rng=1)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            row[f"{route}_s"] = round(seconds, 5)
            row[f"{route}_peak_mb"] = round(peak / 2**20, 2)
            nets.add(net.states.tobytes())
        minimum.LIFT_MAX_DIM = limit
        if len(nets) != 1:
            raise RuntimeError(f"the two routes build different nets at d={d}")
        row["states"] = len(net.states)
        rows.append(row)
    return {
        "inputs": "build_net(d, epsilon, rng=1) with each route forced; peak_mb is the "
                  "tracemalloc peak of one build",
        "blas_threads": blas_threads(),
        "rows": rows,
    }


def run_fresh(tree: Path, flag: str) -> dict:
    """The JSON line that this script prints under flag, run on tree's src/."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    cmd = [sys.executable, __file__, flag]
    out = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def run_perfbench(tree: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "20", "--trace", "0"]
    lines = subprocess.run(cmd, cwd=tree, check=True, capture_output=True,
                           text=True).stdout.splitlines()
    result = json.loads(lines[-1])
    jobs = {}
    for line in lines:
        m = JOB_LINE.match(line)
        if m:
            jobs[int(m.group(1))] = dict(pair.split("=", 1) for pair in m.group(2).split())
    return {
        "metrics": {k: round(result["metrics"][k]["value"], 4) for k in METRICS},
        "failed_attempted": [result["failed"], result["attempted"]],
        "sha256": jobs,
    }


def quartiles(values: list) -> list:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 4), round(q2, 4), round(q3, 4)]


def summarize(runs: list) -> dict:
    out = {}
    for metric in METRICS:
        parent = [r["parent"]["metrics"][metric] for r in runs]
        change = [r["change"]["metrics"][metric] for r in runs]
        pq, cq = quartiles(parent), quartiles(change)
        out[metric] = {
            "parent": parent,
            "change": change,
            "parent_q1_median_q3": pq,
            "change_q1_median_q3": cq,
            "change_wins": f"{sum(c < p for p, c in zip(parent, change))}/{len(runs)}",
            "median_diff": round(cq[1] - pq[1], 4),
            "parent_iqr": round(pq[2] - pq[0], 4),
        }
    return out


def compare_artifacts(runs: list) -> dict:
    compared = {}
    mismatched = {}
    for r in runs:
        a, b = r["parent"]["sha256"], r["change"]["sha256"]
        for job in sorted(set(a) & set(b)):
            for name, digest in a[job].items():
                compared[name] = compared.get(name, 0) + 1
                if b[job].get(name) != digest:
                    mismatched[name] = mismatched.get(name, 0) + 1
    return {name: {"jobs_compared": n, "sha256_mismatches": mismatched.get(name, 0)}
            for name, n in compared.items()}


def paired_runs(trees: dict, workload: str, seeds) -> dict:
    """One perfbench pair per seed, alternating which side runs first."""
    runs = []
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        run = {"seed": seed, "first": order[0]}
        for side in order:
            run[side] = run_perfbench(trees[side], workload, seed)
        runs.append(run)
        print(f"{workload} seed {seed}: job_s parent {run['parent']['metrics']['job_s']} "
              f"change {run['change']['metrics']['job_s']}", flush=True)
    return {
        "seeds": list(seeds),
        "first_in_pair": [r["first"] for r in runs],
        "failed_of_attempted": {
            side: "{}/{}".format(*[sum(r[side]["failed_attempted"][i] for r in runs)
                                   for i in (0, 1)])
            for side in trees
        },
        **summarize(runs),
        "artifacts": compare_artifacts(runs),
    }


def gain_claim(record: dict, workload: str, metric: str = "job_s") -> dict:
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


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", type=Path, help="checkout of the parent commit")
    ap.add_argument("--layers-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--scan-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if args.layers_only:
        print(json.dumps(layers()))
        return
    if args.scan_only:
        print(json.dumps(scan_tables()))
        return
    if args.baseline is None:
        ap.error("--baseline is required")

    trees = {"parent": args.baseline.resolve(), "change": ROOT}
    layer = {side: run_fresh(tree, "--layers-only") for side, tree in trees.items()}
    scan = run_fresh(ROOT, "--scan-only")
    for row in scan["chunk_scan"]["rows"]:
        print(f"chunk scan d={row['d']}: np.abs {row['abs_ms']} ms, lift {row['lift_ms']} ms",
              flush=True)
    for row in scan["net_build"]["rows"]:
        print(f"net build d={row['d']} eps={row['epsilon']}: "
              f"np.abs {row['abs_s']} s {row['abs_peak_mb']} MB, "
              f"lift {row['lift_s']} s {row['lift_peak_mb']} MB", flush=True)
    ref_diff = max(
        abs(layer["parent"]["reference_values"][s] - layer["change"]["reference_values"][s])
        for s in layer["parent"]["reference_values"]
    )
    for side in trees:
        print(f"{side}: build_net {layer[side]['build_net_s']:.4f}s "
              f"reference_minimum {layer[side]['reference_minimum_s']:.4f}s", flush=True)

    end_to_end = {workload: paired_runs(trees, workload, SEEDS) for workload in WORKLOADS}
    artifacts = {workload: rec.pop("artifacts") for workload, rec in end_to_end.items()}
    claim = gain_claim(end_to_end["min-search"], "min-search")
    record = {
        "topic": "minimum",
        "harness": "PYTHONPATH=src python3 scripts/bench_minimum.py --baseline PARENT",
        "machine": fingerprint(),
        "layers": {
            "inputs": f"build_net({NET_D}, {NET_EPS}, rng=1); reference_minimum of "
                      f"phase_spread_unitary({REF_D}), {REF_STARTS} starts, rng=1",
            **{side: {k: v for k, v in layer[side].items() if k != "reference_values"}
               for side in trees},
        },
        **scan,
        "reference_values": {
            "job_seeds": len(VALUE_SEEDS),
            "max_abs_diff": ref_diff,
        },
        "end_to_end": end_to_end,
        "artifacts": artifacts,
        "claim": claim,
    }
    OUT.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
