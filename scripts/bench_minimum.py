#!/usr/bin/env python3
"""Time net packing and the descent before and after a change, then end to end.

Layers: build_net(3, 0.2) and reference_minimum on a d=16 phase-spread
unitary with 8 starts, the inputs of the min-search workload. One sample
of every layer comes from one fresh interpreter against one tree's src/,
with BLAS pinned to one thread as the CLI pins it: the first build_net
of the process (cold, as in every CLI job), a second one (warm), and
reference_minimum after one warm-up call. LAYER_REPEATS interpreters run
per tree, the trees alternating which goes first; medians, quartiles and
per-pair wins are recorded. One more interpreter per tree records
reference_minimum at the first VALUE_JOBS job seeds of every entry of
SEEDS (perfbench's job_seed), so the two trees' reference values can be
compared where perfbench only shows differing sha256.

Scan routes: in a fresh interpreter on this tree's src/, with BLAS
pinned to one thread as the CLI pins it, the net scan and the survivor
check are timed three ways. Chunk scan: one 256-sample chunk against a
SCAN_NET-state net at each d in SCAN_DIMS, the chunk's lift included,
the median of SCAN_REPEATS runs, through _min_distances (np.abs of the
complex overlap), through one lifted Gram matrix of the whole net, and
through minimum._far, which scans the lifted net block by block and
drops a point at the first block that holds a state near it. Survivor
check: the first chunk of a net, whose samples all survive the empty
net's scan, decided among themselves by one _min_distances call per
survivor and by one Gram matrix with a running maximum, as _grow does;
both must add the same samples. Net build: whole build_net calls at each
(d, epsilon) of NET_BUILDS, forced onto each route through
minimum.LIFT_MAX_DIM, the median of REPEATS runs, with the tracemalloc
peak of one more run; both routes must give the same net. The tables
back minimum.LIFT_MAX_DIM.

End to end: for each of the four workloads and each seed in SEEDS, one
`perfbench/run.py --workload W --seed S --seconds 20 --trace 0` run per
tree, from that tree's own checkout, alternating which side runs
first. Every job index both runs reached has its artifacts' sha256
compared. Medians, inclusive quartiles and per-pair wins of setup_s,
job_s and peak_rss_mb go to BENCH_minimum.json with the machine
fingerprint (core count, BLAS name, BLAS thread count, and the BLAS
thread count once the CLI has pinned it); the claim is job_s on
min-search.

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
import tempfile
import time
from pathlib import Path

from bench_kernel import ROOT, _median_time
from child import blas_threads, fingerprint, job_seed  # bench_kernel put perfbench/ on sys.path

METRICS = ("setup_s", "job_s", "peak_rss_mb")
JOB_LINE = re.compile(r"^# job (\d+) traced=\d [\d.]+ s .* sha256 (.*)$")
NET_D, NET_EPS, REF_D, REF_STARTS = 3, 0.2, 16, 8
WORKLOADS = ("min-search", "stats-lowrank", "sweep-unitary", "twin-dense")
SEEDS = range(141, 151)
LAYER_REPEATS = 15  # fresh interpreters per tree
LAYER_KEYS = ("build_net_cold_ms", "build_net_warm_ms", "reference_minimum_ms")
REPEATS = 5  # net_build runs per route, in one interpreter
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


def _unitary(seed: int):
    import numpy as np

    from gatefid.channels import phase_spread_unitary

    return phase_spread_unitary(REF_D, np.random.default_rng([seed, REF_D]))


def _ms(fn) -> tuple:
    start = time.perf_counter()
    result = fn()
    return round(1e3 * (time.perf_counter() - start), 3), result


def layers() -> dict:
    """One sample of each layer of the gatefid on sys.path, in a fresh interpreter."""
    from gatefid._blas import pin_single_thread
    from gatefid.minimum import build_net, reference_minimum

    pin_single_thread()
    ch = _unitary(1)
    cold_ms, net = _ms(lambda: build_net(NET_D, NET_EPS, rng=1))
    warm_ms, _ = _ms(lambda: build_net(NET_D, NET_EPS, rng=1))
    reference_minimum(ch, None, REF_STARTS, rng=1)
    ref_ms, _ = _ms(lambda: reference_minimum(ch, None, REF_STARTS, rng=1))
    return {
        "build_net_cold_ms": cold_ms,
        "build_net_warm_ms": warm_ms,
        "reference_minimum_ms": ref_ms,
        "net_states": len(net.states),
        "blas_threads": blas_threads(),
    }


def reference_values() -> dict:
    """reference_minimum at every job seed of VALUE_SEEDS, BLAS at one thread."""
    from gatefid._blas import pin_single_thread
    from gatefid.minimum import reference_minimum

    pin_single_thread()
    return {str(s): reference_minimum(_unitary(s), None, REF_STARTS, rng=s) for s in VALUE_SEEDS}


def layer_record(trees: dict) -> dict:
    """LAYER_REPEATS fresh-interpreter samples per tree, alternating which runs first."""
    samples = {side: [] for side in trees}
    for i in range(LAYER_REPEATS):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            samples[side].append(run_fresh(trees[side], "--layers-only"))
    record = {
        "inputs": f"build_net({NET_D}, {NET_EPS}, rng=1), the first and the second of a "
                  f"fresh interpreter; reference_minimum of phase_spread_unitary({REF_D}), "
                  f"{REF_STARTS} starts, rng=1, after one warm-up call",
        "interpreters_per_tree": LAYER_REPEATS,
        "blas_threads": sorted({s["blas_threads"] for side in trees for s in samples[side]}),
        "net_states": {side: sorted({s["net_states"] for s in samples[side]}) for side in trees},
    }
    for key in LAYER_KEYS:
        parent = [s[key] for s in samples["parent"]]
        change = [s[key] for s in samples["change"]]
        record[key] = {
            "parent_q1_median_q3": quartiles(parent),
            "change_q1_median_q3": quartiles(change),
            "change_wins": f"{sum(c < p for p, c in zip(parent, change))}/{LAYER_REPEATS}",
        }
    return record


def scan_tables() -> dict:
    """Both routes of the net scan, per chunk and per build_net, at one BLAS thread."""
    from gatefid._blas import pin_single_thread

    pin_single_thread()
    return {"chunk_scan": chunk_scan(), "survivor_check": survivor_check(),
            "net_build": net_build()}


def chunk_scan() -> dict:
    import numpy as np

    from gatefid.minimum import _DISTANCE_CHUNK, LIFT_MAX_DIM, _far, _lift, _min_distances
    from gatefid.sampling import haar_states

    edge = (1.0 - 0.5 * NET_EPS * NET_EPS) ** 2
    rows = []
    for d in SCAN_DIMS:
        net = haar_states(d, SCAN_NET, rng=d)
        chunk = haar_states(d, _DISTANCE_CHUNK, rng=1000 + d)
        lifted_net = _lift(net)
        exact_s, exact = _median_time(lambda: _min_distances(chunk, net) >= NET_EPS, SCAN_REPEATS)
        whole_s, whole = _median_time(
            lambda: (_lift(chunk) @ lifted_net.T).max(axis=1) < edge, SCAN_REPEATS
        )
        block_s, block = _median_time(lambda: _far(chunk, net, lifted_net, NET_EPS), SCAN_REPEATS)
        if not (exact == block).all() or not (exact == whole).all():
            raise RuntimeError(f"the routes decide differently at d={d}")
        rows.append({
            "d": d,
            "abs_ms": round(1e3 * exact_s, 4),
            "lift_whole_ms": round(1e3 * whole_s, 4),
            "lift_block_ms": round(1e3 * block_s, 4),
            "speedup": round(exact_s / block_s, 2),
            "far_points": int(exact.sum()),
            "lifted_in_grow": d <= LIFT_MAX_DIM,
        })
    return {
        "inputs": f"one {_DISTANCE_CHUNK}-sample chunk against a {SCAN_NET}-state Haar net, "
                  f"epsilon {NET_EPS}; the lifted times include lifting the chunk; speedup "
                  "is abs over block; far points scan every block",
        "blas_threads": blas_threads(),
        "rows": rows,
    }


def survivor_check() -> dict:
    import numpy as np

    from gatefid.minimum import _DISTANCE_CHUNK, _LIFT_MARGIN, _min_distances
    from gatefid.sampling import haar_states

    edge = 1.0 - 0.5 * NET_EPS * NET_EPS

    def per_survivor(chunk):
        net, added = chunk.copy(), [0]
        for i in range(1, len(chunk)):
            pair = min(i, len(chunk) - 2)
            if _min_distances(chunk[pair : pair + 2], net[: len(added)])[i - pair] >= NET_EPS:
                net[len(added)] = chunk[i]
                added.append(i)
        return added

    def gram(chunk):
        overlap = np.abs(chunk.conj() @ chunk.T)
        closest = overlap[0].copy()
        added = [0]
        for i in range(1, len(chunk)):
            top = closest[i]
            if abs(top - edge) <= _LIFT_MARGIN:
                raise RuntimeError("an overlap on the edge")  # no such tie in these inputs
            if top < edge:
                added.append(i)
                np.maximum(closest, overlap[i], out=closest)
        return added

    rows = []
    for d in SCAN_DIMS:
        chunk = haar_states(d, _DISTANCE_CHUNK, rng=2000 + d)
        loop_s, loop = _median_time(lambda: per_survivor(chunk), SCAN_REPEATS)
        gram_s, kept = _median_time(lambda: gram(chunk), SCAN_REPEATS)
        if loop != kept:
            raise RuntimeError(f"the survivor checks add different samples at d={d}")
        rows.append({
            "d": d,
            "added": len(kept),
            "per_survivor_ms": round(1e3 * loop_s, 4),
            "gram_ms": round(1e3 * gram_s, 4),
            "speedup": round(loop_s / gram_s, 2),
        })
    return {
        "inputs": f"the {_DISTANCE_CHUNK} samples of a chunk against an empty net, epsilon "
                  f"{NET_EPS}: one _min_distances call per survivor against the samples "
                  "added, or one Gram matrix and a running maximum",
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
    return [round(q, 4) for q in statistics.quantiles(values, n=4, method="inclusive")]


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


def cli_blas_threads() -> int:
    """BLAS threads after gatefid.cli.main has run once in this process."""
    from gatefid.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        main(["bounds", "levy", "--d", "2", "--eps", "0.5", "--out", f"{tmp}/levy.json"])
    return blas_threads()


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
    ap.add_argument("--values-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--scan-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    for flag, fn in ((args.layers_only, layers), (args.values_only, reference_values),
                     (args.scan_only, scan_tables)):
        if flag:
            print(json.dumps(fn()))
            return
    if args.baseline is None:
        ap.error("--baseline is required")
    trees = {"parent": args.baseline.resolve(), "change": ROOT}
    layer = layer_record(trees)
    for key in LAYER_KEYS:
        print(f"{key}: parent {layer[key]['parent_q1_median_q3'][1]} "
              f"change {layer[key]['change_q1_median_q3'][1]} "
              f"(change wins {layer[key]['change_wins']})", flush=True)
    values = {side: run_fresh(tree, "--values-only") for side, tree in trees.items()}
    diffs = [abs(values["parent"][s] - values["change"][s]) for s in values["parent"]]
    print(f"reference_minimum max |diff| over {len(diffs)} job seeds: {max(diffs)}", flush=True)
    scan = run_fresh(ROOT, "--scan-only")
    for row in scan["chunk_scan"]["rows"]:
        print(f"chunk scan d={row['d']}: np.abs {row['abs_ms']} ms, lift whole "
              f"{row['lift_whole_ms']} ms, lift by block {row['lift_block_ms']} ms", flush=True)
    for row in scan["survivor_check"]["rows"]:
        print(f"survivor check d={row['d']}: per survivor {row['per_survivor_ms']} ms, "
              f"Gram {row['gram_ms']} ms", flush=True)
    for row in scan["net_build"]["rows"]:
        print(f"net build d={row['d']} eps={row['epsilon']}: "
              f"np.abs {row['abs_s']} s {row['abs_peak_mb']} MB, "
              f"lift {row['lift_s']} s {row['lift_peak_mb']} MB", flush=True)

    end_to_end = {workload: paired_runs(trees, workload, SEEDS) for workload in WORKLOADS}
    artifacts = {workload: rec.pop("artifacts") for workload, rec in end_to_end.items()}
    claim = gain_claim(end_to_end["min-search"], "min-search")
    record = {
        "topic": "minimum",
        "harness": "PYTHONPATH=src python3 scripts/bench_minimum.py --baseline PARENT",
        "machine": {**fingerprint(), "cli_blas_threads": cli_blas_threads()},
        "layers": layer,
        **scan,
        "reference_values": {
            "job_seeds": len(diffs),
            "moved": sum(d > 0 for d in diffs),
            "max_abs_diff": max(diffs),
        },
        "end_to_end": end_to_end,
        "artifacts": artifacts,
        "claim": claim,
    }
    OUT.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
