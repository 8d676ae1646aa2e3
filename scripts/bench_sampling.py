#!/usr/bin/env python3
"""Measure Haar block generation and the sampling schedule before and after
a change, layer by layer and end to end.

Layers: for sweep-unitary and stats-lowrank and each seed in TRACE_SEEDS,
one `perfbench/run.py --trace 1` run per tree, from that tree's own
checkout. Their sampling.haar_s, fidelity.kernel_s, fidelity.kernel_gflops,
sampling.samples_s and sampling.parallelism (with cli.cmd_s for scale) go to
BENCH_sampling.json.

End to end: `perfbench/run.py --trace 0` pairs, alternating which side runs
first, CLAIM_SEEDS on sweep-unitary (the claim, job_s) and CHECK_SEEDS on
the other three workloads (no regression beyond BENCHMARK.json's bounds).
Artifacts of every job index both sides reached are compared by sha256.

The machine fingerprint is perfbench's; its blas_threads is read before
gatefid.cli.main runs, so it shows the process default. The thread count
the CLI runs at is probed separately and recorded as cli_blas_threads.

    git archive --prefix=parent/ PARENT | tar -x -C /tmp
    PYTHONPATH=src python3 scripts/bench_sampling.py --baseline /tmp/parent
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_minimum import ROOT, job_s_claim, paired_runs
from child import blas_threads, fingerprint  # bench_kernel put perfbench/ on sys.path

LAYER_METRICS = (
    "cli.cmd_s",
    "sampling.haar_s",
    "fidelity.kernel_s",
    "fidelity.kernel_gflops",
    "sampling.samples_s",
    "sampling.parallelism",
)
TRACED = ("sweep-unitary", "stats-lowrank")
CLAIM = "sweep-unitary"
CHECKED = ("stats-lowrank", "twin-dense", "min-search")
TRACE_SEEDS = (61, 62)
CLAIM_SEEDS = range(51, 61)
CHECK_SEEDS = range(51, 55)
OUT = ROOT / "BENCH_sampling.json"


def run_traced(tree: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "20", "--trace", "1"]
    out = subprocess.run(cmd, cwd=tree, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.splitlines()[-1])
    return {k: round(result["metrics"][k]["value"], 4) for k in LAYER_METRICS}


def cli_blas_threads() -> int:
    """BLAS threads after gatefid.cli.main has run once in this process."""
    from gatefid.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        main(["bounds", "levy", "--d", "2", "--eps", "0.5", "--out", f"{tmp}/levy.json"])
    return blas_threads()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", type=Path, required=True, help="checkout of the parent commit")
    args = ap.parse_args()
    trees = {"parent": args.baseline.resolve(), "change": ROOT}

    layers = {}
    for workload in TRACED:
        layers[workload] = {"seeds": list(TRACE_SEEDS)}
        for side, tree in trees.items():
            layers[workload][side] = [run_traced(tree, workload, s) for s in TRACE_SEEDS]
            print(f"{workload} traced {side}: {layers[workload][side]}", flush=True)

    end_to_end = {w: paired_runs(trees, w, CLAIM_SEEDS if w == CLAIM else CHECK_SEEDS)
                  for w in (CLAIM, *CHECKED)}
    claim = job_s_claim(end_to_end[CLAIM], CLAIM)
    record = {
        "topic": "sampling",
        "harness": "PYTHONPATH=src python3 scripts/bench_sampling.py --baseline PARENT",
        "machine": {**fingerprint(), "cli_blas_threads": cli_blas_threads()},
        "layers": layers,
        "end_to_end": end_to_end,
        "claim": claim,
    }
    OUT.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
