#!/usr/bin/env python3
"""Measure Haar block generation and the sampling schedule before and after
a change, layer by layer and end to end.

Layers: for sweep-unitary and stats-lowrank and each seed in TRACE_SEEDS,
one `perfbench/run.py --trace 1` run per tree, from that tree's own
checkout. Their sampling.haar_s, fidelity.kernel_s, fidelity.kernel_gflops,
sampling.samples_s and sampling.parallelism (with cli.cmd_s for scale) go to
BENCH_sampling.json.

Haar draw: in HAAR_ROUNDS probe interpreters per tree, the median time
of HAAR_REPEATS draws of one 4096-state block at each d in HAAR_DIMS,
each one `_haar_block(generator(...), out)` call into one reused array,
after one warm-up draw. Medians, quartiles and per-round wins go to
BENCH_sampling.json with each tree's ALGORITHM_ID. This round and the
block peaks call `_haar_block(g, z)`, so the baseline must have that
signature.

Block peaks: in a probe interpreter against each tree's src/, the
tracemalloc peak, above what was allocated before the call, of one
4096-state block's draw, of `gate_fidelity_batch` on that block with a
prebuilt kernel, and of `fidelity_samples` over two blocks at one thread
(two_blocks_mib, what one sampling worker holds beside its kernel; a
rank-1 random channel is a unitary, which takes the spectral route), for
a random channel at each d in
BLOCK_DIMS and rank in BLOCK_RANKS. One warm-up draw runs first, so the
generator's first-use allocations stay out.

Unitary samples: in SAMPLE_ROUNDS probe interpreters per tree, the median
time of SAMPLE_REPEATS `fidelity_samples(phase_spread_unitary(d, 1), None,
SAMPLE_N, RngSpec(1), threads=1)` calls at each d in HAAR_DIMS, after one
warm-up call: the Haar draw and kernel row per state at the parent, d
exponentials and one (rows, d) x (d, 3) product per state on the spectral
route.

Convergence report: in SAMPLE_ROUNDS probe interpreters per tree, the
median time of SAMPLE_REPEATS calls of the handler of `report convergence
--d-list 16,64,256 --n 49152`, parsed by that tree's CLI, so each tree
runs its own family; nothing is written.

End to end, as scripts/bench_common.py runs it; the claim is job_s on
sweep-unitary. When the trees' ALGORITHM_IDs differ, every sampled
artifact is expected to differ, and the record says so.

    git archive --prefix=parent/ PARENT | tar -x -C /tmp
    PYTHONPATH=src python3 scripts/bench_sampling.py --baseline /tmp/parent
"""

import statistics
import time
import tracemalloc

import numpy as np

from bench_common import alternating, compare, main, median_time, run_fresh, run_perfbench

LAYER_METRICS = (
    "cli.cmd_s",
    "sampling.haar_s",
    "fidelity.kernel_s",
    "fidelity.kernel_gflops",
    "sampling.samples_s",
    "sampling.parallelism",
)
TRACED = ("sweep-unitary", "stats-lowrank")
TRACE_SEEDS = (171, 172)
SEEDS = range(161, 171)
BLOCK_DIMS = (16, 64, 256)
BLOCK_RANKS = (1, 4)
HAAR_DIMS = (16, 64, 256, 1024)
HAAR_ROUNDS = 5
HAAR_REPEATS = 15
SAMPLE_N = 16384
SAMPLE_ROUNDS = 5
SAMPLE_REPEATS = 3
CONVERGENCE_ARGV = ("report", "convergence", "--d-list", "16,64,256", "--n", "49152")


def _peak_mib(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return round(tracemalloc.get_traced_memory()[1] / 2**20, 2)
    finally:
        tracemalloc.stop()


def block_peaks() -> list:
    """tracemalloc peaks (MiB) of one block's draw, its kernel and two blocks' samples."""
    from gatefid.channels import random_channel
    from gatefid.fidelity import fidelity_kernel, gate_fidelity_batch
    from gatefid.sampling import (
        BLOCK_SIZE, TAG_MAIN, RngSpec, _haar_block, fidelity_samples, generator,
    )

    spec = RngSpec(1)

    def draw(d, count=BLOCK_SIZE):
        return _haar_block(generator(spec, TAG_MAIN, 0), np.empty((count, d), dtype=complex))

    draw(BLOCK_DIMS[0], 2)
    rows = []
    for d in BLOCK_DIMS:
        haar = _peak_mib(lambda: draw(d))
        states = draw(d)
        for rank in BLOCK_RANKS:
            ch = random_channel(d, rank, rng=1)
            kernel = fidelity_kernel(ch)
            rows.append({
                "d": d,
                "rank": rank,
                "block_mib": round(states.nbytes / 2**20, 2),
                "haar_block_mib": haar,
                "kernel_mib": _peak_mib(lambda: gate_fidelity_batch(ch, None, states,
                                                                    kernel=kernel)),
                "two_blocks_mib": _peak_mib(lambda: fidelity_samples(ch, None, 2 * BLOCK_SIZE,
                                                                     spec, threads=1)),
            })
    return rows


def haar_times() -> dict:
    """Median ms of one 4096-state _haar_block at each d, and the tree's ALGORITHM_ID."""
    from gatefid.sampling import ALGORITHM_ID, BLOCK_SIZE, TAG_MAIN, RngSpec, _haar_block, generator

    spec = RngSpec(1)
    times = {}
    for d in HAAR_DIMS:
        out = _haar_block(generator(spec, TAG_MAIN, 0), np.empty((BLOCK_SIZE, d), dtype=complex))
        samples = []
        for _ in range(HAAR_REPEATS):
            start = time.perf_counter()
            _haar_block(generator(spec, TAG_MAIN, 0), out)
            samples.append(1e3 * (time.perf_counter() - start))
        times[str(d)] = round(statistics.median(samples), 3)
    return {"algorithm_id": ALGORITHM_ID, "ms": times}


def sample_times() -> dict:
    """Median ms of SAMPLE_N phase-spread unitary fidelity samples at each d, one worker."""
    from gatefid.channels import phase_spread_unitary
    from gatefid.sampling import RngSpec, fidelity_samples

    times = {}
    for d in HAAR_DIMS:
        ch = phase_spread_unitary(d, 1)
        seconds, _ = median_time(
            lambda: fidelity_samples(ch, None, SAMPLE_N, RngSpec(1), threads=1), SAMPLE_REPEATS)
        times[str(d)] = round(1e3 * seconds, 3)
    return times


def convergence_time() -> float:
    """Median ms of the report convergence handler over CONVERGENCE_ARGV, one worker."""
    from gatefid.cli import build_parser

    args = build_parser().parse_args(CONVERGENCE_ARGV)
    seconds, _ = median_time(lambda: args.handler(args), SAMPLE_REPEATS)
    return round(1e3 * seconds, 3)


def convergence_record(trees: dict) -> dict:
    samples = alternating(
        trees, range(SAMPLE_ROUNDS), lambda tree, _: run_fresh(__file__, tree, "convergence"))
    m = compare(samples["parent"], samples["change"])
    print(f"report convergence: parent {m['parent_q1_median_q3'][1]} ms, change "
          f"{m['change_q1_median_q3'][1]} ms (change wins {m['change_wins']})", flush=True)
    return {
        "inputs": f"one {SAMPLE_REPEATS}-call median per interpreter of the handler of "
                  f"`{' '.join(CONVERGENCE_ARGV)}`, parsed by the tree's own CLI, "
                  "BLAS at one thread",
        "ms": m,
    }


def sample_record(trees: dict) -> dict:
    samples = alternating(
        trees, range(SAMPLE_ROUNDS), lambda tree, _: run_fresh(__file__, tree, "samples"))
    record = {
        "inputs": f"one {SAMPLE_REPEATS}-call median per interpreter of fidelity_samples("
                  f"phase_spread_unitary(d, 1), None, {SAMPLE_N}, RngSpec(1), threads=1), "
                  "BLAS at one thread",
    }
    for d in map(str, HAAR_DIMS):
        record[f"d{d}_ms"] = compare([s[d] for s in samples["parent"]],
                                     [s[d] for s in samples["change"]])
        m = record[f"d{d}_ms"]
        print(f"unitary samples d={d}: parent {m['parent_q1_median_q3'][1]} ms, change "
              f"{m['change_q1_median_q3'][1]} ms (change wins {m['change_wins']})", flush=True)
    return record


def haar_record(trees: dict) -> dict:
    samples = alternating(
        trees, range(HAAR_ROUNDS), lambda tree, _: run_fresh(__file__, tree, "haar"))
    record = {
        "inputs": f"one {HAAR_REPEATS}-draw median per interpreter of _haar_block(generator("
                  "RngSpec(1), TAG_MAIN, 0), out), out one reused (4096, d) array, "
                  "BLAS at one thread",
        "algorithm_id": {side: samples[side][0]["algorithm_id"] for side in trees},
    }
    for d in map(str, HAAR_DIMS):
        record[f"d{d}_ms"] = compare([s["ms"][d] for s in samples["parent"]],
                                     [s["ms"][d] for s in samples["change"]])
    return record


def measure(trees: dict) -> dict:
    haar = haar_record(trees)
    for d in HAAR_DIMS:
        m = haar[f"d{d}_ms"]
        print(f"haar d={d}: parent {m['parent_q1_median_q3'][1]} ms, change "
              f"{m['change_q1_median_q3'][1]} ms (change wins {m['change_wins']})", flush=True)
    unitary_samples = sample_record(trees)
    convergence = convergence_record(trees)
    peaks = {side: run_fresh(__file__, tree, "block-peaks") for side, tree in trees.items()}
    for side, rows in peaks.items():
        print(f"block peaks {side}: {rows}", flush=True)

    layers = {}
    for workload in TRACED:
        layers[workload] = {"seeds": list(TRACE_SEEDS)}
        for side, tree in trees.items():
            layers[workload][side] = [
                {k: run_perfbench(tree, workload, s, trace=1)["metrics"][k]
                 for k in LAYER_METRICS} for s in TRACE_SEEDS]
            print(f"{workload} traced {side}: {layers[workload][side]}", flush=True)
    return {
        "algorithm_id": haar["algorithm_id"],
        "artifacts_expected_to_match": len(set(haar["algorithm_id"].values())) == 1,
        "haar_draw": haar,
        "unitary_samples": unitary_samples,
        "convergence_report": convergence,
        "block_peak": {
            "unit": "MiB",
            "inputs": "random_channel(d, rank, rng=1), 4096-state blocks of RngSpec(1), "
                      "BLAS at one thread",
            **peaks,
        },
        "layers": layers,
    }


if __name__ == "__main__":
    main(__file__, __doc__,
         {"haar": haar_times, "block-peaks": block_peaks, "samples": sample_times,
          "convergence": convergence_time},
         measure, ("sweep-unitary", "job_s"), SEEDS)
