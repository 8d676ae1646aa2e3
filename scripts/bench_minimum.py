#!/usr/bin/env python3
"""Time net packing and the descent before and after a change, then end to end.

Layers: build_net(3, 0.2) and reference_minimum on a d=16 phase-spread
unitary with 8 starts, the inputs of the min-search workload. One sample
of every layer comes from one probe interpreter: the first build_net of
the process (cold, as in every CLI job), a second one (warm), and
reference_minimum after one warm-up call; LAYER_REPEATS interpreters run
per tree. One more interpreter per tree records reference_minimum at the
first VALUE_JOBS job seeds of every entry of SEEDS (perfbench's
job_seed), so the two trees' reference values can be compared where
perfbench only shows differing sha256.

Descent: reference_minimum with 8 starts, rng=1, on each channel of
DESCENT_PANEL, in DESCENT_ROUNDS interpreters per tree, alternating. Each
interpreter counts the product batches of one call and times the median of
DESCENT_REPEATS calls after one warm-up. A product batch is one product of
every folded Kraus operator with the rows of a batch: an evaluation
(minimum.gate_fidelity_batch) is one, a gradient (FidelityKernel.gradient,
where the tree has it) two, and a call of fidelity._kraus_products, where
the tree has it, two.

Scan routes: in a probe interpreter on this tree's src/, the net scan and
the survivor check are timed three ways. Chunk scan: one 256-sample chunk
against a SCAN_NET-state net at each d in SCAN_DIMS, the chunk's lift
included, the median of SCAN_REPEATS runs, through _min_distances (np.abs
of the complex overlap), through one lifted Gram matrix of the whole net,
and through minimum._far, which scans the lifted net block by block and
drops a point at the first block that holds a state near it. Survivor
check: the first chunk of a net, whose samples all survive the empty
net's scan, decided among themselves by one _min_distances call per
survivor and by one Gram matrix with a running maximum, as _grow does;
both must add the same samples. Net build: whole build_net calls at each
(d, epsilon) of NET_BUILDS, forced onto each route through
minimum.LIFT_MAX_DIM, the median of REPEATS runs, with the tracemalloc
peak of one more run; both routes must give the same net. The tables
back minimum.LIFT_MAX_DIM.

End to end, as scripts/bench_common.py runs it; the claim is job_s on
min-search.

    git archive --prefix=parent/ PARENT | tar -x -C /tmp
    PYTHONPATH=src python3 scripts/bench_minimum.py --baseline /tmp/parent
"""

import time

from bench_common import alternating, blas_threads, compare, job_seed, main, median_time, run_fresh

NET_D, NET_EPS, REF_D, REF_STARTS = 3, 0.2, 16, 8
SEEDS = range(251, 261)
LAYER_REPEATS = 15  # fresh interpreters per tree
LAYER_KEYS = ("build_net_cold_ms", "build_net_warm_ms", "reference_minimum_ms")
REPEATS = 5  # net_build runs per route, in one interpreter
VALUE_JOBS = 3  # job seeds per entry of SEEDS whose reference values are compared
VALUE_SEEDS = [job_seed(s, k) for s in SEEDS for k in range(VALUE_JOBS)]
DESCENT_ROUNDS = 5  # fresh interpreters per tree
DESCENT_REPEATS = 15  # timed calls per channel, in one interpreter
DESCENT_STARTS = 8
SCAN_DIMS = (2, 3, 4, 6, 8, 12, 16)
SCAN_NET = 1500
SCAN_REPEATS = 41
# min-search's net, large and small nets up to the last lifted d, then
# nets above it: at larger d only an epsilon near sqrt(2) keeps a net
# within the 2000-state budget
NET_BUILDS = ((3, 0.2), (4, 0.6), (6, 0.6), (8, 0.7), (8, 0.9), (12, 1.0), (16, 1.2),
              (64, 1.36), (256, 1.405))


def _unitary(seed: int):
    import numpy as np

    from gatefid.channels import phase_spread_unitary

    return phase_spread_unitary(REF_D, np.random.default_rng([seed, REF_D]))


def _ms(fn) -> tuple:
    start = time.perf_counter()
    result = fn()
    return round(1e3 * (time.perf_counter() - start), 3), result


def _descent_panel() -> dict:
    from gatefid.channels import amplitude_damping, random_channel

    return {
        "phase-spread-d16": _unitary(1),
        "random-d16-rank4": random_channel(16, 4, rng=1),
        "random-d32-rank3": random_channel(32, 3, rng=1),
        "amplitude-damping-0.3": amplitude_damping(0.3),
    }


def _product_batches(fn) -> int:
    """Product batches fn() makes through the descent's entry points, in either tree."""
    from gatefid import fidelity, minimum

    count = [0]
    spies = [(minimum, "gate_fidelity_batch", 1)]
    if hasattr(fidelity.FidelityKernel, "gradient"):
        spies.append((fidelity.FidelityKernel, "gradient", 2))
    if hasattr(minimum, "_kraus_products"):
        spies.append((minimum, "_kraus_products", 2))
    originals = [(owner, name, getattr(owner, name)) for owner, name, _ in spies]
    for (owner, name, batches), (_, _, original) in zip(spies, originals):
        def counted(*args, _original=original, _batches=batches, **kwargs):
            count[0] += _batches
            return _original(*args, **kwargs)

        setattr(owner, name, counted)
    try:
        fn()
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)
    return count[0]


def descent() -> dict:
    """Product batches and the median ms of reference_minimum on each panel channel."""
    from gatefid.minimum import reference_minimum

    out = {}
    for name, ch in _descent_panel().items():
        call = lambda: reference_minimum(ch, None, DESCENT_STARTS, rng=1)  # noqa: E731
        batches = _product_batches(call)
        seconds, value = median_time(call, DESCENT_REPEATS)
        out[name] = {"product_batches": batches, "ms": round(1e3 * seconds, 3), "value": value}
    return out


def descent_record(trees: dict) -> dict:
    samples = alternating(
        trees, range(DESCENT_ROUNDS), lambda tree, _: run_fresh(__file__, tree, "descent"))
    record = {
        "inputs": f"reference_minimum(channel, None, {DESCENT_STARTS}, rng=1): the d=16 "
                  "phase-spread unitary of the layers, random_channel(16, 4, rng=1), "
                  "random_channel(32, 3, rng=1) and amplitude_damping(0.3); ms is each "
                  f"interpreter's median of {DESCENT_REPEATS} calls after one warm-up",
        "interpreters_per_tree": DESCENT_ROUNDS,
    }
    for name in samples["parent"][0]:
        row = {
            side: {"product_batches": sorted({s[name]["product_batches"] for s in samples[side]}),
                   "values": sorted({s[name]["value"] for s in samples[side]})}
            for side in trees
        }
        row["ms"] = compare([s[name]["ms"] for s in samples["parent"]],
                            [s[name]["ms"] for s in samples["change"]])
        record[name] = row
    return record


def layers() -> dict:
    """One sample of each layer of the gatefid on sys.path."""
    from gatefid.minimum import build_net, reference_minimum

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
    """reference_minimum at every job seed of VALUE_SEEDS."""
    from gatefid.minimum import reference_minimum

    return {str(s): reference_minimum(_unitary(s), None, REF_STARTS, rng=s) for s in VALUE_SEEDS}


def layer_record(trees: dict) -> dict:
    samples = alternating(
        trees, range(LAYER_REPEATS), lambda tree, _: run_fresh(__file__, tree, "layers"))
    record = {
        "inputs": f"build_net({NET_D}, {NET_EPS}, rng=1), the first and the second of a "
                  f"fresh interpreter; reference_minimum of phase_spread_unitary({REF_D}), "
                  f"{REF_STARTS} starts, rng=1, after one warm-up call",
        "interpreters_per_tree": LAYER_REPEATS,
        "blas_threads": sorted({s["blas_threads"] for side in trees for s in samples[side]}),
        "net_states": {side: sorted({s["net_states"] for s in samples[side]}) for side in trees},
    }
    for key in LAYER_KEYS:
        record[key] = compare([s[key] for s in samples["parent"]],
                              [s[key] for s in samples["change"]])
    return record


def scan_tables() -> dict:
    """Both routes of the net scan, per chunk and per build_net."""
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
        exact_s, exact = median_time(lambda: _min_distances(chunk, net) >= NET_EPS, SCAN_REPEATS)
        whole_s, whole = median_time(
            lambda: (_lift(chunk) @ lifted_net.T).max(axis=1) < edge, SCAN_REPEATS
        )
        block_s, block = median_time(lambda: _far(chunk, net, lifted_net, NET_EPS), SCAN_REPEATS)
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
        loop_s, loop = median_time(lambda: per_survivor(chunk), SCAN_REPEATS)
        gram_s, kept = median_time(lambda: gram(chunk), SCAN_REPEATS)
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
            seconds, net = median_time(lambda: minimum.build_net(d, eps, rng=1), REPEATS)
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


def measure(trees: dict) -> dict:
    layer = layer_record(trees)
    for key in LAYER_KEYS:
        print(f"{key}: parent {layer[key]['parent_q1_median_q3'][1]} "
              f"change {layer[key]['change_q1_median_q3'][1]} "
              f"(change wins {layer[key]['change_wins']})", flush=True)
    descent_layer = descent_record(trees)
    for name, row in descent_layer.items():
        if isinstance(row, dict):
            print(f"descent {name}: product batches parent {row['parent']['product_batches']} "
                  f"change {row['change']['product_batches']}, ms parent "
                  f"{row['ms']['parent_q1_median_q3'][1]} change "
                  f"{row['ms']['change_q1_median_q3'][1]}", flush=True)
    values = {side: run_fresh(__file__, tree, "values") for side, tree in trees.items()}
    diffs = [abs(values["parent"][s] - values["change"][s]) for s in values["parent"]]
    print(f"reference_minimum max |diff| over {len(diffs)} job seeds: {max(diffs)}", flush=True)
    scan = run_fresh(__file__, trees["change"], "scan")
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
    return {
        "layers": layer,
        "descent": descent_layer,
        **scan,
        "reference_values": {
            "job_seeds": len(diffs),
            "moved": sum(d > 0 for d in diffs),
            "max_abs_diff": max(diffs),
        },
    }


if __name__ == "__main__":
    main(__file__, __doc__,
                      {"layers": layers, "descent": descent, "values": reference_values,
                       "scan": scan_tables},
                      measure, ("min-search", "job_s"), SEEDS)
