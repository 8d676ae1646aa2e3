#!/usr/bin/env python3
"""Time the twin-pair layers before and after a change, then end to end.

Layers, on the inputs of the twin-dense workload (Q = depolarizing(0.5,
16), 256 Kraus operators, and its partner R from perturb_channel): the
canonical encode of Q's and R's Kraus sets as a certificate writes them
(and of Q's alone, the same input in both trees),
choi_from_kraus(Q), validate_cptp on J(Q), perturb_channel(Q) with
10000 verification samples, and verify_pair(Q, R) over 10000 samples at
each worker count of VERIFY_THREADS (a tree whose verify_pair takes no
thread count is timed at one worker only). Each is the median of REPEATS
runs (VERIFY_REPEATS for verify_pair) after one warm-up, in a fresh
interpreter against each tree's src/ with BLAS pinned to one thread as
the CLI pins it.

End to end: paired `perfbench/run.py --trace 0` runs of all four
workloads, twin-dense first, as scripts/bench_minimum.py makes them (its
paired_runs, summarize and compare_artifacts). Medians, inclusive
quartiles and per-pair wins of setup_s, job_s and peak_rss_mb go to
BENCH_twin.json with the machine fingerprint (core count, BLAS name and
the process's BLAS thread count, read before the CLI pins it) and the
BLAS thread count the CLI runs at; the claim is job_s on twin-dense.

    git archive --prefix=parent/ PARENT | tar -x -C /tmp
    PYTHONPATH=src python3 scripts/bench_twin.py --baseline /tmp/parent
"""

import argparse
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

from bench_kernel import ROOT, _median_time
from bench_minimum import WORKLOADS, cli_blas_threads, gain_claim, paired_runs
from child import blas_threads, fingerprint  # bench_kernel put perfbench/ on sys.path

D, P, N_VERIFY = 16, 0.5, 10000
SEEDS = range(61, 71)
REPEATS = 5
VERIFY_REPEATS = 15
VERIFY_THREADS = (1, 2)
CLAIM = "twin-dense"
OUT = ROOT / "BENCH_twin.json"


def layers() -> dict:
    """Layer times of the gatefid found on sys.path, BLAS at one thread."""
    from gatefid import _blas, serialize
    from gatefid.channels import choi_from_kraus, depolarizing, validate_cptp
    from gatefid.nonuniq import perturb_channel, verify_pair

    _blas.pin_single_thread()
    q = depolarizing(P, D)
    perturb_s, pair = _median_time(lambda: perturb_channel(q, n_verify=N_VERIFY, rng=1), REPEATS)
    takes_threads = "threads" in inspect.signature(verify_pair).parameters
    verify_s = {}
    for threads in VERIFY_THREADS:
        if not takes_threads and threads > 1:
            continue
        kwargs = {"threads": threads} if takes_threads else {}
        seconds, _ = _median_time(
            lambda: verify_pair(pair.q, pair.r, N_VERIFY, rng=1, **kwargs), VERIFY_REPEATS
        )
        verify_s[f"threads_{threads}"] = round(seconds, 6)
    cert = {"q": serialize.channel_to_dict(pair.q), "r": serialize.channel_to_dict(pair.r)}
    encode_s, text = _median_time(lambda: serialize.dumps_canonical(cert), REPEATS)
    # Q is the same in both trees, R need not be
    encode_q_s, _ = _median_time(lambda: serialize.dumps_canonical(cert["q"]), REPEATS)
    choi_s, choi = _median_time(lambda: choi_from_kraus(q), REPEATS)
    validate_s, _ = _median_time(lambda: validate_cptp(choi), REPEATS)
    return {
        "encode_s": round(encode_s, 6),
        "encode_mb": round(len(text) / 1e6, 3),
        "encode_q_s": round(encode_q_s, 6),
        "choi_from_kraus_s": round(choi_s, 6),
        "validate_cptp_s": round(validate_s, 6),
        "perturb_channel_s": round(perturb_s, 6),
        "verify_pair_s": verify_s,
        "blas_threads": blas_threads(),
    }


def run_layers(tree: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    cmd = [sys.executable, __file__, "--layers-only"]
    out = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", type=Path, help="checkout of the parent commit")
    ap.add_argument("--layers-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if args.layers_only:
        print(json.dumps(layers()))
        return
    if args.baseline is None:
        ap.error("--baseline is required")

    trees = {"parent": args.baseline.resolve(), "change": ROOT}
    layer = {side: run_layers(tree) for side, tree in trees.items()}
    for side in trees:
        print(f"{side}: {layer[side]}", flush=True)

    order = (CLAIM, *(w for w in WORKLOADS if w != CLAIM))
    end_to_end = {workload: paired_runs(trees, workload, SEEDS) for workload in order}
    artifacts = {workload: rec.pop("artifacts") for workload, rec in end_to_end.items()}
    claim = gain_claim(end_to_end[CLAIM], CLAIM)
    record = {
        "topic": "twin",
        "harness": "PYTHONPATH=src python3 scripts/bench_twin.py --baseline PARENT",
        "machine": {**fingerprint(), "cli_blas_threads": cli_blas_threads()},
        "layers": {
            "inputs": f"Q = depolarizing({P}, {D}) and R from perturb_channel(Q, "
                      f"n_verify={N_VERIFY}, rng=1); the encode writes Q's and R's Kraus "
                      "sets; validate_cptp takes J(Q); verify_pair(Q, R) takes "
                      f"{N_VERIFY} samples at rng=1, timed per worker count",
            **layer,
        },
        "end_to_end": end_to_end,
        "artifacts": artifacts,
        "claim": claim,
    }
    OUT.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
