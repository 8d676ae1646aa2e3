#!/usr/bin/env python3
"""Time the twin-pair layers before and after a change, then end to end.

Layers, on the inputs of the twin-dense workload (Q = depolarizing(0.5,
16), 256 Kraus operators, and its partner R from perturb_channel): the
canonical encode of Q's and R's Kraus sets as a certificate writes them
(and of Q's alone, the same input in both trees),
choi_from_kraus(Q), validate_cptp on J(Q), perturb_channel(Q) with
10000 verification samples, and verify_pair(Q, R) over 10000 samples at
each worker count of VERIFY_THREADS. Each is the median of REPEATS runs
(VERIFY_REPEATS for verify_pair) after one warm-up, in a probe
interpreter against each tree's src/.

End to end, as scripts/bench_common.py runs it; the claim is job_s on
twin-dense.

    git archive --prefix=parent/ PARENT | tar -x -C /tmp
    PYTHONPATH=src python3 scripts/bench_twin.py --baseline /tmp/parent
"""

from bench_common import blas_threads, main, median_time, run_fresh

D, P, N_VERIFY = 16, 0.5, 10000
SEEDS = range(61, 71)
REPEATS = 5
VERIFY_REPEATS = 15
VERIFY_THREADS = (1, 2)


def layers() -> dict:
    """Layer times of the gatefid found on sys.path."""
    from gatefid import serialize
    from gatefid.channels import choi_from_kraus, depolarizing, validate_cptp
    from gatefid.nonuniq import perturb_channel, verify_pair

    q = depolarizing(P, D)
    perturb_s, pair = median_time(lambda: perturb_channel(q, n_verify=N_VERIFY, rng=1), REPEATS)
    verify_s = {}
    for threads in VERIFY_THREADS:
        seconds, _ = median_time(
            lambda: verify_pair(pair.q, pair.r, N_VERIFY, rng=1, threads=threads), VERIFY_REPEATS
        )
        verify_s[f"threads_{threads}"] = round(seconds, 6)
    cert = {"q": serialize.channel_to_dict(pair.q), "r": serialize.channel_to_dict(pair.r)}
    encode_s, text = median_time(lambda: serialize.dumps_canonical(cert), REPEATS)
    # Q is the same in both trees, R need not be
    encode_q_s, _ = median_time(lambda: serialize.dumps_canonical(cert["q"]), REPEATS)
    choi_s, choi = median_time(lambda: choi_from_kraus(q), REPEATS)
    validate_s, _ = median_time(lambda: validate_cptp(choi), REPEATS)
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


def measure(trees: dict) -> dict:
    layer = {side: run_fresh(__file__, tree, "layers") for side, tree in trees.items()}
    for side in trees:
        print(f"{side}: {layer[side]}", flush=True)
    return {
        "layers": {
            "inputs": f"Q = depolarizing({P}, {D}) and R from perturb_channel(Q, "
                      f"n_verify={N_VERIFY}, rng=1); the encode writes Q's and R's Kraus "
                      "sets; validate_cptp takes J(Q); verify_pair(Q, R) takes "
                      f"{N_VERIFY} samples at rng=1, timed per worker count",
            **layer,
        },
    }


if __name__ == "__main__":
    main(__file__, __doc__, {"layers": layers}, measure, ("twin-dense", "job_s"),
                      SEEDS)
