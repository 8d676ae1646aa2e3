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

Channel construction, in the same probe: depolarizing(0.5, d) at each d
of DEPOLARIZING_DIMS (time, and tracemalloc peak of one more call),
kraus_from_choi(J(R)), and the tracemalloc peak of validate_cptp on the
Choi matrix of random_channel(32, 4, rng=1).

R's extraction, at each d of PARTNER_DIMS, with Q = depolarizing(0.5, d)
and J(R) = J(Q) + max_epsilon * j_g: kraus_from_choi(J(R)) against the
route perturb_channel takes (channels._sqrt_kraus, the square root of
J(R) block by block, where the tree has it); R's operator and nonzero
counts; the number of blocks of J(Q)'s and J(R)'s exact zero pattern
(null in a tree without linalg._pattern_blocks); validate_cptp and
max_epsilon on J(Q); and the noise move: the largest change of R's entries
when NOISE_DRAWS seeded Hermitian noises of size 1e-15 are added to J(R),
each through the tree's route. PARTNER_REPEATS runs at d = 32, where
kraus_from_choi takes over a second.

End to end, as scripts/bench_common.py runs it; the claim is job_s on
twin-dense.

    git archive --prefix=parent/ PARENT | tar -x -C /tmp
    PYTHONPATH=src python3 scripts/bench_twin.py --baseline /tmp/parent
"""

import tracemalloc

from bench_common import blas_threads, main, median_time, run_fresh

D, P, N_VERIFY = 16, 0.5, 10000
SEEDS = range(411, 421)
REPEATS = 5
PARTNER_DIMS = (16, 32)
PARTNER_REPEATS = {16: REPEATS, 32: 2}
NOISE_DRAWS = 5
VERIFY_REPEATS = 15
VERIFY_THREADS = (1, 2)
DEPOLARIZING_DIMS = (16, 48, 63, 64)


def traced_peak_mib(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return round(tracemalloc.get_traced_memory()[1] / 2**20, 2)
    finally:
        tracemalloc.stop()


def partner(d: int) -> dict:
    """R's extraction from J(R) at d, on the gatefid found on sys.path."""
    import numpy as np

    from gatefid import channels, linalg
    from gatefid.nonuniq import build_g_operator, max_epsilon

    route = getattr(channels, "_sqrt_kraus", channels.kraus_from_choi)
    blocks = getattr(linalg, "_pattern_blocks", None)
    repeats = PARTNER_REPEATS[d]
    j_q = channels.choi_from_kraus(channels.depolarizing(P, d))
    j_r = channels.ChoiMatrix(d, d, j_q.matrix + max_epsilon(j_q) * build_g_operator(d))
    eigh_s, _ = median_time(lambda: channels.kraus_from_choi(j_r), repeats)
    route_s, r = median_time(lambda: route(j_r), repeats)
    ops = np.asarray(r.kraus)  # the array itself; a parent tree's tuple is stacked
    rng = np.random.default_rng(d)
    moves = []
    for _ in range(NOISE_DRAWS):
        h = rng.standard_normal(j_r.matrix.shape) + 1j * rng.standard_normal(j_r.matrix.shape)
        h += h.conj().T
        noisy = channels.ChoiMatrix(d, d, j_r.matrix + 1e-15 * h / np.abs(h).max())
        moved = np.asarray(route(noisy).kraus)
        moves.append(float(np.abs(moved - ops).max()) if moved.shape == ops.shape else None)
    validate_s, _ = median_time(lambda: channels.validate_cptp(j_q), repeats)
    max_epsilon_s, _ = median_time(lambda: max_epsilon(j_q), repeats)
    return {
        "kraus_from_choi_s": round(eigh_s, 6),
        "perturb_route_s": round(route_s, 6),
        "r_operators": len(ops),
        "r_nonzeros": int(np.count_nonzero(ops)),
        "r_entries": ops.size,
        "blocks_q": None if blocks is None else len(blocks(j_q.matrix)),
        "blocks_r": None if blocks is None else len(blocks(j_r.matrix)),
        "validate_cptp_q_s": round(validate_s, 6),
        "max_epsilon_s": round(max_epsilon_s, 6),
        "noise_move": None if None in moves else max(moves),
    }


def layers() -> dict:
    """Layer times of the gatefid found on sys.path."""
    from gatefid import serialize
    from gatefid.channels import (
        choi_from_kraus,
        depolarizing,
        kraus_from_choi,
        random_channel,
        validate_cptp,
    )
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
    choi_r = choi_from_kraus(pair.r)
    kraus_s, _ = median_time(lambda: kraus_from_choi(choi_r), REPEATS)
    build = {}
    for d in DEPOLARIZING_DIMS:
        seconds, _ = median_time(lambda: depolarizing(P, d), REPEATS)
        build[f"d_{d}"] = {"s": round(seconds, 6),
                           "peak_mib": traced_peak_mib(lambda: depolarizing(P, d))}
    choi_32 = choi_from_kraus(random_channel(32, 4, rng=1))
    return {
        "encode_s": round(encode_s, 6),
        "encode_mb": round(len(text) / 1e6, 3),
        "encode_q_s": round(encode_q_s, 6),
        "choi_from_kraus_s": round(choi_s, 6),
        "validate_cptp_s": round(validate_s, 6),
        "perturb_channel_s": round(perturb_s, 6),
        "verify_pair_s": verify_s,
        "depolarizing": build,
        "kraus_from_choi_r_s": round(kraus_s, 6),
        "validate_cptp_d32_peak_mib": traced_peak_mib(lambda: validate_cptp(choi_32)),
        "partner": {f"d_{d}": partner(d) for d in PARTNER_DIMS},
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
                      f"{N_VERIFY} samples at rng=1, timed per worker count; "
                      f"depolarizing({P}, d) at d = {DEPOLARIZING_DIMS}; kraus_from_choi "
                      "takes J(R); the d = 32 validate_cptp takes the Choi matrix of "
                      "random_channel(32, 4, rng=1); partner: R's extraction from J(R) "
                      f"at d = {PARTNER_DIMS}, kraus_from_choi against the tree's "
                      "perturb_channel route, with the 1e-15 noise move over "
                      f"{NOISE_DRAWS} draws",
            **layer,
        },
    }


if __name__ == "__main__":
    main(__file__, __doc__, {"layers": layers}, measure, ("twin-dense", "job_s"),
                      SEEDS)
