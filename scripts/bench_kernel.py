#!/usr/bin/env python3
"""Time the gate-fidelity evaluation routes against each other, then end to end.

Grid (the rule of uses_symmetric_form): for every d in GRID_DIMS and Kraus
rank in {1, d, d^2/4, d^2}, a random channel is evaluated on one sampling
block of Haar states (4096 rows) by the Kraus loop and by the symmetric
form's GEMM, the latter with its one-off build timed apart.

Structured channels (the pattern route): depolarizing(0.5, d), its twin
partner R from perturb_channel, and a dephasing channel (seeded random
weights on the d powers of the clock matrix Z) at each d of
STRUCTURED_DIMS: the symmetric form's nonzeros and fill, the route
fidelity_kernel picks, and the GEMM and pattern evaluation times of one
block, both on the form the pattern route reads.

Crossover (SYMMETRIC_FORM_MAX_FILL): seeded random Hermitian forms whose
off-diagonal entries are nonzero with probability FILLS, the diagonal
full, at each d of CROSSOVER_DIMS: the pattern route's time over the
GEMM's on one block, and the fill at which that ratio crosses 1,
interpolated linearly between neighbouring fills.

Twin layers, in each tree: fidelity_kernel of Q = depolarizing(0.5, 16)
and of its partner R, one block through each kernel, and verify_pair(Q, R)
over 10000 samples at 1 and 2 workers.

Each time is the median of REPEATS runs after one warm-up, in a probe
interpreter against a tree's src/ with BLAS pinned to one thread, as the
CLI runs. The parent tree has no pattern route, so grid, structured and
crossover run on the change only.

End to end, as scripts/bench_common.py runs it; the claim is job_s on
twin-dense.

    git archive --prefix=parent/ PARENT | tar -x -C /tmp
    PYTHONPATH=src python3 scripts/bench_kernel.py --baseline /tmp/parent
"""

from bench_common import blas_threads, main, median_time, run_fresh

SEEDS = range(501, 511)
REPEATS = 5
ROWS = 4096
GRID_DIMS = (4, 8, 16, 32)
STRUCTURED_DIMS = (8, 16, 24, 32)
CROSSOVER_DIMS = (8, 16, 24, 32)
FILLS = (0.005, 0.01, 0.02, 0.03, 0.04, 0.06, 0.1)
TWIN_D, TWIN_N = 16, 10000


def grid() -> list:
    """Kraus loop against the symmetric form's GEMM on random channels."""
    import numpy as np

    from gatefid.channels import random_channel
    from gatefid.fidelity import FidelityKernel, symmetric_form, uses_symmetric_form
    from gatefid.sampling import haar_states

    rows = []
    for d in GRID_DIMS:
        states = haar_states(d, ROWS, 7)
        for rank in sorted({1, d, d * d // 4, d * d}):
            ch = random_channel(d, rank, rng=[7, d, rank])
            kraus_s, kraus_f = median_time(
                lambda: FidelityKernel(ops=ch.kraus, form=None).values(states), REPEATS
            )
            build_s, form = median_time(lambda: symmetric_form(ch), REPEATS)
            sym_s, sym_f = median_time(
                lambda: FidelityKernel(ops=ch.kraus, form=form).values(states), REPEATS
            )
            rows.append({
                "d": d,
                "rank": rank,
                "kraus_s": round(kraus_s, 6),
                "symmetric_build_s": round(build_s, 6),
                "symmetric_eval_s": round(sym_s, 6),
                "faster": "symmetric" if build_s + sym_s < kraus_s else "kraus",
                "dispatch": "symmetric" if uses_symmetric_form(rank, d) else "kraus",
                "max_abs_diff": float(np.max(np.abs(kraus_f - sym_f))),
            })
            print(rows[-1], flush=True)
    return rows


def _routes(form, d: int, states) -> dict:
    """GEMM and pattern evaluation of one form on states."""
    import numpy as np

    from gatefid.fidelity import FidelityKernel, _form_pattern

    ops = np.empty((1, d, d), dtype=complex)  # read for d alone
    gemm = FidelityKernel(ops=ops, form=form)
    pattern = FidelityKernel(ops=ops, form=form, pattern=_form_pattern(form, d))
    gemm_s, gemm_f = median_time(lambda: gemm.values(states), REPEATS)
    pattern_s, pattern_f = median_time(lambda: pattern.values(states), REPEATS)
    return {
        "nonzeros": int(np.count_nonzero(form)),
        "entries": form.size,
        "fill": round(np.count_nonzero(form) / form.size, 5),
        "stored_off_diagonal": len(pattern.pattern.coef),
        "gemm_s": round(gemm_s, 6),
        "pattern_s": round(pattern_s, 6),
        "pattern_over_gemm": round(pattern_s / gemm_s, 3),
        "max_abs_diff": float(np.max(np.abs(pattern_f - gemm_f))),
    }


def structured() -> dict:
    """Forms of channels that are mostly exact zeros, on both routes."""
    import numpy as np

    from gatefid.channels import channel_from_kraus, choi_from_kraus, depolarizing
    from gatefid.fidelity import _sym_block, fidelity_kernel
    from gatefid.nonuniq import perturb_channel
    from gatefid.sampling import haar_states

    out = {}
    for d in STRUCTURED_DIMS:
        states = haar_states(d, ROWS, 11)
        q = depolarizing(0.5, d)
        z = np.exp(2j * np.pi / d) ** np.arange(d)
        weights = np.random.default_rng(d).dirichlet(np.ones(d))
        chans = {
            "depolarizing": q,
            "twin_r": perturb_channel(q, n_verify=2, rng=1).r,
            "dephasing": channel_from_kraus(
                [np.sqrt(w) * np.diag(z**b) for b, w in enumerate(weights)]
            ),
        }
        for name, ch in chans.items():
            form = _sym_block(choi_from_kraus(ch).matrix.reshape(d, d, d, d))
            kernel = fidelity_kernel(ch)
            route = "kraus" if kernel.form is None else (
                "gemm" if kernel.pattern is None else "pattern")
            row = {"rank": len(ch.kraus), "route": route, **_routes(form, d, states)}
            out[f"{name}_d{d}"] = row
            print(name, d, row, flush=True)
    return out


def crossover() -> dict:
    """Pattern time over GEMM time against fill, on random Hermitian forms."""
    import numpy as np

    from gatefid.fidelity import SYMMETRIC_FORM_MAX_FILL
    from gatefid.sampling import haar_states

    out = {"max_fill": SYMMETRIC_FORM_MAX_FILL}
    g = np.random.default_rng(13)
    for d in CROSSOVER_DIMS:
        n = d * (d + 1) // 2
        states = haar_states(d, ROWS, 12)
        full = g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))
        full += full.conj().T
        points = []
        for fill in FILLS:
            keep = np.triu(g.random((n, n)) < fill, 1)
            keep |= keep.T | np.eye(n, dtype=bool)
            row = _routes(np.where(keep, full, 0.0), d, states)
            points.append({k: row[k] for k in ("fill", "gemm_s", "pattern_s",
                                               "pattern_over_gemm")})
            print(d, points[-1], flush=True)
        cross = None
        for a, b in zip(points, points[1:]):
            ra, rb = a["pattern_over_gemm"], b["pattern_over_gemm"]
            if ra <= 1.0 < rb:
                cross = round(a["fill"] + (1.0 - ra) * (b["fill"] - a["fill"]) / (rb - ra), 4)
                break
        out[f"d{d}"] = {"crossover_fill": cross, "points": points}
    return out


def twin() -> dict:
    """Twin-pair kernel layers of the gatefid found on sys.path."""
    from gatefid.channels import depolarizing
    from gatefid.fidelity import fidelity_kernel
    from gatefid.nonuniq import perturb_channel, verify_pair
    from gatefid.sampling import haar_states

    pair = perturb_channel(depolarizing(0.5, TWIN_D), n_verify=2, rng=1)
    states = haar_states(TWIN_D, ROWS, 14)
    out = {}
    for side, ch in (("q", pair.q), ("r", pair.r)):
        build_s, kernel = median_time(lambda: fidelity_kernel(ch), REPEATS)
        eval_s, _ = median_time(lambda: kernel.values(states), REPEATS)
        out[f"kernel_build_{side}_s"] = round(build_s, 6)
        out[f"block_{side}_s"] = round(eval_s, 6)
    for threads in (1, 2):
        seconds, _ = median_time(
            lambda: verify_pair(pair.q, pair.r, TWIN_N, rng=1, threads=threads), REPEATS
        )
        out[f"verify_pair_threads_{threads}_s"] = round(seconds, 6)
    out["blas_threads"] = blas_threads()
    return out


def measure(trees: dict) -> dict:
    change = trees["change"]
    twin_layers = {side: run_fresh(__file__, tree, "twin") for side, tree in trees.items()}
    for side in trees:
        print(f"{side}: {twin_layers[side]}", flush=True)
    return {
        "twin_layers": {
            "inputs": f"Q = depolarizing(0.5, {TWIN_D}), R from perturb_channel(Q, rng=1); "
                      f"one block is {ROWS} Haar states; verify_pair takes {TWIN_N} "
                      "samples at rng=1",
            **twin_layers,
        },
        "grid": run_fresh(__file__, change, "grid"),
        "structured": run_fresh(__file__, change, "structured"),
        "crossover": run_fresh(__file__, change, "crossover"),
    }


if __name__ == "__main__":
    main(__file__, __doc__,
         {"grid": grid, "structured": structured, "crossover": crossover, "twin": twin},
         measure, ("twin-dense", "job_s"), SEEDS)
