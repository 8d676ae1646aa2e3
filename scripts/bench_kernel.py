#!/usr/bin/env python3
"""Time the two gate-fidelity evaluation paths against each other.

For every d in --dims and Kraus rank in {1, d, d^2/4, d^2}, a random
channel is evaluated on one sampling block of Haar states (4096 rows) by
the Kraus loop and by the symmetric-subspace form, the latter with its
one-off build timed apart. Each time is the median of --repeats runs
after one warm-up run. The grid, the machine fingerprint (core count, BLAS
name and BLAS thread count) and the path uses_symmetric_form picks are
written to BENCH_kernel.json; other top-level keys already in that file
are kept.

    PYTHONPATH=src python3 scripts/bench_kernel.py --dims 4,8,16,32
"""

import argparse
import json
from pathlib import Path

import numpy as np

from bench_common import ROOT, fingerprint, median_time
from gatefid.channels import random_channel
from gatefid.fidelity import FidelityKernel, symmetric_form, uses_symmetric_form
from gatefid.sampling import BLOCK_SIZE, haar_states


def measure(d: int, rank: int, rows: int, repeats: int, seed: int) -> dict:
    ch = random_channel(d, rank, rng=[seed, d, rank])
    states = haar_states(d, rows, seed)
    ops = np.asarray(ch.kraus)  # the array itself; a parent tree's tuple is stacked
    kraus = FidelityKernel(ops=ops, form=None)
    kraus_s, kraus_f = median_time(lambda: kraus.values(states), repeats)
    build_s, form = median_time(lambda: symmetric_form(ch), repeats)
    sym = FidelityKernel(ops=ops, form=form)
    sym_s, sym_f = median_time(lambda: sym.values(states), repeats)
    return {
        "d": d,
        "rank": rank,
        "rows": rows,
        "kraus_s": round(kraus_s, 6),
        "symmetric_build_s": round(build_s, 6),
        "symmetric_eval_s": round(sym_s, 6),
        "symmetric_total_s": round(build_s + sym_s, 6),
        "faster": "symmetric" if build_s + sym_s < kraus_s else "kraus",
        "dispatch": "symmetric" if uses_symmetric_form(rank, d) else "kraus",
        "max_abs_diff": float(np.max(np.abs(kraus_f - sym_f))),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dims", default="4,8,16,32", help="comma-separated dimensions")
    ap.add_argument("--rows", type=int, default=BLOCK_SIZE, help="states per evaluation")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", default=str(ROOT / "BENCH_kernel.json"))
    args = ap.parse_args()

    grid = []
    for d in (int(x) for x in args.dims.split(",")):
        for rank in sorted({1, d, d * d // 4, d * d}):
            row = measure(d, rank, args.rows, args.repeats, args.seed)
            grid.append(row)
            print(
                f"d={d:3d} rank={rank:5d}: kraus {row['kraus_s']:.4f}s  symmetric "
                f"{row['symmetric_build_s']:.4f}+{row['symmetric_eval_s']:.4f}s  "
                f"faster={row['faster']} dispatch={row['dispatch']}"
            )
    out = Path(args.out)
    data = json.loads(out.read_text()) if out.exists() else {}
    data.update(
        topic="kernel",
        harness="PYTHONPATH=src python3 scripts/bench_kernel.py "
        f"--dims {args.dims} --rows {args.rows} --repeats {args.repeats} --seed {args.seed}",
        machine=fingerprint(),
        grid=grid,
    )
    out.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
