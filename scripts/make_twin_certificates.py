#!/usr/bin/env python3
"""Build twin channel pairs that share a gate fidelity function.

For each requested dimension, perturb a depolarizing base channel by the
fidelity-invisible Choi-space direction at full strength, verify the pair
numerically and write a certificate JSON next to the channel files.
"""

import argparse

import numpy as np

from gatefid.channels import depolarizing
from gatefid.nonuniq import pair_certificate, perturb_channel
from gatefid.serialize import write_json


def certify(d: int, p: float, n: int, seed: int, prefix: str) -> None:
    pair = perturb_channel(depolarizing(p, d), n_verify=n, rng=seed)
    v = pair.verification
    out = f"{prefix}-d{d}.json"
    write_json(out, pair_certificate(pair, p))
    print(f"d={d}: eps={pair.epsilon:.6g}  residual={v.fidelity_residual_max:.2e}  "
          f"choi distance={v.choi_distance:.6g}  dep distance={v.depolarizing_distance_r:.6g}")
    print(f"  expected choi distance eps*sqrt(6) = {pair.epsilon * np.sqrt(6.0):.6g}")
    print(f"  certificate written to {out}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dims", default="4,5", help="comma-separated dimensions >= 4")
    ap.add_argument("--p", type=float, default=0.5, help="depolarizing base parameter")
    ap.add_argument("--n", type=int, default=10_000, help="verification sample count")
    ap.add_argument("--seed", type=int, default=0x5EED)
    ap.add_argument("--prefix", default="twin-cert")
    args = ap.parse_args()
    for d in (int(x) for x in args.dims.split(",")):
        certify(d, args.p, args.n, args.seed, args.prefix)


if __name__ == "__main__":
    main()
