"""The benchmark's workloads: input generation, CLI command sequences and
closed-form checks of the artifacts those commands write.

A job is one pass of a workload's command sequence through
``gatefid.cli.main``. Every check here reads the artifact with the standard
library and compares it against a value derived in closed form, never
against another gatefid computation, so a defect in the library cannot
hide itself by also corrupting the reference.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Sizes are fixed by the benchmark definition; changing one is a new baseline.
STATS_D = 256
STATS_RANK = 4
STATS_N = 49152
SWEEP_DIMS = (16, 64, 256)
SWEEP_N = 49152
TWIN_D = 16
TWIN_P = 0.5
TWIN_N = 10000
MIN_NET_D = 3
MIN_NET_EPS = 0.2
MIN_REF_D = 16
MIN_REF_STARTS = 8

# |<phi|U|phi>|^2 for eigenphases spread over [-1, 1] is smallest on the
# equal superposition of the two extreme eigenvectors: cos^2(1).
PHASE_SPREAD_MIN = math.cos(1.0) ** 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (workdir, seed) -> in-memory inputs; writes the input files
    setup: Callable[[Path, int], dict]
    # (workdir, job seed) -> argv lists for gatefid.cli.main, run in order
    commands: Callable[[Path, int], list]
    # artifact file names the commands write, relative to workdir
    artifacts: tuple
    # (inputs) -> closed-form expectations the check compares against
    expect: Callable[[dict], dict]
    # (workdir, expected, exit codes) -> list of problems, empty when correct
    check: Callable[[Path, dict, list], list]


def _load(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _close(value, target, tol) -> bool:
    return isinstance(value, (int, float)) and abs(value - target) <= tol


def average_fidelity(kraus) -> float:
    """Nielsen's closed form (sum_k |tr A_k|^2 + d) / (d^2 + d)."""
    d = kraus[0].shape[0]
    total = sum(abs(np.trace(op)) ** 2 for op in kraus)
    return float((total + d) / (d * d + d))


def variance_bound_exact(d: int) -> float:
    """(8d^3 + 16d^2 + 4d) / ((d + 1)^2 (d^2 + 5d + 1)), for every channel."""
    return (8 * d**3 + 16 * d**2 + 4 * d) / ((d + 1) ** 2 * (d * d + 5 * d + 1))


def phase_spread_average(d: int) -> float:
    """Average fidelity of a unitary with eigenphases linspace(-1, 1, d).

    The eigenbasis drops out: tr U is the sum of the eigenvalues.
    """
    trace = np.sum(np.exp(1j * np.linspace(-1.0, 1.0, d)))
    return float((abs(trace) ** 2 + d) / (d * d + d))


def _exit_problems(codes) -> list:
    return [f"command {i} exited {c}" for i, c in enumerate(codes) if c != 0]


def check_stats(value: dict, avg: float, var_bound: float, n: int) -> list:
    """Monte-Carlo mean within 5 stderr of the exact average, variance bound."""
    problems = []
    if value.get("n") != n:
        problems.append(f"n is {value.get('n')!r}, expected {n}")
    stderr = value.get("stderr")
    if not isinstance(stderr, (int, float)) or not stderr > 0:
        return problems + [f"stderr {stderr!r} is not positive"]
    if not _close(value.get("mean"), avg, 5 * stderr):
        problems.append(
            f"mean {value.get('mean')!r} is more than 5 stderr ({stderr:.3e}) "
            f"from the exact average {avg!r}"
        )
    variance = value.get("variance")
    if not isinstance(variance, (int, float)) or not 0 <= variance <= var_bound:
        problems.append(f"variance {variance!r} outside [0, {var_bound!r}]")
    return problems


# stats-lowrank ---------------------------------------------------------------


def _stats_setup(workdir: Path, seed: int) -> dict:
    import gatefid
    from gatefid import serialize

    ch = gatefid.random_channel(STATS_D, STATS_RANK, seed)
    serialize.write_json(workdir / "channel.json", serialize.channel_to_dict(ch))
    return {"kraus": ch.kraus}


def _stats_commands(workdir: Path, seed: int) -> list:
    return [[
        "fidelity", "stats", "--channel", str(workdir / "channel.json"),
        "--n", str(STATS_N), "--seed", str(seed), "--out", str(workdir / "stats.json"),
    ]]


def _stats_expect(inputs: dict) -> dict:
    return {"avg": average_fidelity(inputs["kraus"]), "var_bound": variance_bound_exact(STATS_D)}


def check_stats_lowrank(workdir: Path, expected: dict, codes: list) -> list:
    problems = _exit_problems(codes)
    data = _load(workdir / "stats.json")
    if data.get("quantity") != "fidelity_stats" or data.get("d") != STATS_D:
        problems.append(f"unexpected record header {data.get('quantity')!r} d={data.get('d')!r}")
    return problems + check_stats(data["value"], expected["avg"], expected["var_bound"], STATS_N)


# sweep-unitary ---------------------------------------------------------------


def _no_setup(workdir: Path, seed: int) -> dict:
    return {}


def _sweep_commands(workdir: Path, seed: int) -> list:
    dims = ",".join(str(d) for d in SWEEP_DIMS)
    return [[
        "report", "convergence", "--d-list", dims, "--n", str(SWEEP_N),
        "--seed", str(seed), "--out", str(workdir / "sweep.csv"),
    ]]


def _sweep_expect(inputs: dict) -> dict:
    return {
        "avg": {d: phase_spread_average(d) for d in SWEEP_DIMS},
        "var_bound": {d: variance_bound_exact(d) for d in SWEEP_DIMS},
    }


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log y against log x."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    return num / sum((a - mx) ** 2 for a in lx)


def check_sweep_rows(rows: list, expected: dict) -> list:
    """Per d the mean check, then the log-log slope of std in [-0.75, -0.25]."""
    problems = []
    first = {}
    for row in rows:
        first.setdefault(int(row["d"]), row)
    if sorted(first) != list(SWEEP_DIMS):
        return [f"report covers d={sorted(first)}, expected {list(SWEEP_DIMS)}"]
    for d, row in first.items():
        n = int(row["n"])
        variance = float(row["variance"])
        value = {
            "n": n,
            "mean": float(row["mean"]),
            "variance": variance,
            "stderr": math.sqrt(max(variance, 0.0) / n),
        }
        problems += [
            f"d={d}: {p}"
            for p in check_stats(value, expected["avg"][d], expected["var_bound"][d], SWEEP_N)
        ]
    stds = [float(first[d]["std"]) for d in SWEEP_DIMS]
    if min(stds) <= 0:
        return problems + [f"non-positive std in {stds}"]
    slope = loglog_slope(SWEEP_DIMS, stds)
    if not -0.75 <= slope <= -0.25:
        problems.append(f"log-log slope of std {slope:.4f} outside [-0.75, -0.25]")
    return problems


def check_sweep_unitary(workdir: Path, expected: dict, codes: list) -> list:
    with open(workdir / "sweep.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return _exit_problems(codes) + check_sweep_rows(rows, expected)


# twin-dense ------------------------------------------------------------------


def _twin_commands(workdir: Path, seed: int) -> list:
    return [[
        "nonuniq", "construct", "--d", str(TWIN_D), "--p", str(TWIN_P),
        "--n", str(TWIN_N), "--seed", str(seed), "--out", str(workdir / "twin.json"),
    ]]


def _twin_expect(inputs: dict) -> dict:
    # lambda_min of J(depolarizing) is (1 - p)/d and ||j_g||_inf = 1, so the
    # largest strength is (1 - p)/d; j_g has Frobenius norm sqrt(6).
    eps = (1.0 - TWIN_P) / TWIN_D
    return {"max_epsilon": eps, "choi_distance": eps * math.sqrt(6.0)}


def check_twin_certificate(cert: dict, expected: dict) -> list:
    problems = []
    for key in ("max_epsilon", "epsilon"):
        if not _close(cert.get(key), expected["max_epsilon"], 1e-12):
            problems.append(f"{key} {cert.get(key)!r} != (1-p)/d = {expected['max_epsilon']!r}")
    if not _close(cert.get("choi_distance"), expected["choi_distance"], 1e-12):
        problems.append(
            f"choi_distance {cert.get('choi_distance')!r} != "
            f"max_epsilon*sqrt(6) = {expected['choi_distance']!r}"
        )
    residual = cert.get("fidelity_residual_max")
    if not isinstance(residual, (int, float)) or not 0 <= residual <= 1e-10:
        problems.append(f"fidelity_residual_max {residual!r} exceeds 1e-10")
    reports = cert.get("cptp_reports", {})
    for side in ("q", "r"):
        rep = reports.get(side, {})
        if rep.get("is_cp") is not True or rep.get("is_tp") is not True:
            problems.append(f"channel {side} is not reported CPTP")
    if cert.get("d") != TWIN_D or cert.get("n_samples") != TWIN_N:
        problems.append(f"certificate header d={cert.get('d')!r} n={cert.get('n_samples')!r}")
    return problems


def check_twin_dense(workdir: Path, expected: dict, codes: list) -> list:
    return _exit_problems(codes) + check_twin_certificate(_load(workdir / "twin.json"), expected)


# min-search ------------------------------------------------------------------


def _min_setup(workdir: Path, seed: int) -> dict:
    import gatefid
    from gatefid import serialize

    for d in (MIN_NET_D, MIN_REF_D):
        ch = gatefid.phase_spread_unitary(d, np.random.default_rng([seed, d]))
        serialize.write_json(workdir / f"unitary{d}.json", serialize.channel_to_dict(ch))
    return {}


def _min_commands(workdir: Path, seed: int) -> list:
    net = str(workdir / "net.json")
    return [
        ["min", "net-build", "--d", str(MIN_NET_D), "--eps", str(MIN_NET_EPS),
         "--seed", str(seed), "--out", net],
        ["min", "net-min", "--channel", str(workdir / f"unitary{MIN_NET_D}.json"),
         "--net", net, "--out", str(workdir / "netmin.json")],
        ["min", "reference", "--channel", str(workdir / f"unitary{MIN_REF_D}.json"),
         "--starts", str(MIN_REF_STARTS), "--seed", str(seed),
         "--out", str(workdir / "reference.json")],
    ]


def _min_expect(inputs: dict) -> dict:
    return {"minimum": PHASE_SPREAD_MIN}


def check_min_records(net: dict, netmin: dict, reference: dict, expected: dict) -> list:
    problems = []
    true_min = expected["minimum"]
    ref = reference.get("value")
    if not _close(ref, true_min, 1e-8):
        problems.append(f"reference minimum {ref!r} != cos^2(1) = {true_min!r}")
    est = netmin.get("value", {})
    if not isinstance(est.get("net_min"), (int, float)) or est["net_min"] < true_min - 1e-12:
        problems.append(f"net_min {est.get('net_min')!r} below the true minimum {true_min!r}")
    bound = est.get("lipschitz_lower_bound")
    if not isinstance(bound, (int, float)) or bound > true_min:
        problems.append(f"lipschitz lower bound {bound!r} above the true minimum {true_min!r}")
    conf = net.get("coverage_confidence")
    if not isinstance(conf, (int, float)) or conf < 0.99:
        problems.append(f"net coverage confidence {conf!r} below 0.99")
    if net.get("d") != MIN_NET_D or not net.get("states"):
        problems.append(f"net header d={net.get('d')!r} with {len(net.get('states') or [])} states")
    return problems


def check_min_search(workdir: Path, expected: dict, codes: list) -> list:
    return _exit_problems(codes) + check_min_records(
        _load(workdir / "net.json"),
        _load(workdir / "netmin.json"),
        _load(workdir / "reference.json"),
        expected,
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="stats-lowrank",
            why="rank-4 channel at d=256 read from a 12 MB file: input parsing and "
            "hashing, Haar draws, the kernel and the 2-worker block schedule all at large d",
            setup=_stats_setup,
            commands=_stats_commands,
            artifacts=("stats.json",),
            expect=_stats_expect,
            check=check_stats_lowrank,
        ),
        Workload(
            name="sweep-unitary",
            why="rank-1 unitaries over d=16,64,256 with no input file: Haar generation "
            "outweighs the kernel and serialization is nearly idle",
            setup=_no_setup,
            commands=_sweep_commands,
            artifacts=("sweep.csv",),
            expect=_sweep_expect,
            check=check_sweep_unitary,
        ),
        Workload(
            name="twin-dense",
            why="full-rank (256 Kraus) twin construction at d=16: Choi round trips, "
            "eigendecompositions and a 2.5 MB JSON write",
            setup=_no_setup,
            commands=_twin_commands,
            artifacts=("twin.json",),
            expect=_twin_expect,
            check=check_twin_dense,
        ),
        Workload(
            name="min-search",
            why="net packing and multi-start descent at d=3 and 16: Python-loop bound, "
            "so kernel FLOPs are negligible",
            setup=_min_setup,
            commands=_min_commands,
            artifacts=("net.json", "netmin.json", "reference.json"),
            expect=_min_expect,
            check=check_min_search,
        ),
    )
}
