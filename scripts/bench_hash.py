#!/usr/bin/env python3
"""Time and size the channel-file read, write and hash before and after a change, then end to end.

Layers, on the inputs of the stats-lowrank workload (its rank-4 random
channel at d = 256, written once by the workload's setup to an 11.9 MB
file that both trees read): canonical_hash of the inputs `fidelity stats`
hashes, load_operator of the file, and write_json of the channel's dict;
and load_operator of a d = 32 Choi file (CHOI_D, a 1024 x 1024 matrix in
48.5 MB of text). Each is the median of REPEATS runs (CHOI_REPEATS for the
Choi read) after one warm-up, in a probe interpreter against each tree's
src/.

Memory: the first load_operator of each file, and the first write_json of
the channel, of a fresh interpreter against each tree's src/,
MEMORY_REPEATS interpreters per tree, operation and measure (CHOI_REPEATS
for the Choi read), the trees alternating which goes first. One kind of
interpreter records its peak RSS (VmHWM) before and after the operation;
the other, run apart because tracemalloc slows the operation and adds to
the RSS, records its tracemalloc peak. Medians go to the record.

Artifacts: in a fresh interpreter against each tree, every CLI command
runs once on fixed small inputs, and every benchmark workload runs
ARTIFACT_JOBS jobs at ARTIFACT_SEED. Each artifact's bytes are compared
between the trees twice: as they are, hash fields included, and with the
value of every inputs_hash and p_or_channel_hash field set aside. The hash
values that move are listed with their old and new digests.

End to end, as scripts/bench_common.py runs it; the claim is peak_rss_mb
on stats-lowrank.

    git archive --prefix=parent/ PARENT | tar -x -C /tmp
    PYTHONPATH=src python3 scripts/bench_hash.py --baseline /tmp/parent
"""

import functools
import hashlib
import os
import re
import statistics
import tempfile
import tracemalloc
from pathlib import Path

from bench_common import SPECS, alternating, blas_threads, main, median_time, run_fresh, run_job
from workloads import STATS_D, STATS_N, STATS_RANK  # bench_common put perfbench/ on sys.path

STATS_SEED = 1
CHOI_D, CHOI_RANK = 32, 4
SEEDS = range(201, 211)
REPEATS = 7
CHOI_REPEATS = 3  # the whole-text Choi read takes seconds and 0.3 GB
MEMORY_REPEATS = 7  # fresh interpreters per tree, operation and measure
ARTIFACT_SEED, ARTIFACT_JOBS = 5, 2
HASH_FIELD = re.compile(rb'"(inputs_hash|p_or_channel_hash)":"([0-9a-f]{64})"')

# Every CLI command once, on inputs the commands before it write.
CLI_COMMANDS = (
    ("channel make-depolarizing", "channel make-depolarizing --p 0.5 --d 2 --out dep2.json"),
    ("channel make-depolarizing d=4",
     "channel make-depolarizing --p 0.5 --d 4 --out dep4.json"),
    ("channel validate", "channel validate --channel dep2.json --out validate.json"),
    ("channel convert", "channel convert --channel dep2.json --to choi --out choi2.json"),
    ("channel validate (choi)", "channel validate --channel choi2.json --out validate-choi.json"),
    ("fidelity point", "fidelity point --channel dep2.json --unitary x.json --out point.json"),
    ("fidelity avg", "fidelity avg --channel dep2.json --out avg.json"),
    ("fidelity avg --p --d", "fidelity avg --p 0.9 --d 2 --out avg-pd.json"),
    ("fidelity stats",
     "fidelity stats --channel dep2.json --n 1000 --seed 1 --threads 1 --out stats.json"),
    ("bounds variance", "bounds variance --d 8 --out variance.json"),
    ("bounds levy", "bounds levy --d 8 --eps 0.1 --out levy.json"),
    ("nonuniq construct", "nonuniq construct --d 4 --p 0.5 --n 100 --seed 1 --out twin.json"),
    ("nonuniq construct --channel",
     "nonuniq construct --channel dep4.json --n 100 --seed 1 --out twin-channel.json"),
    ("nonuniq verify", "nonuniq verify --q q.json --r r.json --n 100 --seed 1 --out verify.json"),
    ("min net-build", "min net-build --d 2 --eps 0.7 --seed 3 --out net.json"),
    ("min net-min", "min net-min --channel dep2.json --net net.json --out netmin.json"),
    ("min effective", "min effective --avg 0.99 --q 0.01 --d 1024 --out effective.json"),
    ("min reference",
     "min reference --channel dep2.json --starts 2 --seed 1 --out reference.json"),
    ("report convergence",
     "report convergence --d-list 2,4 --n 500 --seed 1 --threads 1 --out conv.csv"),
)


def layers(channel_path: str, choi_path: str) -> dict:
    """Hash, read and write times of the gatefid found on sys.path."""
    from gatefid import cli, serialize

    read_s, ch = median_time(lambda: serialize.load_operator(channel_path), REPEATS)
    # the inputs `fidelity stats --channel FILE --n STATS_N` hashes
    inputs = cli._channel_inputs(ch, None, {"n": STATS_N})
    hash_s, digest = median_time(lambda: serialize.canonical_hash(inputs), REPEATS)
    out, obj = _written(channel_path), serialize.channel_to_dict(ch)
    write_s, _ = median_time(lambda: serialize.write_json(out, obj), REPEATS)
    written = hashlib.sha256(out.read_bytes()).hexdigest()
    out.unlink()
    choi_s, _ = median_time(lambda: serialize.load_operator(choi_path), CHOI_REPEATS)
    return {
        "canonical_hash_s": round(hash_s, 6),
        "load_operator_s": round(read_s, 6),
        "write_json_s": round(write_s, 6),
        "load_operator_choi_s": round(choi_s, 6),
        "inputs_hash": digest,
        "written_sha256": written,
        "blas_threads": blas_threads(),
    }


def _written(channel_path: str) -> Path:
    return Path(channel_path).with_name(f"written-{os.getpid()}.json")


def op_memory(path: str, gauge: str, op: str) -> dict:
    """RSS or tracemalloc peak of this interpreter's first load_operator of
    path (op "read"), or first write_json of the stats-lowrank channel (op "write")."""
    import gatefid
    from gatefid import serialize

    if op == "read":
        run = functools.partial(serialize.load_operator, path)
    else:
        ch = gatefid.random_channel(STATS_D, STATS_RANK, STATS_SEED)
        run = functools.partial(serialize.write_json, _written(path), serialize.channel_to_dict(ch))
    try:
        if gauge == "tracemalloc":
            tracemalloc.start()
            run()
            return {"tracemalloc_peak_mib": tracemalloc.get_traced_memory()[1] / 2**20}
        before = _peak_rss_mib()
        run()
        return {"peak_rss_before_mib": before, "peak_rss_after_mib": _peak_rss_mib()}
    finally:
        _written(path).unlink(missing_ok=True)


def _peak_rss_mib() -> float:
    # VmHWM, the peak of this address space. ru_maxrss would not do: Linux
    # carries the spawning process's peak into it across exec, so a child
    # of this harness read its parent's 84 MiB before any read.
    with open("/proc/self/status", encoding="ascii") as fh:
        line = next(line for line in fh if line.startswith("VmHWM:"))
    return int(line.split()[1]) / 1024


def memory_record(trees: dict, path: Path, op: str, repeats: int) -> dict:
    def sample(tree, _):
        rss = run_fresh(__file__, tree, "memory", path, "rss", op)
        return {**rss, **run_fresh(__file__, tree, "memory", path, "tracemalloc", op)}

    samples = alternating(trees, range(repeats), sample)
    return {
        side: {key: round(statistics.median(s[key] for s in runs), 2) for key in runs[0]}
        for side, runs in samples.items()
    }


def _digests(path: Path) -> dict:
    data = path.read_bytes()
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "hashes_aside_sha256": hashlib.sha256(HASH_FIELD.sub(rb'"\1":""', data)).hexdigest(),
        "hash_fields": [m.group(2).decode() for m in HASH_FIELD.finditer(data)],
    }


def artifacts(workdir: str) -> dict:
    """Artifact digests of every CLI command and every workload, of the gatefid on sys.path."""
    import numpy as np

    from gatefid import cli, serialize

    out = {}
    workdir = Path(workdir)
    cli_dir = workdir / "cli"
    cli_dir.mkdir()
    serialize.write_json(cli_dir / "x.json", {"unitary": np.array([[0, 1], [1, 0]], complex)})
    for label, command in CLI_COMMANDS:
        argv = command.split()
        argv = [str(cli_dir / a) if a.endswith((".json", ".csv")) else a for a in argv]
        code = cli.main(argv)
        artifact = Path(argv[-1])
        out[f"cli {label}"] = {"exit": code, **_digests(artifact)}
        if label == "nonuniq construct":
            cert = serialize.read_json(artifact)
            for side in ("q", "r"):
                serialize.write_json(cli_dir / f"{side}.json", cert[side])
    for name, workload in sorted(SPECS.items()):
        job_dir = workdir / name
        job_dir.mkdir()
        workload.setup(job_dir, ARTIFACT_SEED)
        for job in range(ARTIFACT_JOBS):
            codes = run_job(workload, job_dir, ARTIFACT_SEED, job)["codes"]
            for artifact in workload.artifacts:
                out[f"{name} job {job} {artifact}"] = {
                    "exit": codes, **_digests(job_dir / artifact)
                }
    return out


def compare_digests(parent: dict, change: dict) -> dict:
    rows = {}
    for key in parent:
        a, b = parent[key], change[key]
        row = {
            "exit_equal": a["exit"] == b["exit"],
            "bytes_equal": a["sha256"] == b["sha256"],
            "bytes_equal_hashes_aside": a["hashes_aside_sha256"] == b["hashes_aside_sha256"],
        }
        if a["hash_fields"] != b["hash_fields"]:
            row["hash_moves"] = [
                {"parent": old, "change": new} for old, new in zip(a["hash_fields"],
                                                                   b["hash_fields"])
            ]
        rows[key] = row
    return {
        "all_bytes_equal": all(r["exit_equal"] and r["bytes_equal"] for r in rows.values()),
        "all_equal_hashes_aside": all(
            r["exit_equal"] and r["bytes_equal_hashes_aside"] for r in rows.values()
        ),
        "bytes_equal": sorted(k for k, r in rows.items() if r["bytes_equal"]),
        "only_hashes_differ": {k: r.get("hash_moves") for k, r in rows.items()
                               if not r["bytes_equal"] and r["bytes_equal_hashes_aside"]},
        "other_differences": sorted(k for k, r in rows.items()
                                    if not (r["exit_equal"] and r["bytes_equal_hashes_aside"])),
    }


def measure(trees: dict) -> dict:
    from gatefid import serialize
    from gatefid.channels import choi_from_kraus, random_channel

    with tempfile.TemporaryDirectory(prefix="bench-hash-") as tmp:
        SPECS["stats-lowrank"].setup(Path(tmp), STATS_SEED)
        channel_path = Path(tmp) / "channel.json"
        channel_bytes = channel_path.stat().st_size
        choi_path = Path(tmp) / "choi.json"
        choi = choi_from_kraus(random_channel(CHOI_D, CHOI_RANK, STATS_SEED))
        serialize.write_json(choi_path, serialize.choi_to_dict(choi))
        choi_bytes = choi_path.stat().st_size
        layer = {side: run_fresh(__file__, tree, "layers", channel_path, choi_path)
                 for side, tree in trees.items()}
        memory = memory_record(trees, channel_path, "read", MEMORY_REPEATS)
        write_memory = memory_record(trees, channel_path, "write", MEMORY_REPEATS)
        choi_memory = memory_record(trees, choi_path, "read", CHOI_REPEATS)
        produced = {}
        for side, tree in trees.items():
            workdir = Path(tmp) / side
            workdir.mkdir()
            produced[side] = run_fresh(__file__, tree, "artifacts", workdir)
    for side in trees:
        print(f"{side}: {layer[side]} read {memory[side]} write {write_memory[side]} "
              f"choi read {choi_memory[side]}", flush=True)
    compared = compare_digests(produced["parent"], produced["change"])
    print(f"artifacts byte-equal: {compared['all_bytes_equal']}; equal with hashes set aside: "
          f"{compared['all_equal_hashes_aside']}; differing otherwise: "
          f"{compared['other_differences']}", flush=True)
    return {
        "layers": {
            "inputs": f"random_channel({STATS_D}, {STATS_RANK}, {STATS_SEED}) written to a "
                      f"{channel_bytes} byte file; canonical_hash of the inputs of "
                      f"`fidelity stats --n {STATS_N}`; write_json of the channel's dict; "
                      f"choi_from_kraus(random_channel({CHOI_D}, {CHOI_RANK}, {STATS_SEED})) "
                      f"written to a {choi_bytes} byte file",
            **layer,
        },
        "read_memory": {
            "inputs": "the first load_operator of a fresh interpreter on the channel file; "
                      f"medians of {MEMORY_REPEATS} interpreters per tree and measure",
            **memory,
        },
        "write_memory": {
            "inputs": "the first write_json of the channel's dict in a fresh interpreter, "
                      "after random_channel has built it (peak_rss_before_mib includes "
                      f"that build); medians of {MEMORY_REPEATS} interpreters per tree "
                      "and measure",
            **write_memory,
        },
        "choi_read_memory": {
            "inputs": "the first load_operator of a fresh interpreter on the Choi file; "
                      f"medians of {CHOI_REPEATS} interpreters per tree and measure",
            **choi_memory,
        },
        "artifacts": {
            "cli_inputs": "dep2.json = depolarizing(0.5, 2), dep4.json = depolarizing(0.5, 4), "
                          "x.json = Pauli X, net.json = net-build --d 2 --eps 0.7 --seed 3",
            "workload_seed": ARTIFACT_SEED,
            "workload_jobs": ARTIFACT_JOBS,
            **compared,
        },
    }


if __name__ == "__main__":
    main(__file__, __doc__,
                      {"layers": layers, "memory": op_memory, "artifacts": artifacts},
                      measure, ("stats-lowrank", "peak_rss_mb"), SEEDS)
