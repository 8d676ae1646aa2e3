"""Self-tests of the benchmark: its checks reject corrupted artifacts and its
traces are well nested. Run from the repository root with

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


def _stats_value(avg, stderr=1e-4, n=wl.STATS_N, shift=0.0, variance=None):
    if variance is None:
        variance = stderr**2 * n
    return {"n": n, "mean": avg + shift, "variance": variance, "stderr": stderr}


def test_stats_check_rejects_shifted_mean_and_excess_variance():
    avg, bound = 0.25, wl.variance_bound_exact(wl.STATS_D)
    assert wl.check_stats(_stats_value(avg, shift=4e-4), avg, bound, wl.STATS_N) == []
    assert wl.check_stats(_stats_value(avg, shift=10e-4), avg, bound, wl.STATS_N)
    assert wl.check_stats(_stats_value(avg, variance=1.01 * bound), avg, bound, wl.STATS_N)
    assert wl.check_stats(_stats_value(avg, stderr=0.0), avg, bound, wl.STATS_N)


def _sweep_rows(expected, shift_d=None, flat=False):
    rows = []
    for d in wl.SWEEP_DIMS:
        std = 0.2 if flat else 0.2 / math.sqrt(d)
        stderr = std / math.sqrt(wl.SWEEP_N)
        mean = expected["avg"][d] + (10 * stderr if d == shift_d else 0.0)
        for eps in (0.25, 0.1):
            rows.append({"d": str(d), "n": str(wl.SWEEP_N), "mean": repr(mean),
                         "variance": repr(std * std), "std": repr(std), "eps": repr(eps)})
    return rows


def test_sweep_check_rejects_shifted_mean_and_flat_spread():
    expected = wl._sweep_expect({})
    assert wl.check_sweep_rows(_sweep_rows(expected), expected) == []
    assert wl.check_sweep_rows(_sweep_rows(expected, shift_d=64), expected)
    assert wl.check_sweep_rows(_sweep_rows(expected, flat=True), expected)
    assert wl.check_sweep_rows(_sweep_rows(expected)[2:], expected)


def _certificate(expected, **changes):
    report = {"is_cp": True, "is_tp": True}
    cert = {
        "d": wl.TWIN_D, "epsilon": expected["max_epsilon"],
        "max_epsilon": expected["max_epsilon"], "fidelity_residual_max": 3e-15,
        "choi_distance": expected["choi_distance"],
        "cptp_reports": {"q": dict(report), "r": dict(report)}, "n_samples": wl.TWIN_N,
    }
    cert.update(changes)
    return cert


def test_twin_check_rejects_residual_and_wrong_distances():
    expected = wl._twin_expect({})
    assert wl.check_twin_certificate(_certificate(expected), expected) == []
    for bad in (
        {"fidelity_residual_max": 1e-3},
        {"max_epsilon": expected["max_epsilon"] + 1e-9},
        {"choi_distance": expected["choi_distance"] * (1 + 1e-9)},
        {"cptp_reports": {"q": {"is_cp": True, "is_tp": True}, "r": {"is_cp": False}}},
    ):
        assert wl.check_twin_certificate(_certificate(expected, **bad), expected), bad


def test_min_check_rejects_each_wrong_value():
    expected = wl._min_expect({})
    true_min = expected["minimum"]
    net = {"d": wl.MIN_NET_D, "states": [[[1.0, 0.0]] * 3], "coverage_confidence": 0.9903}
    netmin = {"value": {"net_min": true_min + 0.005, "lipschitz_lower_bound": true_min - 0.8}}
    ref = {"value": true_min + 1e-10}
    assert wl.check_min_records(net, netmin, ref, expected) == []
    assert wl.check_min_records(net, netmin, {"value": true_min + 1e-6}, expected)
    low = {"value": {"net_min": true_min - 1e-9, "lipschitz_lower_bound": true_min - 0.8}}
    assert wl.check_min_records(net, low, ref, expected)
    loose = {"value": {"net_min": true_min + 0.005, "lipschitz_lower_bound": true_min + 1e-3}}
    assert wl.check_min_records(net, loose, ref, expected)
    assert wl.check_min_records({**net, "coverage_confidence": 0.98}, netmin, ref, expected)


def test_real_twin_job_passes_and_its_corrupted_artifact_fails(tmp_path):
    workload = wl.WORKLOADS["twin-dense"]
    expected = workload.expect(workload.setup(tmp_path, 7))
    result = child.run_job(workload, tmp_path, 7)
    verdict = child.judge(workload, tmp_path, expected, result)
    assert verdict["ok"], verdict["problems"]
    path = tmp_path / "twin.json"
    cert = json.loads(path.read_text())
    cert["fidelity_residual_max"] = 1e-3
    path.write_text(json.dumps(cert))
    assert not child.judge(workload, tmp_path, expected, result)["ok"]
    path.unlink()
    assert not child.judge(workload, tmp_path, expected, result)["ok"]
    assert not child.judge(workload, tmp_path, expected, {**result, "codes": [2]})["ok"]


def _span(sid, parent, start, end, name="fidelity.f", thread=1):
    return {"id": sid, "name": name, "start": start, "end": end, "parent": parent,
            "job": 0, "thread": thread}


def test_span_checks_flag_children_outlasting_their_parent():
    good = [_span(1, 0, 0, 100), _span(2, 1, 10, 60, thread=2), _span(3, 1, 20, 90, thread=3)]
    assert spans.check_spans(good) == []
    tree = spans.SpanTree(good)
    assert tree.self_ns(good[0]) == 100 - 80  # union of overlapping children
    late = good[:2] + [_span(3, 1, 20, 101, thread=3)]
    assert spans.check_spans(late)
    early = good[:2] + [_span(3, 1, -1, 50, thread=3)]
    assert spans.check_spans(early)
    assert spans.check_spans(good + [_span(4, 99, 30, 40)])


def test_traced_cli_run_nests_worker_spans_and_restores_the_library(tmp_path):
    import gatefid.cli
    import gatefid.sampling

    original_main = gatefid.cli.main
    original_kernel = gatefid.sampling.gate_fidelity_batch
    tracer = spans.Tracer()
    argv = ["fidelity", "stats", "--p", "0.5", "--d", "4", "--n", "12288", "--threads", "2",
            "--out", str(tmp_path / "stats.json")]
    assert tracer.run_job(0, lambda: gatefid.cli.main(argv)) == 0
    assert gatefid.cli.main is original_main
    assert gatefid.sampling.gate_fidelity_batch is original_kernel

    recorded = tracer.spans
    assert spans.check_spans(recorded) == []
    tree = spans.SpanTree(recorded)
    assert all(tree.self_ns(s) >= 0 for s in recorded)
    by_id = {s["id"]: s for s in recorded}
    kernels = [s for s in recorded if s["name"] == "fidelity.gate_fidelity_batch"]
    assert len(kernels) == 3
    assert {by_id[k["parent"]]["name"] for k in kernels} == {"sampling.fidelity_samples"}
    metrics = spans.job_metrics(recorded)
    assert metrics["sampling.blocks"] == 3
    assert metrics["fidelity.kernel_rows"] == 12288
    assert metrics["sampling.parallelism"] > 0
    assert 0 <= metrics["cli.self_s"] < metrics["cli.cmd_s"]
    for layer in spans.LAYERS[1:]:
        assert metrics[f"{layer}.self_s"] <= metrics[f"{layer}.busy_s"] + 1e-9, layer
    assert set(metrics) | {"trace.job_s", "trace.overhead_s"} == set(spans.PER_LAYER_UNITS)


def test_benchmark_json_matches_the_code():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.PER_LAYER_UNITS


@pytest.mark.parametrize("seed", [0, 5])
def test_closed_form_phase_spread_values(seed):
    import numpy as np
    from gatefid import average_gate_fidelity, phase_spread_unitary

    ch = phase_spread_unitary(16, np.random.default_rng([seed, 16]))
    assert abs(average_gate_fidelity(ch) - wl.phase_spread_average(16)) < 1e-12
    assert abs(wl.average_fidelity(ch.kraus) - wl.phase_spread_average(16)) < 1e-12
