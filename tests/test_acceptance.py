"""End-to-end acceptance checks for the whole package.

Each test covers one numbered claim about the library and prints a single
PASS/FAIL line; the suite doubles as a quick health report when run with
pytest -raP. Heavy Monte-Carlo inputs are shared through session fixtures
so the statistics criteria reuse one set of runs.
"""

import time

import numpy as np
import pytest

from gatefid.channels import (
    ChoiMatrix,
    adjoint,
    amplitude_damping,
    choi_from_kraus,
    depolarizing,
    phase_spread_unitary,
    random_channel,
    validate_cptp,
)
from gatefid.fidelity import (
    LIPSCHITZ_CONSTANT,
    average_gate_fidelity,
    gate_fidelity_batch,
    overlap_distance,
    variance_bounds,
)
from gatefid.minimum import (
    build_net,
    effective_epsilon,
    net_minimum,
    reference_minimum,
)
from gatefid.nonuniq import (
    build_g_operator,
    depolarizing_distance,
    fidelity_equality_conditions,
    max_epsilon,
    perturb_channel,
)
from gatefid.linalg import schatten_norm
from gatefid.sampling import (
    convergence_report,
    fidelity_samples,
    haar_states,
    levy_bound,
    mc_fidelity_stats,
)


def _report(num, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}")


@pytest.fixture(scope="session")
def channel_panel():
    """20 random channels with n=1e5 fidelity statistics at each d in {2,3,4,8}.

    Shared by the average-formula and variance-bound criteria so the heavy
    sampling happens once.
    """
    panel = {}
    for d in (2, 3, 4, 8):
        entries = []
        for i in range(20):
            rank = (i % 4) + 1
            ch = random_channel(d, rank, rng=1000 * d + i)
            stats = mc_fidelity_stats(ch, None, 100_000, rng=2000 * d + i, threads=4)
            entries.append((ch, average_gate_fidelity(ch), stats))
        panel[d] = entries
    return panel


def test_criterion_1_depolarizing_constancy():
    start = time.perf_counter()
    worst = 0.0
    for p in (0.0, 0.3, 0.9, 1.0):
        for d in (2, 3, 4, 8):
            ch = depolarizing(p, d)
            states = haar_states(d, 1000, rng=10 * d + int(10 * p))
            f = gate_fidelity_batch(ch, None, states)
            worst = max(worst, float(np.max(np.abs(f - (p + (1.0 - p) / d)))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 10.0
    _report(1, ok, f"constancy gap {worst:.2e} over 16 (p,d) grids in {elapsed:.1f}s")
    assert worst <= 1e-12
    assert elapsed < 10.0


def test_criterion_2_twin_pair_certificates():
    start = time.perf_counter()
    details = []
    ok = True
    for d in (4, 5):
        q = depolarizing(0.5, d)
        eps = max_epsilon(choi_from_kraus(q))
        pair = perturb_channel(q, eps, n_verify=10_000, rng=300 + d)
        v = pair.verification
        adj_dist = schatten_norm(
            choi_from_kraus(pair.r).matrix - choi_from_kraus(adjoint(q)).matrix, 2
        )
        dep_dist = depolarizing_distance(pair.r)
        cptp_ok = (
            v.cptp_q.is_cp
            and v.cptp_q.is_tp
            and v.cptp_r.is_cp
            and v.cptp_r.is_tp
            and v.cptp_q.min_eigenvalue >= -1e-9
            and v.cptp_r.min_eigenvalue >= -1e-9
        )
        this_ok = (
            cptp_ok
            and v.choi_distance > 1e-3
            and v.fidelity_residual_max <= 1e-10
            and dep_dist > 1e-6
            and adj_dist > 1e-3
        )
        ok = ok and this_ok
        details.append(
            f"d={d}: residual {v.fidelity_residual_max:.1e}, choi dist "
            f"{v.choi_distance:.3f}, dep dist {dep_dist:.3f}"
        )
        assert cptp_ok
        assert v.choi_distance > 1e-3
        assert v.fidelity_residual_max <= 1e-10
        assert dep_dist > 1e-6
        assert adj_dist > 1e-3
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    _report(2, ok, "; ".join(details) + f"; {elapsed:.1f}s")
    assert elapsed < 30.0


def test_criterion_3_average_formula_vs_monte_carlo(channel_panel):
    counts = {}
    for d, entries in channel_panel.items():
        hits = sum(
            1
            for _, avg, stats in entries
            if abs(stats.mean - avg) <= 3.0 * stats.stderr + 1e-12
        )
        counts[d] = hits
    ok = all(hits >= 18 for hits in counts.values())
    detail = ", ".join(f"d={d}: {hits}/20 within 3 stderr" for d, hits in counts.items())
    _report(3, ok, detail)
    assert ok


def test_criterion_4_variance_bound(channel_panel):
    violations = 0
    for d, entries in channel_panel.items():
        limit = variance_bounds(d).variance_bound_exact
        violations += sum(1 for _, _, stats in entries if stats.variance > limit)
    exact_d4 = variance_bounds(4).variance_bound_exact
    d4_ok = abs(exact_d4 - 784.0 / 925.0) < 1e-15
    conc_50 = variance_bounds(2**50).variance_bound_concentration
    conc_ok = abs(conc_50 - 1.1e-10) <= 0.1 * 1.1e-10
    ok = violations == 0 and d4_ok and conc_ok
    _report(
        4,
        ok,
        f"{violations}/80 bound violations; exact(4) = 784/925; "
        f"concentration(2^50) = {conc_50:.3e}",
    )
    assert violations == 0
    assert d4_ok
    assert conc_ok


@pytest.mark.xfail(
    strict=True,
    reason="documented figure mismatch: the exact variance bound formula gives "
    "7.1e-15 at fifty qubits, 29% below the 1.0e-14 value it is quoted "
    "against; the formula is kept and the quoted figure is treated as "
    "unreachable",
)
def test_criterion_4_printed_exact_figure_at_fifty_qubits():
    exact_50 = variance_bounds(2**50).variance_bound_exact
    assert abs(exact_50 - 1.0e-14) <= 0.1 * 1.0e-14


def test_criterion_5_lipschitz_sweep():
    violations = 0
    pairs = 0
    for d in (2, 4, 8):
        for i in range(5):
            ch = random_channel(d, (i % 3) + 1, rng=400 + 10 * d + i)
            a = haar_states(d, 10_000, rng=500 + 10 * d + i)
            b = haar_states(d, 10_000, rng=600 + 10 * d + i)
            # F at the very states a and b; rank 1 is a unitary, whose
            # fidelity_samples draw spectral weights, not these states
            fa = gate_fidelity_batch(ch, None, a)
            fb = gate_fidelity_batch(ch, None, b)
            gap = np.abs(fa - fb)
            dists = overlap_distance(np.abs(np.sum(a.conj() * b, axis=-1)))
            allowed = LIPSCHITZ_CONSTANT * dists + 1e-12
            violations += int(np.sum(gap > allowed))
            pairs += 10_000
    ok = violations == 0
    _report(5, ok, f"{violations}/{pairs} Lipschitz violations across d in (2,4,8)")
    assert violations == 0


def test_criterion_6_levy_concentration():
    details = []
    ok = True
    for d in (16, 64, 256):
        ch = random_channel(d, 4, rng=700 + d)
        avg = average_gate_fidelity(ch)
        f = fidelity_samples(ch, None, 100_000, rng=800 + d, threads=4)
        for eps in (0.05, 0.1):
            frac = float(np.mean(np.abs(f - avg) >= eps))
            bound = levy_bound(d, eps).two_sided_bound
            slack = 5.0 * np.sqrt(max(frac * (1.0 - frac), 1e-8) / 100_000)
            this_ok = frac <= min(1.0, bound) + slack
            ok = ok and this_ok
            details.append(f"d={d},eps={eps:g}: {frac:.4f} <= {min(1.0, bound):.4f}")
            assert this_ok
    _report(6, ok, "; ".join(details))


def test_criterion_7_minimum_estimation():
    ch = amplitude_damping(0.3)
    net = build_net(2, 0.2, rng=900)
    est = net_minimum(ch, None, net)
    ref = reference_minimum(ch, None, n_starts=8, rng=901)
    sandwich_ok = (
        est.net_min - LIPSCHITZ_CONSTANT * 0.2 <= ref <= est.net_min + 1e-8
    )

    d, q_mass = 64, 0.1
    big = random_channel(d, 4, rng=902)
    avg = average_gate_fidelity(big)
    eps_q = effective_epsilon(q_mass, d)
    f = fidelity_samples(big, None, 20_000, rng=903)
    frac_below = float(np.mean(f < avg - eps_q))
    slack = 5.0 * np.sqrt(max(frac_below * (1.0 - frac_below), 1e-8) / 20_000)
    quantile_ok = frac_below <= q_mass + slack

    ok = sandwich_ok and quantile_ok
    _report(
        7,
        ok,
        f"net_min {est.net_min:.4f} brackets reference {ref:.4f} at eps=0.2; "
        f"quantile fraction {frac_below:.4f} <= {q_mass} (eps_Q={eps_q:.2f})",
    )
    assert sandwich_ok
    assert quantile_ok


def test_criterion_8_equality_conditions():
    g = build_g_operator(4)
    eps = 0.1
    passing = fidelity_equality_conditions(eps * g, 4)
    invisible_ok = (
        passing.antisym_residual <= 1e-12 and passing.marginal_gap <= 1e-12
    )

    j_a = choi_from_kraus(depolarizing(0.9, 4)).matrix
    j_b = choi_from_kraus(depolarizing(0.8, 4)).matrix
    failing = fidelity_equality_conditions(j_a - j_b, 4)
    visible_ok = failing.antisym_residual > 1e-3

    ok = invisible_ok and visible_ok
    _report(
        8,
        ok,
        f"perturbation residual {passing.antisym_residual:.1e} vs depolarizing "
        f"difference residual {failing.antisym_residual:.3f}",
    )
    assert invisible_ok
    assert visible_ok


def test_criterion_9_convergence_scaling():
    dims = [2, 4, 8, 16, 32, 64, 128, 256]
    rows = convergence_report(
        lambda d, gen: phase_spread_unitary(d, gen),
        dims,
        20_000,
        rng=904,
        eps_grid=(0.25,),
        threads=4,
    )
    stds = np.array([row["std"] for row in rows])
    monotone = bool(np.all(np.diff(stds) < 0))
    slope = float(np.polyfit(np.log(dims), np.log(stds), 1)[0])
    slope_ok = -0.7 <= slope <= -0.3
    ok = monotone and slope_ok
    _report(
        9,
        ok,
        f"std falls {stds[0]:.3f} -> {stds[-1]:.4f} over d=2..256, "
        f"log-log slope {slope:.3f}",
    )
    assert monotone
    assert slope_ok


def test_choi_perturbation_stays_cptp_at_limit():
    # companion regression for the certificate: the Choi matrix at the
    # exact epsilon limit has min eigenvalue 0 within tolerance
    q = depolarizing(0.5, 4)
    g = build_g_operator(4)
    j_q = choi_from_kraus(q)
    eps = max_epsilon(j_q)
    report = validate_cptp(ChoiMatrix(4, 4, j_q.matrix + eps * g), tol=1e-9)
    assert report.is_cp and report.is_tp
    assert abs(report.min_eigenvalue) < 1e-9
