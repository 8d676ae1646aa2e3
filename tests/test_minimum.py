import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gatefid import minimum
from gatefid.channels import (
    amplitude_damping,
    depolarizing,
    identity_channel,
    phase_spread_unitary,
    random_channel,
    unitary_channel,
)
from gatefid.fidelity import (
    LIPSCHITZ_CONSTANT,
    _kraus_gradient,
    _kraus_products,
    average_gate_fidelity,
    fidelity_kernel,
    gate_fidelity_batch,
    overlap_distance,
)
from gatefid.minimum import (
    _DISTANCE_CHUNK,
    _SCAN_BLOCK,
    LIFT_MAX_DIM,
    NetCoverageError,
    _circle_coefficients,
    _descend,
    _far,
    _lift,
    _line_minimum,
    _min_distances,
    build_net,
    effective_epsilon,
    effective_minimum,
    net_minimum,
    reference_minimum,
)
from gatefid.sampling import (
    BLOCK_SIZE,
    TAG_NET,
    TAG_OPTIMIZER,
    TAG_VALIDATE,
    _haar_block,
    as_rng_spec,
    generator,
    haar_states,
)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _block(d, spec, tag, block):
    """One whole Haar block of the (spec, tag) stream."""
    return _haar_block(generator(spec, tag, block), np.empty((BLOCK_SIZE, d), dtype=complex))


def _distances(a, b):
    """Phase-minimized distances between broadcast batches of states."""
    return overlap_distance(np.abs(np.sum(a.conj() * b, axis=-1)))


def _reference_build_net(d, epsilon, rng, max_states=2000, confidence=0.99, stop_rejections=200):
    """The per-sample packing and validation loop build_net replaced.

    Both halves measure each sample against the net as it stands at that
    sample and add it when it lies epsilon or more away.

    Returns the states, the coverage confidence and the number of states
    coverage repair added; raises NetCoverageError("packing") or
    NetCoverageError("coverage repair") where build_net must raise.
    """

    def nearest(points, net):
        overlap = np.abs(points.conj() @ net.T)
        return np.sqrt(np.clip(2.0 - 2.0 * overlap.max(axis=1), 0.0, None))

    miss = 1.0 - confidence
    spec = as_rng_spec(rng)
    kept = []
    matrix = np.zeros((0, d), dtype=complex)
    rejections = 0
    block = 0
    while rejections < stop_rejections:
        candidates = _block(d, spec, TAG_NET, block)
        block += 1
        for row in candidates:
            if len(kept) == 0 or float(nearest(row[None, :], matrix)[0]) >= epsilon:
                kept.append(row)
                matrix = np.asarray(kept)
                rejections = 0
                if len(kept) > max_states:
                    raise NetCoverageError("packing")
            else:
                rejections += 1
                if rejections >= stop_rejections:
                    break
    packed = len(kept)
    needed = math.ceil(math.log(1.0 / (1.0 - confidence)) / miss)
    streak = 0
    vblock = 0
    while streak < needed:
        samples = _block(d, spec, TAG_VALIDATE, vblock)
        vblock += 1
        for row in samples:
            if float(nearest(row[None, :], matrix)[0]) < epsilon:
                streak += 1
                if streak >= needed:
                    break
            else:
                kept.append(row)
                matrix = np.asarray(kept)
                streak = 0
                if len(kept) > max_states:
                    raise NetCoverageError("coverage repair")
    achieved = 1.0 - (1.0 - miss) ** needed
    return matrix, achieved, len(kept) - packed


def _assert_matches_reference(d, eps, seed, **kwargs):
    states, confidence, repaired = _reference_build_net(d, eps, seed, **kwargs)
    net = build_net(d, eps, rng=seed, **kwargs)
    assert net.states.tobytes() == states.tobytes()
    assert net.coverage_confidence == confidence
    return repaired


class TestBuildNet:
    def test_dimension_above_budget_refused_before_allocation(self, monkeypatch):
        # one 4096-state complex Haar block fills the 2 GiB budget at d = 32768
        class Admitted(Exception):
            pass

        def admitted(*args, **kwargs):
            raise Admitted

        monkeypatch.setattr(np, "empty", admitted)
        with pytest.raises(Admitted):
            build_net(32768, 0.5)
        for d in (32769, 10**8):
            with pytest.raises(ValueError, match=rf"4096-state Haar block at d={d} needs"):
                build_net(d, 0.5)

    def test_small_qubit_net(self):
        net = build_net(2, 0.9, rng=5)
        assert 1 < len(net.states) < 50
        assert net.coverage_confidence >= 0.99
        assert net.metric_id == "euclidean"
        assert net.seed == 5
        assert np.max(np.abs(np.linalg.norm(net.states, axis=1) - 1.0)) < 1e-12

    def test_packing_separation(self):
        # kept states honor the epsilon separation pairwise
        net = build_net(2, 0.7, rng=6)
        gram = _distances(net.states[:, None, :], net.states[None, :, :])
        off = gram[~np.eye(len(net.states), dtype=bool)]
        assert np.min(off) >= net.epsilon - 1e-9

    def test_coarse_epsilon_gives_single_state(self):
        # any two pure states are within sqrt(2), so one state covers all
        net = build_net(3, 2.0, rng=7)
        assert len(net.states) == 1

    def test_size_within_packing_ceiling(self):
        # standard volume bound for an epsilon-separated packing
        net = build_net(2, 0.5, rng=8)
        assert len(net.states) <= (5.0 / 0.5) ** 4

    def test_determinism(self):
        a = build_net(2, 0.8, rng=9)
        b = build_net(2, 0.8, rng=9)
        assert np.array_equal(a.states, b.states)
        assert a.coverage_confidence == b.coverage_confidence

    def test_budget_exhaustion_raises(self):
        with pytest.raises(NetCoverageError):
            build_net(3, 0.05, rng=10, max_states=50)

    def test_coverage_on_fresh_samples(self):
        # the certificate bounds miss mass, so covered fraction on a large
        # fresh batch must be near 1
        net = build_net(2, 0.6, rng=11)
        fresh = haar_states(2, 2000, rng=12)
        dists = _distances(fresh[:, None, :], net.states[None, :, :]).min(axis=1)
        assert np.mean(dists < net.epsilon) >= 0.95

    def test_validation(self):
        with pytest.raises(ValueError):
            build_net(0, 0.5)
        with pytest.raises(ValueError):
            build_net(2, 0.0)
        with pytest.raises(ValueError):
            build_net(2, 0.5, confidence=1.0)
        for eps in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                build_net(2, eps)

    def test_repair_covers_later_samples_of_its_block(self):
        # one packing rejection stops at 2 states; repair adds the third,
        # which covers every later validation sample
        net = build_net(2, 0.9, rng=8, stop_rejections=1)
        assert len(net.states) == 3

    def test_repair_after_early_stop_fits_the_budget(self):
        net = build_net(2, 0.5, rng=8, stop_rejections=1)
        assert net.coverage_confidence >= 0.99

    def test_tighter_miss_tolerance_grows_confidence(self):
        loose = build_net(2, 0.9, rng=13, confidence=0.9)
        tight = build_net(2, 0.9, rng=13, confidence=0.99)
        assert tight.coverage_confidence > loose.coverage_confidence


class TestBuildNetOracle:
    """build_net keeps the states of the per-candidate loop, byte for byte."""

    @pytest.mark.parametrize(
        "d,eps,seed",
        [(d, eps, seed) for d in (2, 3, 4) for eps in (0.5, 0.9) for seed in (1, 2)]
        + [(2, 0.3, 3), (3, 0.35, 4), (4, 0.6, 5)],
    )
    def test_matches_per_candidate_loop(self, d, eps, seed):
        _assert_matches_reference(d, eps, seed)

    @pytest.mark.parametrize("eps,seed,stop", [(0.3, 5, 5000), (0.2, 6, 9000)])
    def test_rejection_streak_crosses_blocks(self, eps, seed, stop):
        # more consecutive rejections than one block holds
        assert stop > BLOCK_SIZE
        _assert_matches_reference(2, eps, seed, stop_rejections=stop)

    @pytest.mark.parametrize("eps,seed,stop", [(0.8, 6, 20), (0.6, 9, 50)])
    def test_coverage_repair(self, eps, seed, stop):
        # an early stop leaves holes that validation must fill
        assert _assert_matches_reference(3, eps, seed, stop_rejections=stop) > 0

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_short_validation_streak(self, seed):
        # six covered samples certify here, so misses often land right
        # where a streak would complete
        repaired = _assert_matches_reference(
            3, 0.6, seed, confidence=0.75, stop_rejections=3
        )
        assert repaired > 0

    @pytest.mark.parametrize(
        "kwargs,phase",
        [
            (dict(d=3, eps=0.05, seed=10, max_states=50), "packing"),
            (dict(d=2, eps=0.1, seed=7, max_states=60, stop_rejections=30), "packing"),
            (dict(d=3, eps=0.6, seed=9, max_states=19, stop_rejections=50), "coverage repair"),
        ],
    )
    def test_budget_errors(self, kwargs, phase):
        with pytest.raises(NetCoverageError, match=phase):
            _assert_matches_reference(**kwargs)
        budget = {k: v for k, v in kwargs.items() if k not in ("d", "eps", "seed")}
        with pytest.raises(NetCoverageError, match=f"^{phase} exceeded"):
            build_net(kwargs["d"], kwargs["eps"], rng=kwargs["seed"], **budget)

    def test_generous_budget_reserves_nothing(self):
        # the buffers grow with the net, the lifted one too, so a budget far
        # beyond memory is only a bound; 313 states also take the buffers
        # through two doublings
        _assert_matches_reference(3, 0.3, 0, max_states=10**12)

    @pytest.mark.parametrize(
        "d,eps,seed",
        [(1, 0.5, 1), (LIFT_MAX_DIM, 0.9, 1), (LIFT_MAX_DIM + 1, 1.2, 3), (2, 1.5, 4),
         (3, 1.5, 5), (3, math.sqrt(2.0), 6)],
        ids=["d1", "last-lifted-d", "first-unlifted-d", "eps1.5-d2", "eps1.5-d3", "eps-sqrt2"],
    )
    def test_dimension_and_epsilon_edges(self, d, eps, seed, monkeypatch):
        # d = 1 has one state up to phase; at epsilon >= sqrt(2) no two
        # states lie epsilon apart, so every net holds one state
        lifted = []
        monkeypatch.setattr(minimum, "_lift", lambda states: lifted.append(1) or _lift(states))
        _assert_matches_reference(d, eps, seed)
        assert bool(lifted) == (d <= LIFT_MAX_DIM)
        if d == 1 or eps >= math.sqrt(2.0):
            assert len(build_net(d, eps, rng=seed).states) == 1

    def test_lifted_buffers_double(self):
        # 758 states take the net buffer 256 -> 512 -> 1024 rows and the
        # lifted one after it; a 600-state budget caps the second doubling
        # at 601 rows
        _assert_matches_reference(2, 0.05, 7)
        assert len(build_net(2, 0.05, rng=7).states) == 758
        with pytest.raises(NetCoverageError, match="^packing exceeded the 600-state"):
            build_net(2, 0.05, rng=7, max_states=600)

    @pytest.mark.parametrize("d,eps,seed,states", [(3, 0.25, 8, 662), (4, 0.4, 8, 790)])
    def test_net_spans_three_scan_blocks(self, d, eps, seed, states):
        # the last chunk scans hold three and four blocks of _SCAN_BLOCK states
        _assert_matches_reference(d, eps, seed)
        assert len(build_net(d, eps, rng=seed).states) == states > 2 * _SCAN_BLOCK

    def test_rejects_empty_budget_and_stop(self):
        with pytest.raises(ValueError):
            build_net(2, 0.5, max_states=-1)
        with pytest.raises(ValueError):
            build_net(2, 0.5, stop_rejections=0)


class TestLiftedScan:
    """_far through the real lift decides as _min_distances(...) >= epsilon."""

    @pytest.mark.parametrize("d", range(1, LIFT_MAX_DIM + 1))
    def test_lift_gram_is_squared_overlap(self, d):
        phi = haar_states(d, 300, rng=5000 + d)
        psi = haar_states(d, 200, rng=5100 + d)
        lifted = _lift(phi) @ _lift(psi).T
        assert lifted.shape == (300, 200) and _lift(phi).shape == (300, d * d)
        assert np.max(np.abs(lifted - np.abs(phi.conj() @ psi.T) ** 2)) < 1e-15

    @pytest.mark.parametrize("d", [2, 3, LIFT_MAX_DIM])
    def test_decisions_on_random_pairs(self, d):
        # 1000 samples x 100 one-state nets = 10^5 pairs per epsilon; the
        # grid adds epsilons equal to computed pair distances, which put
        # pairs on the edge itself
        points = haar_states(d, 1000, rng=5200 + d)
        net = haar_states(d, 100, rng=5300 + d)
        lifted_net = _lift(net)
        ties = _min_distances(points[:5], net[:1])
        for eps in [0.05, 0.3, 0.7, 1.0, 1.3, math.sqrt(2.0), 1.5, *ties]:
            for k in range(len(net)):
                one = slice(k, k + 1)
                got = _far(points, net[one], lifted_net[one], eps)
                assert np.array_equal(got, _min_distances(points, net[one]) >= eps)

    @pytest.mark.parametrize("d", [2, 3, LIFT_MAX_DIM])
    def test_edge_is_decided_exactly(self, d, monkeypatch):
        # points at |<phi|psi>| = 1 - eps^2/2 sit on the lifted edge, so the
        # exact check decides them; points off the edge never call it
        eps = 0.6
        t = 1.0 - eps * eps / 2.0
        phi = haar_states(d, 1, rng=5500 + d)
        others = haar_states(d, 64, rng=5600 + d)
        perp = others - (others @ phi[0].conj())[:, None] * phi
        perp /= np.linalg.norm(perp, axis=1, keepdims=True)
        phase = np.exp(2j * np.pi * np.random.default_rng(d).uniform(size=(64, 1)))
        points = phase * (t * phi + math.sqrt(1.0 - t * t) * perp)
        want = _min_distances(points, phi) >= eps
        calls = []

        def counted(p, n):
            calls.append(len(p))
            return _min_distances(p, n)

        monkeypatch.setattr(minimum, "_min_distances", counted)
        got = _far(points, phi, _lift(phi), eps)
        assert np.array_equal(got, want)
        assert calls == [64]  # once, on all the points
        calls.clear()
        _far(points, phi, _lift(phi), 0.5)
        _far(others, phi, _lift(phi), eps)
        assert calls == []


class TestBlockScan:
    """_far scans the net _SCAN_BLOCK states at a time and decides as _min_distances."""

    @pytest.mark.parametrize("d", [2, 3, LIFT_MAX_DIM])
    def test_matches_min_distances_across_block_edges(self, d):
        # nets of one state, one block give or take one, and about three
        # blocks; the last 8 points lie next to the net's last state, so their
        # maxima sit in the last block, and epsilons equal to computed
        # distances put maxima on the edge itself
        for size in (1, _SCAN_BLOCK - 1, _SCAN_BLOCK, _SCAN_BLOCK + 1, 700):
            net = haar_states(d, size, rng=5800 + size)
            close = net[-1] + 0.02 * haar_states(d, 8, rng=5900 + size)
            close /= np.linalg.norm(close, axis=1, keepdims=True)
            points = np.concatenate((haar_states(d, _DISTANCE_CHUNK - 8, rng=5700 + d), close))
            lifted_net = _lift(net)
            ties = _min_distances(points[[0, 1, -2, -1]], net)
            for eps in [0.05, 0.2, 0.9, math.sqrt(2.0), 1.5, *ties]:
                got = _far(points, net, lifted_net, eps)
                assert np.array_equal(got, _min_distances(points, net) >= eps)

    @pytest.mark.parametrize("nudge", [False, True])
    def test_survivor_on_the_edge_is_decided_exactly(self, nudge, monkeypatch):
        # an empty net keeps its first sample, and the second is then checked
        # against it alone: at epsilon equal to that distance their overlap
        # sits on the edge, so _min_distances decides, keeping the sample at
        # the tie and dropping it one ulp of epsilon above
        first = _block(2, as_rng_spec(1), TAG_NET, 0)[:2]
        eps = float(_min_distances(first[1:2], first[:1])[0])
        if nudge:
            eps = float(np.nextafter(eps, np.inf))
        calls = []

        def counted(p, n):
            calls.append((p.tobytes(), n.tobytes()))
            return _min_distances(p, n)

        monkeypatch.setattr(minimum, "_min_distances", counted)
        net = build_net(2, eps, rng=1)
        assert (first[1:2].tobytes(), first[:1].tobytes()) in calls
        assert (net.states[1].tobytes() == first[1].tobytes()) == (not nudge)

    def test_build_takes_few_exact_checks(self, monkeypatch):
        # only overlaps within _LIFT_MARGIN of the edge are checked exactly
        calls = []
        monkeypatch.setattr(
            minimum, "_min_distances", lambda p, n: calls.append(len(n)) or _min_distances(p, n)
        )
        assert len(build_net(3, 0.2, rng=1).states) == 1581
        assert len(calls) < 20


class TestScanScratch:
    """What the net scan allocates: its peak and the lift's index pairs."""

    def test_build_peak(self):
        # one 4096-state block reused for every block, the net and its lift,
        # and Gram matrices of at most 256 x 256: 1.71 MiB (1,797,425 bytes)
        # under numpy 2.4.6
        build_net(3, 0.9, rng=1)
        tracemalloc.start()
        try:
            build_net(3, 0.2, rng=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.0 * 2**20

    @pytest.mark.parametrize("d", [2, 3, LIFT_MAX_DIM])
    def test_lift_indices_are_built_once_per_dimension(self, d):
        i, j, _ = pairs = minimum._upper_pairs(d, 1)
        assert minimum._upper_pairs(d, 1) is pairs
        assert np.array_equal((i, j), np.triu_indices(d, 1))
        assert not any(index.flags.writeable for index in pairs)


class TestDistanceRows:
    """A point's distance to the net does not depend on the other points of the call."""

    @pytest.mark.parametrize("d", [2, 3, 16])
    def test_one_and_two_row_calls_match_the_batch(self, d):
        points = haar_states(d, 1000, rng=5900 + d)
        net = haar_states(d, 777, rng=6000 + d)
        whole = _min_distances(points, net)
        one = np.concatenate([_min_distances(points[i : i + 1], net) for i in range(1000)])
        pairs = np.concatenate([_min_distances(points[i : i + 2], net) for i in range(0, 1000, 2)])
        assert one.tobytes() == whole.tobytes()
        assert pairs.tobytes() == whole.tobytes()
        # a one-row remainder of the 256-row chunks joins the chunk before it
        assert _min_distances(points[:257], net).tobytes() == whole[:257].tobytes()


def _old_descend(e, u, x, kernel):
    """The one-start descent that _descend replaced, for comparison."""
    val = float(gate_fidelity_batch(e, u, x, kernel=kernel))
    step = 0.25
    for _ in range(400):
        grad = _kraus_gradient(x[None], *_kraus_products(kernel.ops, x[None]))[1][0]
        grad -= np.real(np.vdot(x, grad)) * x
        gnorm = float(np.linalg.norm(grad))
        if gnorm < 1e-12:
            break
        moved = False
        while step > 1e-14:
            cand = x - step * grad
            cand /= np.linalg.norm(cand)
            cval = float(gate_fidelity_batch(e, u, cand, kernel=kernel))
            if cval < val - 1e-15:
                x, val = cand, cval
                step *= 1.3
                moved = True
                break
            step *= 0.5
        if not moved or step * gnorm < 1e-10:
            break
    return val


def _starts(d, n_starts, seed):
    """The unit starts reference_minimum draws, in its order: a block's layout."""
    g = generator(as_rng_spec(seed), TAG_OPTIMIZER)
    z = g.standard_normal((n_starts, 2 * d)).view(complex)
    return z / np.linalg.norm(z, axis=1, keepdims=True)


_DESCENT_PANEL = {
    "phase-spread-d3": lambda: (phase_spread_unitary(3, np.random.default_rng([3, 3])), None),
    "phase-spread-d16": lambda: (phase_spread_unitary(16, np.random.default_rng([3, 16])), None),
    "rank4-d8": lambda: (random_channel(8, 4, rng=31), None),
    "amplitude-damping": lambda: (amplitude_damping(0.3), None),
    "rank30-d6": lambda: (random_channel(6, 30, rng=32), None),
    "target-u": lambda: (random_channel(4, 2, rng=33),
                         phase_spread_unitary(4, np.random.default_rng(34)).kraus[0]),
}


class TestBatchedDescent:
    @pytest.mark.parametrize("case", list(_DESCENT_PANEL))
    def test_matches_one_start_descent(self, case):
        e, u = _DESCENT_PANEL[case]()
        kernel = fidelity_kernel(e, u)
        if case == "rank30-d6":
            assert kernel.form is not None
        old = min(_old_descend(e, u, x, kernel) for x in _starts(e.dim_in, 8, 35))
        assert abs(reference_minimum(e, u, n_starts=8, rng=35) - old) < 1e-12

    @pytest.mark.parametrize("case", ["phase-spread-d16", "rank4-d8", "rank30-d6", "target-u"])
    @pytest.mark.parametrize("n_starts", [1, 2, 3, 8])
    def test_start_value_is_independent_of_the_other_starts(self, case, n_starts):
        e, u = _DESCENT_PANEL[case]()
        kernel = fidelity_kernel(e, u)
        starts = _starts(e.dim_in, n_starts, 36)
        together = _descend(e, u, kernel, starts)[0]
        assert together.shape == (n_starts,)
        for k in range(n_starts):
            alone = _descend(e, u, kernel, starts[k : k + 1])[0]
            assert alone.tobytes() == together[k : k + 1].tobytes()
        # nor on how many starts are drawn after it
        more = _descend(e, u, kernel, _starts(e.dim_in, n_starts + 1, 36))[0]
        assert more[:n_starts].tobytes() == together.tobytes()
        assert reference_minimum(e, u, n_starts=n_starts, rng=36) == together.min()


def _great_circles(case, n, seed):
    """n random great circles cos t phi + sin t v of a panel case, with their lines."""
    e, u = _DESCENT_PANEL[case]()
    kernel = fidelity_kernel(e, u)
    d = e.dim_in
    phi = haar_states(d, n, rng=seed)
    v = np.random.default_rng(seed).standard_normal((n, 2 * d)).view(complex)
    v -= np.sum(phi.conj() * v, axis=1, keepdims=True) * phi
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    b_phi, bh_phi = _kraus_products(kernel.ops, phi)
    c = _kraus_gradient(phi, b_phi, bh_phi)[0]
    line = _circle_coefficients(phi, v, c, b_phi, _kraus_products(kernel.ops, v)[0])
    return e, u, kernel, phi, v, line


def _on_circle(phi, v, s):
    """The states at angles s = 2t of the great circle cos t phi + sin t v."""
    return np.cos(s / 2)[:, None] * phi + np.sin(s / 2)[:, None] * v


_CIRCLE_CASES = ["phase-spread-d16", "rank4-d8", "rank30-d6", "target-u"]


class TestConjugateGradient:
    @pytest.mark.parametrize("case", _CIRCLE_CASES)
    def test_five_coefficients_reproduce_f_on_the_circle(self, case):
        e, u, kernel, phi, v, line = _great_circles(case, 4, 40)
        if case == "rank30-d6":
            assert kernel.form is not None  # F on the circle comes from the form route
        a0, a1, b1 = line[:, 0].real, line[:, 1].real, -line[:, 1].imag
        a2, b2 = line[:, 2].real, -line[:, 2].imag
        assert np.all(line[:, 0].imag == 0.0)
        s = 2.0 * np.pi * np.arange(16) / 16
        for k in range(len(phi)):
            series = a0[k] + a1[k] * np.cos(s) + b1[k] * np.sin(s) + a2[k] * np.cos(2 * s)
            series += b2[k] * np.sin(2 * s)
            direct = gate_fidelity_batch(e, u, _on_circle(phi[k], v[k], s), kernel=kernel)
            assert np.max(np.abs(series - direct)) < 1e-14

    @pytest.mark.parametrize("case", _CIRCLE_CASES)
    def test_line_minimum_is_below_a_fine_scan(self, case):
        e, u, kernel, phi, v, line = _great_circles(case, 64, 41)
        s, low, start = _line_minimum(line)
        scan = 2.0 * np.pi * np.arange(1024) / 1024
        waves = np.exp(np.outer([0, 1j, 2j], scan))
        assert np.all(low <= (line @ waves).real.min(axis=1) + 1e-15)
        for k in range(len(phi)):
            at = gate_fidelity_batch(e, u, _on_circle(phi[k], v[k], s[k : k + 1]), kernel=kernel)
            direct = gate_fidelity_batch(e, u, _on_circle(phi[k], v[k], scan), kernel=kernel)
            assert abs(at[0] - low[k]) < 1e-14
            assert low[k] <= direct.min() + 1e-14
        assert np.max(np.abs(start - gate_fidelity_batch(e, u, phi, kernel=kernel))) < 1e-14

    @pytest.mark.parametrize("case", list(_DESCENT_PANEL))
    def test_values_are_the_evaluation_at_the_returned_states(self, case):
        e, u = _DESCENT_PANEL[case]()
        kernel = fidelity_kernel(e, u)
        starts = _starts(e.dim_in, 8, 42)
        values, states = _descend(e, u, kernel, starts)
        assert states.shape == starts.shape
        assert np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0)) < 1e-14
        assert values.tobytes() == gate_fidelity_batch(e, u, states, kernel=kernel).tobytes()
        assert np.all(values <= gate_fidelity_batch(e, u, starts, kernel=kernel))

    def test_product_batches_at_d16(self, monkeypatch):
        calls = []

        def counted(ops, rows):
            calls.append(len(rows))
            return _kraus_products(ops, rows)

        monkeypatch.setattr(minimum, "_kraus_products", counted)
        ch = phase_spread_unitary(16, np.random.default_rng([3, 16]))
        reference_minimum(ch, None, n_starts=8, rng=3)
        # one call at the starts and one per step, each two product batches
        assert 2 * len(calls) <= 200
        assert min(calls) >= 2


class TestLineSearchConstants:
    """The line-search tables keep the bits of the expressions they replace."""

    def test_derivative_table_is_the_harmonic_powers(self):
        harmonics = np.array([0.0, 1j, 2j])
        assert minimum._DERIVATIVES.tobytes() == (harmonics[:, None] ** np.arange(3)).tobytes()

    def test_grid_waves_are_the_harmonics_at_the_grid_angles(self):
        expected = np.exp(minimum._HARMONICS[:, None] * minimum._LINE_GRID[[-1, *range(128), 0]])
        assert minimum._grid_waves().tobytes() == expected.tobytes()

    def test_import_builds_no_grid_waves(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        probe = "import gatefid, gatefid.minimum as m; print(m._grid_waves.cache_info().currsize)"
        done = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        assert done.stdout.strip() == "0"


class TestNetMinimum:
    def test_depolarizing_constant(self):
        net = build_net(2, 0.5, rng=14)
        est = net_minimum(depolarizing(0.7, 2), None, net)
        assert abs(est.net_min - 0.85) < 1e-12
        assert est.method == "net-scan"
        assert abs(est.lipschitz_lower_bound - (0.85 - LIPSCHITZ_CONSTANT * 0.5)) < 1e-12

    def test_identity_channel(self):
        net = build_net(2, 0.5, rng=15)
        est = net_minimum(identity_channel(2), None, net)
        assert abs(est.net_min - 1.0) < 1e-12

    def test_tie_breaks_to_first_index(self):
        # both basis states give exactly zero under the bit flip, so the
        # scan must return the first of the tied minimizers
        from gatefid.minimum import StateNet

        states = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0] / np.sqrt(2.0)], dtype=complex)
        net = StateNet(
            d=2,
            epsilon=0.5,
            metric_id="euclidean",
            states=states,
            coverage_confidence=0.99,
            seed=0,
        )
        est = net_minimum(unitary_channel(PAULI_X), None, net)
        assert est.net_min == 0.0
        assert np.array_equal(est.argmin_state, states[0])

    def test_argmin_attains_the_minimum(self):
        net = build_net(2, 0.4, rng=17)
        ch = amplitude_damping(0.3)
        est = net_minimum(ch, None, net)
        direct = gate_fidelity_batch(ch, None, est.argmin_state)
        assert abs(direct - est.net_min) < 1e-14

    def test_lower_bound_ordering(self):
        net = build_net(2, 0.3, rng=18)
        est = net_minimum(amplitude_damping(0.2), None, net)
        assert est.lipschitz_lower_bound <= est.net_min

    def test_dimension_guard(self):
        net = build_net(2, 0.5, rng=19)
        with pytest.raises(ValueError):
            net_minimum(depolarizing(0.5, 3), None, net)


class TestReferenceMinimum:
    def test_unitary_channel_is_flat(self):
        got = reference_minimum(identity_channel(3), None, n_starts=2, rng=20)
        assert abs(got - 1.0) < 1e-9

    def test_depolarizing_is_flat(self):
        got = reference_minimum(depolarizing(0.6, 2), None, n_starts=2, rng=21)
        assert abs(got - 0.8) < 1e-8

    def test_bit_flip_reaches_zero(self):
        got = reference_minimum(unitary_channel(PAULI_X), None, n_starts=6, rng=22)
        assert got < 1e-6

    def test_amplitude_damping_analytic_value(self):
        # F(phi) for the damping channel is minimized at the excited state
        # |1>, where F = (1 - gamma) + 0: K0|1> = sqrt(1-gamma)|1>, K1|1> =
        # sqrt(gamma)|0> orthogonal to |1>, so F(|1>) = 1 - gamma = 0.7
        ch = amplitude_damping(0.3)
        excited = np.array([0.0, 1.0])
        assert abs(gate_fidelity_batch(ch, None, excited) - 0.7) < 1e-14
        got = reference_minimum(ch, None, n_starts=6, rng=23)
        assert abs(got - 0.7) < 1e-6

    def test_never_above_sampled_values(self):
        ch = random_channel(3, 2, rng=24)
        ref = reference_minimum(ch, None, n_starts=8, rng=25)
        sampled = gate_fidelity_batch(ch, None, haar_states(3, 5000, rng=26))
        assert ref <= float(np.min(sampled)) + 1e-7

    def test_determinism(self):
        ch = random_channel(2, 2, rng=27)
        a = reference_minimum(ch, None, n_starts=4, rng=28)
        b = reference_minimum(ch, None, n_starts=4, rng=28)
        assert a == b

    def test_phase_spread_unitary_reaches_cos2_1(self):
        # eigenphases spread over [-1, 1]: F = |sum_k p_k e^{i t_k}|^2 is
        # smallest with half the weight on each end, cos^2(1)
        ch = phase_spread_unitary(16, np.random.default_rng([3, 16]))
        got = reference_minimum(ch, None, n_starts=8, rng=3)
        assert abs(got - math.cos(1.0) ** 2) < 1e-8

    def test_phase_spread_unitary_reaches_cos2_1_to_rounding(self):
        ch = phase_spread_unitary(16, np.random.default_rng([3, 16]))
        got = reference_minimum(ch, None, n_starts=8, rng=3)
        assert abs(got - math.cos(1.0) ** 2) < 1e-14

    def test_amplitude_damping_reaches_its_minimum_to_rounding(self):
        got = reference_minimum(amplitude_damping(0.3), None, n_starts=8, rng=23)
        assert abs(got - 0.7) < 1e-12

    def test_dimension_limit(self):
        with pytest.raises(ValueError):
            reference_minimum(identity_channel(33), None)

    def test_validation(self):
        with pytest.raises(ValueError):
            reference_minimum(depolarizing(0.5, 2), None, n_starts=0)
        from gatefid.channels import channel_from_kraus

        tall = channel_from_kraus((np.zeros((3, 2)),))
        with pytest.raises(ValueError):
            reference_minimum(tall, None)


class TestSandwich:
    def test_net_brackets_reference_qubit(self):
        ch = amplitude_damping(0.3)
        net = build_net(2, 0.3, rng=29)
        est = net_minimum(ch, None, net)
        ref = reference_minimum(ch, None, n_starts=6, rng=30)
        assert est.lipschitz_lower_bound <= ref + 1e-8
        assert ref <= est.net_min + 1e-8

    def test_net_brackets_reference_qutrit(self):
        ch = random_channel(3, 3, rng=31)
        net = build_net(3, 0.3, rng=32)
        est = net_minimum(ch, None, net)
        ref = reference_minimum(ch, None, n_starts=6, rng=33)
        assert est.lipschitz_lower_bound <= ref + 1e-8
        assert ref <= est.net_min + 1e-8

    def test_mixed_states_cannot_undershoot(self):
        # fidelity is affine in the state, so the minimum over density
        # matrices is attained on pure states; mixtures never dip below
        ch = amplitude_damping(0.3)
        ref = reference_minimum(ch, None, n_starts=6, rng=34)
        rng = np.random.default_rng(35)
        for _ in range(100):
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            t = rng.uniform()
            mixed = t * gate_fidelity_batch(ch, None, a) + (1 - t) * gate_fidelity_batch(
                ch, None, b
            )
            assert mixed >= ref - 1e-8


class TestEffective:
    def test_large_dimension_value(self):
        got = effective_epsilon(0.01, 1024)
        assert abs(got - 3.001228452714514) < 1e-12

    def test_vacuous_at_small_d(self):
        # the radius exceeds the fidelity range, so the interval tells nothing
        assert effective_epsilon(0.1, 64) > 1.0

    def test_meaningful_at_large_d(self):
        assert effective_epsilon(0.01, 2**30) < 0.1

    def test_monotone(self):
        assert effective_epsilon(0.01, 2**20) > effective_epsilon(0.01, 2**24)
        assert effective_epsilon(0.001, 2**20) > effective_epsilon(0.01, 2**20)

    def test_effective_minimum_interval(self):
        lo, hi = effective_minimum(0.9, 0.01, 2**30)
        assert 0.0 <= lo < hi == 0.9
        assert abs((hi - lo) - effective_epsilon(0.01, 2**30)) < 1e-12

    def test_effective_minimum_clamps_at_zero(self):
        lo, hi = effective_minimum(0.5, 0.1, 64)
        assert lo == 0.0 and hi == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            effective_epsilon(0.0, 1024)
        with pytest.raises(ValueError):
            effective_epsilon(1.0, 1024)
        with pytest.raises(ValueError):
            effective_epsilon(0.01, 1)
        with pytest.raises(ValueError):
            effective_minimum(1.5, 0.01, 1024)

    def test_quantile_mass_too_small_refused(self):
        # 2/q overflows to inf, which no artifact can hold
        with pytest.raises(ValueError, match=r"quantile mass q=1e-320 is too small"):
            effective_epsilon(1e-320, 4)
        with pytest.raises(ValueError, match=r"quantile mass q=1e-320"):
            effective_minimum(0.5, 1e-320, 4)
        assert math.isfinite(effective_epsilon(1e-300, 4))

    def test_quantile_consistency(self):
        # at most a q mass of states sits below avg - eps_q
        ch = random_channel(16, 4, rng=36)
        avg = average_gate_fidelity(ch)
        q = 0.1
        eps = effective_epsilon(q, 16)
        f = gate_fidelity_batch(ch, None, haar_states(16, 20_000, rng=37))
        frac_below = float(np.mean(f < avg - eps))
        assert frac_below <= q


class TestDistanceHelpers:
    def test_phase_min_distance_matrix(self):
        # broadcasting gives all pairwise distances between two batches
        a = haar_states(3, 4, rng=41)
        b = haar_states(3, 6, rng=42)
        m = _distances(a[:, None, :], b[None, :, :])
        assert m.shape == (4, 6)
        self_m = _distances(a[:, None, :], a[None, :, :])
        assert np.max(np.abs(np.diag(self_m))) < 1e-7
        assert np.max(np.abs(self_m - self_m.T)) < 1e-12
