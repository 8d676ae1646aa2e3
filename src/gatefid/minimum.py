"""Minimum gate fidelity estimation.

Scanning a finite epsilon-net of pure states gives an upper value net_min;
the Lipschitz constant 3 sqrt(2) turns it into the certified lower bound
net_min - 3 sqrt(2) eps for the true minimum. A multi-start projected
descent provides an independent reference value at small dimension, and
concentration of measure gives the quantile-based effective minimum.

Both searches pay numpy's per-call cost once per batch, not once per
state: the net packing scans 256 samples at a time against the net, 256
net states per Gram matrix, then decides a chunk's survivors among
themselves from one more, and the descent moves every start at once.
Overlaps within rounding of the epsilon edge are recomputed exactly, and
no exact overlap or evaluation is taken on a single row, which numpy
computes by a matrix-vector product whose last bits can differ from the
GEMM's; so a sample's distance and a start's value do not depend on
which other rows share the call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import QuantumChannel, _check_budget
from .fidelity import (
    CONCENTRATION_C,
    LIPSCHITZ_CONSTANT,
    FidelityKernel,
    _check_dim,
    _upper_pairs,
    fidelity_kernel,
    gate_fidelity_batch,
    overlap_distance,
)
from .sampling import (
    BLOCK_SIZE,
    DEFAULT_SEED,
    TAG_NET,
    TAG_OPTIMIZER,
    TAG_VALIDATE,
    _haar_block,
    as_rng_spec,
    generator,
)

REFERENCE_DIM_LIMIT = 32


class NetCoverageError(RuntimeError):
    """Raised when a net cannot be validated within the state budget."""


@dataclass(frozen=True)
class StateNet:
    """Finite set of pure states resolving state space to within epsilon.

    Distances are Euclidean after minimizing over global phase. The
    coverage_confidence records the statistically validated level: fresh
    Haar samples found a net neighbor within epsilon often enough to
    certify the stated miss mass at that confidence.
    """

    d: int
    epsilon: float
    metric_id: str
    states: np.ndarray  # (n, d) rows
    coverage_confidence: float
    seed: int


# rows per overlap GEMM in _min_distances, so the (rows, net size) overlap
# matrix stays a few MB however large the net grows
_DISTANCE_CHUNK = 256

# _grow scans the net through _lift only up to this dimension. Whole
# builds at one BLAS thread (scripts/bench_minimum.py, net_build in
# BENCH_minimum.json), np.abs against lift: build_net(3, 0.2), 1587
# states, 185-220 against 40-65 ms; build_net(8, 0.7), 1312 states,
# 145-195 against 65-95 ms; a small net is level: build_net(8, 0.9), 86
# states, 7-9 ms either way. Above d = 8 the real GEMM, whose work per pair
# of states grows as d^2 where the complex one grows as d, lost on every
# net measured: 8-10 against 10-14 ms at d = 12, 26-31 against 100-145 ms
# at d = 64, and 0.12 against 1.3-1.6 s at d = 256, where the build peaked
# at 402 MB against 20 MB. A lifted row is d^2 doubles, 2 GiB at d = 16384.
LIFT_MAX_DIM = 8

# a lifted maximum this close to the threshold is decided by _min_distances;
# for unit rows both routes are within a few d^2 ulp of |<phi|psi>|^2, far
# inside it. _grow's survivor check uses it too, on |<phi|psi>| itself
_LIFT_MARGIN = 1e-9

# net states per Gram matrix of _far's scan, which a point leaves at the
# first block that holds a net state near it
_SCAN_BLOCK = 256


def _two_rows(rows: np.ndarray) -> np.ndarray:
    """rows, a lone row repeated, so a matmul on it takes numpy's GEMM path.

    A one-row operand takes the matrix-vector path instead, whose last bits
    can differ from those the same row gets in a GEMM.
    """
    return rows[[0, 0]] if len(rows) == 1 else rows


def _min_distances(points: np.ndarray, net_states: np.ndarray) -> np.ndarray:
    """Distance from each point (row) to its nearest net state.

    Every chunk of points is a GEMM of two rows or more, so a point's
    distance has the same bits whatever the other points of the call.
    """
    best = np.empty(len(points))
    for start in range(0, len(points), _DISTANCE_CHUNK):
        rows = points[start : start + _DISTANCE_CHUNK]
        overlap = np.abs(_two_rows(rows).conj() @ net_states.T)
        best[start : start + len(rows)] = overlap.max(axis=1)[: len(rows)]
    return overlap_distance(best)


def _lift(states: np.ndarray) -> np.ndarray:
    """Real coordinates x(psi) of each psi psi^dag, with <x(phi), x(psi)> = |<phi|psi>|^2.

    The basis is orthonormal for the Hilbert-Schmidt product on Hermitian
    matrices: |psi_i|^2, then sqrt(2) Re and sqrt(2) Im of conj(psi_i) psi_j
    for i < j, d^2 coordinates per row.
    """
    i, j, _ = _upper_pairs(states.shape[1], 1)
    cross = math.sqrt(2.0) * states[:, i].conj() * states[:, j]
    return np.concatenate((states.real**2 + states.imag**2, cross.real, cross.imag), axis=1)


def _far(points: np.ndarray, net: np.ndarray, lifted_net: np.ndarray, epsilon: float):
    """_min_distances(points, net) >= epsilon, bit for bit, through the lift.

    lifted_net is _lift(net). A point is far when its largest squared
    overlap, a row max of the real Gram matrix, lies below (1 - epsilon^2/2)^2,
    signed so that epsilon^2 > 2 leaves no point far. The net is scanned
    _SCAN_BLOCK states at a time, and a point leaves the scan once a block
    holds a squared overlap above the edge by more than _LIFT_MARGIN; the
    points left after the last block have their full maxima. Maxima within
    _LIFT_MARGIN of the edge are decided by _min_distances.
    """
    edge = 1.0 - 0.5 * float(epsilon) * float(epsilon)
    edge *= abs(edge)
    rows = _lift(points)
    active = np.arange(len(points))
    best = np.full(len(points), -np.inf)
    for start in range(0, len(net), _SCAN_BLOCK):
        np.maximum(best, (rows @ lifted_net[start : start + _SCAN_BLOCK].T).max(axis=1), out=best)
        keep = best <= edge + _LIFT_MARGIN
        if not keep.all():
            rows, active, best = rows[keep], active[keep], best[keep]
            if not len(active):
                break
    far = np.zeros(len(points), dtype=bool)
    far[active] = best < edge
    near = active[np.abs(best - edge) <= _LIFT_MARGIN]
    if len(near):
        # on all the points: a row's overlap can differ in its last bit
        # when the GEMM gets a different number of rows
        far[near] = _min_distances(points, net)[near] >= epsilon
    return far


def _regrown(buf: np.ndarray, n: int, rows: int) -> np.ndarray:
    """A new buffer of rows rows holding the first n rows of buf."""
    grown = np.empty((rows, buf.shape[1]), dtype=buf.dtype)
    grown[:n] = buf[:n]
    return grown


def _grow(net: np.ndarray, n: int, cap: int, spec, epsilon: float, passes) -> tuple:
    """Add each sample lying epsilon or more from the net, pass by pass.

    passes lists (tag, stop, phase) triples; a pass draws stream tag until
    stop samples in a row were not added, counted across blocks. Each
    sample is measured against the net as it stands at that sample, states
    added earlier in the same block included. Returns the buffer and its
    row count. A net past cap - 1 states raises NetCoverageError naming
    the phase.

    A chunk's survivors, the samples far from the net before it, are then
    decided among themselves from one Gram matrix |S^dag S| and a running
    maximum over the survivors added; maxima within _LIFT_MARGIN of the
    edge 1 - epsilon^2/2 are decided by _min_distances.
    """
    d = net.shape[1]
    edge = 1.0 - 0.5 * float(epsilon) * float(epsilon)
    # up to LIFT_MAX_DIM, the net's first `lifted_n` states, lifted; it
    # catches up before each chunk scan and has the net buffer's capacity.
    # It serves every pass, and so does one block buffer, so blocks reuse
    # their pages instead of mapping fresh ones
    samples = np.empty((BLOCK_SIZE, d), dtype=complex)
    lifted = np.empty((0, d * d))
    lifted_n = 0
    for tag, stop, phase in passes:
        misses = 0
        block = 0
        while misses < stop:
            _haar_block(generator(spec, tag, block), samples)
            block += 1
            for start in range(0, len(samples), _DISTANCE_CHUNK):
                chunk = samples[start : start + _DISTANCE_CHUNK]
                # a sample is added when it is epsilon away from the net
                # before this chunk and from the states this chunk added
                base = n
                if not n:
                    survivors = np.arange(len(chunk))
                elif d > LIFT_MAX_DIM:
                    survivors = np.flatnonzero(_min_distances(chunk, net[:n]) >= epsilon)
                else:
                    if len(lifted) < n:
                        lifted = _regrown(lifted, lifted_n, len(net))
                    lifted[lifted_n:n] = _lift(net[lifted_n:n])
                    lifted_n = n
                    survivors = np.flatnonzero(_far(chunk, net[:n], lifted[:n], epsilon))
                overlap = np.abs(chunk[survivors].conj() @ chunk[survivors].T)
                # each survivor's largest overlap with the survivors added
                closest = np.full(len(survivors), -np.inf)
                last = -1
                for k, i in enumerate(survivors.tolist()):
                    misses += i - last - 1  # the samples between survivors
                    last = i
                    if misses >= stop:
                        break
                    # closest is -inf, so neither test fires, until the chunk adds a state
                    near = closest[k] > edge
                    if abs(closest[k] - edge) <= _LIFT_MARGIN:
                        near = _min_distances(chunk[i : i + 1], net[base:n])[0] < epsilon
                    if near:
                        misses += 1
                        continue
                    if n == len(net):
                        net = _regrown(net, n, min(2 * len(net), cap))
                    net[n] = chunk[i]
                    n += 1
                    misses = 0
                    np.maximum(closest, overlap[k], out=closest)
                    if n >= cap:
                        hint = "; enlarge max_states or epsilon" if phase == "packing" else ""
                        raise NetCoverageError(
                            f"{phase} exceeded the {cap - 1}-state budget at d={d}, "
                            f"epsilon={epsilon}{hint}"
                        )
                else:
                    misses += len(chunk) - last - 1
                if misses >= stop:
                    break
    return net, n


def build_net(
    d: int,
    epsilon: float,
    rng=DEFAULT_SEED,
    max_states: int = 2000,
    confidence: float = 0.99,
    stop_rejections: int = 200,
) -> StateNet:
    """Greedy random packing with a statistical coverage certificate.

    Haar candidates are kept when at least epsilon away from every kept
    state; packing stops after stop_rejections consecutive rejections,
    counted across sampling blocks. Coverage is then validated on fresh
    samples: certifying miss mass at most 1 - confidence at that
    confidence needs ceil(ln(1/(1-confidence)) / (1-confidence))
    consecutive covered samples, a sample being covered when it lies
    closer than epsilon to the net. An uncovered sample joins the net and
    the count restarts; later samples are measured against the net so
    repaired, by the same pass that packs. Exhausting max_states raises
    NetCoverageError rather than returning a net that missed validation.
    """
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence}")
    if max_states < 0:
        raise ValueError(f"state budget must be non-negative, got {max_states}")
    if stop_rejections < 1:
        raise ValueError(f"need at least one rejection to stop, got {stop_rejections}")
    spec = as_rng_spec(rng)
    _check_budget(16 * BLOCK_SIZE * d, f"{BLOCK_SIZE}-state Haar block at d={d}")

    # grows by doubling up to one row past the budget, so the state that
    # breaks it still fits and a generous budget reserves no memory up front
    cap = max_states + 1
    miss = 1.0 - confidence
    needed = math.ceil(math.log(1.0 / miss) / miss)
    net = np.empty((min(cap, 256), d), dtype=complex)
    passes = ((TAG_NET, stop_rejections, "packing"), (TAG_VALIDATE, needed, "coverage repair"))
    net, n = _grow(net, 0, cap, spec, epsilon, passes)
    return StateNet(
        d=d,
        epsilon=float(epsilon),
        metric_id="euclidean",
        states=net[:n].copy(),
        coverage_confidence=1.0 - (1.0 - miss) ** needed,
        seed=spec.seed,
    )


@dataclass(frozen=True)
class MinEstimate:
    """Minimum over a net plus the Lipschitz certificate it implies."""

    net_min: float
    lipschitz_lower_bound: float
    argmin_state: np.ndarray
    method: str


def net_minimum(e: QuantumChannel, u, net: StateNet) -> MinEstimate:
    """Exact minimum over the net points; ties broken by first index."""
    if net.d != e.dim_in:
        raise ValueError(f"net dimension {net.d} != channel dimension {e.dim_in}")
    f = gate_fidelity_batch(e, u, net.states)
    idx = int(np.argmin(f))
    net_min = float(f[idx])
    return MinEstimate(
        net_min=net_min,
        lipschitz_lower_bound=net_min - LIPSCHITZ_CONSTANT * net.epsilon,
        argmin_state=net.states[idx],
        method="net-scan",
    )


def _descend(e: QuantumChannel, u, kernel: FidelityKernel, starts: np.ndarray) -> np.ndarray:
    """Projected gradient descent on the unit sphere from each row of starts.

    Every start keeps its own step, 0.25 at first, times 1.3 on an accepted
    candidate and 0.5 on a rejected one; a candidate is accepted when it
    lowers the value by more than 1e-15 and tried only while the step
    exceeds 1e-14. A start stops after 400 gradients, at a gradient below
    1e-12, when no candidate was accepted, or when step * |gradient| falls
    below 1e-10. The starts descend together: each iteration takes one
    gradient of the starts still descending and each backtracking round
    one evaluation of the starts still searching, both on two rows or more,
    so a start's value has the same bits whatever the other starts are.
    Returns the final value of each start.
    """
    x = np.array(starts, dtype=complex)
    val = gate_fidelity_batch(e, u, _two_rows(x), kernel=kernel)[: len(x)]
    step = np.full(len(x), 0.25)
    live = np.arange(len(x))
    for _ in range(400):
        if not len(live):
            break
        here = x[live]
        grad = kernel.gradient(_two_rows(here))[: len(live)]
        grad -= np.einsum("ni,ni->n", here.conj(), grad).real[:, None] * here  # radial part
        gnorm = np.linalg.norm(grad, axis=1)
        keep = ~(gnorm < 1e-12)
        live, grad, gnorm = live[keep], grad[keep], gnorm[keep]
        moved = np.zeros(len(live), dtype=bool)
        search = np.flatnonzero(step[live] > 1e-14)  # positions in live
        while len(search):
            rows = live[search]
            cand = x[rows] - step[rows, None] * grad[search]
            cand /= np.linalg.norm(cand, axis=1, keepdims=True)
            cval = gate_fidelity_batch(e, u, _two_rows(cand), kernel=kernel)[: len(rows)]
            better = cval < val[rows] - 1e-15
            won = rows[better]
            x[won], val[won] = cand[better], cval[better]
            step[won] *= 1.3
            moved[search[better]] = True
            step[rows[~better]] *= 0.5
            search = search[~better]
            search = search[step[live[search]] > 1e-14]
        live = live[moved & ~(step[live] * gnorm < 1e-10)]
    return val


def reference_minimum(e: QuantumChannel, u, n_starts: int = 8, rng=DEFAULT_SEED) -> float:
    """Best value over multi-start local descent; the desk-scale oracle.

    The n_starts unit starts are Haar states drawn one after another from
    the optimizer stream of rng, in a block's layout, and descend together
    (_descend); each start's value has the same bits whatever n_starts is.
    Local descent cannot certify globality, so treat the result as a
    consistent reference, not ground truth. Restricted to d <= 32 where
    multi-start coverage of the sphere is still meaningful.
    """
    if e.dim_in > REFERENCE_DIM_LIMIT:
        raise ValueError(
            f"reference minimizer is limited to d <= {REFERENCE_DIM_LIMIT}, got {e.dim_in}"
        )
    if n_starts < 1:
        raise ValueError(f"need at least one start, got {n_starts}")
    spec = as_rng_spec(rng)
    starts = _haar_block(generator(spec, TAG_OPTIMIZER), np.empty((n_starts, e.dim_in), complex))
    return float(_descend(e, u, fidelity_kernel(e, u), starts).min())


def effective_epsilon(q: float, d: int) -> float:
    """Deviation scale epsilon_{Q,d} = sqrt(ln(2/Q) / (C d)) from concentration."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile mass must lie in (0, 1), got {q}")
    _check_dim(d)
    eps = float(np.sqrt(np.log(2.0 / q) / (CONCENTRATION_C * d)))
    if not math.isfinite(eps):
        raise ValueError(f"quantile mass q={q!r} is too small: 2/q overflows")
    return eps


def effective_minimum(avg: float, q: float, d: int) -> tuple:
    """Interval [max(0, avg - eps_{Q,d}), avg] containing the effective minimum.

    All but a Haar mass Q of states have fidelity above the lower end. The
    interval is honest but vacuous when eps_{Q,d} >= avg, which happens for
    every interesting Q at small d; it tightens to the average as d grows.
    """
    if not 0.0 <= avg <= 1.0:
        raise ValueError(f"average must lie in [0, 1], got {avg}")
    eps = effective_epsilon(q, d)
    return (max(0.0, avg - eps), float(avg))
