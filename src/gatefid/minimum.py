"""Minimum gate fidelity estimation.

Scanning a finite epsilon-net of pure states gives an upper value net_min;
the Lipschitz constant 3 sqrt(2) turns it into the certified lower bound
net_min - 3 sqrt(2) eps for the true minimum. A multi-start projected
descent provides an independent reference value at small dimension, and
concentration of measure gives the quantile-based effective minimum.
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
# states, 210 against 117 ms; build_net(8, 0.7), 1312 states, 171 against
# 142 ms; a small net pays for lifting each chunk: build_net(8, 0.9), 86
# states, 9.2 against 10.3 ms. Above d = 8 the real GEMM, whose work per
# pair of states grows as d^2 where the complex one grows as d, lost on
# every net measured: 10 against 12 ms at d = 12, 28 against 118 ms at
# d = 64, and 0.13 against 1.4 s at d = 256, where the build peaked at
# 402 MB against 33 MB. A lifted row is d^2 doubles, 2 GiB at d = 16384.
LIFT_MAX_DIM = 8

# a lifted maximum this close to the threshold is decided by _min_distances;
# for unit rows both routes are within a few d^2 ulp of |<phi|psi>|^2, far
# inside it
_LIFT_MARGIN = 1e-9


def _min_distances(points: np.ndarray, net_states: np.ndarray) -> np.ndarray:
    """Distance from each point (row) to its nearest net state."""
    best = np.empty(len(points))
    for start in range(0, len(points), _DISTANCE_CHUNK):
        rows = points[start : start + _DISTANCE_CHUNK]
        best[start : start + len(rows)] = np.abs(rows.conj() @ net_states.T).max(axis=1)
    return overlap_distance(best)


def _lift(states: np.ndarray) -> np.ndarray:
    """Real coordinates x(psi) of each psi psi^dag, with <x(phi), x(psi)> = |<phi|psi>|^2.

    The basis is orthonormal for the Hilbert-Schmidt product on Hermitian
    matrices: |psi_i|^2, then sqrt(2) Re and sqrt(2) Im of conj(psi_i) psi_j
    for i < j, d^2 coordinates per row.
    """
    i, j = np.triu_indices(states.shape[1], 1)
    cross = math.sqrt(2.0) * states[:, i].conj() * states[:, j]
    return np.concatenate((states.real**2 + states.imag**2, cross.real, cross.imag), axis=1)


def _far(points: np.ndarray, net: np.ndarray, lifted_net: np.ndarray, epsilon: float):
    """_min_distances(points, net) >= epsilon, bit for bit, through the lift.

    lifted_net is _lift(net). A point is far when its largest squared
    overlap, a row max of the real Gram matrix, lies below (1 - epsilon^2/2)^2,
    signed so that epsilon^2 > 2 leaves no point far. Maxima within
    _LIFT_MARGIN of that edge are decided by _min_distances.
    """
    edge = 1.0 - 0.5 * float(epsilon) * float(epsilon)
    edge *= abs(edge)
    best = (_lift(points) @ lifted_net.T).max(axis=1)
    far = best < edge
    near = np.flatnonzero(np.abs(best - edge) <= _LIFT_MARGIN)
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


def _grow(
    net: np.ndarray, n: int, cap: int, spec, tag: int, epsilon: float, stop: int, phase: str
) -> tuple:
    """Add each sample of stream tag lying epsilon or more from the net.

    Each sample is measured against the net as it stands at that sample,
    states added earlier in the same block included; the pass ends after
    stop samples in a row were not added, counted across blocks. Returns
    the buffer and its row count. A net past cap - 1 states raises
    NetCoverageError naming the phase.
    """
    d = net.shape[1]
    # up to LIFT_MAX_DIM, the net's first `lifted_n` states, lifted; it
    # catches up before each chunk scan and has the net buffer's capacity
    lifted = np.empty((0, d * d))
    lifted_n = 0
    misses = 0
    block = 0
    while misses < stop:
        samples = _haar_block(d, spec, tag, block, BLOCK_SIZE)
        block += 1
        for start in range(0, len(samples), _DISTANCE_CHUNK):
            chunk = samples[start : start + _DISTANCE_CHUNK]
            # a sample is added when it is epsilon away from the net as it
            # stood before this chunk and from the states this chunk added
            base = n
            if not n:
                survivors = range(len(chunk))
            elif d > LIFT_MAX_DIM:
                survivors = np.flatnonzero(_min_distances(chunk, net[:n]) >= epsilon).tolist()
            else:
                if len(lifted) < n:
                    lifted = _regrown(lifted, lifted_n, len(net))
                lifted[lifted_n:n] = _lift(net[lifted_n:n])
                lifted_n = n
                survivors = np.flatnonzero(_far(chunk, net[:n], lifted[:n], epsilon)).tolist()
            last = -1
            for i in survivors:
                misses += i - last - 1  # the samples between survivors
                last = i
                if misses >= stop:
                    break
                if n > base and _min_distances(chunk[i : i + 1], net[base:n])[0] < epsilon:
                    misses += 1
                    continue
                if n == len(net):
                    net = _regrown(net, n, min(2 * len(net), cap))
                net[n] = chunk[i]
                n += 1
                misses = 0
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
    net = np.empty((min(cap, 256), d), dtype=complex)
    net, n = _grow(net, 0, cap, spec, TAG_NET, epsilon, stop_rejections, "packing")
    miss = 1.0 - confidence
    needed = math.ceil(math.log(1.0 / miss) / miss)
    net, n = _grow(net, n, cap, spec, TAG_VALIDATE, epsilon, needed, "coverage repair")
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


def _descend(e: QuantumChannel, u, x: np.ndarray, kernel: FidelityKernel) -> float:
    """Projected gradient descent from one start on the unit sphere."""
    val = float(gate_fidelity_batch(e, u, x, kernel=kernel))
    step = 0.25
    for _ in range(400):
        grad = kernel.gradient(x)
        grad -= np.real(np.vdot(x, grad)) * x  # radial part is irrelevant
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


def reference_minimum(e: QuantumChannel, u, n_starts: int = 8, rng=DEFAULT_SEED) -> float:
    """Best value over multi-start local descent; the desk-scale oracle.

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
    g = generator(spec, TAG_OPTIMIZER)
    d = e.dim_in
    kernel = fidelity_kernel(e, u)
    best = np.inf
    for _ in range(n_starts):
        z = g.standard_normal(d) + 1j * g.standard_normal(d)
        best = min(best, _descend(e, u, z / np.linalg.norm(z), kernel))
    return float(best)


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
