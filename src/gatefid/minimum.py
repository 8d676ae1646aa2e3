"""Minimum gate fidelity estimation.

Scanning a finite epsilon-net of pure states gives an upper value net_min;
the Lipschitz constant 3 sqrt(2) turns it into the certified lower bound
net_min - 3 sqrt(2) eps for the true minimum. A multi-start Riemannian
conjugate gradient on the unit sphere provides an independent reference
value at small dimension; it is local, so that value is an upper estimate
with no global certificate. Concentration of measure gives the
quantile-based effective minimum.

Both searches pay numpy's per-call cost once per batch, not once per
state: the net packing scans 256 samples at a time against the net, 256
net states per Gram matrix, then decides a chunk's survivors among
themselves from one more. The conjugate gradient steps every start at
once, and each step costs two product batches, B_k v and B_k^dag v for the
starts' unit directions v: along a great circle F is a trigonometric
polynomial of degree 2, so the exact line minimum, the new value and the
new gradient all follow from those products. Overlaps within rounding of
the epsilon edge are recomputed exactly, and no exact overlap, product or
evaluation is taken on a single row, which numpy computes by a
matrix-vector product whose last bits can differ from the GEMM's; so a
sample's distance and a start's value do not depend on which other rows
share the call.
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
    _kraus_gradient,
    _kraus_products,
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


# The line search writes F along its great circle as Re sum_j C_j e^{ijs}
# for j = 0, 1, 2, with C_0 = A0 and C_j = A_j - i B_j. Row j of
# _DERIVATIVES holds (ij)^p for p = 0, 1, 2, so the real parts of
# (C_j e^{ijs}) @ _DERIVATIVES are F, F' and F''. It evaluates F at the
# _LINE_GRID angles, columns 1 to 128 of _GRID_WAVES, whose first and last
# columns repeat the angles either side of the circle's ends. On 6000 random
# great circles of three channels (d = 16 rank 1, d = 8 rank 4, d = 6 rank
# 30), polishing only the best of 16 or 32 angles, by three Newton steps,
# ended up to 2e-3 above the circle's minimum, in the other basin; 128
# angles and two polishes of two steps each ended within 1e-16 of a
# 65536-angle scan on every circle
_LINE_GRID = 2.0 * np.pi * np.arange(128) / 128
_HARMONICS = np.array([0.0, 1j, 2j])
_GRID_WAVES = np.exp(_HARMONICS[:, None] * _LINE_GRID[[-1, *range(128), 0]])
_DERIVATIVES = _HARMONICS[:, None] ** np.arange(3)
_NEWTON_STEPS = 2
# (C_0, C_1, C_2) from the real Gram matrix G of (2 alpha, 2 beta, 2 gamma)
# of _circle_coefficients, summed over k and flattened: A0 = |alpha|^2 +
# (|beta|^2 + |gamma|^2)/2, C_1 = 2 <alpha, beta> - 2i <alpha, gamma> and
# C_2 = (|beta|^2 - |gamma|^2)/2 - i <beta, gamma>
_GRAM_TO_LINE = np.zeros((9, 3), dtype=complex)
_GRAM_TO_LINE[[0, 4, 8], 0] = [1 / 4, 1 / 8, 1 / 8]
_GRAM_TO_LINE[[1, 2], 1] = [1 / 2, -1j / 2]
_GRAM_TO_LINE[[4, 8, 5], 2] = [1 / 8, -1 / 8, -1j / 4]


def _re_dot(x: np.ndarray, *ys: np.ndarray) -> np.ndarray:
    """Re <x, y> of each row of x and the same row of each y, a (len(ys), n) array."""
    return np.einsum("ni,pni->pn", x.view(float), np.array(ys).view(float))


def _tangent(x: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Each row of x less its component along the same unit row of phi."""
    return x - np.einsum("ni,ni->n", phi.conj(), x)[:, None] * phi


def _circle_coefficients(phi, v, c, b_phi, b_v) -> np.ndarray:
    """F along the great circle cos t phi + sin t v of each row, as (C_0, C_1, C_2).

    phi and v are orthonormal rows, c_k = <phi|B_k|phi>, b_phi = B_k phi and
    b_v = B_k v. With s = 2t, c_k(s) = alpha_k + beta_k cos s + gamma_k sin s,
    where alpha = (a + e)/2, beta = (a - e)/2 and gamma = b/2 for a = c_k,
    e = <v|B_k|v> and b = <phi|B_k|v> + <v|B_k|phi>. So F(s) = sum_k |c_k(s)|^2
    = A0 + A1 cos s + B1 sin s + A2 cos 2s + B2 sin 2s, returned as the
    complex (n, 3) array C = (A0, A1 - i B1, A2 - i B2), with
    F(s) = Re sum_j C_j e^{ijs}.
    """
    bra_v = v.conj()
    e = np.einsum("kni,ni->kn", b_v, bra_v)
    b = np.einsum("kni,ni->kn", b_v, phi.conj()) + np.einsum("kni,ni->kn", b_phi, bra_v)
    w = np.array((c + e, c - e, b))
    gram = np.einsum("pkn,qkn->npq", w.conj(), w).real
    return gram.reshape(len(phi), 9) @ _GRAM_TO_LINE


def _line_derivatives(line: np.ndarray, s: np.ndarray) -> np.ndarray:
    """F, F' and F'' of each row's line at its angles s (n, k), an (n, k, 3) array."""
    waves = line[:, None] * np.exp(s[..., None] * _HARMONICS)
    return (waves.reshape(-1, 3) @ _DERIVATIVES).real.reshape(*s.shape, 3)


def _line_minimum(line: np.ndarray) -> tuple:
    """Each row's lowest minimum s of F(s) = Re sum_j C_j e^{ijs}, F there, and F(0).

    A trigonometric polynomial of degree 2 has at most two local minima. The
    two lowest grid angles below both their neighbours are each polished by
    _NEWTON_STEPS Newton steps that go downhill whatever the sign of F''; a
    polish that ends above its grid value is dropped, and the lower of the
    two is kept.
    """
    ext = (line @ _GRID_WAVES).real
    grid = ext[:, 1:-1]
    dips = (grid <= ext[:, :-2]) & (grid < ext[:, 2:])
    best = np.where(dips, grid, np.inf).argsort(axis=1, kind="stable")[:, :2]
    s = start = _LINE_GRID[best]
    first = np.take_along_axis(grid, best, axis=1)
    for _ in range(_NEWTON_STEPS):
        f = _line_derivatives(line, s)
        s = s - f[..., 1] / (np.abs(f[..., 2]) + 1e-300)
    low = _line_derivatives(line, s)[..., 0]
    kept = low <= first
    s, low = np.where(kept, s, start), np.where(kept, low, first)
    pick = np.arange(len(low)), low.argmin(axis=1)
    return s[pick], low[pick], ext[:, 1]


def _descend(e: QuantumChannel, u, kernel: FidelityKernel, starts: np.ndarray) -> tuple:
    """Riemannian conjugate gradient on the unit sphere from each row of starts.

    Polak-Ribiere+ directions with an exact great-circle line search: along
    a great circle F is a trigonometric polynomial of degree 2 in s = 2t
    (_circle_coefficients), minimized by _line_minimum. A step costs the two
    product batches B_k v and B_k^dag v (fidelity._kraus_products) of its
    unit direction v; the new B_k phi, B_k^dag phi, value and gradient are
    linear combinations of them and the old ones. The old gradient and
    direction are projected onto the new tangent space, and a direction that
    is not downhill restarts from minus the gradient. A start stops when its
    line minimum gains less than 1e-15, its tangent gradient falls below
    1e-12, or after 400 steps. The starts step together; every batch holds
    two rows or more, so a start's bits do not depend on the other starts.
    The search is local: nothing certifies that a start ends at a global
    minimum. Returns the final value of each start, from one
    gate_fidelity_batch call, and its final unit state.
    """
    ops = kernel.ops
    x = np.array(starts, dtype=complex)
    live = _two_rows(np.arange(len(x)))
    phi = x[live]
    b_phi, bh_phi = _kraus_products(ops, phi)
    c, grad = _kraus_gradient(phi, b_phi, bh_phi)
    grad = _tangent(grad, phi)
    gg = _re_dot(grad, grad)[0]
    eta = -grad
    moving = gg >= 1e-24
    for _ in range(400):
        if not moving.all():
            x[live[~moving]] = phi[~moving]
            keep = np.flatnonzero(moving)
            if not len(keep):
                break
            keep = _two_rows(keep)
            live, phi, grad, gg, eta = live[keep], phi[keep], grad[keep], gg[keep], eta[keep]
            c, b_phi, bh_phi = c[:, keep], b_phi[:, keep], bh_phi[:, keep]
        v = eta / np.sqrt(_re_dot(eta, eta))[0, :, None]
        b_v, bh_v = _kraus_products(ops, v)
        s, low, start = _line_minimum(_circle_coefficients(phi, v, c, b_phi, b_v))
        gained = start - low >= 1e-15
        half = np.where(gained, 0.5 * s, 0.0)[:, None]
        cos, sin = np.cos(half), np.sin(half)
        phi = cos * phi + sin * v
        # back onto the sphere: the projections amplify a norm error by
        # |gradient| / |tangent gradient|
        scale = 1.0 / np.sqrt(_re_dot(phi, phi))[0, :, None]
        phi *= scale
        cos *= scale
        sin *= scale
        b_phi, bh_phi = cos * b_phi + sin * b_v, cos * bh_phi + sin * bh_v
        c, new = _kraus_gradient(phi, b_phi, bh_phi)
        new = _tangent(new, phi)
        eta = _tangent(eta, phi)
        # Polak-Ribiere+; new is tangent at phi, so <new, old projected> = <new, old>
        new_gg, new_old, new_eta = _re_dot(new, new, grad, eta)
        pr = np.maximum(new_gg - new_old, 0.0) / gg
        pr[pr * new_eta >= new_gg] = 0.0  # not downhill: restart
        eta = pr[:, None] * eta - new
        grad, gg = new, new_gg
        moving = gained & (gg >= 1e-24)
    else:
        x[live] = phi  # the starts still moving after 400 steps
    return gate_fidelity_batch(e, u, _two_rows(x), kernel=kernel)[: len(x)], x


def reference_minimum(e: QuantumChannel, u, n_starts: int = 8, rng=DEFAULT_SEED) -> float:
    """Best value over a multi-start local search; the desk-scale oracle.

    The n_starts unit starts are Haar states drawn one after another from
    the optimizer stream of rng, in a block's layout, and run Riemannian
    conjugate gradient together (_descend), two product batches per step;
    each start's value has the same bits whatever n_starts is. The value is
    gate_fidelity_batch at the best final state. A local search cannot
    certify globality, so treat the result as a consistent reference, an
    upper estimate of the minimum, not ground truth. Restricted to d <= 32
    where multi-start coverage of the sphere is still meaningful.
    """
    if e.dim_in > REFERENCE_DIM_LIMIT:
        raise ValueError(
            f"reference minimizer is limited to d <= {REFERENCE_DIM_LIMIT}, got {e.dim_in}"
        )
    if n_starts < 1:
        raise ValueError(f"need at least one start, got {n_starts}")
    spec = as_rng_spec(rng)
    starts = _haar_block(generator(spec, TAG_OPTIMIZER), np.empty((n_starts, e.dim_in), complex))
    return float(_descend(e, u, fidelity_kernel(e, u), starts)[0].min())


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
