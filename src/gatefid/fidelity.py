"""Exact fidelity quantities and closed-form bounds.

Gate fidelity of a channel E against a target unitary U on a pure state,

    F_{E,U}(phi) = tr( U(phi phi^dag) E(phi phi^dag) ),

its exact Haar average, the constant fidelity of depolarizing channels, and
two dimension-only variance bounds. Everything is a pure function of its
inputs.

F depends on (E, U) only through the folded channel U^dag o E, whose Kraus
operators are B_k = U^dag A_k, and every reader of a pair works from them.
Pointwise values come from one of two evaluation paths, chosen once per
pair by fidelity_kernel. The Kraus loop sums |<phi|B_k phi>|^2. The
symmetric form evaluates F = <phi phi|M|phi phi>, where M (symmetric_form)
is the partially transposed Choi matrix of U^dag o E restricted to the
symmetric subspace, of dimension d(d+1)/2. The fidelity sees a channel
only through M, which is why distinct channels can share a fidelity
function. High-rank channels at moderate d take the symmetric form
(uses_symmetric_form); everything else takes the Kraus loop. Both paths
evaluate a batch in tiles of _TILE_ROWS rows, so their scratch does not
grow with the batch. No tile has a single row, so in a batch of two rows
or more every row gets the bits one pass over the whole batch gives it,
whatever the other rows are.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channels import _UNITARY_TOL, QuantumChannel, _choi_gemm, _is_unitary
from .linalg import _row_tiles

# Lipschitz constant of phi -> F_{E,U}(phi) with respect to the Euclidean
# metric on unit vectors, valid for every channel and every dimension.
LIPSCHITZ_CONSTANT = 3.0 * np.sqrt(2.0)

# Exponent constant in the concentration-of-measure variance bound.
CONCENTRATION_C = 1.0 / (81.0 * np.pi**3 * np.log(2.0))

_RANGE_TOL = 1e-8


def _clamp_unit(values):
    """Clip to [0, 1] after checking nothing sits outside by more than _RANGE_TOL.

    Values already inside [0, 1] are returned without a copy; NaN fails
    that test and takes the clip as before.
    """
    arr = np.asarray(values, dtype=float)
    low = float(arr.min())
    high = float(arr.max())
    if not 0.0 <= low <= high <= 1.0:
        if low < -_RANGE_TOL or high > 1.0 + _RANGE_TOL:
            raise ValueError(
                f"value outside [0, 1] beyond tolerance: range [{low:.6e}, {high:.6e}]"
            )
        arr = np.clip(arr, 0.0, 1.0)
    return arr if arr.ndim else float(arr)


# The build of the symmetric form materializes the d^2 x d^2 Choi matrix
# (16 MB at d = 32, 268 MB at d = 64) and M itself holds (d(d+1)/2)^2
# entries (4.5 MB at d = 32); above this dimension the Kraus loop, which
# needs neither, is kept.
SYMMETRIC_FORM_MAX_DIM = 32

# rows per GEMM on both evaluation paths, so the scratch of a batch (the
# (rows, d(d+1)/2) coordinates of the symmetric form, the (rows, d) bras and
# products of the Kraus loop) stays small next to the states themselves
_TILE_ROWS = 256


def uses_symmetric_form(rank: int, d: int) -> bool:
    """Dispatch rule: the symmetric form for Kraus rank >= d^2/4, above d.

    The Kraus loop costs rank * d^2 per state, the symmetric form about
    d^4/4. On one 4096-state block (scripts/bench_kernel.py,
    BENCH_kernel.json) the crossover lies between rank d and d^2/4 at
    d = 16 and 32, and rank d^2/4 is the smallest rank of the grid at
    which the symmetric form, build included, wins at every d. At d = 4
    and 8 it already wins at rank d, but channels of rank <= d keep the
    Kraus loop, and with it their values to the last bit. Every channel
    with d above SYMMETRIC_FORM_MAX_DIM takes the Kraus loop too.
    """
    return d <= SYMMETRIC_FORM_MAX_DIM and rank > d and 4 * rank >= d * d


def _check_target(u, d: int):
    if u is None:
        return None
    u = np.asarray(u, dtype=complex)
    if u.shape != (d, d):
        raise ValueError(f"unitary shape {u.shape} does not match dimension {d}")
    if not _is_unitary(u):
        raise ValueError(f"target matrix is not unitary within {_UNITARY_TOL:g}")
    return u


def _fold(e: QuantumChannel, u) -> np.ndarray:
    """Stacked Kraus operators B_k = U^dag A_k of the folded channel U^dag o E.

    The one place a (channel, target) pair is checked: E must be square
    and U, unless None (the identity target), a unitary of E's dimension.
    """
    if e.dim_in != e.dim_out:
        raise ValueError(
            f"gate fidelity needs a square channel, got {e.dim_in} -> {e.dim_out}"
        )
    u = _check_target(u, e.dim_in)
    return e.kraus if u is None else u.conj().T @ e.kraus


def symmetric_form(e: QuantumChannel, u=None) -> np.ndarray:
    """The matrix M with F_{E,U}(phi) = <phi phi|M|phi phi>.

    M = P_sym J^T2 P_sym, where J is the Choi matrix of the folded channel
    rho -> U^dag E(rho) U (Kraus operators U^dag A_k), T2 the partial
    transpose and P_sym the projector onto the symmetric subspace of
    C^d (x) C^d. It is returned as a complex d(d+1)/2 square matrix in the
    orthonormal basis |ii>, (|ij> + |ji>)/sqrt(2) for i < j, ordered as
    numpy.triu_indices(d). Two channels have the same gate fidelity
    function against U exactly when their forms are equal.
    """
    return _form_of(_fold(e, u))


def _form_of(ops: np.ndarray) -> np.ndarray:
    # symmetric_form of the folded operators B_k, stacked as (rank, d, d)
    d = ops.shape[-1]
    return _sym_block(_choi_gemm(ops).reshape(d, d, d, d))


def _sym_block(g: np.ndarray) -> np.ndarray:
    # P_sym g^T2 P_sym in the basis of symmetric_form, for a Choi-space
    # operator g[i, j, l, m] = J[(i,j),(l,m)] on C^d (x) C^d
    i, m, weight = _upper_pairs(g.shape[0])
    a1, a2, b1, b2 = i[:, None], m[:, None], i[None, :], m[None, :]
    # <xy|J^T2|zw> = J[(x,z),(w,y)], summed over both orderings of each pair
    t = g[a1, b1, b2, a2] + g[a1, b2, b1, a2] + g[a2, b1, b2, a1] + g[a2, b2, b1, a1]
    scale = 0.5 * weight
    return t * np.outer(scale, scale)


def _kraus_values(ops: np.ndarray, states: np.ndarray) -> np.ndarray:
    # tile by tile, so the bras and products are (_TILE_ROWS, d) scratch,
    # allocated once per call (a fresh product per GEMM cost about 3% at
    # d = 256 in page faults); each row sums its terms in the order of ops,
    # as on the whole batch
    n, d = states.shape
    total = np.zeros(n)
    bras = np.empty((min(n, _TILE_ROWS + 1), d), dtype=complex)
    products = np.empty_like(bras)
    for start, stop in _row_tiles(n, _TILE_ROWS):
        rows = states[start:stop]
        bra, product = bras[: stop - start], products[: stop - start]
        np.conjugate(rows, out=bra)
        acc = total[start:stop]
        for op in ops:
            np.matmul(rows, op.T, out=product)
            acc += np.abs(np.einsum("ni,ni->n", bra, product)) ** 2
    return total


@functools.lru_cache(maxsize=32)
def _upper_pairs(d: int, k: int = 0) -> tuple:
    """np.triu_indices(d, k) and each pair's weight, 1 if i == j and sqrt(2)
    otherwise, built once per (d, k) and read-only, as shared.
    """
    i, j = np.triu_indices(d, k)
    arrays = (i, j, np.where(i == j, 1.0, np.sqrt(2.0)))
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _symmetric_values(form: np.ndarray, d: int, states: np.ndarray) -> np.ndarray:
    i, j, weight = _upper_pairs(d)
    out = np.empty(states.shape[0])
    for start, stop in _row_tiles(states.shape[0], _TILE_ROWS):
        rows = states[start:stop]
        # coordinates of phi (x) phi in the basis of symmetric_form
        y = rows[:, i] * rows[:, j] * weight
        out[start:stop] = np.einsum("na,na->n", y.conj(), y @ form.T).real
    return out


def _kraus_products(ops: np.ndarray, rows: np.ndarray) -> tuple:
    # B_k phi and B_k^dag phi for each row phi, as two (rank, n, d) arrays:
    # two batches of (rows, d) GEMMs, one GEMM per operator, so a row's bits
    # do not depend on the other rows of a call of two rows or more
    return rows @ ops.transpose(0, 2, 1), (rows.conj() @ ops).conj()


def _kraus_gradient(rows: np.ndarray, b_phi: np.ndarray, bh_phi: np.ndarray) -> tuple:
    # c_k = <phi|B_k|phi> and grad = 2 sum_k (conj(c_k) B_k phi + c_k B_k^dag phi)
    # for each row phi, from its _kraus_products; every sum runs within one row.
    # grad is dF/dRe phi + i dF/dIm phi of F = sum_k |c_k|^2 read as a degree-4
    # polynomial in (Re phi, Im phi); its component along phi is 4F
    c = np.einsum("kni,ni->kn", b_phi, rows.conj())
    grad = np.einsum("kn,kni->ni", c.conj(), b_phi) + np.einsum("kn,kni->ni", c, bh_phi)
    return c, 2.0 * grad


@dataclass(frozen=True)
class FidelityKernel:
    """Evaluation path of F_{E,U}, chosen once per (channel, target) pair.

    ops holds the folded Kraus operators B_k = U^dag A_k, stacked as a
    complex (rank, d, d) array; at the identity target it is the channel's
    own kraus array. form holds symmetric_form(e, u) when
    uses_symmetric_form picks it; otherwise it is None and values come from
    the Kraus loop over ops. Build it with fidelity_kernel and hand it to
    gate_fidelity_batch for every batch of the same pair.
    """

    ops: np.ndarray
    form: np.ndarray | None

    def values(self, states: np.ndarray) -> np.ndarray:
        """Unclamped fidelities of the rows of a complex (n, d) array."""
        if self.form is None:
            return _kraus_values(self.ops, states)
        return _symmetric_values(self.form, self.ops.shape[-1], states)


def fidelity_kernel(e: QuantumChannel, u=None) -> FidelityKernel:
    """Pick the evaluation path for (e, u) and build what it needs."""
    ops = _fold(e, u)
    rank, d, _ = ops.shape
    form = _form_of(ops) if uses_symmetric_form(rank, d) else None
    return FidelityKernel(ops=ops, form=form)


def gate_fidelity_batch(
    e: QuantumChannel, u, states: np.ndarray, kernel: FidelityKernel | None = None
) -> np.ndarray:
    """Gate fidelity of each row of `states`, vectorized over the batch.

    For pure states the definition collapses to
    F = sum_k |<phi | U^dag A_k phi>|^2, one inner product per folded Kraus
    operator. High-rank channels are evaluated instead as the quadratic
    form of symmetric_form on phi (x) phi; see uses_symmetric_form. u=None
    means the identity target; a 1-D state gives a scalar. Callers
    evaluating many batches of one pair pass kernel=fidelity_kernel(e, u),
    which is then read in place of e and u.
    """
    if kernel is None:
        kernel = fidelity_kernel(e, u)
    d = kernel.ops.shape[-1]
    states = np.asarray(states, dtype=complex)
    squeeze = states.ndim == 1
    if squeeze:
        states = states[None, :]
    if states.shape[1] != d:
        raise ValueError(f"state dimension {states.shape[1]} != channel dimension {d}")
    out = _clamp_unit(kernel.values(states))
    return out[0] if squeeze else out


def average_gate_fidelity(e: QuantumChannel, u=None) -> float:
    """Haar average of the gate fidelity, in closed form.

    With K_k the Kraus operators of the folded channel U^dag o E,

        F_avg = (sum_k |tr K_k|^2 + d) / (d^2 + d).

    The value is a gauge invariant of the channel: any Kraus set related by
    an isometry mixing gives the same sum.
    """
    ops = _fold(e, u)
    d = ops.shape[-1]
    total = sum(abs(np.trace(op)) ** 2 for op in ops)
    return _clamp_unit((total + d) / (d * d + d))


def _check_dim(d) -> None:
    """Refuse a dimension below 2, or one too large to convert to a float."""
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    try:
        float(d)
    except OverflowError:
        raise ValueError(f"d must be below 2**1024, got log2(d) = {math.log2(d):.6g}") from None


def depolarizing_gate_fidelity(p: float, d: int) -> float:
    """Constant fidelity value p + (1 - p)/d of the depolarizing channel."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing parameter must lie in [0, 1], got {p}")
    _check_dim(d)
    return p + (1.0 - p) / d


@dataclass(frozen=True)
class FidelityBoundSet:
    """Dimension-only upper bounds on the variance of the gate fidelity.

    variance_bound_exact comes from an explicit rational function of d that
    holds for every channel. variance_bound_concentration follows from
    measure concentration with exponent constant C; it is capped at 1/4
    (the largest possible variance of a [0, 1] variable) where the raw
    expression is loose or meaningless at small d.
    """

    variance_bound_exact: float
    variance_bound_concentration: float
    C: float = CONCENTRATION_C


def variance_bounds(d: int) -> FidelityBoundSet:
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    try:
        dd = float(d)
        exact = (8 * dd**3 + 16 * dd**2 + 4 * dd) / (
            (dd**2 + 2 * dd + 1) * (dd**2 + 5 * dd + 1)
        )
    except OverflowError:
        exact = math.inf
    # the float denominator overflows from d = 2**256 on, the numerator from 2**341
    if not 0.0 < exact < math.inf:
        raise ValueError(f"d must be below about 2**256, got log2(d) = {math.log2(d):.6g}")
    c = CONCENTRATION_C
    # log2(d)/ln2 rather than ln(c*d) in the numerator: the latter reading
    # does not reproduce the quoted 50-qubit figure, the former does.
    raw = (4.0 + np.log(c) + np.log2(dd) / np.log(2.0)) / (c * dd)
    conc = 0.25 if raw <= 0.0 else min(float(raw), 0.25)
    return FidelityBoundSet(
        variance_bound_exact=float(exact), variance_bound_concentration=conc
    )


def overlap_distance(overlap):
    """Phase-minimized distance sqrt(2 - 2 |<phi|psi>|) from overlap moduli.

    The one expression behind every phase-minimized distance of the
    package; rounding that pushes 2 - 2|<phi|psi>| below zero is clipped.
    """
    return np.sqrt(np.clip(2.0 - 2.0 * overlap, 0.0, None))
