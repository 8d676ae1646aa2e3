"""Quantum channels in Kraus and Choi form.

A channel is stored as one array of Kraus operators A_k mapping C^dim_in
to C^dim_out, Lambda(rho) = sum_k A_k rho A_k^dag. The Choi matrix follows
the convention

    J(Lambda) = sum_{a,b} Lambda(|a><b|) (x) |a><b|

with the *output* factor first, so tr J = dim_in for a trace-preserving map
and trace preservation reads tr_out J = I_in (a partial trace over the first
factor). With row-major vectorization this is J = sum_k vec(A_k) vec(A_k)^dag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    _block_eigh,
    _check_hermitian,
    _hermitian_part,
    _row_tiles,
    hermitian_eig,
    partial_trace,
    schatten_norm,
)

DEFAULT_ATOL = 1e-9
RANK_TOL = 1e-10

# How far U^dag U may sit from the identity (spectral norm) for a unitary,
# here and for the target U of a gate fidelity.
_UNITARY_TOL = 1e-10


def _is_unitary(u: np.ndarray) -> bool:
    """||U^dag U - I||_inf <= _UNITARY_TOL; the SVD runs only past its Frobenius bound."""
    gap = u.conj().T @ u - np.eye(len(u))
    return schatten_norm(gap, 2) <= _UNITARY_TOL or schatten_norm(gap, np.inf) <= _UNITARY_TOL


# Largest dense array built: 2 GiB, which admits the d^2 x d^2 complex
# Choi matrix at d = 64 (268 MB) and refuses it at d = 128 (4.3 GB).
MAX_DENSE_BYTES = 2**31


@dataclass(frozen=True)
class QuantumChannel:
    """Kraus representation of a linear map from dim_in to dim_out: kraus is
    one C-contiguous complex128 (rank, dim_out, dim_in) array, kraus[k] = A_k."""

    dim_in: int
    dim_out: int
    kraus: np.ndarray


@dataclass(frozen=True)
class ChoiMatrix:
    """Choi matrix of a channel, output factor first, trace dim_in when TP."""

    dim_in: int
    dim_out: int
    matrix: np.ndarray


@dataclass(frozen=True)
class CptpReport:
    """Outcome of a CPTP check. Diagnoses, never raises.

    min_eigenvalue is the smallest eigenvalue of the symmetrized Choi
    matrix, tp_residual is ||tr_out J - I||_inf and hermiticity_gap is
    ||J - J^dag||_inf. is_cp and is_tp compare those against tolerance.
    """

    is_cp: bool
    is_tp: bool
    min_eigenvalue: float
    tp_residual: float
    hermiticity_gap: float
    tolerance: float


def channel_from_kraus(ops) -> QuantumChannel:
    """Build a channel from an iterable of equally shaped Kraus operators."""
    ops = [np.asarray(op, dtype=complex) for op in ops]
    if not ops:
        raise ValueError("a channel needs at least one Kraus operator")
    shape = ops[0].shape
    if len(shape) != 2:
        raise ValueError(f"Kraus operators must be matrices, got shape {shape}")
    for op in ops[1:]:
        if op.shape != shape:
            raise ValueError(f"inconsistent Kraus shapes {shape} and {op.shape}")
    d_out, d_in = shape
    return QuantumChannel(dim_in=d_in, dim_out=d_out, kraus=np.array(ops))  # C-ordered


def _check_dense_budget(side: int, what: str) -> None:
    """Refuse a side x side complex operator above MAX_DENSE_BYTES, before allocating it."""
    _check_budget(16 * side * side, what)


class _OverBudget(ValueError):
    """A refusal by _check_budget, which no other reading of the input lifts."""


def _check_budget(need: int, what: str) -> None:
    """Refuse an array of need bytes above MAX_DENSE_BYTES, before allocating it."""
    if need > MAX_DENSE_BYTES:
        gib = need / 2**30 if need < 2**1024 else math.inf  # beyond float range
        raise _OverBudget(
            f"the {what} needs {gib:.3g} GiB, above the "
            f"{MAX_DENSE_BYTES / 2**30:g} GiB dense-operator limit"
        )


# columns of J per GEMM and per block of its symmetrization
_CHOI_BLOCK = 128


def _choi_gemm(ops: np.ndarray) -> np.ndarray:
    """sum_k vec(A_k) vec(A_k)^dag of operators stacked as (rank, d_out, d_in).

    J[(i,j),(l,m)] = sum_k A_k[i,j] conj(A_k[l,m]), one GEMM per _row_tiles
    block of columns, so no copy of the whole set is conjugated; each entry
    has the bits of one GEMM over the whole. J is Hermitian up to rounding.
    """
    flat = ops.reshape(len(ops), -1)
    n = flat.shape[1]
    j = np.empty((n, n), dtype=complex)
    for start, stop in _row_tiles(n, _CHOI_BLOCK):
        np.matmul(flat.T, flat[:, start:stop].conj(), out=j[:, start:stop])
    return j


def choi_from_kraus(ch: QuantumChannel) -> ChoiMatrix:
    """The Choi matrix, symmetrized so that it equals its adjoint exactly: entry
    (x, y) is 0.5 (J[x, y] + conj(J[y, x])), formed in place a block pair at a time."""
    n = ch.dim_in * ch.dim_out
    _check_dense_budget(n, f"{n}x{n} Choi matrix")
    j = _choi_gemm(ch.kraus)
    tiles = [slice(*tile) for tile in _row_tiles(n, _CHOI_BLOCK)]
    for b, cols in enumerate(tiles):
        for rows in tiles[: b + 1]:
            up, low = j[rows, cols], j[cols, rows]
            up[...], low[...] = 0.5 * (up + low.conj().T), 0.5 * (low + up.conj().T)
    return ChoiMatrix(dim_in=ch.dim_in, dim_out=ch.dim_out, matrix=j)


def kraus_from_choi(choi: ChoiMatrix) -> QuantumChannel:
    """Extract a canonical Kraus representation from a Choi matrix.

    Eigenvalues at or below RANK_TOL are dropped; an eigenvalue below
    -RANK_TOL (relative to the largest) means the map is not completely
    positive and is rejected. Kraus operators come out ordered by
    descending eigenvalue with the first nonzero component of each
    eigenvector rotated to the positive real axis, so equal Choi matrices
    give identical arrays up to eigenspace degeneracy.
    """
    vals, vecs = hermitian_eig(choi.matrix)
    _cp_scale(vals[0], vals[-1])
    r = np.count_nonzero(vals > RANK_TOL)
    if not r:
        raise ValueError(_NO_RANK)
    top = vecs[:, ::-1][:, :r].T  # the kept eigenvectors as rows, largest eigenvalue first
    ops = np.multiply(top, _unit_phases(top).conj()[:, None], order="C")
    np.multiply(np.sqrt(vals[::-1][:r, None]), ops, out=ops)
    ops = ops.reshape(r, choi.dim_out, choi.dim_in)
    return QuantumChannel(dim_in=choi.dim_in, dim_out=choi.dim_out, kraus=ops)


_NO_RANK = "Choi matrix has no eigenvalue above RANK_TOL"


def _cp_scale(lowest: float, highest: float) -> float:
    """max(1, highest), which RANK_TOL scales; refuses a lowest eigenvalue below -RANK_TOL times it."""
    scale = max(1.0, float(highest))
    if lowest < -RANK_TOL * scale:
        raise ValueError(f"Choi matrix has negative eigenvalue {lowest:.3e}, map is not CP")
    return scale


def _sqrt_kraus(choi: ChoiMatrix) -> QuantumChannel:
    """Kraus operators A_j = unvec(column j of S) over the nonzero columns of S = sqrt(J).

    S is V diag(sqrt(lambda)) V^dag, formed block by block along J's exact
    zero pattern (linalg._block_eigh), with every eigenvalue at or below
    RANK_TOL * max(1, lambda_max) set to exactly 0 and one below minus that
    refused as in kraus_from_choi. Then sum_j vec(A_j) vec(A_j)^dag =
    S S^dag = J. S does not depend on the basis eigh picks inside a
    degenerate eigenspace, so a last-bit change of J moves the operators in
    their last bits only, where kraus_from_choi's eigenvectors may turn
    inside the eigenspace. The set is not minimal: it holds one operator per
    nonzero column of J, in column order.
    """
    stacks = _block_eigh(_check_hermitian(choi.matrix), vectors=True)
    lowest = min(vals[:, 0].min() for _, (vals, _) in stacks)
    scale = _cp_scale(lowest, max(vals[:, -1].max() for _, (vals, _) in stacks))
    n = choi.dim_in * choi.dim_out
    columns = np.zeros((n, n), dtype=complex)  # row j is column j of S
    for index, (vals, vecs) in stacks:
        root = np.sqrt(np.where(vals > RANK_TOL * scale, vals, 0.0))
        block = (vecs * root[:, None, :]) @ vecs.conj().swapaxes(1, 2)
        columns[index[:, :, None], index[:, None, :]] = block.swapaxes(1, 2)
    kept = columns.any(axis=1)
    if not kept.any():
        raise ValueError(_NO_RANK)
    ops = columns if kept.all() else columns[kept]
    ops = ops.reshape(len(ops), choi.dim_out, choi.dim_in)
    return QuantumChannel(dim_in=choi.dim_in, dim_out=choi.dim_out, kraus=ops)


def _unit_phases(rows: np.ndarray) -> np.ndarray:
    """Each row's first entry above 1e-12 of its largest, divided by its modulus."""
    mag = np.abs(rows)
    lead = rows[np.arange(len(rows)), np.argmax(mag > 1e-12 * mag.max(axis=1, keepdims=True), 1)]
    return lead / np.hypot(lead.real, lead.imag)  # hypot has the bits of a scalar's abs()


def validate_cptp(obj, tol: float = DEFAULT_ATOL) -> CptpReport:
    """Check complete positivity and trace preservation of a channel or Choi.

    Always returns a report; callers decide whether a violation is fatal.
    The smallest eigenvalue is taken block by block along the exact zero
    pattern of the symmetrized Choi matrix (linalg._block_eigh); a dense
    one is a single block and one eigvalsh. The trace-preservation residual
    is taken on the partial trace over the output (first) factor, which must
    equal the input-space identity.
    """
    if not 0 <= tol < math.inf:
        raise ValueError(f"tolerance tol must be non-negative and finite, got {tol}")
    choi = choi_from_kraus(obj) if isinstance(obj, QuantumChannel) else obj
    j = choi.matrix
    gap, sym = _hermitian_part(j)
    min_eig = float(min(vals[:, 0].min() for _, vals in _block_eigh(sym)))
    marginal = partial_trace(j, choi.dim_out, choi.dim_in, factor="first")
    tp_residual = schatten_norm(marginal - np.eye(choi.dim_in), np.inf)
    return CptpReport(
        is_cp=bool(min_eig >= -tol),
        is_tp=bool(tp_residual <= tol),
        min_eigenvalue=min_eig,
        tp_residual=tp_residual,
        hermiticity_gap=gap,
        tolerance=tol,
    )


def adjoint(ch: QuantumChannel) -> QuantumChannel:
    """Adjoint map with respect to the Hilbert-Schmidt inner product."""
    return channel_from_kraus(ch.kraus.conj().swapaxes(1, 2))


def unitary_channel(u: np.ndarray) -> QuantumChannel:
    """The channel rho -> U rho U^dag; U is copied only if not C-ordered complex128."""
    u = np.ascontiguousarray(u, dtype=complex)
    d = u.shape[0]
    if u.shape != (d, d):
        raise ValueError(f"expected a square matrix, got shape {u.shape}")
    if not _is_unitary(u):
        raise ValueError("matrix is not unitary within tolerance")
    return QuantumChannel(dim_in=d, dim_out=d, kraus=u[None])


def identity_channel(d: int) -> QuantumChannel:
    return unitary_channel(np.eye(d))


def _pauli_strings(n: int) -> np.ndarray:
    # the 4^n Pauli strings as np.kron chains, first factor slowest: one
    # broadcast product per factor, each entry the same product as kron's
    one = np.array(
        [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
        dtype=complex,
    )
    ops = one if n else np.ones((1, 1, 1), dtype=complex)
    for _ in range(n - 1):
        count, side, _ = ops.shape
        pairs = ops[:, None, :, None, :, None] * one[None, :, None, :, None, :]
        ops = pairs.reshape(4 * count, 2 * side, 2 * side)
    return ops


def _clock_shift(d: int) -> np.ndarray:
    # X^a Z^b, a slowest, is Z^b's diagonal moved down a rows (X|j> = |j + 1 mod d>)
    z = np.diag(np.exp(2j * np.pi / d) ** np.arange(d))
    diagonals = [np.diagonal(np.linalg.matrix_power(z, b)) for b in range(d)]
    ops, j = np.zeros((d, d, d, d), dtype=complex), np.arange(d)
    for a in range(d):
        ops[a][:, (j + a) % d, j] = diagonals
    return ops.reshape(d * d, d, d)


def unitary_operator_basis(d: int) -> np.ndarray:
    """d^2 unitaries in one (d^2, d, d) array, identity first, tr(P_i^dag P_j) = d delta_ij.

    Pauli strings when d is a power of two, clock and shift monomials
    otherwise. Either family averages any state to the maximally mixed one,
    which is the property the depolarizing construction relies on.
    """
    n = d.bit_length() - 1
    return _pauli_strings(n) if d == 2**n else _clock_shift(d)


def depolarizing(p: float, d: int) -> QuantumChannel:
    """Depolarizing channel rho -> p rho + (1 - p) tr(rho) I / d."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing parameter must lie in [0, 1], got {p}")
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    # d^2 Kraus operators of d x d entries: as large as a d^2 x d^2 operator
    _check_dense_budget(d * d, f"Kraus set of the d={d} depolarizing channel")
    basis = unitary_operator_basis(d)
    first = np.sqrt(p + (1.0 - p) / d**2) * basis[0]
    basis *= np.sqrt(1.0 - p) / d  # a fresh array: it becomes the Kraus set
    basis[0] = first
    return QuantumChannel(dim_in=d, dim_out=d, kraus=basis)


def amplitude_damping(gamma: float) -> QuantumChannel:
    """Single-qubit decay channel with excited-state loss probability gamma."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"damping parameter must lie in [0, 1], got {gamma}")
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return channel_from_kraus((k0, k1))


def random_channel(d: int, kraus_rank: int, rng) -> QuantumChannel:
    """Haar-style random CPTP map via a random Stinespring isometry.

    A (d * kraus_rank) x d complex Gaussian matrix is orthonormalized by QR;
    its d x d blocks are the Kraus operators, so trace preservation holds by
    construction.
    """
    if kraus_rank < 1:
        raise ValueError("kraus_rank must be positive")
    g = np.random.default_rng(rng)
    shape = (d * kraus_rank, d)
    q, _ = np.linalg.qr(g.standard_normal(shape) + 1j * g.standard_normal(shape))
    return QuantumChannel(dim_in=d, dim_out=d, kraus=q.reshape(kraus_rank, d, d))


def phase_spread_unitary(d: int, rng) -> QuantumChannel:
    """Random unitary channel whose phases stay spread as d grows.

    Eigenphases are equispaced on [-1, 1] in a Haar-random
    eigenbasis. Unlike a fully Haar unitary, the spectrum does not fill the
    circle, so the gate fidelity against the identity keeps an O(1) mean
    while its per-state fluctuations shrink like 1/sqrt(d). Used as the
    default family in convergence reports, which sample it from
    phase_spread_spectrum alone.
    """
    _check_dense_budget(d, f"d={d} phase-spread unitary")
    g = np.random.default_rng(rng)
    raw = g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))
    q, r = np.linalg.qr(raw)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))  # Haar phase fix
    return unitary_channel((q * phase_spread_spectrum(d)) @ q.conj().T)


def phase_spread_spectrum(d: int) -> np.ndarray:
    """The eigenvalues exp(i t) of phase_spread_unitary(d, .), t = linspace(-1, 1, d).

    They do not depend on the eigenbasis, so a convergence report samples
    the family from them alone, with no d x d unitary.
    """
    return np.exp(1j * np.linspace(-1.0, 1.0, d))
