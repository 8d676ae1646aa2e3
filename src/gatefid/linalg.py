"""Small dense linear algebra helpers shared by the rest of the package.

Everything here works on plain numpy arrays. Bipartite operations take the
two factor dimensions explicitly and assume row-major (C) ordering, so
``vec(A)`` is ``A.reshape(-1)`` and C^d1 (x) C^d2 is the ``np.kron`` order.
"""

from __future__ import annotations

import numpy as np

HERMITICITY_RTOL = 1e-10


def _row_tiles(n: int, rows: int):
    """(start, stop) bounds of consecutive tiles of at most `rows` rows over n rows.

    A one-row remainder joins the tile before it: a one-row matmul takes
    numpy's gemv path, whose last bits differ from the GEMM the same row
    gets inside a larger batch.
    """
    stops = [*range(rows, n - 1, rows), n]
    return zip([0, *stops[:-1]], stops)


def _check_bipartite(m: np.ndarray, dim_first: int, dim_second: int) -> np.ndarray:
    m = np.asarray(m)
    n = dim_first * dim_second
    if m.shape != (n, n):
        raise ValueError(
            f"expected a {n}x{n} matrix for factor dims ({dim_first}, {dim_second}), "
            f"got shape {m.shape}"
        )
    return m


def partial_trace(
    m: np.ndarray, dim_first: int, dim_second: int, factor: str = "second"
) -> np.ndarray:
    """Trace out one factor of an operator on C^d1 (x) C^d2.

    ``factor`` names the factor that is traced away: tracing the second
    factor of A (x) B returns tr(B) * A.
    """
    m = _check_bipartite(m, dim_first, dim_second)
    t = m.reshape(dim_first, dim_second, dim_first, dim_second)
    if factor == "second":
        return np.trace(t, axis1=1, axis2=3)
    if factor == "first":
        return np.trace(t, axis1=0, axis2=2)
    raise ValueError(f"factor must be 'first' or 'second', got {factor!r}")


def partial_transpose(
    m: np.ndarray, dim_first: int, dim_second: int, factor: str = "second"
) -> np.ndarray:
    """Transpose one factor: A (x) B -> A (x) B^T for factor='second'."""
    m = _check_bipartite(m, dim_first, dim_second)
    t = m.reshape(dim_first, dim_second, dim_first, dim_second)
    if factor == "second":
        t = t.transpose(0, 3, 2, 1)
    elif factor == "first":
        t = t.transpose(2, 1, 0, 3)
    else:
        raise ValueError(f"factor must be 'first' or 'second', got {factor!r}")
    n = dim_first * dim_second
    return t.reshape(n, n)


def vec(a: np.ndarray) -> np.ndarray:
    """Row-major vectorization, vec(|a><b|) = |a> (x) |b>."""
    return np.asarray(a).reshape(-1)


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    v = np.asarray(v)
    if v.size != rows * cols:
        raise ValueError(f"cannot reshape length-{v.size} vector to {rows}x{cols}")
    return v.reshape(rows, cols)


def schatten_norm(m: np.ndarray, p) -> float:
    """Schatten p-norm for p in {2, inf}.

    p=2 is the Frobenius norm, p=inf the largest singular value. Other
    orders are not needed here and are rejected.
    """
    m = np.asarray(m)
    if p == 2:
        return float(np.linalg.norm(m))
    if p in (np.inf, "inf"):
        return float(np.linalg.norm(m, 2))
    raise ValueError(f"unsupported Schatten order {p!r}, use 2 or inf")


# rows and columns of a tile of the adjoint passes: a complex tile is 64 KiB,
# so a tile and its transposed partner are read from cache, not with a
# stride of the whole row
_ADJOINT_TILE = 64


def _tile_pairs(n: int) -> list:
    """(rows, cols) slices of the tiles on and above the diagonal of an n x n matrix;
    each stands for itself and its mirror (cols, rows)."""
    tiles = [slice(*tile) for tile in _row_tiles(n, _ADJOINT_TILE)]
    return [(rows, cols) for b, cols in enumerate(tiles) for rows in tiles[: b + 1]]


def _adjoint_pass(m: np.ndarray, f, out: np.ndarray) -> np.ndarray:
    """out[x, y] = f(M[x, y], conj(M[y, x])) for a square M, a tile pair at a time.

    Each pair of tiles mirrored across the diagonal is read before either
    is written, so out may be m itself.
    """
    for rows, cols in _tile_pairs(len(m)):
        up, low = m[rows, cols], m[cols, rows]
        out[rows, cols], out[cols, rows] = f(up, low.conj().T), f(low, up.conj().T)
    return out


def _symmetrize(m: np.ndarray, out: np.ndarray) -> np.ndarray:
    """0.5 (M + M^dag) into out, which may be m: entry (x, y) is (conj(M[y, x]) + M[x, y]) * 0.5."""
    return _adjoint_pass(m, lambda x, adj: (adj + x) * 0.5, out)


def _hermitian_part(m: np.ndarray) -> tuple:
    """(||M - M^dag||_inf, 0.5 (M + M^dag)) of a square matrix.

    A finite matrix equal to its adjoint entry for entry has a gap of
    exactly 0.0, so the SVD that measures the gap runs only on one that is
    not. The compare, the difference and the mean all run tile pair by
    tile pair into one matrix-size buffer.
    """
    exact = np.isfinite(m).all() and all(
        np.array_equal(m[rows, cols], m[cols, rows].conj().T)
        for rows, cols in _tile_pairs(len(m))
    )
    out = np.empty(m.shape, dtype=np.result_type(m, 0.5))
    gap = 0.0 if exact else schatten_norm(_adjoint_pass(m, np.subtract, out), np.inf)
    return gap, _symmetrize(m, out)


def _check_hermitian(m: np.ndarray) -> np.ndarray:
    """0.5 (M + M^dag), refused unless ||M - M^dag||_inf <= HERMITICITY_RTOL * max(1, ||M||_inf)."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    gap, sym = _hermitian_part(m)
    if gap:
        scale = max(1.0, schatten_norm(m, np.inf))
        if gap > HERMITICITY_RTOL * scale:
            raise ValueError(
                f"matrix is not Hermitian: ||M - M^dag||_inf = {gap:.3e} "
                f"exceeds {HERMITICITY_RTOL:.1e} * max(1, ||M||_inf) = {HERMITICITY_RTOL * scale:.3e}"
            )
    return sym


def hermitian_eig(m: np.ndarray) -> tuple:
    """Eigendecomposition that refuses matrices far from Hermitian.

    Returns (eigenvalues ascending, eigenvectors as columns) like eigh.
    An accepted input (see _check_hermitian) is symmetrized before calling
    eigh, so tiny round-off asymmetry cannot leak into the spectrum.
    """
    return np.linalg.eigh(_check_hermitian(m))


def _pattern_blocks(m: np.ndarray) -> list:
    """Index arrays of the connected blocks of a square matrix's symmetric nonzero pattern.

    Exact zeros split the blocks. Each vertex takes the least label among
    itself and its neighbours, then its label's label, until no label moves;
    a block is then the ascending indices of one label, the least index of
    the block, and blocks come in the order of that index. A sweep reads the
    rows a quarter at a time, so no temporary outgrows one n x n boolean.
    """
    n = len(m)
    label = np.arange(n, dtype=np.min_scalar_type(n))
    step = -(-n // 4)
    while True:
        new = label.copy()
        for lo in range(0, n, step):
            near = np.where(m[lo : lo + step] != 0, label, n).min(axis=1)
            np.minimum(new[lo : lo + step], near, out=new[lo : lo + step])
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    order = np.argsort(label, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(label[order])) + 1)


def _block_eigh(m: np.ndarray, vectors: bool = False) -> list:
    """eigvalsh, or eigh when vectors is set, of a Hermitian matrix block by block.

    The blocks are those of its exact zero pattern (_pattern_blocks); blocks
    of one size are stacked, and each is one LAPACK call. Returns one
    (index, result) pair per size: index is a (k, size) array of the blocks'
    rows in m, and result the solver's output on the (k, size, size) stack.
    A single block is the matrix itself, so a dense matrix keeps the bits of
    one solve. The spectrum of m is the union of the blocks' spectra.
    """
    blocks = _pattern_blocks(m)
    if len(blocks) == 1:
        stacks = [(blocks[0][None], m[None])]
    else:
        by_size = {}
        for block in blocks:
            by_size.setdefault(len(block), []).append(block)
        index = [np.array(same) for same in by_size.values()]
        stacks = [(i, m[i[:, :, None], i[:, None, :]]) for i in index]
    solve = np.linalg.eigh if vectors else np.linalg.eigvalsh
    return [(i, solve(stack)) for i, stack in stacks]


def swap_matrix(d: int) -> np.ndarray:
    """Swap operator on C^d (x) C^d, |ab> -> |ba>: the identity with its column factors swapped."""
    return np.eye(d * d).reshape(d, d, d, d).transpose(0, 1, 3, 2).reshape(d * d, d * d)


def antisym_projector(d: int) -> np.ndarray:
    """Projector onto the antisymmetric subspace of C^d (x) C^d."""
    return 0.5 * (np.eye(d * d) - swap_matrix(d))


def sym_projector(d: int) -> np.ndarray:
    """Projector onto the symmetric subspace of C^d (x) C^d."""
    return 0.5 * (np.eye(d * d) + swap_matrix(d))
