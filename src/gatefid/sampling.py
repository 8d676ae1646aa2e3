"""Haar-state sampling and Monte-Carlo statistics of the gate fidelity.

Sample streams are carved into fixed blocks of 4096 states. Block b of a
run with seed s draws from PCG64 seeded by SeedSequence(s, spawn_key=(tag,
b)), so the stream is reproducible across platforms and independent of how
blocks are distributed over worker threads. Distinct tags keep the main,
net-building and validation sample spaces disjoint.

A state is its block's next 2d standard normals, read as the interleaved
real and imaginary parts of d complex entries, over its norm. A normal
stream drawn in pieces equals the stream drawn whole, so a block is the
sequence of its tiles and no tile size changes the bits.

One route skips the states. For a unitary B with eigenvalues lambda_i, a
Haar state's weights |<v_i|phi>|^2 on B's eigenvectors are d i.i.d. Exp(1)
variables x_i over their sum, and F = |sum_i lambda_i x_i|^2 / (sum_i x_i)^2
in distribution. There a sample is its block's next d standard
exponentials, summed against (Re lambda, Im lambda, 1) in one
(rows, d) x (d, 3) product per tile: O(d) per state, not the O(d^2) of a
state and its kernel row. lambda is either given, as a convergence
report's family may give it in closed form, or taken by np.linalg.eigvals
when fidelity_samples' channel, folded with its target, is one unitary;
eigvals' last bits may differ between numpy and LAPACK builds. Two pairs
(verify_pair), higher ranks and rank-1 maps that are not unitary keep the
Haar states.

Sampling with `threads` workers runs the calling thread and threads - 1
pool workers, which take blocks from one shared counter. A worker draws
each tile of a block into one buffer of its own and evaluates it before
drawing the next. A tile is min(BLOCK_SIZE, max(2, _HAAR_TILE_ENTRIES // d))
rows (1 MiB of states, half that of exponentials): a whole block up to
d = 16, a quarter at d = 64. Normalizing takes at most 1 MiB more, freed
before the evaluation.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channels import _UNITARY_TOL, QuantumChannel, _check_budget, _is_unitary
from .fidelity import (
    LIPSCHITZ_CONSTANT,
    _check_dim,
    _clamp_unit,
    _row_tiles,
    average_gate_fidelity,
    fidelity_kernel,
    gate_fidelity_batch,
    variance_bounds,
)

BLOCK_SIZE = 4096
ALGORITHM_ID = "pcg64-interleaved-spectral-block4096"

# complex entries per tile (1 MiB): _haar_block draws in pieces of this many,
# and a worker evaluates min(BLOCK_SIZE, max(2, _HAAR_TILE_ENTRIES // d)) rows
# at once. Not fewer: two workers trade the interpreter lock at each numpy
# call, and 256-row tiles at d = 16 and 64 cost report convergence about 10%
_HAAR_TILE_ENTRIES = 1 << 16

# documented default seed for every seeded entry point
DEFAULT_SEED = 0x5EED

# Levy concentration constant for Lipschitz functions on the unit sphere.
LEVY_C1 = 1.0 / (9.0 * np.pi**3 * np.log(2.0))

# stream tags; see module docstring
TAG_MAIN = 0
TAG_VALIDATE = 2
TAG_OPTIMIZER = 3
TAG_FAMILY = 4
TAG_NET = 5


@dataclass(frozen=True)
class RngSpec:
    """Seed plus the name of the fixed generator scheme it feeds."""

    seed: int
    algorithm_id: str = ALGORITHM_ID


def as_rng_spec(rng) -> RngSpec:
    if isinstance(rng, RngSpec):
        spec = rng
    else:
        spec = RngSpec(seed=int(rng))
    if spec.algorithm_id != ALGORITHM_ID:
        raise ValueError(
            f"unknown rng algorithm {spec.algorithm_id!r}, expected {ALGORITHM_ID!r}"
        )
    if not 0 <= spec.seed < 2**64:
        raise ValueError(f"seed must fit in 64 unsigned bits, got {spec.seed}")
    return spec


def generator(spec: RngSpec, *key: int) -> np.random.Generator:
    """The PCG64 stream for one (tag, block) cell of a seeded run."""
    spec = as_rng_spec(spec)
    ss = np.random.SeedSequence(entropy=spec.seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.PCG64(ss))


def _haar_block(g: np.random.Generator, z: np.ndarray) -> np.ndarray:
    """z, a C-contiguous complex (m, d) array, filled with m Haar states.

    They are g's next 2md standard normals, read as interleaved real and
    imaginary parts, each row over its norm: bit for bit
    z / np.linalg.norm(z, axis=1, keepdims=True). They are drawn and
    normalized in pieces of _HAAR_TILE_ENTRIES entries, so the scratch
    stays one piece, freed on return.
    """
    for start, stop in _row_tiles(len(z), max(2, _HAAR_TILE_ENTRIES // z.shape[1])):
        tile = z[start:stop]
        g.standard_normal(out=tile.view(np.float64))
        # the squared row norms exactly as np.linalg.norm forms them
        square = np.conjugate(tile)
        np.multiply(square, tile, out=square)
        inv_norm = 1.0 / np.sqrt(np.add.reduce(square.real, axis=1))
        # dividing by a real equals multiplying both parts by its reciprocal
        parts = tile.view(np.float64)
        parts *= inv_norm[:, None]
    return z


def haar_states(d: int, n: int, rng, tag: int = TAG_MAIN) -> np.ndarray:
    """n Haar-random states as rows of an (n, d) array, drawn into it block by block."""
    if d < 1 or n < 1:
        raise ValueError("d and n must be positive")
    spec = as_rng_spec(rng)
    states = np.empty((n, d), dtype=complex)
    for block, start in enumerate(range(0, n, BLOCK_SIZE)):
        _haar_block(generator(spec, tag, block), states[start : start + BLOCK_SIZE])
    return states


def fidelity_samples(
    e: QuantumChannel, u, n: int, rng, threads: int = 1
) -> np.ndarray:
    """Gate fidelity at n Haar states, evaluated block by block.

    States, or a unitary's spectral weights, are generated and consumed
    tile by tile, so a worker holds at most one tile of them (see the
    module docstring). The evaluation path is chosen and built once,
    before the first block. threads counts the workers, the calling
    thread among them. The returned array is identical for any thread
    count because blocks land at fixed offsets.
    """
    (out,) = _block_fidelities([(e, u)], n, rng, threads)
    return out


def _tile_rows(n: int, d: int) -> tuple:
    """A worker's tile rows at d and the rows of its buffer, which holds the
    one-row remainder _row_tiles joins to the tile before it."""
    rows = min(BLOCK_SIZE, max(2, _HAAR_TILE_ENTRIES // d))
    return rows, min(n, rows + 1, BLOCK_SIZE)


def _block_fidelities(pairs, n: int, rng, threads: int, spectrum=None) -> list:
    """Gate fidelity of every (channel, target) pair at the same n Haar states.

    Each tile of a block is drawn once and evaluated at once by every
    pair's kernel, built once before the first block; a pair may carry its
    kernel, already built, as a third item. One pair whose folded channel
    is a unitary draws exponentials instead of states (see
    _spectral_weights), as does a spectrum, the eigenvalues of a unitary
    measured against the identity, given with no pairs; it returns one
    array. The calling thread and threads - 1 pool workers
    take blocks from one shared counter; each block's values land at its
    fixed offset of one array per pair, so the arrays do not depend on the
    thread count. After a block raises, no
    worker starts another, and the exception reaches the caller,
    unchanged, once every worker has stopped.
    """
    spec = as_rng_spec(rng)
    if n < 1:
        raise ValueError(f"sample count must be positive, got {n}")
    _check_budget(8 * n, f"array of {n} fidelity samples")
    kernels = [held[0] if held else fidelity_kernel(e, u) for e, u, *held in pairs]
    weights = _spectral_weights(kernels, spectrum)
    d = len(spectrum) if spectrum is not None else pairs[0][0].dim_in
    rows, buffer_rows = _tile_rows(n, d)
    outs = [np.empty(n) for _ in pairs] or [np.empty(n)]
    n_blocks = math.ceil(n / BLOCK_SIZE)
    counter = iter(range(n_blocks))
    lock = threading.Lock()
    failed = False

    def claim():
        with lock:
            return None if failed else next(counter, None)

    def drain():
        # each worker draws every tile it takes into one buffer of its own;
        # a fresh array per block left freed blocks resident in the calling
        # thread's malloc arena (report convergence at d = 16, 64 and 256
        # peaked at 113 MB of RSS against 82 MB with one buffer per worker)
        nonlocal failed
        dtype = complex if weights is None else float
        buffer = np.empty((buffer_rows, d), dtype=dtype)
        while (block := claim()) is not None:
            start = block * BLOCK_SIZE
            count = min(BLOCK_SIZE, n - start)
            try:
                g = generator(spec, TAG_MAIN, block)
                for t0, t1 in _row_tiles(count, rows):
                    if weights is not None:
                        # r = sum_i (Re lambda_i, Im lambda_i, 1) x_i per row
                        r = g.standard_exponential(out=buffer[: t1 - t0]) @ weights
                        t = (r[:, 0] ** 2 + r[:, 1] ** 2) / r[:, 2] ** 2
                        outs[0][start + t0 : start + t1] = _clamp_unit(t)
                        continue
                    states = _haar_block(g, buffer[: t1 - t0])
                    for (e, u, *_), kernel, out in zip(pairs, kernels, outs):
                        out[start + t0 : start + t1] = gate_fidelity_batch(
                            e, u, states, kernel=kernel
                        )
            except BaseException:
                with lock:
                    failed = True
                raise

    helpers = min(threads, n_blocks) - 1
    if helpers <= 0:
        drain()
        return outs
    pool = ThreadPoolExecutor(max_workers=helpers)
    try:
        futures = [pool.submit(drain) for _ in range(helpers)]
        drain()
    finally:
        pool.shutdown()
    for future in futures:
        future.result()
    return outs


def _spectral_weights(kernels, lam=None):
    """The (d, 3) columns Re lambda, Im lambda, 1 of a unitary's eigenvalues
    lambda (the spectral route of the module docstring): lam when given,
    else B's for one pair whose folded channel is one unitary B, else None.
    """
    if lam is None:
        if len(kernels) != 1 or len(kernels[0].ops) != 1 or not _is_unitary(kernels[0].ops[0]):
            return None
        lam = np.linalg.eigvals(kernels[0].ops[0])
    return np.stack([lam.real, lam.imag, np.ones(len(lam))], axis=1)


def _checked_spectrum(values, d: int) -> np.ndarray:
    """values as the d eigenvalues of a unitary, or a ValueError.

    | |lambda|^2 - 1 | is the gap ||U^dag U - I|| of a normal U with that
    spectrum, held to _UNITARY_TOL as _is_unitary holds it.
    """
    lam = np.asarray(values, dtype=complex)
    if lam.shape != (d,):
        raise ValueError(f"family returned a spectrum of shape {lam.shape} at d={d}")
    if not np.all(np.isfinite(lam)):
        raise ValueError(f"family returned a non-finite eigenvalue at d={d}")
    if np.max(np.abs(lam.real**2 + lam.imag**2 - 1.0)) > _UNITARY_TOL:
        raise ValueError(f"family returned an eigenvalue off the unit circle at d={d}")
    return lam


def _spectrum_average(lam: np.ndarray) -> float:
    """average_gate_fidelity of a unitary with eigenvalues lam: its one Kraus
    operator has trace sum_i lambda_i, so (|sum_i lambda_i|^2 + d) / (d^2 + d)."""
    d = len(lam)
    return float(_clamp_unit((abs(lam.sum()) ** 2 + d) / (d * d + d)))


@dataclass(frozen=True)
class FidelityStats:
    """Summary of a Monte-Carlo fidelity run. variance is the unbiased one."""

    n: int
    mean: float
    variance: float
    min: float
    max: float
    stderr: float
    seed: RngSpec


def mc_fidelity_stats(
    e: QuantumChannel, u, n: int, rng, threads: int = 1
) -> FidelityStats:
    """Fidelity statistics over n i.i.d. Haar states, deterministic per seed."""
    if n < 2:
        raise ValueError(f"need at least 2 samples for a variance, got {n}")
    spec = as_rng_spec(rng)
    f = fidelity_samples(e, u, n, spec, threads=threads)
    var = float(np.var(f, ddof=1))
    return FidelityStats(
        n=n,
        mean=float(np.mean(f)),
        variance=var,
        min=float(np.min(f)),
        max=float(np.max(f)),
        stderr=float(np.sqrt(var / n)),
        seed=spec,
    )


@dataclass(frozen=True)
class ConcentrationBound:
    """Levy tail bound on deviations of the fidelity from its Haar mean."""

    d: int
    epsilon: float
    K: float
    two_sided_bound: float
    one_sided_bound: float


def levy_bound(
    d: int, epsilon: float, K: float = LIPSCHITZ_CONSTANT
) -> ConcentrationBound:
    """P[|F - F_mean| >= eps] <= 4 exp(-2 d c1 eps^2 / K^2), c1 = LEVY_C1.

    With the fidelity Lipschitz constant K = 3 sqrt(2) the exponent reduces
    to -d eps^2 / (81 pi^3 ln 2). c1 is the conservative classical constant.
    """
    _check_dim(d)
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if not 0 < K < math.inf:
        raise ValueError(f"Lipschitz constant K must be positive and finite, got {K}")
    try:
        with np.errstate(all="ignore"):  # a NaN exponent is handled below
            exponent = -2.0 * d * LEVY_C1 * epsilon**2 / K**2
    except OverflowError:  # epsilon**2 or K**2 above float range
        exponent = math.nan
    ratio = float(epsilon) / float(K)
    if math.isinf(2.0 * d):
        # -2 d overflows to -inf, which made the bound 0, or NaN against a
        # square that underflows to 0; d times the ratio, then the ratio
        # again, saturates only where the bound is 0 and underflows only
        # where it is 4
        exponent = -2.0 * float(LEVY_C1) * (ratio * d * ratio)
    elif math.isnan(exponent):  # or both squares below it
        # the ratio squared as a product of Python floats saturates to inf or 0
        exponent = -2.0 * d * float(LEVY_C1) * (ratio * ratio)
    two = 4.0 * math.exp(exponent)
    return ConcentrationBound(
        d=d,
        epsilon=float(epsilon),
        K=float(K),
        two_sided_bound=two,
        one_sided_bound=0.5 * two,
    )


def convergence_report(
    e_family,
    d_list,
    n: int,
    rng,
    eps_grid=(0.25, 0.1, 0.05),
    threads: int = 1,
) -> list:
    """Per-dimension fidelity statistics for a family of channels.

    e_family(d, generator) must return either a square channel of dimension
    d or the d eigenvalues of a unitary channel, as a 1-D complex array,
    each measured here against the identity target. A spectrum is sampled
    on the spectral route (see the module docstring) with no d x d
    operator, and its average is (|sum_i lambda_i|^2 + d) / (d^2 + d); it
    must be finite with |lambda_i| = 1 within _UNITARY_TOL. Before any
    family call, the spectral route's working set at the largest d (the
    eigenvalues, their (d, 3) weights and every worker's tile) is held to
    the dense budget. One row per (d, eps) pair:
    sample mean/variance/std, both variance bounds, the Levy bound at eps
    and the empirical deviation fraction around the closed-form average.
    The Levy bound column is reported even where it exceeds 1 (small d);
    honesty about vacuous bounds is part of the point of the report.
    """
    d_list = list(d_list)
    if not d_list:
        raise ValueError("d_list must name at least one dimension")
    if d_list != sorted(d_list):
        raise ValueError("d_list must be ascending")
    if not eps_grid:
        raise ValueError("eps_grid must hold at least one epsilon")
    if n < 2:
        raise ValueError(f"need at least 2 samples for a variance, got {n}")
    _check_budget(8 * n, f"array of {n} fidelity samples")
    spec = as_rng_spec(rng)
    # every bound and size check runs before the first sample, so bad input costs none
    bounds = [(d, variance_bounds(d), [levy_bound(d, eps) for eps in eps_grid]) for d in d_list]
    # at the largest d: complex eigenvalues, (d, 3) real weights and one
    # real tile for each of the workers that take a block
    top, workers = d_list[-1], max(1, min(threads, math.ceil(n / BLOCK_SIZE)))
    _check_budget(8 * top * (2 + 3 + workers * _tile_rows(n, top)[1]), f"d={top} family spectrum")
    rows = []
    for d, var_bounds, levys in bounds:
        ch = e_family(d, generator(spec, TAG_FAMILY, d))
        if isinstance(ch, QuantumChannel):
            if ch.dim_in != d or ch.dim_out != d:
                raise ValueError(f"family returned a {ch.dim_in}->{ch.dim_out} channel at d={d}")
            f = fidelity_samples(ch, None, n, spec, threads=threads)
            avg = average_gate_fidelity(ch)
        else:
            lam = _checked_spectrum(ch, d)
            (f,) = _block_fidelities([], n, spec, threads, lam)
            avg = _spectrum_average(lam)
        mean = float(np.mean(f))
        var = float(np.var(f, ddof=1))
        for eps, levy in zip(eps_grid, levys):
            rows.append(
                {
                    "d": d,
                    "n": n,
                    "mean": mean,
                    "variance": var,
                    "std": float(np.sqrt(var)),
                    "var_bound_exact": var_bounds.variance_bound_exact,
                    "var_bound_conc": var_bounds.variance_bound_concentration,
                    "eps": float(eps),
                    "levy_bound": levy.two_sided_bound,
                    "emp_fraction": float(np.mean(np.abs(f - avg) >= eps)),
                    "seed": spec.seed,
                }
            )
    return rows
