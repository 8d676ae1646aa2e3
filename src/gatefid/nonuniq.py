"""Distinct channels with identical gate fidelity functions.

For d >= 4 there is a Hermitian, traceless perturbation direction in Choi
space whose partial transpose lives entirely on the antisymmetric subspace
of C^d (x) C^d. Adding it to the Choi matrix of any full-rank channel Q
changes the channel but not a single value of the gate fidelity, because
the fidelity only probes the symmetric subspace through psi (x) psi. This
module builds the perturbation, computes the largest admissible strength,
produces the perturbed partner R and verifies the pair. Eigenvalues are
taken block by block along the Choi matrices' exact zero patterns, and R's
Kraus set comes from the square root of J(R), so last-bit changes of J(R)
move R in its last bits only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    ChoiMatrix,
    CptpReport,
    QuantumChannel,
    _check_budget,
    _check_dense_budget,
    _sqrt_kraus,
    choi_from_kraus,
    validate_cptp,
)
from .fidelity import _sym_block
from .linalg import (
    _block_eigh,
    _check_hermitian,
    partial_trace,
    partial_transpose,
    schatten_norm,
)
from .sampling import DEFAULT_SEED, _block_fidelities, as_rng_spec

FULL_RANK_TOL = 1e-10


def _pair_state(d: int, i: int, j: int) -> np.ndarray:
    """The antisymmetric combination (|ij> - |ji>)/sqrt(2)."""
    v = np.zeros(d * d, dtype=complex)
    v[i * d + j] = 1.0 / np.sqrt(2.0)
    v[j * d + i] = -1.0 / np.sqrt(2.0)
    return v


def build_g_operator(d: int) -> np.ndarray:
    """The fidelity-invisible perturbation direction j_g on C^d (x) C^d, d >= 4.

    Three pairs of orthonormal antisymmetric vectors built from basis
    states 0..3 are cross-coupled into S = sum_i (|a_i><b_i| + |b_i><a_i|);
    j_g, a Hermitian traceless d^2 x d^2 matrix, is the partial transpose
    of S, and S is partial_transpose(j_g, d, d). Both partial traces of j_g
    vanish, so adding eps * j_g to a channel's Choi matrix preserves trace
    preservation for every eps. Dimensions above 4 simply carry the same
    vectors embedded in the first four basis states.
    """
    if d < 4:
        raise ValueError(f"the construction needs dimension >= 4, got {d}")
    _check_dense_budget(d * d, f"d={d} perturbation direction G")
    alpha = [_pair_state(d, 0, 1), _pair_state(d, 0, 2), _pair_state(d, 0, 3)]
    beta = [_pair_state(d, 2, 3), _pair_state(d, 1, 3), _pair_state(d, 1, 2)]
    s = np.zeros((d * d, d * d), dtype=complex)
    for a, b in zip(alpha, beta):
        s += np.outer(a, b.conj()) + np.outer(b, a.conj())
    return partial_transpose(s, d, d, factor="second")


def max_epsilon(j_q: ChoiMatrix) -> float:
    """Largest perturbation strength keeping J(Q) + eps * j_g positive.

    Equals lambda_min(J(Q)) / ||j_g||_inf, and ||j_g||_inf is 1 at every d
    (the d = 4 block, embedded), so it is lambda_min(J(Q)) of the d -> d
    Choi matrix, taken block by block along its exact zero pattern as
    validate_cptp takes it, with the same bits. Q must be full rank; a
    singular Choi matrix admits no two-sided slack.
    """
    if j_q.dim_out != j_q.dim_in:
        raise ValueError(f"dimension mismatch: Choi is {j_q.dim_in}->{j_q.dim_out}, not d->d")
    stacks = _block_eigh(_check_hermitian(j_q.matrix))
    lam_min = float(min(vals[:, 0].min() for _, vals in stacks))
    if lam_min <= FULL_RANK_TOL:
        raise ValueError(
            f"channel is not full rank: smallest Choi eigenvalue {lam_min:.3e}"
        )
    return lam_min


@dataclass(frozen=True)
class PairVerification:
    """Numerical evidence attached to a constructed pair."""

    fidelity_residual_max: float
    choi_distance: float
    depolarizing_distance_r: float
    cptp_q: CptpReport
    cptp_r: CptpReport
    n_samples: int
    seed: int


@dataclass(frozen=True)
class NonUniqPair:
    q: QuantumChannel
    r: QuantumChannel
    epsilon: float
    max_epsilon: float
    verification: PairVerification


def verify_pair(
    q: QuantumChannel,
    r: QuantumChannel,
    n_samples: int = 10000,
    rng=DEFAULT_SEED,
    tol: float = 1e-9,
    choi_q: ChoiMatrix | None = None,
    threads: int = 1,
) -> PairVerification:
    """Measure how far two channels are from sharing a fidelity function.

    Each Choi matrix is built once and shared by the distance, the CPTP
    checks and R's depolarizing distance; choi_q, when the caller already
    holds choi_from_kraus(q), is used instead of a rebuild. The residual
    is taken over the Haar states `fidelity stats` draws at the seed: each
    block is drawn once and evaluated for Q and for R, by threads workers,
    the calling thread among them. The samples of each channel are those
    of fidelity_samples at the seed, for any thread count.
    """
    if (q.dim_in, q.dim_out) != (r.dim_in, r.dim_out):
        raise ValueError("the two channels have different dimensions")
    _check_budget(8 * n_samples, f"array of {n_samples} fidelity samples")
    spec = as_rng_spec(rng)
    jq = choi_from_kraus(q) if choi_q is None else choi_q
    jr = choi_from_kraus(r)
    # checked before sampling, so a refused tol costs no samples
    cptp_q = validate_cptp(jq, tol)
    cptp_r = validate_cptp(jr, tol)
    fq, fr = _block_fidelities([(q, None), (r, None)], n_samples, spec, threads)
    return PairVerification(
        fidelity_residual_max=float(np.max(np.abs(fq - fr))),
        choi_distance=schatten_norm(jr.matrix - jq.matrix, 2),
        depolarizing_distance_r=depolarizing_distance(jr),
        cptp_q=cptp_q,
        cptp_r=cptp_r,
        n_samples=n_samples,
        seed=spec.seed,
    )


def perturb_channel(
    q: QuantumChannel,
    eps: float | None = None,
    *,
    n_verify: int = 10000,
    rng=DEFAULT_SEED,
    threads: int = 1,
) -> NonUniqPair:
    """Build R with Choi matrix J(Q) + eps * j_g and verify the pair.

    eps must lie in (0, max_epsilon] and defaults to max_epsilon, which
    gives the most distinguishable partner; j_g is
    build_g_operator(q.dim_in). R is a bona fide channel, not just a Choi
    matrix: its Kraus operators are the nonzero columns of S = sqrt(J(R)),
    formed block by block along J(R)'s exact zero pattern
    (channels._sqrt_kraus). S does not depend on the eigenbasis picked
    inside a degenerate eigenspace, so certificates from two installs
    differ in R's last bits only. For a depolarizing Q, R has one sparse
    operator per row of J(R). The pair is verified on threads sampling
    workers (see verify_pair).
    """
    if q.dim_in != q.dim_out:
        raise ValueError("the construction needs a square channel")
    _check_budget(8 * n_verify, f"array of {n_verify} fidelity samples")
    g = build_g_operator(q.dim_in)
    j_q = choi_from_kraus(q)
    limit = max_epsilon(j_q)
    if eps is None:
        eps = limit
    if not 0.0 < eps <= limit * (1.0 + 1e-12):
        raise ValueError(f"eps must lie in (0, {limit:.6g}], got {eps}")
    j_r = ChoiMatrix(
        dim_in=q.dim_in, dim_out=q.dim_out, matrix=j_q.matrix + eps * g
    )
    r = _sqrt_kraus(j_r)
    verification = verify_pair(
        q, r, n_samples=n_verify, rng=rng, choi_q=j_q, threads=threads
    )
    return NonUniqPair(
        q=q, r=r, epsilon=float(eps), max_epsilon=limit, verification=verification
    )


@dataclass(frozen=True)
class EqualityConditionsReport:
    """The two conditions under which a Choi-space difference X is
    fidelity-invisible.

    marginal_gap is ||tr_out X||_inf; zero means adding X keeps trace
    preservation. antisym_residual is ||P_sym X^T2 P_sym||_2, the norm of
    the partial transpose restricted to the symmetric subspace; zero means
    X cannot show up in any gate fidelity value.
    """

    marginal_gap: float
    antisym_residual: float


def fidelity_equality_conditions(j_diff: np.ndarray, d: int) -> EqualityConditionsReport:
    """Diagnose whether a Hermitian Choi-space difference is fidelity-invisible.

    The residual is the symmetric-form block of X, so it equals
    ||M_Q - M_R||_2 (see fidelity.symmetric_form) when X = J(Q) - J(R).
    """
    j_diff = np.asarray(j_diff)
    if j_diff.shape != (d * d, d * d):
        raise ValueError(f"expected a {d * d}x{d * d} matrix, got {j_diff.shape}")
    _check_hermitian(j_diff)
    return EqualityConditionsReport(
        marginal_gap=schatten_norm(partial_trace(j_diff, d, d, factor="first"), np.inf),
        antisym_residual=schatten_norm(_sym_block(j_diff.reshape(d, d, d, d)), 2),
    )


def depolarizing_distance(r) -> float:
    """Distance from R to the depolarizing family, min_p ||J(R) - J(dep_p)||_2.

    r is a square channel or its Choi matrix. The family is the segment
    p J(id) + (1 - p) J(mix), p in [0, 1], with J(id) = vec(I) vec(I)^dag
    and J(mix) = I/d. The squared objective is a convex quadratic in p, so
    the minimizer is the projection of J(R) - J(mix) onto J(id) - J(mix),
    whose squared norm is d^2 - 1, clipped to [0, 1]. The residual is formed
    in place on one copy of J(R), the only Choi-size array allocated.
    Returns 0 (to float noise) exactly when R is depolarizing.
    """
    choi = choi_from_kraus(r) if isinstance(r, QuantumChannel) else r
    if choi.dim_in != choi.dim_out:
        raise ValueError(f"need a square channel, got {choi.dim_in}->{choi.dim_out}")
    d = choi.dim_in
    residual = choi.matrix.copy()
    ii = np.arange(d) * (d + 1)  # vec(I) = sum_i |ii>, so J(id) is 1 on (ii, ll)
    diagonal = np.einsum("ii->i", residual)  # a writable view
    # <J(id) - J(mix), J - J(mix)> = <vec(I)|J|vec(I)> - tr J / d
    p = (residual[np.ix_(ii, ii)].sum() - diagonal.sum() / d).real / (d * d - 1)
    p = float(np.clip(p, 0.0, 1.0))
    residual[np.ix_(ii, ii)] -= p
    diagonal -= (1.0 - p) / d
    return schatten_norm(residual, 2)
