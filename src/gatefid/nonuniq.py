"""Distinct channels with identical gate fidelity functions.

For d >= 4 there is a Hermitian, traceless perturbation direction in Choi
space whose partial transpose lives entirely on the antisymmetric subspace
of C^d (x) C^d. Adding it to the Choi matrix of any full-rank channel Q
changes the channel but not a single value of the gate fidelity, because
the fidelity only probes the symmetric subspace through psi (x) psi. This
module builds the perturbation, computes the largest admissible strength,
produces the perturbed partner R, verifies the pair and writes its
certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import serialize
from .channels import (
    ChoiMatrix,
    CptpReport,
    QuantumChannel,
    _check_dense_budget,
    choi_from_kraus,
    kraus_from_choi,
    validate_cptp,
)
from .linalg import (
    antisym_projector,
    hermitian_eig,
    partial_trace,
    partial_transpose,
    schatten_norm,
    vec,
)
from .sampling import DEFAULT_SEED, as_rng_spec, fidelity_samples

FULL_RANK_TOL = 1e-10


@dataclass(frozen=True)
class GOperator:
    """Fidelity-invisible perturbation direction in Choi space.

    j_g is the Hermitian traceless Choi-space direction; s is its partial
    transpose, supported on the antisymmetric subspace. Both partial traces
    of j_g vanish, so adding eps * j_g to a channel's Choi matrix preserves
    trace preservation for every eps.
    """

    d: int
    j_g: np.ndarray
    s: np.ndarray


def _pair_state(d: int, i: int, j: int) -> np.ndarray:
    """The antisymmetric combination (|ij> - |ji>)/sqrt(2)."""
    v = np.zeros(d * d, dtype=complex)
    v[i * d + j] = 1.0 / np.sqrt(2.0)
    v[j * d + i] = -1.0 / np.sqrt(2.0)
    return v


def build_g_operator(d: int) -> GOperator:
    """Construct the perturbation direction on C^d (x) C^d, d >= 4.

    Three pairs of orthonormal antisymmetric vectors built from basis
    states 0..3 are cross-coupled into S = sum_i (|a_i><b_i| + |b_i><a_i|);
    the perturbation is the partial transpose of S. Dimensions above 4
    simply carry the same vectors embedded in the first four basis states.
    """
    if d < 4:
        raise ValueError(f"the construction needs dimension >= 4, got {d}")
    _check_dense_budget(d * d, f"d={d} perturbation direction G")
    alpha = [_pair_state(d, 0, 1), _pair_state(d, 0, 2), _pair_state(d, 0, 3)]
    beta = [_pair_state(d, 2, 3), _pair_state(d, 1, 3), _pair_state(d, 1, 2)]
    s = np.zeros((d * d, d * d), dtype=complex)
    for a, b in zip(alpha, beta):
        s += np.outer(a, b.conj()) + np.outer(b, a.conj())
    j_g = partial_transpose(s, d, d, factor="second")
    return GOperator(d=d, j_g=j_g, s=s)


def max_epsilon(j_q: ChoiMatrix, g: GOperator) -> float:
    """Largest perturbation strength keeping J(Q) + eps * j_g positive.

    Equals lambda_min(J(Q)) / ||j_g||_inf, with both operators in the same
    trace-d Choi normalization, which makes the ratio convention-free. Q
    must be full rank; a singular Choi matrix admits no two-sided slack.
    """
    if (j_q.dim_in, j_q.dim_out) != (g.d, g.d):
        raise ValueError(
            f"dimension mismatch: Choi is {j_q.dim_in}->{j_q.dim_out}, "
            f"perturbation lives at d={g.d}"
        )
    vals, _ = hermitian_eig(j_q.matrix)
    lam_min = float(vals[0])
    if lam_min <= FULL_RANK_TOL:
        raise ValueError(
            f"channel is not full rank: smallest Choi eigenvalue {lam_min:.3e}"
        )
    return lam_min / schatten_norm(g.j_g, np.inf)


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
) -> PairVerification:
    """Measure how far two channels are from sharing a fidelity function.

    Each Choi matrix is built once and shared by the distance, the CPTP
    checks and R's depolarizing distance; choi_q, when the caller already
    holds choi_from_kraus(q), is used instead of a rebuild. The residual
    is taken over fidelity_samples at the seed, as `fidelity stats` draws.
    """
    spec = as_rng_spec(rng)
    jq = choi_from_kraus(q) if choi_q is None else choi_q
    jr = choi_from_kraus(r)
    # checked before sampling, so a refused tol costs no samples
    cptp_q = validate_cptp(jq, tol)
    cptp_r = validate_cptp(jr, tol)
    fq = fidelity_samples(q, None, n_samples, spec)
    fr = fidelity_samples(r, None, n_samples, spec)
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
    g: GOperator | None = None,
    n_verify: int = 10000,
    rng=DEFAULT_SEED,
) -> NonUniqPair:
    """Build R with Choi matrix J(Q) + eps * j_g and verify the pair.

    eps must lie in (0, max_epsilon] and defaults to max_epsilon, which
    gives the most distinguishable partner; g defaults to
    build_g_operator(q.dim_in). R is reconstructed through a fresh Kraus
    extraction so it is a bona fide channel, not just a Choi matrix.
    """
    if g is None:
        g = build_g_operator(q.dim_in)
    j_q = choi_from_kraus(q)
    limit = max_epsilon(j_q, g)
    if eps is None:
        eps = limit
    if not 0.0 < eps <= limit * (1.0 + 1e-12):
        raise ValueError(f"eps must lie in (0, {limit:.6g}], got {eps}")
    j_r = ChoiMatrix(
        dim_in=q.dim_in, dim_out=q.dim_out, matrix=j_q.matrix + eps * g.j_g
    )
    r = kraus_from_choi(j_r)
    verification = verify_pair(q, r, n_samples=n_verify, rng=rng, choi_q=j_q)
    return NonUniqPair(
        q=q, r=r, epsilon=float(eps), max_epsilon=limit, verification=verification
    )


def verification_fields(v: PairVerification) -> dict:
    """The evidence keys shared by a pair certificate and a verify artifact."""
    return {
        "fidelity_residual_max": v.fidelity_residual_max,
        "choi_distance": v.choi_distance,
        "depolarizing_distance_R": v.depolarizing_distance_r,
        "cptp_reports": {"q": v.cptp_q, "r": v.cptp_r},
    }


def pair_certificate(pair: NonUniqPair, p_or_channel_hash) -> dict:
    """The JSON certificate of a constructed pair.

    p_or_channel_hash names the base channel: the depolarizing parameter
    of Q, or the canonical hash of its file.
    """
    v = pair.verification
    return {
        "d": pair.q.dim_in,
        "p_or_channel_hash": p_or_channel_hash,
        "epsilon": pair.epsilon,
        "max_epsilon": pair.max_epsilon,
        **verification_fields(v),
        "choi_normalization": "trace_d",
        "n_samples": v.n_samples,
        "seed": v.seed,
        "q": serialize.channel_to_dict(pair.q),
        "r": serialize.channel_to_dict(pair.r),
    }


@dataclass(frozen=True)
class EqualityConditionsReport:
    """Split of a Choi-space difference against the two sufficient conditions
    for fidelity invisibility.

    positive_part - negative_part reconstructs the input (condition 1 is
    about both parts having matching output marginals, reported here as
    matrices plus their gap). antisym_residual is the norm of the partial
    transpose restricted to the symmetric subspace; zero means condition 2
    holds and the difference cannot show up in any gate fidelity value.
    """

    positive_part: np.ndarray
    negative_part: np.ndarray
    marginal_positive: np.ndarray
    marginal_negative: np.ndarray
    marginal_gap: float
    antisym_residual: float


def fidelity_equality_conditions(j_diff: np.ndarray, d: int) -> EqualityConditionsReport:
    """Diagnose whether a Hermitian Choi-space difference is fidelity-invisible.

    The PSD split is the canonical eigenvalue-sign decomposition. The
    condition-2 residual is ||(I - P_a) (partial transpose of j_diff)
    (I - P_a)||_2 with P_a the antisymmetric projector.
    """
    j_diff = np.asarray(j_diff)
    if j_diff.shape != (d * d, d * d):
        raise ValueError(f"expected a {d * d}x{d * d} matrix, got {j_diff.shape}")
    vals, vecs = hermitian_eig(j_diff)
    pos = (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T
    neg = (vecs * np.clip(-vals, 0.0, None)) @ vecs.conj().T
    marg_pos = partial_trace(pos, d, d, factor="first")
    marg_neg = partial_trace(neg, d, d, factor="first")
    pt = partial_transpose(j_diff, d, d, factor="second")
    p_sym = np.eye(d * d) - antisym_projector(d)
    residual = schatten_norm(p_sym @ pt @ p_sym, 2)
    return EqualityConditionsReport(
        positive_part=pos,
        negative_part=neg,
        marginal_positive=marg_pos,
        marginal_negative=marg_neg,
        marginal_gap=schatten_norm(marg_pos - marg_neg, np.inf),
        antisym_residual=residual,
    )


def depolarizing_distance(r) -> float:
    """Distance from R to the depolarizing family, min_p ||J(R) - J(dep_p)||_2.

    r is a square channel or its Choi matrix. The family is the segment
    p J(id) + (1 - p) J(mix), p in [0, 1], with J(id) = vec(I) vec(I)^dag
    and J(mix) = I/d. The squared objective is a convex quadratic in p, so
    the minimizer is the projection of J(R) - J(mix) onto J(id) - J(mix),
    whose squared norm is d^2 - 1, clipped to [0, 1]. Returns 0 (to float
    noise) exactly when R is depolarizing.
    """
    choi = choi_from_kraus(r) if isinstance(r, QuantumChannel) else r
    if choi.dim_in != choi.dim_out:
        raise ValueError(f"need a square channel, got {choi.dim_in}->{choi.dim_out}")
    d = choi.dim_in
    j_r = choi.matrix
    v_id = vec(np.eye(d))
    j_id = np.outer(v_id, v_id)
    j_mix = np.eye(d * d) / d
    p = np.vdot(j_id - j_mix, j_r - j_mix).real / (d * d - 1)
    p = float(np.clip(p, 0.0, 1.0))
    return schatten_norm(j_r - p * j_id - (1.0 - p) * j_mix, 2)
