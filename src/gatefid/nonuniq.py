"""Distinct channels with identical gate fidelity functions.

For d >= 4 there is a Hermitian, traceless perturbation direction in Choi
space whose partial transpose lives entirely on the antisymmetric subspace
of C^d (x) C^d. Adding it to the Choi matrix of any full-rank channel Q
changes the channel but not a single value of the gate fidelity, because
the fidelity only probes the symmetric subspace through psi (x) psi. This
module builds the perturbation, computes the largest admissible strength,
produces the perturbed partner R, and verifies the pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import (
    ChoiMatrix,
    CptpReport,
    QuantumChannel,
    choi_from_kraus,
    depolarizing,
    kraus_from_choi,
    validate_cptp,
)
from .fidelity import gate_fidelity_batch
from .linalg import (
    antisym_projector,
    hermitian_eig,
    partial_trace,
    partial_transpose,
    schatten_norm,
)
from .sampling import DEFAULT_SEED, as_rng_spec, haar_states

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
    lam_min = float(hermitian_eig(j_q.matrix).eigenvalues[0])
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
) -> PairVerification:
    """Measure how far two channels are from sharing a fidelity function."""
    spec = as_rng_spec(rng)
    states = haar_states(q.dim_in, n_samples, spec)
    fq = gate_fidelity_batch(q, None, states)
    fr = gate_fidelity_batch(r, None, states)
    jq = choi_from_kraus(q).matrix
    jr = choi_from_kraus(r).matrix
    return PairVerification(
        fidelity_residual_max=float(np.max(np.abs(fq - fr))),
        choi_distance=schatten_norm(jr - jq, 2),
        cptp_q=validate_cptp(q, tol),
        cptp_r=validate_cptp(r, tol),
        n_samples=n_samples,
        seed=spec.seed,
    )


def perturb_channel(
    q: QuantumChannel,
    eps: float,
    g: GOperator,
    n_verify: int = 10000,
    rng=DEFAULT_SEED,
) -> NonUniqPair:
    """Build R with Choi matrix J(Q) + eps * j_g and verify the pair.

    eps must lie in (0, max_epsilon]; the upper end gives the most
    distinguishable partner. R is reconstructed through a fresh Kraus
    extraction so it is a bona fide channel, not just a Choi matrix.
    """
    j_q = choi_from_kraus(q)
    limit = max_epsilon(j_q, g)
    if not 0.0 < eps <= limit * (1.0 + 1e-12):
        raise ValueError(f"eps must lie in (0, {limit:.6g}], got {eps}")
    j_r = ChoiMatrix(
        dim_in=q.dim_in, dim_out=q.dim_out, matrix=j_q.matrix + eps * g.j_g
    )
    r = kraus_from_choi(j_r)
    verification = verify_pair(q, r, n_samples=n_verify, rng=rng)
    return NonUniqPair(
        q=q, r=r, epsilon=float(eps), max_epsilon=limit, verification=verification
    )


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
    eig = hermitian_eig(j_diff)
    vals, vecs = eig.eigenvalues, eig.eigenvectors
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


def _golden_min(f, lo: float, hi: float, tol: float):
    """Golden-section scan for a unimodal scalar function on [lo, hi].

    Returns (argmin, min). Endpoints are always probed so boundary minima
    are found exactly.
    """
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - inv_phi * (b - a)
    x2 = a + inv_phi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv_phi * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv_phi * (b - a)
            f2 = f(x2)
    candidates = [(f(lo), lo), (f(hi), hi), (f1, x1), (f2, x2)]
    best, arg = min(candidates)
    return arg, best


def depolarizing_distance(r: QuantumChannel, tol: float = 1e-10) -> float:
    """Distance from R to the depolarizing family, min_p ||J(R) - J(dep_p)||_2.

    The family is affine in p, so the squared objective is a convex
    quadratic; a golden-section scan over p in [0, 1] to tolerance 1e-10
    locates the minimizer including boundary cases. Returns 0 (to float
    noise) exactly when R is depolarizing.
    """
    if r.dim_in != r.dim_out:
        raise ValueError(f"need a square channel, got {r.dim_in}->{r.dim_out}")
    d = r.dim_in
    j_r = choi_from_kraus(r).matrix
    j_id = choi_from_kraus(depolarizing(1.0, d)).matrix
    j_mix = choi_from_kraus(depolarizing(0.0, d)).matrix

    def objective(p: float) -> float:
        return schatten_norm(j_r - p * j_id - (1.0 - p) * j_mix, 2)

    _, best = _golden_min(objective, 0.0, 1.0, tol)
    return float(best)
