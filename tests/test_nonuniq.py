import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gatefid import nonuniq
from gatefid.channels import (
    ChoiMatrix,
    _sqrt_kraus,
    adjoint,
    channel_from_kraus,
    choi_from_kraus,
    depolarizing,
    random_channel,
    unitary_channel,
    validate_cptp,
)
from gatefid.fidelity import gate_fidelity_batch, symmetric_form
from gatefid.linalg import (
    antisym_projector,
    partial_trace,
    partial_transpose,
    schatten_norm,
    sym_projector,
)
from gatefid.nonuniq import (
    build_g_operator,
    depolarizing_distance,
    fidelity_equality_conditions,
    max_epsilon,
    perturb_channel,
    verify_pair,
)
from gatefid.sampling import BLOCK_SIZE, fidelity_samples, haar_states

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SRC = Path(__file__).resolve().parent.parent / "src"


def _refuse(*args, **kwargs):
    raise AssertionError("work began before the input check")


def test_import_leaves_serialize_unloaded():
    # the library builds and checks pairs; only the CLI writes artifacts
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = "import sys, gatefid; print('gatefid.serialize' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    assert done.stdout.strip() == "False"


def _full_rank_channel(d, seed):
    # a Stinespring sample with full Kraus rank is full rank in Choi space
    ch = random_channel(d, d * d, rng=seed)
    lam_min = np.linalg.eigvalsh(choi_from_kraus(ch).matrix)[0]
    assert lam_min > 1e-6, "seed produced a nearly singular channel, pick another"
    return ch


class TestGOperator:
    def test_hermitian_traceless(self):
        for d in (4, 5, 7):
            g = build_g_operator(d)
            assert np.max(np.abs(g - g.conj().T)) < 1e-14
            assert abs(np.trace(g)) < 1e-14

    def test_both_partial_traces_vanish(self):
        for d in (4, 6):
            g = build_g_operator(d)
            for factor in ("first", "second"):
                marg = partial_trace(g, d, d, factor=factor)
                assert np.max(np.abs(marg)) < 1e-14

    def test_s_supported_on_antisymmetric_subspace(self):
        s = partial_transpose(build_g_operator(4), 4, 4)
        p = antisym_projector(4)
        assert np.array_equal(p @ s @ p, s)

    def test_s_spectrum(self):
        # six nonzero eigenvalues, three at +1 and three at -1
        g = build_g_operator(4)
        vals = np.linalg.eigvalsh(partial_transpose(g, 4, 4))
        nonzero = vals[np.abs(vals) > 1e-12]
        assert len(nonzero) == 6
        assert np.allclose(np.sort(nonzero), [-1, -1, -1, 1, 1, 1], atol=1e-12)

    def test_operator_norms(self):
        # frozen regression values: sup norm 1, Frobenius norm sqrt(6)
        g = build_g_operator(4)
        assert abs(schatten_norm(g, np.inf) - 1.0) < 1e-12
        assert abs(schatten_norm(g, 2) - np.sqrt(6.0)) < 1e-12

    def test_embedding_keeps_norms(self):
        # max_epsilon rests on ||j_g||_inf = 1 at every d
        for d in (5, 6, 8, 16):
            g = build_g_operator(d)
            assert abs(schatten_norm(g, np.inf) - 1.0) < 1e-12
            assert abs(schatten_norm(g, 2) - np.sqrt(6.0)) < 1e-12

    def test_partial_transpose_links_the_two_forms(self):
        g = build_g_operator(4)
        s = partial_transpose(g, 4, 4)
        assert np.array_equal(partial_transpose(s, 4, 4, factor="second"), g)

    def test_small_dimension_rejected(self):
        for d in (2, 3):
            with pytest.raises(ValueError):
                build_g_operator(d)

    @pytest.mark.parametrize("d", [4, 5, 8, 16, 32])
    def test_bits_of_the_outer_product_construction(self, d):
        # the six pair states' outer products, summed and partially
        # transposed, as j_g was first built
        def pair_state(i, j):
            v = np.zeros(d * d, dtype=complex)
            v[i * d + j] = 1.0 / np.sqrt(2.0)
            v[j * d + i] = -1.0 / np.sqrt(2.0)
            return v

        s = np.zeros((d * d, d * d), dtype=complex)
        for (i, j), (k, l) in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))):
            a, b = pair_state(i, j), pair_state(k, l)
            s += np.outer(a, b.conj()) + np.outer(b, a.conj())
        expected = partial_transpose(s, d, d, factor="second")
        g = build_g_operator(d)
        assert g.flags.c_contiguous and g.tobytes() == expected.tobytes()
        assert np.count_nonzero(g) == 24

    def test_refused_above_dense_budget_before_allocation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("allocated past the dense-operator budget check")

        monkeypatch.setattr(np, "zeros", refuse)
        with pytest.raises(ValueError, match=r"d=256 perturbation direction G needs 64 GiB"):
            build_g_operator(256)

    def test_perturbation_is_fidelity_invisible_pointwise(self):
        # tr[ PT(j_g) (psi psi (x) psi psi) ] = 0 for every product state
        g = build_g_operator(4)
        states = haar_states(4, 200, rng=90)
        pt = partial_transpose(g, 4, 4)
        for psi in states:
            proj = np.outer(psi, psi.conj())
            value = np.trace(pt @ np.kron(proj, proj))
            assert abs(value) < 1e-12


class TestMaxEpsilon:
    def test_depolarizing_closed_form(self):
        # lambda_min of J(dep_p) is (1-p)/d and ||j_g||_inf is 1
        for p, d in ((0.2, 4), (0.5, 4), (0.5, 5), (0.9, 4)):
            j = choi_from_kraus(depolarizing(p, d))
            assert abs(max_epsilon(j) - (1.0 - p) / d) < 1e-12

    def test_smallest_choi_eigenvalue_without_svd(self, monkeypatch):
        # ||j_g||_inf = 1, so the limit is lambda_min(J(Q)) with no norm taken
        channels = [depolarizing(0.5, d) for d in (4, 5, 16)] + [_full_rank_channel(5, 94)]
        chois = [choi_from_kraus(q) for q in channels]
        expected = [validate_cptp(j).min_eigenvalue for j in chois]
        # np.linalg.norm(m, 2) reaches the SVD through numpy's implementation module
        monkeypatch.setattr(np.linalg._linalg, "svd", _refuse)
        monkeypatch.setattr(np.linalg, "svd", _refuse)
        assert [max_epsilon(j) for j in chois] == expected

    def test_rank_deficient_rejected(self):
        j = choi_from_kraus(depolarizing(1.0, 4))
        with pytest.raises(ValueError, match="full rank"):
            max_epsilon(j)

    def test_wrong_shape_direction_refused(self):
        # a 2 -> 8 Choi matrix is 16 x 16 too, but not a d = 4 one
        wide = choi_from_kraus(channel_from_kraus([np.eye(8)[:, :2]]))
        with pytest.raises(ValueError, match=r"dimension mismatch: Choi is 2->8"):
            max_epsilon(wide)

    def test_perturbed_choi_stays_cptp_at_limit(self):
        g = build_g_operator(4)
        for seed in (91, 92):
            q = _full_rank_channel(4, seed)
            j_q = choi_from_kraus(q)
            eps = max_epsilon(j_q)
            shifted = ChoiMatrix(4, 4, j_q.matrix + eps * g)
            report = validate_cptp(shifted, tol=1e-9)
            assert report.is_cp and report.is_tp

    def test_overshoot_breaks_positivity_for_some_channel(self):
        # the limit is sharp for channels whose bottom eigenvector meets the
        # perturbation; the depolarizing channel is such a witness
        g = build_g_operator(4)
        q = depolarizing(0.5, 4)
        j_q = choi_from_kraus(q)
        eps = max_epsilon(j_q)
        shifted = ChoiMatrix(4, 4, j_q.matrix + 1.5 * eps * g)
        report = validate_cptp(shifted, tol=1e-9)
        assert not report.is_cp


class TestPerturbChannel:
    def test_depolarizing_pair_at_limit(self):
        q = depolarizing(0.5, 4)
        pair = perturb_channel(q, 0.125, n_verify=5000, rng=93)
        assert abs(pair.max_epsilon - 0.125) < 1e-12
        v = pair.verification
        assert v.fidelity_residual_max <= 1e-10
        assert v.cptp_q.is_cp and v.cptp_q.is_tp
        assert v.cptp_r.is_cp and v.cptp_r.is_tp
        # choi distance at full strength is eps * ||j_g||_2 = 0.125 sqrt(6)
        assert abs(v.choi_distance - 0.125 * np.sqrt(6.0)) < 1e-10
        assert v.choi_distance > 1e-6

    def test_random_full_rank_d5(self):
        q = _full_rank_channel(5, 94)
        eps = max_epsilon(choi_from_kraus(q))
        pair = perturb_channel(q, eps, n_verify=3000, rng=95)
        assert pair.verification.fidelity_residual_max <= 1e-10
        assert pair.verification.cptp_r.is_cp and pair.verification.cptp_r.is_tp
        assert pair.verification.choi_distance > 1e-6

    def test_defaults_to_the_largest_strength(self):
        q = depolarizing(0.6, 4)
        pair = perturb_channel(q, n_verify=500, rng=107)
        assert pair.epsilon == pair.max_epsilon
        assert abs(pair.epsilon - 0.1) < 1e-12
        explicit = perturb_channel(q, pair.max_epsilon, n_verify=500, rng=107)
        assert explicit.verification == pair.verification

    def test_partial_strength(self):
        q = depolarizing(0.6, 4)
        pair = perturb_channel(q, 0.04, n_verify=2000, rng=96)
        assert abs(pair.verification.choi_distance - 0.04 * np.sqrt(6.0)) < 1e-10

    def test_non_square_channel_refused_before_g(self, monkeypatch):
        monkeypatch.setattr(nonuniq, "build_g_operator", _refuse)
        monkeypatch.setattr(nonuniq, "choi_from_kraus", _refuse)
        wide = channel_from_kraus([np.eye(3)[:, :2]])
        with pytest.raises(ValueError, match="the construction needs a square channel"):
            perturb_channel(wide)

    def test_stale_g_operand_refused(self):
        # j_g is always build_g_operator(d); passing it is a TypeError, not a sample count
        q = depolarizing(0.5, 4)
        g = build_g_operator(4)
        with pytest.raises(TypeError):
            perturb_channel(q, 0.125, g)
        with pytest.raises(TypeError):
            max_epsilon(choi_from_kraus(q), g)

    def test_epsilon_validation(self):
        q = depolarizing(0.5, 4)
        with pytest.raises(ValueError):
            perturb_channel(q, 0.0)
        with pytest.raises(ValueError):
            perturb_channel(q, 0.2)
        with pytest.raises(ValueError):
            perturb_channel(q, -0.1)

    def test_partner_is_not_the_adjoint(self):
        # R differs from Q and also from Q's adjoint, so the pair is not a
        # relabeling; for self-adjoint Q the two distances coincide
        q = depolarizing(0.5, 4)
        pair = perturb_channel(q, 0.125, n_verify=1000, rng=97)
        j_r = choi_from_kraus(pair.r).matrix
        j_q_adj = choi_from_kraus(adjoint(q)).matrix
        assert schatten_norm(j_r - j_q_adj, 2) > 1e-3

    def test_fidelity_functions_agree_on_fresh_states(self):
        # check on a sample disjoint from the verification stream
        pair = perturb_channel(depolarizing(0.5, 4), 0.125, n_verify=500, rng=98)
        states = haar_states(4, 2000, rng=99)
        fq = gate_fidelity_batch(pair.q, None, states)
        fr = gate_fidelity_batch(pair.r, None, states)
        assert np.max(np.abs(fq - fr)) <= 1e-10

    def test_constant_fidelity_partner_of_depolarizing(self):
        # R inherits the constant fidelity function of the depolarizing Q
        # while not being depolarizing itself
        pair = perturb_channel(depolarizing(0.5, 4), 0.125, n_verify=500, rng=100)
        states = haar_states(4, 5000, rng=101)
        fr = gate_fidelity_batch(pair.r, None, states)
        assert np.std(fr) <= 1e-10
        assert abs(float(np.mean(fr)) - (0.5 + 0.5 / 4.0)) < 1e-10


class TestSqrtPartner:
    """R's Kraus set is sqrt(J(R)) block by block, stable in J(R)'s last bits."""

    @pytest.mark.parametrize("d", [4, 5, 8, 16])
    def test_last_bit_noise_moves_r_in_its_last_bits(self, d):
        q = depolarizing(0.5, d)
        j_q = choi_from_kraus(q)
        j_r = j_q.matrix + max_epsilon(j_q) * build_g_operator(d)
        r = np.stack(_sqrt_kraus(ChoiMatrix(d, d, j_r)).kraus)
        rng = np.random.default_rng(d)
        for _ in range(3):
            h = rng.standard_normal(j_r.shape) + 1j * rng.standard_normal(j_r.shape)
            noise = 1e-15 * (h + h.conj().T) / np.abs(h + h.conj().T).max()
            moved = np.stack(_sqrt_kraus(ChoiMatrix(d, d, j_r + noise)).kraus)
            assert moved.shape == r.shape
            assert np.max(np.abs(moved - r)) <= 1e-12

    @pytest.mark.parametrize("d", [4, 5, 16])
    def test_partner_rebuilds_its_choi_matrix(self, d):
        q = depolarizing(0.5, d)
        pair = perturb_channel(q, n_verify=2000, rng=d)
        expected = choi_from_kraus(q).matrix + pair.epsilon * build_g_operator(d)
        assert np.max(np.abs(choi_from_kraus(pair.r).matrix - expected)) <= 1e-14
        assert pair.verification.fidelity_residual_max <= 1e-12
        assert len(pair.r.kraus) == d * d  # J(R) has no zero column


class TestExactTwinCheck:
    """Sample-free certificate: equal fidelity functions are equal forms.

    The fidelity sees a channel only through symmetric_form, so
    ||M_Q - M_R|| = 0 certifies the pair at every state, where the
    Monte-Carlo residual checks only the sampled ones.
    """

    @pytest.mark.parametrize(
        "d, make_q",
        [
            (4, lambda: depolarizing(0.5, 4)),
            (5, lambda: _full_rank_channel(5, 94)),
            (16, lambda: depolarizing(0.5, 16)),
        ],
    )
    def test_twin_forms_agree(self, d, make_q):
        pair = perturb_channel(make_q(), n_verify=500, rng=104)
        assert pair.verification.fidelity_residual_max <= 1e-10
        assert pair.verification.choi_distance > 1e-4
        m_q = symmetric_form(pair.q)
        m_r = symmetric_form(pair.r)
        assert m_q.shape == (d * (d + 1) // 2,) * 2
        assert schatten_norm(m_q - m_r, 2) <= 1e-13

    def test_distinct_fidelity_functions_have_distinct_forms(self):
        m_a = symmetric_form(depolarizing(0.9, 4))
        m_b = symmetric_form(depolarizing(0.8, 4))
        assert schatten_norm(m_a - m_b, 2) > 1e-2


class TestVerifyPair:
    def test_identical_channels(self):
        q = depolarizing(0.5, 4)
        v = verify_pair(q, q, n_samples=500, rng=102)
        assert v.fidelity_residual_max == 0.0
        assert v.choi_distance == 0.0
        assert v.n_samples == 500
        assert v.seed == 102

    def test_mismatched_dimensions_refused_before_choi_or_states(self, monkeypatch):
        monkeypatch.setattr(nonuniq, "_block_fidelities", _refuse)
        monkeypatch.setattr(nonuniq, "choi_from_kraus", _refuse)
        with pytest.raises(ValueError, match="the two channels have different dimensions"):
            verify_pair(depolarizing(0.5, 4), random_channel(5, 3, 1))

    def test_matched_dimensions_sample_through_the_guarded_name(self, monkeypatch):
        # positive control for the guard above: valid input reaches it
        monkeypatch.setattr(nonuniq, "_block_fidelities", _refuse)
        with pytest.raises(AssertionError, match="work began"):
            verify_pair(depolarizing(0.5, 4), random_channel(4, 3, 1))

    @pytest.mark.parametrize("kind", ["twin-d16", "mixed"])
    def test_samples_equal_two_serial_runs(self, kind, monkeypatch):
        if kind == "twin-d16":
            # both channels take the symmetric form
            pair = perturb_channel(depolarizing(0.5, 16), n_verify=2, rng=105)
            q, r = pair.q, pair.r
        else:
            # a symmetric-form Q and a Kraus-loop R
            q, r = depolarizing(0.5, 4), random_channel(4, 2, rng=106)
        n, seed = 2 * BLOCK_SIZE + 5, 107
        expected = [fidelity_samples(ch, None, n, seed).tobytes() for ch in (q, r)]
        seen = []
        real = nonuniq._block_fidelities

        def spy(pairs, count, rng, threads):
            out = real(pairs, count, rng, threads)
            seen.append([f.tobytes() for f in out])
            return out

        monkeypatch.setattr(nonuniq, "_block_fidelities", spy)
        fq, fr = (np.frombuffer(b) for b in expected)
        for threads in (1, 2, 3):
            v = verify_pair(q, r, n_samples=n, rng=seed, threads=threads)
            assert seen.pop() == expected
            assert v.fidelity_residual_max == float(np.max(np.abs(fq - fr)))

    @pytest.mark.parametrize("d", [4, 5, 16])
    def test_twin_residual_is_rounding(self, d):
        # at d = 16 both forms take the pattern route, at d = 4 and 5 the GEMM
        pair = perturb_channel(depolarizing(0.5, d), n_verify=BLOCK_SIZE + 7, rng=108)
        assert pair.verification.fidelity_residual_max <= 1e-15

    def test_distinct_fidelity_functions_show_up(self):
        v = verify_pair(
            unitary_channel(np.eye(2)), unitary_channel(PAULI_X), n_samples=500, rng=103
        )
        assert v.fidelity_residual_max > 0.5
        assert v.choi_distance > 1.0


class TestEqualityConditions:
    def test_perturbation_direction_passes(self):
        g = build_g_operator(4)
        report = fidelity_equality_conditions(0.125 * g, 4)
        assert report.antisym_residual <= 1e-12
        assert report.marginal_gap <= 1e-12

    def test_depolarizing_difference_fails_condition_two(self):
        # dep(0.9) and dep(0.8) have different fidelity functions, and the
        # residual sees that through the symmetric subspace
        j_a = choi_from_kraus(depolarizing(0.9, 4)).matrix
        j_b = choi_from_kraus(depolarizing(0.8, 4)).matrix
        report = fidelity_equality_conditions(j_a - j_b, 4)
        assert report.antisym_residual > 1e-3
        # closed form: 0.1 * (1 - 1/d) * sqrt(d^2 - d + ... ) evaluated at
        # d=4 gives 0.1 sqrt(d - 1 + (d - 1)^2 / d^2) * ... pinned numerically
        assert abs(report.antisym_residual - 0.23717082451262844) < 1e-9

    def test_closed_forms_without_eigendecomposition(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvalsh", _refuse)
        monkeypatch.setattr(np.linalg, "eigh", _refuse)
        report = fidelity_equality_conditions(np.zeros((16, 16)), 4)
        assert [f.name for f in dataclasses.fields(report)] == [
            "marginal_gap", "antisym_residual",
        ]
        for d, seed in ((3, 110), (4, 111), (6, 112)):
            q = random_channel(d, 3, rng=seed)
            r = random_channel(d, 5, rng=seed + 10)
            x = choi_from_kraus(q).matrix - 0.7 * choi_from_kraus(r).matrix
            report = fidelity_equality_conditions(x, d)
            marginal = partial_trace(x, d, d, factor="first")
            assert report.marginal_gap == schatten_norm(marginal, np.inf)
            assert report.marginal_gap > 0.1  # 0.3 I survives the trace
            # the residual is the distance between symmetric forms ...
            x = choi_from_kraus(q).matrix - choi_from_kraus(r).matrix
            m_diff = symmetric_form(q) - symmetric_form(r)
            residual = fidelity_equality_conditions(x, d).antisym_residual
            assert abs(residual - schatten_norm(m_diff, 2)) <= 1e-12
            # ... and the projector sandwich on any Hermitian operator
            h = np.random.default_rng(seed).standard_normal((d * d, d * d, 2)) @ [1, 1j]
            h = h + h.conj().T
            p_sym = sym_projector(d)
            sandwich = p_sym @ partial_transpose(h, d, d) @ p_sym
            residual = fidelity_equality_conditions(h, d).antisym_residual
            assert abs(residual - schatten_norm(sandwich, 2)) <= 1e-12 * schatten_norm(h, 2)
        with pytest.raises(ValueError, match="not Hermitian"):
            fidelity_equality_conditions(np.triu(np.ones((16, 16))), 4)

    def test_zero_difference(self):
        report = fidelity_equality_conditions(np.zeros((16, 16)), 4)
        assert report.antisym_residual == 0.0
        assert report.marginal_gap == 0.0

    def test_shape_guard(self):
        with pytest.raises(ValueError):
            fidelity_equality_conditions(np.zeros((9, 9)), 4)


class TestDepolarizingDistance:
    def test_zero_on_the_family(self):
        for p in (0.0, 0.3, 1.0):
            assert depolarizing_distance(depolarizing(p, 4)) <= 1e-8

    def test_twin_partner_distance(self):
        # R shares dep(0.5)'s fidelity function; its depolarizing distance
        # equals the perturbation size eps * ||j_g||_2
        pair = perturb_channel(depolarizing(0.5, 4), 0.125, n_verify=500, rng=104)
        dist = depolarizing_distance(pair.r)
        assert abs(dist - 0.125 * np.sqrt(6.0)) < 1e-8
        assert dist > 1e-6

    def test_grid_oracle_bit_flip(self):
        # brute-force scan over p with 1e-4 spacing as an independent check
        ch = unitary_channel(PAULI_X)
        j_x = choi_from_kraus(ch).matrix
        j_id = choi_from_kraus(depolarizing(1.0, 2)).matrix
        j_mix = choi_from_kraus(depolarizing(0.0, 2)).matrix
        grid = np.linspace(0.0, 1.0, 10_001)
        values = [
            schatten_norm(j_x - p * j_id - (1.0 - p) * j_mix, 2) for p in grid
        ]
        oracle = float(np.min(values))
        got = depolarizing_distance(ch)
        assert got <= oracle + 1e-9
        assert abs(got - oracle) < 1e-3

    def test_boundary_minimum_found(self):
        # the bit flip minimizes at p = 0, a boundary point of the scan
        got = depolarizing_distance(unitary_channel(PAULI_X))
        assert abs(got - np.sqrt(3.0)) < 1e-9

    def test_interior_minimum_beats_grid_oracle(self):
        # a slightly rotated depolarizing channel sits off the family, with
        # its nearest member strictly inside p in (0, 1)
        h = np.random.default_rng(105).standard_normal((3, 3))
        vals, vecs = np.linalg.eigh(h + h.T)
        u = (vecs * np.exp(0.1j * vals)) @ vecs.conj().T
        ch = channel_from_kraus(tuple(u @ op for op in depolarizing(0.6, 3).kraus))
        j = choi_from_kraus(ch).matrix
        j_id = choi_from_kraus(depolarizing(1.0, 3)).matrix
        j_mix = choi_from_kraus(depolarizing(0.0, 3)).matrix
        grid = np.linspace(0.0, 1.0, 10_001)
        values = [schatten_norm(j - p * j_id - (1.0 - p) * j_mix, 2) for p in grid]
        best = int(np.argmin(values))
        assert 0 < best < len(grid) - 1
        got = depolarizing_distance(ch)
        assert got <= values[best] + 1e-12
        assert abs(got - values[best]) < 1e-6

    def test_accepts_the_choi_matrix(self):
        ch = random_channel(4, 5, rng=106)
        assert depolarizing_distance(choi_from_kraus(ch)) == depolarizing_distance(ch)

    @staticmethod
    def _old_distance(j_r: np.ndarray, d: int) -> float:
        # the expression with J(id), J(mix) and three differences built whole
        v_id = np.eye(d).reshape(-1)
        j_id = np.outer(v_id, v_id)
        j_mix = np.eye(d * d) / d
        p = float(np.clip(np.vdot(j_id - j_mix, j_r - j_mix).real / (d * d - 1), 0.0, 1.0))
        return schatten_norm(j_r - p * j_id - (1.0 - p) * j_mix, 2)

    def test_agrees_with_the_whole_array_expression(self):
        panel = [
            random_channel(4, 5, rng=110),
            random_channel(6, 2, rng=111),
            unitary_channel(PAULI_X),
            depolarizing(0.3, 5),
            perturb_channel(depolarizing(0.5, 5), n_verify=100, rng=112).r,
        ]
        for ch in panel:
            j = choi_from_kraus(ch)
            assert abs(depolarizing_distance(j) - self._old_distance(j.matrix, ch.dim_in)) <= 1e-14

    def test_depolarizing_channels_sit_on_the_family(self):
        for d in (2, 3, 4, 5, 8, 16):
            for p in (0.0, 0.25, 0.5, 1.0):
                assert depolarizing_distance(depolarizing(p, d)) <= 1e-14

    def test_peak_is_one_choi_copy(self):
        # a d = 32 Choi matrix is 16 MiB; the whole-array expression held 3.5 of them
        j = choi_from_kraus(depolarizing(0.5, 32))
        tracemalloc.start()
        try:
            depolarizing_distance(j)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * j.matrix.nbytes

    def test_shape_guard(self):
        tall = channel_from_kraus((np.zeros((3, 2)),))
        with pytest.raises(ValueError):
            depolarizing_distance(tall)
        with pytest.raises(ValueError):
            depolarizing_distance(choi_from_kraus(tall))
