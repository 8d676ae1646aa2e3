import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatefid.linalg import (
    _block_eigh,
    _hermitian_part,
    _pattern_blocks,
    antisym_projector,
    hermitian_eig,
    partial_trace,
    partial_transpose,
    schatten_norm,
    swap_matrix,
    sym_projector,
    unvec,
    vec,
)


def _rand_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _rand_hermitian(rng, n):
    m = _rand_complex(rng, n, n)
    return 0.5 * (m + m.conj().T)


class TestPartialTrace:
    def test_identity(self):
        assert np.allclose(partial_trace(np.eye(4), 2, 2, "first"), 2 * np.eye(2))

    def test_product_case(self):
        rng = np.random.default_rng(3)
        rho = _rand_complex(rng, 3, 3)
        sigma = _rand_complex(rng, 3, 3)
        out = partial_trace(np.kron(rho, sigma), 3, 3, "second")
        assert np.max(np.abs(out - np.trace(sigma) * rho)) < 1e-12
        out_first = partial_trace(np.kron(rho, sigma), 3, 3, "first")
        assert np.max(np.abs(out_first - np.trace(rho) * sigma)) < 1e-12

    def test_trace_preserved(self):
        rng = np.random.default_rng(4)
        m = _rand_complex(rng, 6, 6)
        for factor in ("first", "second"):
            out = partial_trace(m, 2, 3, factor)
            assert abs(np.trace(out) - np.trace(m)) < 1e-12

    def test_identity_channel_choi_marginal(self):
        # build J(identity) by explicit summation over matrix units, then
        # check that tracing out the output (first) factor leaves I_2
        d = 2
        j = np.zeros((4, 4), dtype=complex)
        for a in range(d):
            for b in range(d):
                unit = np.zeros((d, d), dtype=complex)
                unit[a, b] = 1.0
                j += np.kron(unit, unit)
        out = partial_trace(j, d, d, "first")
        assert np.max(np.abs(out - np.eye(d))) < 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), 2, 3, "first")
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), 2, 2, "both")


class TestPartialTranspose:
    def test_product_case(self):
        rng = np.random.default_rng(5)
        a = _rand_complex(rng, 2, 2)
        b = _rand_complex(rng, 4, 4)
        out = partial_transpose(np.kron(a, b), 2, 4, "second")
        assert np.max(np.abs(out - np.kron(a, b.T))) < 1e-14
        out = partial_transpose(np.kron(a, b), 2, 4, "first")
        assert np.max(np.abs(out - np.kron(a.T, b))) < 1e-14

    def test_involution_is_exact(self):
        rng = np.random.default_rng(6)
        m = _rand_hermitian(rng, 16)
        twice = partial_transpose(partial_transpose(m, 4, 4, "second"), 4, 4, "second")
        assert np.array_equal(twice, m)

    def test_preserves_hermiticity(self):
        rng = np.random.default_rng(7)
        m = _rand_hermitian(rng, 9)
        out = partial_transpose(m, 3, 3, "second")
        assert np.max(np.abs(out - out.conj().T)) < 1e-14

    def test_identity_choi_gives_swap(self):
        # oracle: build the swap by brute-force index permutation
        d = 2
        j = np.zeros((4, 4), dtype=complex)
        for a in range(d):
            for b in range(d):
                unit = np.zeros((d, d), dtype=complex)
                unit[a, b] = 1.0
                j += np.kron(unit, unit)
        swapped = partial_transpose(j, d, d, "second")
        oracle = np.zeros((4, 4))
        for a in range(d):
            for b in range(d):
                oracle[a * d + b, b * d + a] = 1.0
        assert np.array_equal(swapped.real, oracle)
        assert np.array_equal(swapped, swap_matrix(d).astype(complex))

    def test_unknown_factor_refused(self):
        with pytest.raises(ValueError, match="^factor must be 'first' or 'second', got 'both'$"):
            partial_transpose(np.eye(4), 2, 2, "both")


class TestVec:
    def test_matrix_unit(self):
        m = np.zeros((2, 2))
        m[0, 1] = 1.0
        assert np.array_equal(vec(m), np.array([0.0, 1.0, 0.0, 0.0]))

    def test_identity(self):
        assert np.array_equal(vec(np.eye(2)), np.array([1.0, 0.0, 0.0, 1.0]))

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_hs_inner_product(self, seed):
        rng = np.random.default_rng(seed)
        a = _rand_complex(rng, 3, 3)
        b = _rand_complex(rng, 3, 3)
        hs = np.trace(a.conj().T @ b)
        dot = np.vdot(vec(a), vec(b))
        assert abs(hs - dot) < 1e-12

    def test_unvec_inverse(self):
        rng = np.random.default_rng(8)
        a = _rand_complex(rng, 3, 5)
        assert np.array_equal(unvec(vec(a), 3, 5), a)

    def test_unvec_bad_length(self):
        with pytest.raises(ValueError):
            unvec(np.arange(7), 2, 3)


class TestSchattenNorm:
    def test_identity_all_orders(self):
        for d in (2, 3, 5):
            assert abs(schatten_norm(np.eye(d), 2) - np.sqrt(d)) < 1e-12
            assert abs(schatten_norm(np.eye(d), np.inf) - 1.0) < 1e-12

    def test_pure_state_projector(self):
        rng = np.random.default_rng(9)
        v = _rand_complex(rng, 4, 1)[:, 0]
        v /= np.linalg.norm(v)
        proj = np.outer(v, v.conj())
        assert abs(schatten_norm(proj, 2) - 1.0) < 1e-12

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_order_inequalities_rank2(self, seed):
        # ||M||_inf <= ||M||_2 <= sqrt(rank) ||M||_inf
        rng = np.random.default_rng(seed)
        u = _rand_complex(rng, 4, 1)[:, 0]
        v = _rand_complex(rng, 4, 1)[:, 0]
        m = np.outer(u, u.conj()) + np.outer(v, v.conj())
        n2 = schatten_norm(m, 2)
        ninf = schatten_norm(m, np.inf)
        assert ninf <= n2 + 1e-12
        assert n2 <= np.sqrt(2.0) * ninf + 1e-12

    def test_unsupported_order(self):
        for p in (1, 3):
            with pytest.raises(ValueError, match="use 2 or inf"):
                schatten_norm(np.eye(2), p)


def _char_poly_eigs_2x2(m):
    """Closed-form eigenvalues of a Hermitian 2x2 matrix."""
    half_trace = 0.5 * np.trace(m).real
    det = np.linalg.det(m).real
    disc = np.sqrt(max(half_trace**2 - det, 0.0))
    return np.array([half_trace - disc, half_trace + disc])


def _char_poly_eigs_3x3(m):
    """Trigonometric closed form for the roots of a 3x3 Hermitian matrix."""
    q = np.trace(m).real / 3.0
    shifted = m - q * np.eye(3)
    p = np.sqrt(np.trace(shifted @ shifted).real / 6.0)
    if p < 1e-300:
        return np.full(3, q)
    b = shifted / p
    det_b = np.linalg.det(b).real
    phi = np.arccos(np.clip(det_b / 2.0, -1.0, 1.0)) / 3.0
    eigs = [
        q + 2.0 * p * np.cos(phi + 2.0 * np.pi * k / 3.0) for k in range(3)
    ]
    return np.sort(np.array(eigs))


def _refuse_svd(*args, **kwargs):
    raise AssertionError("an SVD ran on an exactly Hermitian matrix")


class TestHermitianEig:
    def test_diagonal(self):
        vals, _ = hermitian_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(vals, [1.0, 2.0, 3.0])

    def test_pauli_x(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        vals, _ = hermitian_eig(x)
        assert np.allclose(vals, [-1.0, 1.0])

    def test_reconstruction(self):
        rng = np.random.default_rng(10)
        m = _rand_hermitian(rng, 8)
        vals, vecs = hermitian_eig(m)
        rebuilt = (vecs * vals) @ vecs.conj().T
        assert schatten_norm(m - rebuilt, 2) <= 1e-10 * schatten_norm(m, 2)

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(11)
        m = _rand_hermitian(rng, 6)
        _, vecs = hermitian_eig(m)
        gram = vecs.conj().T @ vecs
        assert np.max(np.abs(gram - np.eye(6))) < 1e-10

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            hermitian_eig(m)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            hermitian_eig(np.zeros((2, 3)))

    def test_tiny_asymmetry_tolerated(self):
        m = np.diag([1.0, 2.0])
        m[0, 1] = 1e-13
        vals, vecs = hermitian_eig(m)
        assert np.allclose(vals, [1.0, 2.0]) and vecs.shape == (2, 2)

    def test_exactly_hermitian_takes_no_svd(self, monkeypatch):
        # the gap of a matrix equal to its adjoint is 0.0 without an SVD,
        # and its eigendecomposition is eigh of the matrix as given
        m = _rand_hermitian(np.random.default_rng(12), 9)
        assert np.array_equal(m, m.conj().T)
        expected = np.linalg.eigh(m)
        monkeypatch.setattr(np.linalg._linalg, "svd", _refuse_svd)
        monkeypatch.setattr(np.linalg, "svd", _refuse_svd)
        vals, vecs = hermitian_eig(m)
        assert np.array_equal(vals, expected[0]) and np.array_equal(vecs, expected[1])

    def test_non_hermitian_refused_with_same_message(self):
        m = _rand_hermitian(np.random.default_rng(13), 4)
        m[0, 1] += 1e-3
        gap = schatten_norm(m - m.conj().T, np.inf)
        scale = max(1.0, schatten_norm(m, np.inf))
        message = (
            f"matrix is not Hermitian: ||M - M^dag||_inf = {gap:.3e} "
            f"exceeds 1.0e-10 * max(1, ||M||_inf) = {1e-10 * scale:.3e}"
        )
        with pytest.raises(ValueError) as err:
            hermitian_eig(m)
        assert str(err.value) == message

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_2x2_closed_form(self, seed):
        rng = np.random.default_rng(seed)
        m = _rand_hermitian(rng, 2)
        vals, _ = hermitian_eig(m)
        assert np.max(np.abs(vals - _char_poly_eigs_2x2(m))) < 1e-10

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_3x3_closed_form(self, seed):
        rng = np.random.default_rng(seed)
        m = _rand_hermitian(rng, 3)
        vals, _ = hermitian_eig(m)
        assert np.max(np.abs(vals - _char_poly_eigs_3x3(m))) < 1e-9

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_ascending(self, seed):
        rng = np.random.default_rng(seed)
        m = _rand_hermitian(rng, 5)
        vals, _ = hermitian_eig(m)
        assert np.all(np.diff(vals) >= 0)


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


class TestHermitianPart:
    """_hermitian_part keeps the bits of 0.5 (M + M^dag) and its input."""

    @staticmethod
    def _inputs() -> dict:
        g = np.random.default_rng(14)
        m = _rand_complex(g, 6, 6)
        return {
            "hermitian": m + m.conj().T,
            "non-hermitian": m,
            "signed zeros": np.array([[complex(-0.0, 0.0), complex(1, -0.0)],
                                      [complex(1, 0.0), complex(0.0, -0.0)]]),
            "real": g.standard_normal((5, 5)),
            "integer": np.arange(9).reshape(3, 3),
        }

    @pytest.mark.parametrize("name", ["hermitian", "non-hermitian", "signed zeros", "real", "integer"])
    def test_bits_of_the_expression(self, name):
        m = self._inputs()[name]
        before = _bits(m)
        expected = 0.5 * (m + m.conj().T)
        gap, sym = _hermitian_part(m)
        assert sym.dtype == expected.dtype and _bits(sym) == _bits(expected)
        assert _bits(m) == before  # a real m.conj() is m itself: no sum goes into it
        assert (gap == 0.0) == (name in ("hermitian", "signed zeros"))

    def test_complex_sum_takes_no_second_buffer(self):
        # the d = 32 Choi size: one 16 MiB buffer for the adjoint and the sum
        m = _rand_complex(np.random.default_rng(15), 1024, 1024)
        m += m.conj().T
        tracemalloc.start()
        try:
            _hermitian_part(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * m.nbytes


class TestProjectors:
    def test_swap_matches_its_entries(self):
        for d in (1, 2, 3, 5):
            s = np.zeros((d * d, d * d))
            for a in range(d):
                for b in range(d):
                    s[a * d + b, b * d + a] = 1.0
            assert _bits(swap_matrix(d)) == _bits(s)

    def test_singlet_d2(self):
        p = antisym_projector(2)
        assert abs(np.trace(p) - 1.0) < 1e-14
        singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
        assert np.max(np.abs(p @ singlet - singlet)) < 1e-14

    def test_product_states_annihilated(self):
        rng = np.random.default_rng(12)
        for d in (2, 3, 4):
            p = antisym_projector(d)
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            v /= np.linalg.norm(v)
            prod = np.kron(v, v)
            assert np.max(np.abs(p @ prod)) < 1e-14

    def test_trace_counts_antisym_dimension(self):
        assert abs(np.trace(antisym_projector(4)) - 6.0) < 1e-12
        for d in (2, 3, 5):
            assert abs(np.trace(antisym_projector(d)) - d * (d - 1) / 2) < 1e-12

    def test_idempotent_and_complementary(self):
        for d in (2, 3):
            pa = antisym_projector(d)
            ps = sym_projector(d)
            assert np.max(np.abs(pa @ pa - pa)) < 1e-14
            assert np.max(np.abs(pa + ps - np.eye(d * d))) < 1e-14
            assert np.max(np.abs(pa @ ps)) < 1e-14


def _scattered_blocks(rng, sizes) -> tuple:
    """A Hermitian matrix whose dense blocks of the given sizes sit on shuffled rows."""
    order = rng.permutation(sum(sizes))
    blocks = np.split(order, np.cumsum(sizes)[:-1])
    m = np.zeros((len(order), len(order)), dtype=complex)
    for rows in blocks:
        m[np.ix_(rows, rows)] = _rand_hermitian(rng, len(rows))
    return m, sorted((np.sort(rows) for rows in blocks), key=lambda rows: rows[0])


class TestBlockEigh:
    """_block_eigh solves a Hermitian matrix along the blocks of its exact zeros."""

    def test_scattered_blocks_are_found(self):
        rng = np.random.default_rng(40)
        m, blocks = _scattered_blocks(rng, [3, 1, 5, 3, 2, 1])
        found = _pattern_blocks(m)
        assert [b.tolist() for b in found] == [b.tolist() for b in blocks]

    def test_a_chain_is_one_block(self):
        # each row meets only its neighbours, so labels cross it step by step
        n = 40
        m = np.diag(np.ones(n)) + np.diag(np.full(n - 1, 0.5), 1) + np.diag(np.full(n - 1, 0.5), -1)
        order = np.random.default_rng(41).permutation(n)
        assert [b.tolist() for b in _pattern_blocks(m[np.ix_(order, order)])] == [list(range(n))]

    def test_spectrum_is_the_union_of_the_blocks(self):
        m, _ = _scattered_blocks(np.random.default_rng(42), [4, 4, 2, 6, 1])
        for vectors in (False, True):
            stacks = _block_eigh(m, vectors)
            vals = [r[0] if vectors else r for _, r in stacks]
            union = np.sort(np.concatenate([v.ravel() for v in vals]))
            assert np.max(np.abs(union - np.linalg.eigvalsh(m))) < 1e-13
        for index, (vals, vecs) in _block_eigh(m, vectors=True):
            block = m[index[:, :, None], index[:, None, :]]
            assert np.max(np.abs(block @ vecs - vecs * vals[:, None, :])) < 1e-13

    def test_a_dense_matrix_keeps_the_bits_of_one_solve(self):
        m = _rand_hermitian(np.random.default_rng(43), 30)
        (index, vals), = _block_eigh(m)
        assert index.tolist() == [list(range(30))]
        assert _bits(vals[0]) == _bits(np.linalg.eigvalsh(m))
        (index, (vals, vecs)), = _block_eigh(m, vectors=True)
        ref_vals, ref_vecs = np.linalg.eigh(m)
        assert _bits(vals[0]) == _bits(ref_vals) and _bits(vecs[0]) == _bits(ref_vecs)

    def test_zero_rows_are_blocks_of_their_own(self):
        m = np.zeros((5, 5), dtype=complex)
        m[np.ix_([1, 3], [1, 3])] = [[2.0, 1.0j], [-1.0j, 2.0]]
        assert [b.tolist() for b in _pattern_blocks(m)] == [[0], [1, 3], [2], [4]]

    def test_search_holds_at_most_one_boolean_of_the_matrix_size(self):
        n = 1024
        m = _rand_hermitian(np.random.default_rng(44), n)
        tracemalloc.start()
        try:
            _pattern_blocks(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= n * n
