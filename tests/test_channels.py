import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatefid import channels as channels_module
from gatefid import serialize
from gatefid.channels import (
    MAX_DENSE_BYTES,
    RANK_TOL,
    ChoiMatrix,
    _check_dense_budget,
    _sqrt_kraus,
    adjoint,
    amplitude_damping,
    channel_from_kraus,
    choi_from_kraus,
    depolarizing,
    identity_channel,
    kraus_from_choi,
    phase_spread_unitary,
    random_channel,
    unitary_channel,
    unitary_operator_basis,
    validate_cptp,
)
from gatefid.linalg import hermitian_eig, partial_trace, schatten_norm, vec
from gatefid.nonuniq import build_g_operator, max_epsilon

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def _apply(ch, rho):
    """ch(rho) = sum_k A_k rho A_k^dag, from the definition."""
    return sum(a @ rho @ a.conj().T for a in ch.kraus)


def _choi_distance(a, b) -> float:
    """Spectral-norm distance of two maps, compared through their Choi matrices."""
    return schatten_norm(choi_from_kraus(a).matrix - choi_from_kraus(b).matrix, np.inf)


def _rand_state(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _rand_density(rng, d):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def _haar_unitary(rng, d):
    raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(raw)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class TestChoiConstruction:
    def test_identity_channel(self):
        j = choi_from_kraus(identity_channel(2)).matrix
        # J(id) = sum_ab |a><b| (x) |a><b|, a rank-one projector of trace 2
        expected = np.outer(vec(np.eye(2)), vec(np.eye(2)).conj())
        assert np.max(np.abs(j - expected)) < 1e-14
        assert abs(np.trace(j) - 2.0) < 1e-14

    def test_totally_depolarizing(self):
        j = choi_from_kraus(depolarizing(0.0, 2)).matrix
        assert np.max(np.abs(j - np.eye(4) / 2.0)) < 1e-12

    def test_unitary_channel_rotates_identity_choi(self):
        j_x = choi_from_kraus(unitary_channel(PAULI_X)).matrix
        j_id = choi_from_kraus(identity_channel(2)).matrix
        rot = np.kron(PAULI_X, np.eye(2))
        assert np.max(np.abs(j_x - rot @ j_id @ rot.conj().T)) < 1e-14

    def test_trace_is_input_dimension(self):
        for d, rank in ((2, 3), (3, 2), (4, 4)):
            ch = random_channel(d, rank, rng=d * 100 + rank)
            assert abs(np.trace(choi_from_kraus(ch).matrix) - d) < 1e-10

    def test_apply_matches_choi_contraction(self):
        # Lambda(rho) = tr_in[ J (I (x) rho^T) ]
        rng = np.random.default_rng(20)
        for d in (2, 3):
            ch = random_channel(d, 3, rng=d)
            j = choi_from_kraus(ch).matrix
            rho = _rand_density(rng, d)
            contracted = partial_trace(
                j @ np.kron(np.eye(d), rho.T), d, d, factor="second"
            )
            direct = _apply(ch, rho)
            assert np.max(np.abs(contracted - direct)) < 1e-12


def _outer_sum_choi(ch) -> np.ndarray:
    """Reference Choi matrix: sum_k vec(A_k) vec(A_k)^dag, one outer product at a time."""
    n = ch.dim_in * ch.dim_out
    j = np.zeros((n, n), dtype=complex)
    for op in ch.kraus:
        j += np.outer(vec(op), vec(op).conj())
    return j


def _isometry_map(d_in, d_out, rank, seed):
    g = np.random.default_rng(seed)
    raw = g.standard_normal((d_out * rank, d_in)) + 1j * g.standard_normal((d_out * rank, d_in))
    q, _ = np.linalg.qr(raw)
    return channel_from_kraus([q[k * d_out : (k + 1) * d_out] for k in range(rank)])


class TestChoiGemm:
    @pytest.mark.parametrize(
        "ch",
        [
            random_channel(3, 4, rng=20),
            random_channel(4, 16, rng=21),
            random_channel(5, 2, rng=22),
            _isometry_map(2, 3, 4, 23),
            depolarizing(0.3, 4),
        ],
        ids=["d3-rank4", "d4-full", "d5-rank2", "2to3", "depolarizing"],
    )
    def test_exactly_hermitian_and_equal_to_outer_sum(self, ch):
        j = choi_from_kraus(ch).matrix
        assert j.shape == (ch.dim_in * ch.dim_out,) * 2
        assert np.array_equal(j, j.conj().T)
        assert np.max(np.abs(j - _outer_sum_choi(ch))) <= 1e-14
        assert validate_cptp(ch).hermiticity_gap == 0.0

    @pytest.mark.parametrize(
        "ch",
        [
            lambda: random_channel(12, 3, rng=25),
            lambda: random_channel(23, 2, rng=26),
            lambda: random_channel(8, 64, rng=27),
            lambda: _isometry_map(3, 43, 2, 28),
            lambda: amplitude_damping(0.3),
            lambda: identity_channel(4),
            lambda: depolarizing(0.5, 5),
            lambda: depolarizing(0.5, 12),
            lambda: depolarizing(0.5, 32),
            lambda: _sqrt_kraus(_twin_choi(4)),
            lambda: _sqrt_kraus(_twin_choi(16)),
        ],
        ids=["random-12-rank-3", "random-23-rank-2", "random-8-rank-64", "3to43",
             "damping", "identity", "depolarizing-5", "depolarizing-12", "depolarizing-32",
             "twin-4", "twin-16"],
    )
    def test_blocks_keep_the_bits_of_the_whole_matrix_expression(self, ch):
        # the one GEMM and whole-matrix symmetrization choi_from_kraus ran
        # before it worked a block at a time; 3to43 has 129 columns, so a
        # lone last column joins the block before it
        ch = ch()
        flat = ch.kraus.reshape(len(ch.kraus), -1)
        j = flat.T @ flat.conj()
        j += j.conj().T
        j *= 0.5
        assert choi_from_kraus(ch).matrix.tobytes() == j.tobytes()

    def test_peak_is_one_choi_size(self):
        # the 1024 x 1024 matrix is 16 MiB; a stacked copy of the Kraus set,
        # its conjugate and J's conjugate took the peak to 48 MiB
        ch = depolarizing(0.5, 32)
        assert _traced_peak(lambda: choi_from_kraus(ch)) <= 1.25 * 16 * 2**20

    def test_exactly_hermitian_choi_validated_without_svd(self, monkeypatch):
        # only the Choi-size SVD is refused: the small TP residual keeps its own
        ch = random_channel(3, 5, rng=24)
        expected = validate_cptp(ch)
        svd = np.linalg._linalg.svd

        def refuse_choi_size(a, *args, **kwargs):
            if np.shape(a)[-1] == 9:
                raise AssertionError("an SVD ran on the exactly Hermitian Choi matrix")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg._linalg, "svd", refuse_choi_size)
        monkeypatch.setattr(np.linalg, "svd", refuse_choi_size)
        assert validate_cptp(ch) == expected
        assert expected.hermiticity_gap == 0.0 and expected.is_cp and expected.is_tp
        back = kraus_from_choi(choi_from_kraus(ch))
        assert np.max(np.abs(choi_from_kraus(back).matrix - choi_from_kraus(ch).matrix)) < 1e-12


class TestKrausFromChoi:
    def test_identity_recovers_identity(self):
        ch = kraus_from_choi(choi_from_kraus(identity_channel(2)))
        assert len(ch.kraus) == 1
        assert np.max(np.abs(ch.kraus[0] - np.eye(2))) < 1e-12

    def test_depolarizing_rank(self):
        ch = kraus_from_choi(choi_from_kraus(depolarizing(0.5, 2)))
        assert len(ch.kraus) == 4

    def test_round_trip_preserves_map(self):
        for seed, d, rank in ((0, 2, 2), (1, 3, 4), (2, 4, 3)):
            ch = random_channel(d, rank, rng=seed)
            back = kraus_from_choi(choi_from_kraus(ch))
            assert _choi_distance(ch, back) <= 1e-9
            assert len(back.kraus) <= rank

    def test_canonical_output_is_deterministic(self):
        j = choi_from_kraus(random_channel(3, 3, rng=7))
        a = kraus_from_choi(j)
        b = kraus_from_choi(j)
        for ka, kb in zip(a.kraus, b.kraus):
            assert np.array_equal(ka, kb)

    def test_rejects_negative_choi(self):
        from gatefid.channels import ChoiMatrix

        j = ChoiMatrix(dim_in=2, dim_out=2, matrix=np.diag([1.5, 1.0, -0.5, 0.0]))
        with pytest.raises(ValueError):
            kraus_from_choi(j)

    def test_rejects_zero_choi(self):
        from gatefid.channels import ChoiMatrix

        j = ChoiMatrix(dim_in=2, dim_out=2, matrix=np.zeros((4, 4), dtype=complex))
        with pytest.raises(ValueError, match="^Choi matrix has no eigenvalue above RANK_TOL$"):
            kraus_from_choi(j)

    def test_random_channel_needs_a_positive_rank(self):
        with pytest.raises(ValueError, match="^kraus_rank must be positive$"):
            random_channel(3, 0, 1)


class TestValidateCptp:
    def test_identity_choi(self):
        report = validate_cptp(identity_channel(2))
        assert report.is_cp and report.is_tp
        # spectrum of J(id) is {2, 0, 0, 0}
        assert abs(report.min_eigenvalue) < 1e-12
        assert report.tp_residual < 1e-12
        assert report.hermiticity_gap < 1e-12

    def test_depolarizing_min_eigenvalue(self):
        for p, d in ((0.5, 2), (0.3, 4)):
            report = validate_cptp(depolarizing(p, d))
            assert abs(report.min_eigenvalue - (1.0 - p) / d) < 1e-12
            assert report.is_cp and report.is_tp

    def test_flags_cp_violation(self):
        from gatefid.channels import ChoiMatrix

        # J(id) has min eigenvalue 0, so any negative shift breaks CP
        j = choi_from_kraus(identity_channel(2)).matrix - 1e-3 * np.eye(4)
        report = validate_cptp(ChoiMatrix(2, 2, j), tol=1e-9)
        assert not report.is_cp
        assert report.min_eigenvalue < -1e-4

    def test_flags_tp_violation(self):
        scaled = channel_from_kraus((0.9 * np.eye(2),))
        report = validate_cptp(scaled)
        assert report.is_cp and not report.is_tp
        assert abs(report.tp_residual - (1.0 - 0.81)) < 1e-12

    def test_cp_flag_follows_eigenvalue_and_tolerance(self):
        from gatefid.channels import ChoiMatrix

        j = choi_from_kraus(identity_channel(2)).matrix - 1e-7 * np.eye(4)
        loose = validate_cptp(ChoiMatrix(2, 2, j), tol=1e-6)
        tight = validate_cptp(ChoiMatrix(2, 2, j), tol=1e-9)
        assert loose.is_cp and not tight.is_cp

    def test_random_channels_validate(self):
        for seed in range(5):
            ch = random_channel(3, 2, rng=seed)
            report = validate_cptp(ch)
            assert report.is_cp and report.is_tp


class TestDepolarizing:
    def test_p_one_is_identity(self):
        rng = np.random.default_rng(21)
        rho = _rand_density(rng, 3)
        out = _apply(depolarizing(1.0, 3), rho)
        assert np.max(np.abs(out - rho)) < 1e-12

    def test_p_zero_is_maximally_mixing(self):
        rng = np.random.default_rng(22)
        rho = _rand_density(rng, 2)
        out = _apply(depolarizing(0.0, 2), rho)
        assert np.max(np.abs(out - np.eye(2) / 2.0)) < 1e-12

    def test_half_on_ground_state(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        out = _apply(depolarizing(0.5, 2), rho)
        assert np.max(np.abs(out - np.diag([0.75, 0.25]))) < 1e-12

    @given(st.floats(0.0, 1.0), st.sampled_from([2, 3, 4]), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_action_formula(self, p, d, seed):
        rng = np.random.default_rng(seed)
        rho = _rand_density(rng, d)
        out = _apply(depolarizing(p, d), rho)
        expected = p * rho + (1.0 - p) * np.eye(d) / d
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            depolarizing(-0.1, 2)
        with pytest.raises(ValueError):
            depolarizing(1.1, 2)
        with pytest.raises(ValueError):
            depolarizing(0.5, 1)

    def test_operator_basis_is_orthogonal(self):
        # covers both the Pauli branch (d = 4) and clock-shift branch (d = 3)
        for d in (2, 3, 4):
            basis = unitary_operator_basis(d)
            assert len(basis) == d * d
            assert np.max(np.abs(basis[0] - np.eye(d))) < 1e-14
            gram = np.array(
                [[np.trace(a.conj().T @ b) for b in basis] for a in basis]
            )
            assert np.max(np.abs(gram - d * np.eye(d * d))) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_pauli_basis_bitwise_equal_to_kron_chains(self, n):
        reference = _kron_chains(n)
        basis = unitary_operator_basis(2**n)
        assert len(basis) == len(reference) == 4**n
        for got, want in zip(basis, reference):
            assert got.shape == want.shape
            assert np.array_equal(
                np.ascontiguousarray(got).view(np.uint64), want.view(np.uint64)
            )

    def test_basis_twirl_depolarizes(self):
        rng = np.random.default_rng(23)
        for d in (2, 3, 4):
            basis = unitary_operator_basis(d)
            rho = _rand_density(rng, d)
            avg = sum(b @ rho @ b.conj().T for b in basis) / d**2
            assert np.max(np.abs(avg - np.eye(d) / d)) < 1e-12


def _kron_chains(n: int) -> list:
    """The 4^n Pauli strings as np.kron chains, first factor slowest."""
    one = [
        np.eye(2, dtype=complex),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    reference = []
    for combo in itertools.product(one, repeat=n):
        op = combo[0]
        for factor in combo[1:]:
            op = np.kron(op, factor)
        reference.append(op)
    return reference


def _product_basis(d: int) -> list:
    """The clock-and-shift monomials as X^a @ Z^b matrix products, a slowest."""
    omega = np.exp(2j * np.pi / d)
    x = np.zeros((d, d), dtype=complex)
    for j in range(d):
        x[(j + 1) % d, j] = 1.0
    z = np.diag(omega ** np.arange(d))
    return [np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b)
            for a, b in itertools.product(range(d), repeat=2)]


def _loop_depolarizing(p: float, basis) -> list:
    """The depolarizing Kraus set scaled one basis operator at a time."""
    d = len(basis[0])
    w = np.sqrt(1.0 - p) / d
    return [np.sqrt(p + (1.0 - p) / d**2) * basis[0]] + [w * b for b in basis[1:]]


def _loop_kraus(choi) -> list:
    """kraus_from_choi's operators, built one eigenvector at a time."""
    vals, vecs = hermitian_eig(choi.matrix)
    ops = []
    for i in range(len(vals) - 1, -1, -1):
        if vals[i] <= RANK_TOL:
            break
        col = vecs[:, i]
        anchor = np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]
        phase = col[anchor] / abs(col[anchor])
        col = col * phase.conj()
        ops.append((np.sqrt(vals[i]) * col).reshape(choi.dim_out, choi.dim_in))
    return ops


def _same_bytes(ops, reference) -> bool:
    return len(ops) == len(reference) and all(
        a.shape == b.shape and np.ascontiguousarray(a).tobytes() == b.tobytes()
        for a, b in zip(ops, reference)
    )


def _one_array(ch) -> bool:
    """The Kraus set is one C-contiguous complex128 (rank, dim_out, dim_in) array."""
    kraus = ch.kraus
    return (
        isinstance(kraus, np.ndarray)
        and kraus.dtype == np.complex128
        and kraus.flags.c_contiguous
        and kraus.ndim == 3
        and len(kraus) > 0
        and kraus.shape[1:] == (ch.dim_out, ch.dim_in)
    )


def _twin_choi(d: int) -> ChoiMatrix:
    """J(R) = J(Q) + eps G of the twin construction, Q = depolarizing(0.5, d)."""
    j_q = choi_from_kraus(depolarizing(0.5, d))
    return ChoiMatrix(d, d, j_q.matrix + max_epsilon(j_q) * build_g_operator(d))


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWholeArrayBuilders:
    """Operator sets built as one array keep the bytes of the per-operator builders."""

    @pytest.mark.parametrize("d", [3, 5, 6, 7, 12])
    def test_clock_shift_equals_the_products(self, d):
        basis = unitary_operator_basis(d)
        assert isinstance(basis, np.ndarray) and basis.shape == (d * d, d, d)
        reference = _product_basis(d)
        assert np.array_equal(basis, np.stack(reference))
        # the products' BLAS-made -0.0 entries read +0.0; every other bit is kept
        parts = basis.view(float)
        assert not np.signbit(parts[parts == 0]).any()
        assert _same_bytes(basis, [op + 0.0 for op in reference])

    @pytest.mark.parametrize("p", [0.0, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_depolarizing_bytes_at_powers_of_two(self, d, p):
        ch = depolarizing(p, d)
        assert _same_bytes(ch.kraus, _loop_depolarizing(p, _kron_chains(d.bit_length() - 1)))
        assert _one_array(ch)

    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("d", [3, 5, 6])
    def test_depolarizing_bytes_from_the_products(self, d, p):
        basis = [op + 0.0 for op in _product_basis(d)]
        assert _same_bytes(depolarizing(p, d).kraus, _loop_depolarizing(p, basis))

    @pytest.mark.parametrize(
        "choi",
        [
            lambda: choi_from_kraus(depolarizing(0.5, 4)),
            lambda: choi_from_kraus(depolarizing(0.5, 16)),
            lambda: choi_from_kraus(random_channel(16, 4, rng=1)),
            lambda: choi_from_kraus(random_channel(32, 1024, rng=2)),
            lambda: _twin_choi(4),
            lambda: _twin_choi(5),
            lambda: _twin_choi(6),
            lambda: _twin_choi(16),
        ],
        ids=["depolarizing-4", "depolarizing-16", "random-16-rank-4", "random-32-rank-1024",
             "twin-4", "twin-5", "twin-6", "twin-16"],
    )
    def test_kraus_from_choi_bytes(self, choi):
        choi = choi()
        ch = kraus_from_choi(choi)
        assert _same_bytes(ch.kraus, _loop_kraus(choi))
        assert _one_array(ch)

    def test_random_channel_blocks_of_one_isometry(self):
        ch = random_channel(256, 4, rng=1)
        g = np.random.default_rng(1)
        raw = g.standard_normal((1024, 256)) + 1j * g.standard_normal((1024, 256))
        q, _ = np.linalg.qr(raw)
        assert _same_bytes(ch.kraus, [q[i * 256 : (i + 1) * 256].copy() for i in range(4)])
        assert _one_array(ch) and (ch.dim_in, ch.dim_out) == (256, 256)

    def test_depolarizing_peak_is_one_kraus_set(self):
        # d^4 complex entries at d = 48: 81 MiB; 163 MiB with a second set
        assert _traced_peak(lambda: depolarizing(0.5, 48)) <= 100 * 2**20

    def test_validate_cptp_peak_is_one_more_choi_size(self):
        # a 1024 x 1024 Choi matrix is 16 MiB; 32.1 MiB with a second buffer
        choi = choi_from_kraus(random_channel(32, 4, rng=1))
        assert _traced_peak(lambda: validate_cptp(choi)) <= 20 * 2**20


def _read_back(load, form: str, text: str = ""):
    """A producer that writes a channel file (Kraus or Choi form, or text) and reads it with load."""
    def produce(tmp_path):
        path = tmp_path / "ch.json"
        ch = random_channel(3, 2, rng=3)
        if text:
            path.write_text(text, encoding="utf-8")
        elif form == "kraus":
            serialize.write_json(path, serialize.channel_to_dict(ch))
        else:
            serialize.write_json(path, serialize.choi_to_dict(choi_from_kraus(ch)))
        return load(path)
    return produce


# every producer of a channel, each a function of a scratch directory
_PRODUCERS = {
    "random_channel": lambda _: random_channel(5, 3, rng=1),
    "depolarizing-4": lambda _: depolarizing(0.5, 4),
    "depolarizing-5": lambda _: depolarizing(0.5, 5),
    "unitary_channel-C": lambda _: unitary_channel(np.array(HADAMARD, dtype=complex)),
    "unitary_channel-F": lambda _: unitary_channel(np.asfortranarray(HADAMARD)),
    "identity_channel": lambda _: identity_channel(3),
    "amplitude_damping": lambda _: amplitude_damping(0.3),
    "channel_from_kraus": lambda _: channel_from_kraus([PAULI_X, np.eye(2)]),
    "adjoint": lambda _: adjoint(_isometry_map(2, 3, 4, 23)),
    "kraus_from_choi": lambda _: kraus_from_choi(choi_from_kraus(random_channel(3, 2, rng=2))),
    "_sqrt_kraus": lambda _: _sqrt_kraus(_twin_choi(4)),
    "load_operator-kraus": _read_back(serialize.load_operator, "kraus"),
    # the streamed read refuses the first 'kraus'; json.loads keeps the last
    "load_operator-whole-text": _read_back(
        serialize.load_operator, "kraus",
        '{"kraus":3,"dim_in":2,"dim_out":2,"kraus":[[[[1,0],[0,0]],[[0,0],[1,0]]]]}',
    ),
    "load_channel-kraus": _read_back(serialize.load_channel, "kraus"),
    "load_channel-choi": _read_back(serialize.load_channel, "choi"),
}


class TestKrausFormat:
    @pytest.mark.parametrize("name", sorted(_PRODUCERS))
    def test_every_producer_returns_one_array(self, name, tmp_path):
        assert _one_array(_PRODUCERS[name](tmp_path))

    def test_unitary_copied_only_when_not_c_ordered(self):
        u = np.array(HADAMARD, dtype=complex)
        assert np.shares_memory(unitary_channel(u).kraus, u)
        f = np.asfortranarray(u)
        ch = unitary_channel(f)
        assert not np.shares_memory(ch.kraus, f) and np.array_equal(ch.kraus[0], u)


class TestSqrtKraus:
    """_sqrt_kraus: R's operators are the nonzero columns of sqrt(J)."""

    @staticmethod
    def _rebuilt(ch) -> np.ndarray:
        return choi_from_kraus(ch).matrix

    def test_zero_columns_are_dropped(self):
        # J(id) and J(damping at gamma = 1) have zero rows and columns
        for ch, rank in ((identity_channel(3), 3), (amplitude_damping(1.0), 2)):
            j = choi_from_kraus(ch)
            root = _sqrt_kraus(j)
            assert len(root.kraus) == rank
            assert all(np.any(op) for op in root.kraus)
            assert np.max(np.abs(self._rebuilt(root) - j.matrix)) <= 1e-14

    def test_twin_partner_is_one_sparse_array(self):
        j = _twin_choi(16)
        r = _sqrt_kraus(j)
        assert len(r.kraus) == 256 and _one_array(r)
        assert np.count_nonzero(r.kraus) < 256 * 256 // 16
        assert np.max(np.abs(self._rebuilt(r) - j.matrix)) <= 1e-14

    def test_small_eigenvalues_clip_against_the_largest_of_every_block(self):
        # 2e-10 is above RANK_TOL but at most RANK_TOL * 4, the largest eigenvalue
        j = ChoiMatrix(2, 2, np.diag([4.0, 2e-10, 1.0, 0.0]).astype(complex))
        r = _sqrt_kraus(j)
        assert [op.tolist() for op in r.kraus] == [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]

    def test_a_non_cp_block_is_refused_as_kraus_from_choi_refuses_it(self):
        m = np.zeros((4, 4), dtype=complex)
        m[np.ix_([0, 3], [0, 3])] = [[1.0, 0.5], [0.5, 1.0]]
        m[np.ix_([1, 2], [1, 2])] = [[0.5, 1.0], [1.0, 0.5]]  # eigenvalues 1.5 and -0.5
        j = ChoiMatrix(2, 2, m)
        with pytest.raises(ValueError) as expected:
            kraus_from_choi(j)
        with pytest.raises(ValueError, match="^Choi matrix has negative eigenvalue -5.000e-01, map is not CP$") as got:
            _sqrt_kraus(j)
        assert str(got.value) == str(expected.value)

    def test_non_hermitian_input_is_refused(self):
        m = choi_from_kraus(identity_channel(2)).matrix.copy()
        m[0, 3] += 1e-3
        with pytest.raises(ValueError, match="^matrix is not Hermitian"):
            _sqrt_kraus(ChoiMatrix(2, 2, m))

    def test_zero_choi_is_refused(self):
        j = ChoiMatrix(dim_in=2, dim_out=2, matrix=np.zeros((4, 4), dtype=complex))
        with pytest.raises(ValueError, match="^Choi matrix has no eigenvalue above RANK_TOL$"):
            _sqrt_kraus(j)

    def test_dense_choi_keeps_the_bits_of_one_eigvalsh(self):
        # a random channel's Choi matrix is one block: validate_cptp and
        # max_epsilon keep the bits of one eigvalsh of the whole matrix
        for d, rank, seed in ((4, 16, 1), (5, 25, 2), (8, 64, 3)):
            j = choi_from_kraus(random_channel(d, rank, rng=seed))
            whole = float(np.linalg.eigvalsh(j.matrix)[0])
            assert validate_cptp(j).min_eigenvalue == whole
            assert max_epsilon(j) == whole


class TestUnitaryChannels:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            unitary_channel(np.array([[1.0, 0.0], [0.0, 0.5]]))
        with pytest.raises(ValueError):
            unitary_channel(np.zeros((2, 3)))

    def test_perturbed_unitary_refused(self):
        # U^dag U - I has spectral norm 2e-9, above the 1e-10 tolerance
        u = _haar_unitary(np.random.default_rng(25), 8) @ np.diag([1.0 + 1e-9] + [1.0] * 7)
        with pytest.raises(ValueError, match="^matrix is not unitary within tolerance$"):
            unitary_channel(u)

    @staticmethod
    def _norm_orders(monkeypatch):
        orders = []

        def spy(m, p):
            orders.append(p)
            return schatten_norm(m, p)

        monkeypatch.setattr(channels_module, "schatten_norm", spy)
        return orders

    def test_unitary_takes_no_svd(self, monkeypatch):
        orders = self._norm_orders(monkeypatch)
        unitary_channel(_haar_unitary(np.random.default_rng(26), 64))
        assert orders == [2]

    def test_svd_decides_past_the_frobenius_bound(self, monkeypatch):
        # a gap of 8e-11 on each of 64 diagonal entries: Frobenius norm
        # 6.4e-10, spectral norm 8e-11, so the SVD runs and accepts
        orders = self._norm_orders(monkeypatch)
        u = _haar_unitary(np.random.default_rng(27), 64) * np.sqrt(1.0 + 8e-11)
        unitary_channel(u)
        assert orders == [2, np.inf]

    def test_haar_unitary_validates(self):
        rng = np.random.default_rng(24)
        ch = unitary_channel(_haar_unitary(rng, 4))
        report = validate_cptp(ch)
        assert report.is_cp and report.is_tp

    def test_phase_spread_is_unitary_channel(self):
        ch = phase_spread_unitary(8, rng=5)
        assert len(ch.kraus) == 1
        u = ch.kraus[0]
        assert schatten_norm(u.conj().T @ u - np.eye(8), np.inf) < 1e-10

    def test_phase_spread_spectrum(self):
        ch = phase_spread_unitary(16, rng=6)
        phases = np.sort(np.angle(np.linalg.eigvals(ch.kraus[0])))
        expected = np.sort(np.linspace(-1.0, 1.0, 16))
        assert np.max(np.abs(phases - expected)) < 1e-8


class TestAdjoint:
    def test_unitary_adjoint(self):
        ch = unitary_channel(HADAMARD)
        adj = adjoint(ch)
        assert np.max(np.abs(adj.kraus[0] - HADAMARD.conj().T)) < 1e-14

    def test_involution(self):
        ch = random_channel(3, 2, rng=30)
        back = adjoint(adjoint(ch))
        for a, b in zip(ch.kraus, back.kraus):
            assert np.array_equal(a, b)

    def test_pairing_identity(self):
        # tr(E(rho) sigma) = tr(rho E^dag(sigma))
        rng = np.random.default_rng(31)
        ch = random_channel(3, 3, rng=32)
        adj = adjoint(ch)
        for _ in range(20):
            rho = _rand_density(rng, 3)
            sigma = _rand_density(rng, 3)
            lhs = np.trace(_apply(ch, rho) @ sigma)
            rhs = np.trace(rho @ _apply(adj, sigma))
            assert abs(lhs - rhs) < 1e-12

    def test_adjoint_of_tp_is_unital(self):
        ch = random_channel(4, 3, rng=33)
        out = _apply(adjoint(ch), np.eye(4).astype(complex))
        assert np.max(np.abs(out - np.eye(4))) < 1e-10


class TestChannelProperties:
    def test_positivity_preserved(self):
        rng = np.random.default_rng(50)
        ch = random_channel(3, 4, rng=51)
        for _ in range(50):
            rho = _rand_density(rng, 3)
            out = _apply(ch, rho)
            assert np.linalg.eigvalsh(out)[0] > -1e-12
            assert abs(np.trace(out) - 1.0) < 1e-12

    def test_kraus_gauge_mixing_fixes_choi(self):
        # mixing the Kraus family by any unitary leaves the map unchanged
        rng = np.random.default_rng(52)
        ch = random_channel(2, 3, rng=53)
        w = _haar_unitary(rng, 3)
        stacked = np.stack(ch.kraus)
        mixed = channel_from_kraus(tuple(np.einsum("ij,jkl->ikl", w, stacked)))
        assert _choi_distance(ch, mixed) <= 1e-10

    def test_amplitude_damping(self):
        ch = amplitude_damping(0.3)
        report = validate_cptp(ch)
        assert report.is_cp and report.is_tp
        excited = np.diag([0.0, 1.0]).astype(complex)
        out = _apply(ch, excited)
        assert np.max(np.abs(out - np.diag([0.3, 0.7]))) < 1e-12
        with pytest.raises(ValueError):
            amplitude_damping(1.5)

    def test_channel_from_kraus_validation(self):
        with pytest.raises(ValueError):
            channel_from_kraus(())
        with pytest.raises(ValueError):
            channel_from_kraus((np.eye(2), np.eye(3)))
        with pytest.raises(ValueError):
            channel_from_kraus((np.zeros(4),))

    def test_random_channel_rank(self):
        ch = random_channel(3, 5, rng=54)
        assert len(ch.kraus) == 5
        assert ch.dim_in == ch.dim_out == 3


def _refuse_allocation(*args, **kwargs):
    raise AssertionError("allocated past the dense-operator budget check")


class TestDenseBudget:
    def test_d64_admitted_d128_refused(self):
        _check_dense_budget(64 * 64, "d=64 operator")
        assert 16 * (64 * 64) ** 2 <= MAX_DENSE_BYTES < 16 * (128 * 128) ** 2
        with pytest.raises(ValueError, match=r"the d=128 operator needs 4 GiB"):
            _check_dense_budget(128 * 128, "d=128 operator")

    def test_choi_refused_before_allocation(self, monkeypatch):
        ch = unitary_channel(np.eye(256))
        monkeypatch.setattr(np, "zeros", _refuse_allocation)
        monkeypatch.setattr(np, "stack", _refuse_allocation)
        monkeypatch.setattr(channels_module, "_choi_gemm", _refuse_allocation)
        for build in (choi_from_kraus, validate_cptp):
            with pytest.raises(ValueError, match=r"65536x65536 Choi matrix needs 64 GiB"):
                build(ch)

    def test_depolarizing_refused_before_basis(self, monkeypatch):
        monkeypatch.setattr(channels_module, "unitary_operator_basis", _refuse_allocation)
        with pytest.raises(ValueError, match=r"d=256 depolarizing channel needs 64 GiB"):
            depolarizing(0.5, 256)
