import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatefid import channels, fidelity
from gatefid.channels import (
    ChoiMatrix,
    QuantumChannel,
    channel_from_kraus,
    choi_from_kraus,
    depolarizing,
    identity_channel,
    random_channel,
    unitary_channel,
)
from gatefid.fidelity import (
    CONCENTRATION_C,
    LIPSCHITZ_CONSTANT,
    SYMMETRIC_FORM_MAX_DIM,
    SYMMETRIC_FORM_MAX_FILL,
    FidelityKernel,
    _form_pattern,
    _kraus_gradient,
    _kraus_products,
    _upper_pairs,
    average_gate_fidelity,
    depolarizing_gate_fidelity,
    fidelity_kernel,
    gate_fidelity_batch,
    overlap_distance,
    symmetric_form,
    uses_symmetric_form,
    variance_bounds,
)
from gatefid.linalg import partial_transpose, schatten_norm
from gatefid.nonuniq import perturb_channel
from gatefid.sampling import haar_states, mc_fidelity_stats

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _rand_state(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _haar_unitary(rng, d):
    raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(raw)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


class TestGateFidelityPointwise:
    def test_unitary_channel_is_perfect(self):
        rng = np.random.default_rng(64)
        u = _haar_unitary(rng, 3)
        ch = unitary_channel(u)
        for _ in range(10):
            phi = _rand_state(rng, 3)
            assert abs(float(gate_fidelity_batch(ch, u, phi)) - 1.0) < 1e-12

    def test_depolarizing_is_constant(self):
        rng = np.random.default_rng(65)
        for p, d in ((0.3, 2), (0.7, 3), (0.9, 4)):
            ch = depolarizing(p, d)
            expected = p + (1.0 - p) / d
            phis = np.stack([_rand_state(rng, d) for _ in range(100)])
            values = gate_fidelity_batch(ch, None, phis)
            assert np.max(np.abs(values - expected)) < 1e-12

    def test_bit_flip_on_basis_state(self):
        ch = unitary_channel(PAULI_X)
        assert float(gate_fidelity_batch(ch, None, np.array([1.0, 0.0]))) < 1e-15
        plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert abs(float(gate_fidelity_batch(ch, None, plus)) - 1.0) < 1e-12

    @given(st.floats(0.0, 2.0 * np.pi), st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_global_phase_invariance(self, theta, seed):
        rng = np.random.default_rng(seed)
        ch = random_channel(2, 2, rng=seed)
        phi = _rand_state(rng, 2)
        a = float(gate_fidelity_batch(ch, None, phi))
        b = float(gate_fidelity_batch(ch, None, np.exp(1j * theta) * phi))
        assert abs(a - b) < 1e-12

    def test_matches_state_fidelity_for_unitary_target(self):
        rng = np.random.default_rng(66)
        ch = random_channel(3, 2, rng=67)
        u = _haar_unitary(rng, 3)
        for _ in range(10):
            phi = _rand_state(rng, 3)
            rho = np.outer(phi, phi.conj())
            # <U phi| E(rho) |U phi>, with E(rho) = sum_k A_k rho A_k^dag
            e_rho = sum(a @ rho @ a.conj().T for a in ch.kraus)
            u_phi = u @ phi
            expected = float((u_phi.conj() @ e_rho @ u_phi).real)
            got = float(gate_fidelity_batch(ch, u, phi))
            assert abs(got - expected) < 1e-12

    def test_folding_the_target_preserves_values(self):
        # rank 3 takes the Kraus loop, rank 9 the symmetric form
        for rank in (3, 9):
            rng = np.random.default_rng(68)
            ch = random_channel(3, rank, rng=69)
            u = _haar_unitary(rng, 3)
            lam = channel_from_kraus([u.conj().T @ a for a in ch.kraus])
            phis = np.stack([_rand_state(rng, 3) for _ in range(50)])
            assert (fidelity_kernel(ch, u).form is None) == (rank == 3)
            direct = gate_fidelity_batch(ch, u, phis)
            folded = gate_fidelity_batch(lam, None, phis)
            assert np.array_equal(direct, folded)

    def test_choi_bilinear_identity(self):
        # F(phi) = tr[ PT(J) (phi phi^dag (x) phi phi^dag) ] with the partial
        # transpose on the second (input) factor of the Choi matrix
        rng = np.random.default_rng(70)
        ch = random_channel(3, 4, rng=71)
        j = choi_from_kraus(ch).matrix
        pt = partial_transpose(j, 3, 3, factor="second")
        for _ in range(10):
            phi = _rand_state(rng, 3)
            proj = np.outer(phi, phi.conj())
            expected = float(np.trace(pt @ np.kron(proj, proj)).real)
            assert abs(float(gate_fidelity_batch(ch, None, phi)) - expected) < 1e-10

    def test_batch_matches_loop(self):
        rng = np.random.default_rng(72)
        ch = random_channel(2, 3, rng=73)
        phis = np.stack([_rand_state(rng, 2) for _ in range(20)])
        batch = gate_fidelity_batch(ch, None, phis)
        single = [float(gate_fidelity_batch(ch, None, phi)) for phi in phis]
        assert np.max(np.abs(batch - np.array(single))) < 1e-14

    def test_shape_guards(self):
        ch = depolarizing(0.5, 2)
        with pytest.raises(ValueError):
            float(gate_fidelity_batch(ch, None, np.array([1.0, 0.0, 0.0])))
        with pytest.raises(ValueError):
            float(gate_fidelity_batch(ch, np.eye(3), np.array([1.0, 0.0])))
        tall = channel_from_kraus((np.zeros((3, 2)),))
        with pytest.raises(ValueError):
            float(gate_fidelity_batch(tall, None, np.array([1.0, 0.0])))


def _sym_isometry(d):
    # columns |ii> and (|ij> + |ji>)/sqrt(2), i < j, in numpy.triu_indices order
    rows, cols = np.triu_indices(d)
    v = np.zeros((d * d, len(rows)))
    for a, (i, j) in enumerate(zip(rows, cols)):
        w = 1.0 if i == j else np.sqrt(0.5)
        v[i * d + j, a] = v[j * d + i, a] = w
    return v


class TestSymmetricForm:
    @given(
        st.integers(2, 8).flatmap(
            lambda d: st.tuples(st.just(d), st.integers(1, d * d))
        ),
        st.booleans(),
        st.integers(0, 10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_kraus_loop(self, d_rank, with_target, seed):
        d, rank = d_rank
        ch = random_channel(d, rank, rng=seed)
        u = _haar_unitary(np.random.default_rng(seed + 1), d) if with_target else None
        states = haar_states(d, 300, rng=seed + 2)
        ops = fidelity_kernel(ch, u).ops
        kraus = FidelityKernel(ops=ops, form=None).values(states)
        form = FidelityKernel(ops=ops, form=symmetric_form(ch, u)).values(states)
        assert np.max(np.abs(form - kraus)) <= 1e-13

    def test_index_arrays_are_built_once_per_dimension(self, monkeypatch):
        # the symmetric form's coordinates take their indices and weights
        # from a per-dimension cache, not from a rebuild per batch
        d = 4
        kernel = fidelity_kernel(random_channel(d, d * d, rng=87))
        whole = kernel.values(haar_states(d, 300, rng=86))
        i, j, weight = _upper_pairs(d)
        assert _upper_pairs(d) is _upper_pairs(d)
        assert np.array_equal(i, np.triu_indices(d)[0]) and np.array_equal(j, np.triu_indices(d)[1])
        assert np.array_equal(weight, np.where(i == j, 1.0, np.sqrt(2.0)))
        assert not any(array.flags.writeable for array in (i, j, weight))

        def rebuilt(*args, **kwargs):
            raise AssertionError("index arrays rebuilt per batch")

        monkeypatch.setattr(np, "triu_indices", rebuilt)
        assert kernel.values(haar_states(d, 300, rng=86)).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("d", [3, 6, 16])
    def test_row_bits_do_not_depend_on_the_batch(self, d):
        # no tile has one row, which numpy's gemv path would evaluate; the
        # d = 16 depolarizing form takes the pattern route
        ch = depolarizing(0.5, d) if d == 16 else random_channel(d, d * d, rng=88 + d)
        kernel = fidelity_kernel(ch)
        assert kernel.form is not None and (kernel.pattern is not None) == (d == 16)
        states = haar_states(d, 600, rng=90 + d)
        whole = kernel.values(states)
        for start, stop in ((0, 257), (100, 102), (0, 513), (300, 600)):
            assert kernel.values(states[start:stop]).tobytes() == whole[start:stop].tobytes()

    def test_is_the_symmetric_block_of_the_partial_transpose(self):
        rng = np.random.default_rng(74)
        for d, rank in ((2, 3), (3, 9), (4, 7)):
            ch = random_channel(d, rank, rng=75 + d)
            u = _haar_unitary(rng, d)
            lam = channel_from_kraus([u.conj().T @ a for a in ch.kraus])
            pt = partial_transpose(choi_from_kraus(lam).matrix, d, d, factor="second")
            v = _sym_isometry(d)
            expected = v.T @ pt @ v
            assert np.max(np.abs(symmetric_form(ch, u) - expected)) < 1e-14

    def test_trace_gives_the_average(self):
        # the Haar average of (phi phi^dag)^(x)2 is P_sym / C(d+1, 2)
        for d, rank in ((2, 4), (3, 5), (5, 25)):
            ch = random_channel(d, rank, rng=76 + d)
            m = symmetric_form(ch)
            assert abs(np.trace(m).real / (d * (d + 1) / 2) - average_gate_fidelity(ch)) < 1e-14

    @given(st.integers(2, 8).flatmap(lambda d: st.tuples(st.just(d), st.integers(1, d))))
    @settings(max_examples=25, deadline=None)
    def test_rank_at_most_d_takes_the_kraus_loop(self, d_rank):
        d, rank = d_rank
        kernel = fidelity_kernel(random_channel(d, rank, rng=[d, rank]))
        assert kernel.form is None

    def test_dispatch_rule(self):
        for d in range(2, 65):
            for rank in range(1, d + 1):
                assert not uses_symmetric_form(rank, d)
            assert uses_symmetric_form(d * d, d) == (d <= SYMMETRIC_FORM_MAX_DIM)
        u = _haar_unitary(np.random.default_rng(77), 4)
        assert fidelity_kernel(depolarizing(0.5, 4), u).form is not None

    @given(st.floats(0.0, 1.0), st.integers(2, 8), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_depolarizing_is_constant(self, p, d, seed):
        ch = depolarizing(p, d)
        assert fidelity_kernel(ch).form is not None
        values = gate_fidelity_batch(ch, None, haar_states(d, 500, rng=seed))
        assert np.max(np.abs(values - (p + (1.0 - p) / d))) <= 1e-13

    def test_kernel_is_reused_across_batches(self):
        ch = random_channel(4, 16, rng=78)
        kernel = fidelity_kernel(ch)
        states = haar_states(4, 1000, rng=79)
        whole = gate_fidelity_batch(ch, None, states, kernel=kernel)
        parts = [gate_fidelity_batch(ch, None, states[i : i + 7], kernel=kernel)
                 for i in range(0, 1000, 7)]
        assert np.array_equal(whole, np.concatenate(parts))

    def test_target_checked_once_per_kernel(self, monkeypatch):
        calls = []
        real = fidelity._check_target
        monkeypatch.setattr(
            fidelity, "_check_target", lambda u, d: calls.append(d) or real(u, d)
        )
        u = _haar_unitary(np.random.default_rng(86), 4)
        kernel = fidelity_kernel(random_channel(4, 16, rng=87), u)
        assert kernel.form is not None
        assert calls == [4]

    def test_shape_guards(self):
        with pytest.raises(ValueError):
            symmetric_form(depolarizing(0.5, 2), np.eye(3))
        with pytest.raises(ValueError):
            fidelity_kernel(channel_from_kraus((np.zeros((3, 2)),)))


def _tangent(x, g):
    # drop the radial part; the phase direction i x carries none already
    return g - np.real(np.vdot(x, g)) * x


def _fd_gradient(ch, u, x, h=1e-6):
    """Central differences of F(x / |x|) along each Re and Im coordinate."""
    d = len(x)
    steps = np.concatenate([np.eye(d), 1j * np.eye(d)]) * h
    plus = x + steps
    minus = x - steps
    plus /= np.linalg.norm(plus, axis=1, keepdims=True)
    minus /= np.linalg.norm(minus, axis=1, keepdims=True)
    diff = (gate_fidelity_batch(ch, u, plus) - gate_fidelity_batch(ch, u, minus)) / (2 * h)
    return diff[:d] + 1j * diff[d:]


def _gradient(kernel, rows):
    """The exact gradient of F at each row, from the kernel's folded operators."""
    return _kraus_gradient(rows, *_kraus_products(kernel.ops, rows))[1]


class TestKernelGradient:
    @pytest.mark.parametrize(
        "d,rank,symmetric",
        [(2, 1, False), (3, 2, False), (4, 4, False), (16, 3, False),
         (3, 9, True), (4, 5, True), (5, 25, True), (6, 9, True)],
    )
    @pytest.mark.parametrize("with_target", [False, True])
    def test_matches_finite_differences(self, d, rank, symmetric, with_target):
        ch = random_channel(d, rank, rng=[80, d, rank])
        rng = np.random.default_rng([81, d, rank])
        u = _haar_unitary(rng, d) if with_target else None
        kernel = fidelity_kernel(ch, u)
        assert (kernel.form is not None) == symmetric
        for x in haar_states(d, 3, rng=8200 + 100 * d + rank):
            got = _tangent(x, _gradient(kernel, x[None])[0])
            assert np.max(np.abs(got - _tangent(x, _fd_gradient(ch, u, x)))) < 1e-6

    @pytest.mark.parametrize("d,rank", [(2, 1), (3, 9), (8, 4), (16, 3)])
    def test_rows_match_one_state_gradient(self, d, rank):
        # the (d,) formula the row gradient replaced, and finite differences
        ch = random_channel(d, rank, rng=[86, d, rank])
        u = _haar_unitary(np.random.default_rng([87, d]), d)
        kernel = fidelity_kernel(ch, u)
        ops = kernel.ops
        rows = haar_states(d, 5, rng=8700 + d)
        grads = _gradient(kernel, rows)
        assert grads.shape == rows.shape
        for x, g in zip(rows, grads):
            b_phi = ops @ x
            c = b_phi @ x.conj()
            one = 2.0 * (c.conj() @ b_phi + c @ (x.conj() @ ops).conj())
            assert np.max(np.abs(g - one)) < 1e-13
            assert np.max(np.abs(_tangent(x, g) - _tangent(x, _fd_gradient(ch, u, x)))) < 1e-6

    def test_radial_part_is_4f(self):
        ch = random_channel(4, 16, rng=83)
        u = _haar_unitary(np.random.default_rng(84), 4)
        kernel = fidelity_kernel(ch, u)
        for x in haar_states(4, 5, rng=85):
            g = _gradient(kernel, x[None])[0]
            assert abs(np.real(np.vdot(x, g)) - 4 * gate_fidelity_batch(ch, u, x)) < 1e-13


class TestKernelOperators:
    def test_rank_one_channel_is_not_copied(self):
        # at the identity target the kernel reads the channel's one Kraus
        # array in place, at every rank. A unitary channel's U, 64 MiB at
        # d = 2048, is not held a second time; built as unitary_channel
        # builds it, without its 10 s check.
        ch = QuantumChannel(2048, 2048, np.eye(2048, dtype=complex)[None])
        tracemalloc.start()
        try:
            kernel = fidelity_kernel(ch)
            allocated = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert allocated <= 2**20
        assert np.shares_memory(kernel.ops, ch.kraus)
        for ch in (random_channel(256, 4, rng=1), depolarizing(0.5, 16)):
            assert fidelity_kernel(ch).ops is ch.kraus

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("with_target", [False, True])
    def test_rank_one_operators_give_the_stacked_bits(self, with_target, order):
        rng = np.random.default_rng(86)
        ch = unitary_channel(np.asarray(_haar_unitary(rng, 5), order=order))
        u = _haar_unitary(rng, 5) if with_target else None
        stacked = np.stack(ch.kraus)
        if u is not None:
            stacked = u.conj().T @ stacked
        kernel = fidelity_kernel(ch, u)
        assert kernel.ops.flags.c_contiguous
        assert kernel.ops.tobytes() == stacked.tobytes()
        states = haar_states(5, 300, rng=87)
        expected = FidelityKernel(ops=stacked, form=None).values(states)
        assert kernel.values(states).tobytes() == expected.tobytes()


def _weyl_diagonal(weights: np.ndarray, d: int) -> QuantumChannel:
    # rho -> sum_k weights_k W_k rho W_k^dag over the clock and shift
    # monomials W_k = X^a Z^b, k = a d + b
    return channel_from_kraus(np.sqrt(weights)[:, None, None] * channels._clock_shift(d))


def _twin(d: int, side: str) -> QuantumChannel:
    return getattr(perturb_channel(depolarizing(0.5, d), n_verify=2, rng=122), side)


def _dephasing(d: int) -> QuantumChannel:
    weights = np.zeros(d * d)
    weights[:d] = np.random.default_rng(121).dirichlet(np.ones(d))  # Z^b only
    return _weyl_diagonal(weights, d)


# channels whose symmetric forms are mostly exact zeros, built on use
_STRUCTURED = {
    **{f"depolarizing-{d}": functools.partial(depolarizing, 0.5, d) for d in range(2, 33)},
    **{f"twin-{side}-{d}": functools.partial(_twin, d, side) for d in (4, 5, 16) for side in "qr"},
    "dephasing-6": functools.partial(_dephasing, 6),
    "weyl-diagonal-5": lambda: _weyl_diagonal(np.random.default_rng(121).dirichlet(np.ones(25)), 5),
}


class TestPatternRoute:
    """The symmetric form evaluated on its stored entries."""

    @pytest.mark.parametrize("name", list(_STRUCTURED))
    def test_agrees_with_the_gemm_route(self, name):
        # forced onto both routes, whatever the fill
        ch = _STRUCTURED[name]()
        form = symmetric_form(ch)
        gemm = FidelityKernel(ops=ch.kraus, form=form)
        pattern = FidelityKernel(ops=ch.kraus, form=form, pattern=_form_pattern(form, ch.dim_in))
        states = haar_states(ch.dim_in, 600, rng=123)
        assert np.max(np.abs(pattern.values(states) - gemm.values(states))) <= 1e-14

    @pytest.mark.parametrize("d", [3, 6, 16])
    def test_dense_forms_keep_the_gemm_bits(self, d):
        ch = random_channel(d, d * d, rng=124 + d)
        kernel = fidelity_kernel(ch)
        form = symmetric_form(ch)
        assert kernel.pattern is None and kernel.form.tobytes() == form.tobytes()
        states = haar_states(d, 600, rng=125)
        expected = FidelityKernel(ops=ch.kraus, form=form).values(states)
        assert kernel.values(states).tobytes() == expected.tobytes()

    def test_route_follows_the_fill(self):
        # Pauli-basis depolarizing forms are sparse; at d = 24 the clock and
        # shift sums leave rounding in every entry of a d x d block of J
        for d, sparse in ((16, True), (24, False), (32, True)):
            kernel = fidelity_kernel(depolarizing(0.5, d))
            fill = np.count_nonzero(kernel.form) / kernel.form.size
            assert (kernel.pattern is not None) == (fill <= SYMMETRIC_FORM_MAX_FILL) == sparse
        for d in range(2, 9):  # fills of 0.07 and above
            assert fidelity_kernel(depolarizing(0.5, d)).pattern is None

    def test_planted_anti_hermitian_part_is_not_read(self):
        # the GEMM route's real part reads only the Hermitian part of M
        d = 16
        form = symmetric_form(depolarizing(0.5, d))
        g = np.random.default_rng(126)
        noise = np.where(g.random(form.shape) < 0.05, g.standard_normal(form.shape), 0.0)
        planted = form + 1e-17j * (noise + noise.T)  # i times a real symmetric matrix
        pattern = _form_pattern(planted, d)
        assert pattern.coef.shape == _form_pattern(form, d).coef.shape
        states = haar_states(d, 600, rng=127)
        ops = np.empty((1, d, d), dtype=complex)  # read for d alone
        gemm = FidelityKernel(ops=ops, form=planted).values(states)
        got = FidelityKernel(ops=ops, form=planted, pattern=pattern).values(states)
        assert np.max(np.abs(got - gemm)) <= 1e-14

    # the dephasing channel's rank d keeps the Kraus loop
    @pytest.mark.parametrize("name", [name for name in _STRUCTURED if name != "dephasing-6"])
    def test_kernel_form_is_the_symmetric_form(self, name):
        ch = _STRUCTURED[name]()
        kernel = fidelity_kernel(ch)
        assert kernel.form.tobytes() == symmetric_form(ch).tobytes()

    @pytest.mark.parametrize("target", [False, True], ids=["identity", "unitary"])
    @pytest.mark.parametrize("d", [5, 11])
    def test_dense_kernel_form_is_the_symmetric_form(self, d, target):
        ch = random_channel(d, d * d, rng=131 + d)
        u = _haar_unitary(np.random.default_rng(132 + d), d) if target else None
        kernel = fidelity_kernel(ch, u)
        assert kernel.pattern is None and kernel.form.tobytes() == symmetric_form(ch, u).tobytes()

    @pytest.mark.parametrize("d", [4, 5, 8, 16])
    def test_held_choi_gives_the_same_kernel(self, d, monkeypatch):
        # same route and same bits, and no Choi GEMM, whatever the route
        pair = perturb_channel(depolarizing(0.5, d), n_verify=2, rng=128)
        states = haar_states(d, 600, rng=129)
        held = [(ch, fidelity_kernel(ch), choi_from_kraus(ch)) for ch in (pair.q, pair.r)]
        monkeypatch.setattr(fidelity, "_choi_gemm", _no_gemm)
        for ch, want, choi in held:
            got = fidelity_kernel(ch, choi=choi)
            assert (got.pattern is None) == (want.pattern is None) == (d != 16)
            assert got.form.tobytes() == want.form.tobytes()
            assert got.values(states).tobytes() == want.values(states).tobytes()

    def test_held_choi_kernel_keeps_the_kraus_loop(self):
        ch = random_channel(5, 2, rng=130)
        unread = ChoiMatrix(dim_in=5, dim_out=5, matrix=None)  # reading it would raise
        kernel = fidelity_kernel(ch, choi=unread)
        assert kernel.form is None and kernel.ops is ch.kraus

    def test_held_choi_with_a_target_refused(self):
        ch = depolarizing(0.5, 4)
        u = _haar_unitary(np.random.default_rng(133), 4)
        with pytest.raises(ValueError, match=r"held Choi matrix is the channel's own: it takes u=None"):
            fidelity_kernel(ch, u, choi=choi_from_kraus(ch))

    def test_held_choi_of_other_dimensions_refused(self):
        ch = depolarizing(0.5, 4)
        with pytest.raises(ValueError, match=r"\(dim_in, dim_out\) \(5, 5\) is not the channel's \(4, 4\)"):
            fidelity_kernel(ch, choi=choi_from_kraus(depolarizing(0.5, 5)))


def _no_gemm(*args, **kwargs):
    raise AssertionError("a Choi GEMM ran")


class TestAverageGateFidelity:
    def test_unitary_is_one(self):
        rng = np.random.default_rng(74)
        u = _haar_unitary(rng, 4)
        assert abs(average_gate_fidelity(unitary_channel(u), u) - 1.0) < 1e-12

    def test_depolarizing_closed_form(self):
        for p, d in ((0.9, 2), (0.5, 3), (0.2, 4)):
            got = average_gate_fidelity(depolarizing(p, d))
            assert abs(got - (p + (1.0 - p) / d)) < 1e-12

    def test_bit_flip_value(self):
        # single Kraus X, trace 0: average is (0 + 2) / (4 + 2) = 1/3
        got = average_gate_fidelity(unitary_channel(PAULI_X))
        assert abs(got - 1.0 / 3.0) < 1e-15

    def test_agrees_with_monte_carlo(self):
        ch = random_channel(3, 2, rng=75)
        closed = average_gate_fidelity(ch)
        stats = mc_fidelity_stats(ch, None, 100_000, rng=76)
        assert abs(stats.mean - closed) <= 3.0 * stats.stderr + 1e-12

    def test_gauge_invariance(self):
        # mixing the Kraus family must not move the average
        rng = np.random.default_rng(77)
        ch = random_channel(3, 3, rng=78)
        raw = np.random.default_rng(79).standard_normal((3, 3)) + 1j * np.random.default_rng(
            80
        ).standard_normal((3, 3))
        w, _ = np.linalg.qr(raw)
        stacked = np.stack(ch.kraus)
        mixed = channel_from_kraus(tuple(np.einsum("ij,jkl->ikl", w, stacked)))
        assert abs(average_gate_fidelity(ch) - average_gate_fidelity(mixed)) < 1e-12

    def test_target_folds_like_reduce_to_lambda(self):
        rng = np.random.default_rng(81)
        for d in (2, 3, 5):
            for rank in (1, d, d * d):
                ch = random_channel(d, rank, rng=int(rng.integers(10**6)))
                u = _haar_unitary(rng, d)
                lam = channel_from_kraus([u.conj().T @ a for a in ch.kraus])
                folded = average_gate_fidelity(lam)
                assert abs(average_gate_fidelity(ch, u) - folded) < 1e-15

    def test_depolarizing_helper_validates(self):
        assert abs(depolarizing_gate_fidelity(0.9, 2) - 0.95) < 1e-15
        assert depolarizing_gate_fidelity(1.0, 7) == 1.0
        assert abs(depolarizing_gate_fidelity(0.0, 4) - 0.25) < 1e-15
        with pytest.raises(ValueError):
            depolarizing_gate_fidelity(-0.2, 2)
        with pytest.raises(ValueError):
            depolarizing_gate_fidelity(0.5, 1)


def _clip_always(values):
    """_clamp_unit as it was before values inside [0, 1] skipped the clip."""
    arr = np.asarray(values, dtype=float)
    low = float(arr.min())
    high = float(arr.max())
    if low < -1e-8 or high > 1.0 + 1e-8:
        raise ValueError(
            f"value outside [0, 1] beyond tolerance: range [{low:.6e}, {high:.6e}]"
        )
    clipped = np.clip(arr, 0.0, 1.0)
    return clipped if clipped.ndim else float(clipped)


class TestClampUnit:
    @pytest.mark.parametrize(
        "values",
        [
            np.array([0.25, 0.5, 1.0]),
            np.array([-0.0, 0.0, 1.0]),
            np.array([-1e-9, 0.5]),
            np.array([0.5, 1.0 + 1e-9]),
            np.array([0.5, np.nan]),
            np.array([[0.1, 0.9], [0.0, 1.0]]),
            [0.2, 0.4],
            np.array(0.3),
            0.3,
            -0.0,
            1.0 + 5e-9,
            np.float64(0.7),
            float("nan"),
            1,
        ],
        ids=lambda v: repr(v).replace(" ", ""),
    )
    def test_same_values_dtype_and_type_as_the_clip(self, values):
        got = fidelity._clamp_unit(values)
        want = _clip_always(values)
        assert type(got) is type(want)
        if isinstance(want, float):
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
        else:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("values", [np.array([0.5, -2e-8]), 1.5, np.array([[0.0, 1.1]])])
    def test_out_of_range_message_unchanged(self, values):
        with pytest.raises(ValueError) as want:
            _clip_always(values)
        with pytest.raises(ValueError, match=r"^value outside \[0, 1\] beyond tolerance") as got:
            fidelity._clamp_unit(values)
        assert str(got.value) == str(want.value)


class TestTargetCheck:
    NOT_UNITARY = np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex)

    @pytest.mark.parametrize(
        "call",
        [
            lambda ch, u: average_gate_fidelity(ch, u),
            lambda ch, u: float(gate_fidelity_batch(ch, u, np.array([1.0, 0.0]))),
            lambda ch, u: fidelity_kernel(ch, u),
            lambda ch, u: symmetric_form(ch, u),
        ],
        ids=["average", "pointwise", "kernel", "symmetric_form"],
    )
    def test_non_unitary_target_refused(self, call):
        with pytest.raises(ValueError, match="target matrix is not unitary within 1e-10"):
            call(depolarizing(0.9, 2), self.NOT_UNITARY)

    def test_unitary_target_takes_no_svd(self, monkeypatch):
        orders = []
        monkeypatch.setattr(
            channels, "schatten_norm", lambda m, p: orders.append(p) or schatten_norm(m, p)
        )
        assert fidelity._check_target(PAULI_X, 2) is not None
        assert orders == [2]
        with pytest.raises(ValueError, match="target matrix is not unitary within 1e-10"):
            fidelity._check_target(self.NOT_UNITARY, 2)
        assert orders == [2, 2, np.inf]

    def test_near_unitary_target_accepted(self):
        u = PAULI_X + 1e-12
        assert abs(average_gate_fidelity(unitary_channel(PAULI_X), u) - 1.0) < 1e-12


class TestVarianceBounds:
    def test_exact_value_at_d4(self):
        bounds = variance_bounds(4)
        assert abs(bounds.variance_bound_exact - 784.0 / 925.0) < 1e-15

    def test_exact_formula_small_d(self):
        got = variance_bounds(2).variance_bound_exact
        expected = (8 * 8 + 16 * 4 + 8) / ((4 + 4 + 1) * (4 + 10 + 1))
        assert abs(got - expected) < 1e-15

    def test_concentration_fifty_qubits(self):
        bounds = variance_bounds(2**50)
        assert abs(bounds.variance_bound_concentration - 1.1e-10) <= 0.1 * 1.1e-10

    def test_bounds_positive_and_exact_decreasing(self):
        dims = [2, 3, 4, 8, 64, 1024, 2**20, 2**40]
        values = [variance_bounds(d) for d in dims]
        exact = [b.variance_bound_exact for b in values]
        conc = [b.variance_bound_concentration for b in values]
        assert all(v > 0 for v in exact)
        assert all(v > 0 for v in conc)
        assert all(a > b for a, b in zip(exact, exact[1:]))
        # the capped concentration bound plateaus at 1/4 before decreasing
        assert all(a >= b for a, b in zip(conc, conc[1:]))
        assert conc[-1] < conc[0]

    def test_concentration_cap(self):
        assert variance_bounds(2).variance_bound_concentration == 0.25
        assert variance_bounds(2**30).variance_bound_concentration < 0.25

    def test_carries_constant(self):
        assert variance_bounds(8).C == CONCENTRATION_C

    def test_exact_bound_dominates_variance(self):
        # sampled variance of any channel stays below the exact bound
        for seed, d in ((81, 2), (82, 3), (83, 4)):
            ch = random_channel(d, 2, rng=seed)
            stats = mc_fidelity_stats(ch, None, 20_000, rng=seed + 100)
            limit = variance_bounds(d).variance_bound_exact
            assert stats.variance <= limit

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            variance_bounds(1)

    def test_refuses_dimensions_past_double_range(self):
        # the last finite exact bound keeps its bits
        assert variance_bounds(2**255).variance_bound_exact == 1.3817869688151111e-76
        for d in (2**256, 2**341, 2**342, 10**400):
            with pytest.raises(ValueError, match=r"d must be below about 2\*\*256"):
                variance_bounds(d)


class TestDistanceHelpers:
    def test_phase_min_distance_range(self):
        rng = np.random.default_rng(86)
        phis = np.stack([_rand_state(rng, 3) for _ in range(50)])
        psis = np.stack([_rand_state(rng, 3) for _ in range(50)])
        dist = overlap_distance(np.abs(np.sum(phis.conj() * psis, axis=-1)))
        assert np.all(dist >= 0.0)
        assert np.all(dist <= np.sqrt(2.0) + 1e-12)

    def test_phase_min_distance_zero_up_to_phase(self):
        rng = np.random.default_rng(87)
        phi = _rand_state(rng, 4)
        assert overlap_distance(abs(np.vdot(phi, phi))) < 1e-7
        assert overlap_distance(abs(np.vdot(phi, np.exp(0.7j) * phi))) < 1e-7

    def test_phase_min_distance_orthogonal(self):
        e0 = np.array([1.0, 0.0])
        e1 = np.array([0.0, 1.0])
        assert abs(overlap_distance(abs(np.vdot(e0, e1))) - np.sqrt(2.0)) < 1e-12

    def test_beats_naive_distance(self):
        rng = np.random.default_rng(88)
        phi = _rand_state(rng, 3)
        psi = _rand_state(rng, 3)
        naive = np.linalg.norm(phi - psi)
        assert overlap_distance(abs(np.vdot(phi, psi))) <= naive + 1e-12

    def test_lipschitz_constant_value(self):
        assert abs(LIPSCHITZ_CONSTANT - 3.0 * np.sqrt(2.0)) < 1e-15
