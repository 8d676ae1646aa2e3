import math
import threading
import tracemalloc

import numpy as np
import pytest

from gatefid import sampling
from gatefid.channels import (
    QuantumChannel,
    depolarizing,
    identity_channel,
    phase_spread_spectrum,
    phase_spread_unitary,
    random_channel,
    unitary_channel,
)
from gatefid.fidelity import (
    LIPSCHITZ_CONSTANT,
    _clamp_unit,
    _kraus_values,
    _row_tiles,
    average_gate_fidelity,
    fidelity_kernel,
    gate_fidelity_batch,
    overlap_distance,
    uses_symmetric_form,
)
from gatefid.minimum import effective_epsilon
from gatefid.nonuniq import verify_pair
from gatefid.sampling import (
    ALGORITHM_ID,
    BLOCK_SIZE,
    DEFAULT_SEED,
    LEVY_C1,
    RngSpec,
    TAG_MAIN,
    TAG_VALIDATE,
    _block_fidelities,
    _haar_block,
    _spectrum_average,
    as_rng_spec,
    convergence_report,
    generator,
    fidelity_samples,
    haar_states,
    levy_bound,
    mc_fidelity_stats,
)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


class TestRngSpec:
    def test_int_coercion(self):
        assert as_rng_spec(7) == RngSpec(seed=7, algorithm_id=ALGORITHM_ID)

    def test_passthrough(self):
        spec = RngSpec(seed=11)
        assert as_rng_spec(spec) is spec

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError):
            as_rng_spec(RngSpec(seed=1, algorithm_id="mt19937"))

    def test_refuses_the_previous_layout(self):
        # pcg64-block4096 drew all of a block's real parts before its
        # imaginary ones; its seeds name other states under this layout
        with pytest.raises(ValueError) as info:
            as_rng_spec(RngSpec(seed=1, algorithm_id="pcg64-block4096"))
        assert "'pcg64-block4096'" in str(info.value)
        assert repr(ALGORITHM_ID) in str(info.value)

    def test_refuses_the_haar_only_id(self):
        # pcg64-interleaved-block4096 drew Haar states for unitary channels
        # too; its seeds name other samples of those under this id
        with pytest.raises(ValueError) as info:
            as_rng_spec(RngSpec(seed=1, algorithm_id="pcg64-interleaved-block4096"))
        assert "'pcg64-interleaved-block4096'" in str(info.value)
        assert repr(ALGORITHM_ID) in str(info.value)

    def test_rejects_out_of_range_seed(self):
        with pytest.raises(ValueError):
            as_rng_spec(-1)
        with pytest.raises(ValueError):
            as_rng_spec(2**64)

    def test_default_seed_in_range(self):
        as_rng_spec(DEFAULT_SEED)


class TestHaarStates:
    def test_shapes_and_norms(self):
        states = haar_states(3, 100, rng=1)
        assert states.shape == (100, 3)
        assert np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0)) < 1e-12

    def test_single_state(self):
        v = haar_states(4, 1, rng=2)[0]
        assert v.shape == (4,)
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_dimension_one(self):
        v = haar_states(1, 1, rng=3)[0]
        assert abs(abs(v[0]) - 1.0) < 1e-12

    def test_determinism(self):
        a = haar_states(2, 50, rng=4)
        b = haar_states(2, 50, rng=4)
        assert np.array_equal(a, b)
        c = haar_states(2, 50, rng=5)
        assert not np.allclose(a, c)

    def test_block_prefix_property(self):
        # a longer run must reproduce the shorter one exactly on its prefix
        short = haar_states(2, BLOCK_SIZE, rng=6)
        long = haar_states(2, BLOCK_SIZE + 500, rng=6)
        assert np.array_equal(long[:BLOCK_SIZE], short)

    @pytest.mark.parametrize("count", [1, 7, BLOCK_SIZE])
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 7, 16, 17, 64, 100, 128, 256])
    def test_block_stream_is_pinned(self, d, count):
        # the bytes behind ALGORITHM_ID: the block's first 2 count d standard
        # normals as interleaved real and imaginary parts, normed by
        # np.linalg.norm
        spec = RngSpec(11)
        for tag, block in ((TAG_MAIN, 0), (TAG_VALIDATE, 5)):
            g = generator(spec, tag, block)
            z = g.standard_normal((count, 2 * d)).view(complex)
            expected = z / np.linalg.norm(z, axis=1, keepdims=True)
            got = _drawn_block(d, spec, tag, block, count)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("d, n", [(2, 40_000), (3, 40_000), (16, 20_000), (256, 8192)])
    def test_every_entry_has_haar_moments(self, d, n):
        # E |phi_i|^2 = 1/d and E |phi_i|^4 = 2 / (d (d + 1)) for every
        # entry i, real and imaginary parts drawn interleaved
        weights = np.abs(haar_states(d, n, rng=14)) ** 2
        for power, exact in ((1, 1.0 / d), (2, 2.0 / (d * (d + 1)))):
            t = weights**power
            sigma = t.std(axis=0, ddof=1) / math.sqrt(n)
            assert np.all(np.abs(t.mean(axis=0) - exact) < 4.0 * sigma), power

    def test_tags_give_disjoint_streams(self):
        a = haar_states(2, 10, rng=7, tag=0)
        b = haar_states(2, 10, rng=7, tag=1)
        assert not np.allclose(a, b)

    def test_first_moment(self):
        # E |<0|psi>|^2 = 1/d for Haar states
        for d in (2, 5):
            states = haar_states(d, 100_000, rng=8)
            t = np.abs(states[:, 0]) ** 2
            se = t.std(ddof=1) / np.sqrt(len(t))
            assert abs(t.mean() - 1.0 / d) < 5.0 * se

    def test_second_moment(self):
        # E |<0|psi>|^4 = 2 / (d (d+1))
        for d in (2, 4):
            states = haar_states(d, 100_000, rng=9)
            t = np.abs(states[:, 0]) ** 4
            se = t.std(ddof=1) / np.sqrt(len(t))
            assert abs(t.mean() - 2.0 / (d * (d + 1))) < 5.0 * se

    def test_second_moment_quadrature_oracle(self):
        # at d=2 the law of t = |<0|psi>|^2 is uniform on [0, 1]; integrate
        # t^2 numerically and compare against the closed form 2/(d(d+1)) = 1/3
        grid = np.linspace(0.0, 1.0, 20_001)
        oracle = np.trapezoid(grid**2, grid)
        assert abs(oracle - 2.0 / (2 * 3)) < 1e-8

    def test_unitary_invariance(self):
        # overlap statistics match for rotated and unrotated ensembles
        rng = np.random.default_rng(10)
        raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        w, r = np.linalg.qr(raw)
        w = w * (np.diagonal(r) / np.abs(np.diagonal(r)))
        a = np.abs(haar_states(3, 50_000, rng=11)[:, 0]) ** 2
        b = np.abs((haar_states(3, 50_000, rng=12) @ w.T)[:, 0]) ** 2
        se = np.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
        assert abs(a.mean() - b.mean()) < 5.0 * se

    def test_input_validation(self):
        with pytest.raises(ValueError):
            haar_states(0, 5, rng=1)
        with pytest.raises(ValueError):
            haar_states(2, 0, rng=1)


class TestFidelitySamples:
    def test_determinism_across_threads(self):
        # whole blocks at d = 3, tiles at d = 65
        n = 2 * BLOCK_SIZE + 123
        for d in (3, 65):
            ch = random_channel(d, 2, rng=20)
            serial = fidelity_samples(ch, None, n, rng=21, threads=1)
            for threads in (2, 3, 4):
                threaded = fidelity_samples(ch, None, n, rng=21, threads=threads)
                assert serial.tobytes() == threaded.tobytes(), (d, threads)

    def test_prefix_property(self):
        ch = depolarizing(0.5, 2)
        short = fidelity_samples(ch, None, BLOCK_SIZE, rng=22)
        long = fidelity_samples(ch, None, 2 * BLOCK_SIZE, rng=22)
        assert np.array_equal(long[:BLOCK_SIZE], short)

    def test_small_n(self):
        ch = depolarizing(0.5, 2)
        f = fidelity_samples(ch, None, 3, rng=23)
        assert f.shape == (3,)
        with pytest.raises(ValueError):
            fidelity_samples(ch, None, 0, rng=23)

    def test_values_in_unit_interval(self):
        ch = random_channel(4, 4, rng=24)
        f = fidelity_samples(ch, None, 5000, rng=25)
        assert np.all(f >= 0.0) and np.all(f <= 1.0)

    def test_count_above_budget_refused_before_allocation(self, monkeypatch):
        # 8 n bytes of float64 results: 2**28 samples fill the 2 GiB budget
        class Admitted(Exception):
            pass

        def admitted(*args, **kwargs):
            raise Admitted

        monkeypatch.setattr(sampling, "fidelity_kernel", admitted)
        ch = depolarizing(0.5, 2)
        with pytest.raises(Admitted):
            fidelity_samples(ch, None, 2**28, rng=26)
        for n in (2**28 + 1, 10**12):
            with pytest.raises(ValueError, match=rf"array of {n} fidelity samples needs"):
                fidelity_samples(ch, None, n, rng=26)


# Whole-block forms of the Haar block (one draw of all its normals, normed by
# np.linalg.norm) and of the Kraus loop; the tiled ones must reproduce them
# bit for bit.
def _whole_haar_block(d, spec, tag, block, count):
    g = generator(spec, tag, block)
    z = g.standard_normal((count, 2 * d)).view(complex)
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _drawn_block(d, spec, tag, block, count):
    """The block's first count states, drawn by _haar_block in one call."""
    return _haar_block(generator(spec, tag, block), np.empty((count, d), dtype=complex))


def _drawn_in_pieces(d, spec, tag, block, count, rows):
    """The block's first count states, drawn by _haar_block in pieces of rows rows."""
    g = generator(spec, tag, block)
    z = np.empty((count, d), dtype=complex)
    for start in range(0, count, rows):
        _haar_block(g, z[start : start + rows])
    return z


def _whole_kraus_values(ops, states):
    bra = states.conj()
    total = np.zeros(states.shape[0])
    for op in ops:
        overlap = np.einsum("ni,ni->n", bra, states @ op.T)
        total += np.abs(overlap) ** 2
    return total


def _traced_peak(fn):
    """Bytes allocated above the level at the call, at their peak during fn()."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


MIB = 2**20
TILED_COUNTS = (1, 2, 255, 256, 257, 513, 1808, BLOCK_SIZE)


class TestTiledBlocks:
    def test_row_tiles_cover_rows_without_one_row_tiles(self):
        for n in (1, 2, 3, 255, 256, 257, 258, 512, 513, 1808, BLOCK_SIZE, BLOCK_SIZE + 1):
            tiles = list(_row_tiles(n, 256))
            assert tiles[0][0] == 0 and tiles[-1][1] == n
            assert all(a[1] == b[0] for a, b in zip(tiles, tiles[1:]))
            sizes = [stop - start for start, stop in tiles]
            assert max(sizes) <= 257
            assert n == 1 or min(sizes) >= 2

    @pytest.mark.parametrize("d", [2, 3, 16, 64, 256])
    def test_tiles_keep_the_whole_block_bits(self, d):
        # a one-row tile split off any count of the form 256k + 1 changes
        # the Kraus loop's bits (numpy's gemv path), so this fails on it
        spec = RngSpec(17)
        stacks = [fidelity_kernel(random_channel(d, rank, rng=40 + rank)).ops for rank in (1, 4)]
        for count in TILED_COUNTS:
            states = _drawn_block(d, spec, TAG_MAIN, 3, count)
            assert states.tobytes() == _whole_haar_block(d, spec, TAG_MAIN, 3, count).tobytes()
            out = np.full((count, d), np.nan, dtype=complex)
            assert _haar_block(generator(spec, TAG_MAIN, 3), out) is out
            assert out.tobytes() == states.tobytes()
            # a normal stream drawn in pieces equals the stream drawn whole
            for rows in (1, 2, 3, 256, 1000, BLOCK_SIZE):
                tiled = _drawn_in_pieces(d, spec, TAG_MAIN, 3, count, rows)
                assert tiled.tobytes() == states.tobytes(), rows
            for ops in stacks:
                got = _kraus_values(ops, states)
                assert got.tobytes() == _whole_kraus_values(ops, states).tobytes()

    @pytest.mark.parametrize("d", [16, 256])
    def test_fidelity_samples_keep_the_whole_block_bits(self, d):
        ch = random_channel(d, 4, rng=43)
        ops = fidelity_kernel(ch).ops
        n = BLOCK_SIZE + 257
        spec = RngSpec(19)
        expected = np.concatenate([
            _clamp_unit(_whole_kraus_values(ops, _whole_haar_block(d, spec, TAG_MAIN, b, c)))
            for b, c in ((0, BLOCK_SIZE), (1, 257))
        ])
        for threads in (1, 2):
            got = fidelity_samples(ch, None, n, spec, threads=threads)
            assert got.tobytes() == expected.tobytes()

    def test_haar_states_fill_one_array(self):
        d, n = 5, 2 * BLOCK_SIZE + 3
        expected = np.concatenate([
            _whole_haar_block(d, RngSpec(23), TAG_VALIDATE, b, c)
            for b, c in ((0, BLOCK_SIZE), (1, BLOCK_SIZE), (2, 3))
        ])
        assert haar_states(d, n, 23, tag=TAG_VALIDATE).tobytes() == expected.tobytes()

    def test_haar_block_working_set(self):
        # the 16 MiB block and one tile of scratch; whole, it peaked at 32 MiB
        peak = _traced_peak(lambda: _drawn_block(256, RngSpec(29), TAG_MAIN, 0, BLOCK_SIZE))
        assert peak <= 25 * MIB

    def test_kraus_batch_working_set(self):
        # beside a 16 MiB rank-4 block, (256, d) bras and products; whole,
        # the loop allocated another 32 MiB
        ch = random_channel(256, 4, rng=31)
        kernel = fidelity_kernel(ch)
        states = _drawn_block(256, RngSpec(31), TAG_MAIN, 0, BLOCK_SIZE)
        peak = _traced_peak(lambda: gate_fidelity_batch(ch, None, states, kernel=kernel))
        assert peak <= 4 * MIB

    def test_haar_states_working_set(self):
        # the 12 MiB result and one tile; concatenating blocks peaked at 24 MiB
        d, n = 12288, 64
        peak = _traced_peak(lambda: haar_states(d, n, 37))
        assert peak <= 16 * n * d + 2 * MIB


RUNNER_COUNTS = (1, 2, 257, BLOCK_SIZE + 1, BLOCK_SIZE + 257, 10_000)


def _channels_of_both_paths(d):
    """A rank-2 channel (the Kraus loop) and, up to d = 16, a symmetric-form one."""
    channels = [random_channel(d, 2, rng=60 + d)]
    if d <= 16:
        rank = max(d + 1, (d * d + 3) // 4)
        assert uses_symmetric_form(rank, d)
        channels.append(random_channel(d, rank, rng=70 + d))
    return channels


def _reference_samples(ch, n, spec):
    """Fidelities at the n states of spec, block by block from whole blocks.

    A block of one row is a matrix-vector product on either path, so the
    blocks are evaluated one by one, not as one batch.
    """
    kernel = fidelity_kernel(ch)
    values = []
    for b in range(math.ceil(n / BLOCK_SIZE)):
        states = _whole_haar_block(ch.dim_in, spec, TAG_MAIN, b, min(BLOCK_SIZE, n - b * BLOCK_SIZE))
        if kernel.form is None:
            values.append(_clamp_unit(_whole_kraus_values(kernel.ops, states)))
        else:
            values.append(gate_fidelity_batch(ch, None, states, kernel=kernel))
    return np.concatenate(values)


def _spectral_reference(lam, n, spec):
    """A unitary's fidelities at n from its eigenvalues lam: each block's first
    count * d exponentials, drawn whole as a (count, d) array and summed against
    the columns Re lambda, Im lambda, 1 in the runner's tiles of
    min(BLOCK_SIZE, max(2, 2^16 // d)) rows.
    """
    d = len(lam)
    w = np.stack([lam.real, lam.imag, np.ones(d)], axis=1)
    rows = min(BLOCK_SIZE, max(2, 2**16 // d))
    values = []
    for b in range(math.ceil(n / BLOCK_SIZE)):
        count = min(BLOCK_SIZE, n - b * BLOCK_SIZE)
        x = generator(spec, TAG_MAIN, b).standard_exponential((count, d))
        for start, stop in _row_tiles(count, rows):
            r = x[start:stop] @ w
            values.append((r[:, 0] ** 2 + r[:, 1] ** 2) / r[:, 2] ** 2)
    return _clamp_unit(np.concatenate(values))


class TestTileRunner:
    """Each worker draws a block's tiles one at a time and evaluates each at once."""

    @pytest.mark.parametrize("d", [2, 3, 16, 64, 256, 300])
    def test_runner_keeps_the_whole_block_bits(self, d):
        # each channel alone, as fidelity_samples runs it, and both on one
        # draw of each block, as verify_pair runs them. Above d = 16, r is a
        # rank-1 random channel, a unitary: alone it takes the spectral route
        spec = RngSpec(61)
        q, *rest = _channels_of_both_paths(d)
        r = rest[0] if rest else random_channel(d, 1, rng=80 + d)
        for k, n in enumerate(RUNNER_COUNTS):
            expected = [_reference_samples(ch, n, spec).tobytes() for ch in (q, r)]
            for threads in (1, 2, 3):
                both = _block_fidelities([(q, None), (r, None)], n, spec, threads)
                assert [f.tobytes() for f in both] == expected, (d, n, threads)
            if not rest:
                lam = np.linalg.eigvals(r.kraus[0])
                expected[1] = _spectral_reference(lam, n, spec).tobytes()
            threads = 1 + k % 3  # each count of workers, over the counts of states
            for ch, want in zip((q, r), expected):
                (alone,) = _block_fidelities([(ch, None)], n, spec, threads)
                assert alone.tobytes() == want, (d, n, threads)

    @pytest.mark.parametrize("d", [2, 3, 16])
    def test_verify_pair_residual_from_the_whole_block_samples(self, d):
        q, r = _channels_of_both_paths(d)
        n = BLOCK_SIZE + 257
        fq, fr = (_reference_samples(ch, n, RngSpec(63)) for ch in (q, r))
        for threads in (1, 2, 3):
            verified = verify_pair(q, r, n, 63, threads=threads)
            assert verified.fidelity_residual_max == float(np.max(np.abs(fq - fr)))

    def test_worker_working_set(self):
        # a Haar worker holds one tile of states (1 MiB) and one tile of
        # scratch while it draws, then the kernel's two. At d = 256, holding
        # a block's first normal array (8 MiB) as well, it peaked at 12 MiB,
        # and holding whole blocks of states, at 18 MiB; at d = 64, holding a
        # whole block (4 MiB), at 5.1 MiB. The rank-2 channel's folded stack
        # (2 MiB at d = 256) is a copy its kernel holds, so it is counted
        # apart; report convergence's unitary takes the spectral route, one
        # real tile of exponentials and eigvals' copy of B
        for d in (256, 64):
            for ch in (phase_spread_unitary(d, 64), random_channel(d, 2, rng=66)):
                stacked = 0 if len(ch.kraus) == 1 else fidelity_kernel(ch).ops.nbytes
                fidelity_samples(ch, None, 2, 65)
                peak = _traced_peak(
                    lambda: fidelity_samples(ch, None, 2 * BLOCK_SIZE, 65, threads=1)
                )
                assert peak <= 4 * MIB + stacked, (d, len(ch.kraus))


def _moment_errors(f):
    """f's mean, variance and 4th central moment, and their standard errors.

    By the delta method, a k-th central moment's estimate has variance
    (mu_2k - mu_k^2 - 2k mu_(k-1) mu_(k+1) + k^2 mu_(k-1)^2 mu_2) / n.
    """
    c = f - f.mean()
    mu = [1.0, 0.0, *(np.mean(c**k) for k in range(2, 9))]  # mu[k]: k-th central moment
    se = [math.sqrt(mu[2] / len(f))]
    for k in (2, 4):
        v = mu[2 * k] - mu[k] ** 2 - 2 * k * mu[k - 1] * mu[k + 1] + k * k * mu[k - 1] ** 2 * mu[2]
        se.append(math.sqrt(v / len(f)))
    return [f.mean(), mu[2], mu[4]], se


class TestSpectralRoute:
    """One (channel, target) pair whose folded channel is one unitary B samples
    F = |sum_i lambda_i x_i|^2 / (sum_i x_i)^2 from d exponentials x per state."""

    @pytest.mark.parametrize("d", [3, 16, 64])
    def test_values_are_fidelities_at_states_of_those_weights(self, d):
        # B = V Lambda V^dag; the state V sqrt(x / sum x) has weights x / sum x
        ch, u = random_channel(d, 1, rng=90 + d), random_channel(d, 1, rng=91 + d).kraus[0]
        b = u.conj().T @ ch.kraus[0]
        _, v = np.linalg.eig(b)
        count = min(BLOCK_SIZE, max(2, 2**16 // d))  # one tile
        x = generator(RngSpec(92), TAG_MAIN, 0).standard_exponential((count, d))
        states = np.sqrt(x / x.sum(axis=1, keepdims=True)) @ v.T
        want = gate_fidelity_batch(ch, u, states)
        got = fidelity_samples(ch, u, count, RngSpec(92))
        assert np.max(np.abs(got - want)) <= 1e-13

    @pytest.mark.parametrize("d", [16, 64, 256])
    def test_moments_agree_with_the_haar_path(self, d):
        # the Haar path is any run of two pairs; mean, variance and 4th
        # central moment within 4 sigma, and the mean within 4 sigma of the
        # closed-form average
        n = 5 * BLOCK_SIZE
        target = random_channel(d, 1, rng=94 + d).kraus[0]
        spread = phase_spread_unitary(d, 64)
        for ch, u in ((spread, None), (random_channel(d, 1, rng=93 + d), target)):
            spectral = fidelity_samples(ch, u, n, 95)
            haar, _ = _block_fidelities([(ch, u), (ch, u)], n, 96, 2)
            (ms, es), (mh, eh) = _moment_errors(spectral), _moment_errors(haar)
            for k, (a, b, ea, eb) in enumerate(zip(ms, mh, es, eh)):
                assert abs(a - b) <= 4.0 * math.hypot(ea, eb), (d, k, a, b)
            assert abs(ms[0] - average_gate_fidelity(ch, u)) <= 4.0 * es[0], d

    @pytest.mark.parametrize("d", [3, 64, 256, 300])
    def test_block_stream_is_pinned(self, d):
        # block b's values come from its first count * d standard exponentials
        ch = phase_spread_unitary(d, 64)
        spec = RngSpec(97)
        for n in (1, 2, 257, BLOCK_SIZE + 257):
            got = fidelity_samples(ch, None, n, spec)
            want = _spectral_reference(np.linalg.eigvals(ch.kraus[0]), n, spec)
            assert got.tobytes() == want.tobytes(), (d, n)

    @pytest.mark.parametrize("n", [1, BLOCK_SIZE, BLOCK_SIZE + 1, 3 * BLOCK_SIZE + 1])
    def test_samples_do_not_depend_on_threads(self, n):
        for d in (3, 65):
            ch = random_channel(d, 1, rng=98)
            serial = fidelity_samples(ch, None, n, 99, threads=1)
            assert serial.shape == (n,)
            for threads in (2, 3):
                got = fidelity_samples(ch, None, n, 99, threads=threads)
                assert got.tobytes() == serial.tobytes(), (d, threads)

    @pytest.mark.parametrize("d", [3, 64])
    def test_other_rank_one_maps_and_pairs_keep_the_haar_path(self, d):
        # 0.5 U is not unitary, nor is a non-normal rank-1 operator; two
        # pairs of one unitary take the Haar draw whatever their channels
        rng = np.random.default_rng(100 + d)
        u = phase_spread_unitary(d, 64).kraus[0]
        upper = np.triu(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        upper /= np.linalg.norm(upper, 2)
        spec, n = RngSpec(101), BLOCK_SIZE + 257
        for op in (0.5 * u, upper):
            ch = QuantumChannel(dim_in=d, dim_out=d, kraus=op[None])
            want = _reference_samples(ch, n, spec).tobytes()
            assert fidelity_samples(ch, None, n, spec).tobytes() == want
        ch = unitary_channel(u)
        want = _reference_samples(ch, n, spec).tobytes()
        for threads in (1, 2):
            pair = _block_fidelities([(ch, None), (ch, None)], n, spec, threads)
            assert [f.tobytes() for f in pair] == [want, want]

    def test_unitary_against_itself(self):
        # U^dag U is exactly I for the identity and a permutation, so every
        # eigenvalue is 1 and F is exactly 1.0; for a general U it is I up
        # to rounding, and F is 1 within a few ulps on either path
        perm = np.eye(5)[[2, 0, 4, 1, 3]].astype(complex)
        for ch, u in ((identity_channel(4), None), (unitary_channel(perm), perm),
                      (unitary_channel(PAULI_X), PAULI_X)):
            f = fidelity_samples(ch, u, BLOCK_SIZE + 3, 102)
            assert np.all(f == 1.0)
        u = random_channel(16, 1, rng=103).kraus[0]
        f = fidelity_samples(unitary_channel(u), u, BLOCK_SIZE, 104)
        assert np.all(np.abs(f - 1.0) <= 1e-14)


class _Boom(Exception):
    pass


def _address(array) -> int:
    return array.__array_interface__["data"][0]


class TestBlockScheduler:
    """The calling thread and threads - 1 pool workers share one block counter."""

    @pytest.mark.parametrize("n", [1, BLOCK_SIZE, BLOCK_SIZE + 1, 3 * BLOCK_SIZE + 1])
    def test_samples_do_not_depend_on_threads(self, n):
        ch = random_channel(3, 2, rng=50)
        serial = fidelity_samples(ch, None, n, rng=51, threads=1)
        assert serial.shape == (n,)
        for threads in (2, 3):
            got = fidelity_samples(ch, None, n, rng=51, threads=threads)
            assert got.tobytes() == serial.tobytes()

    def _recorded_run(self, monkeypatch, d, n):
        """Run two pairs over n states at dimension d with two threads.

        Returns the (tag, block) of each stream opened through
        sampling.generator, the (thread, buffer address, rows) of each
        sampling._haar_block call and the rows of each
        sampling.gate_fidelity_batch call.
        """
        opened, tiles, evaluated = [], [], []
        real_generator, real_block = sampling.generator, sampling._haar_block
        real_batch = sampling.gate_fidelity_batch

        def generator(spec, tag, block):
            opened.append((tag, block))
            return real_generator(spec, tag, block)

        def haar_block(g, z):
            tiles.append((threading.get_ident(), _address(z), len(z)))
            return real_block(g, z)

        def batch(e, u, states, kernel=None):
            evaluated.append(len(states))
            return real_batch(e, u, states, kernel=kernel)

        monkeypatch.setattr(sampling, "generator", generator)
        monkeypatch.setattr(sampling, "_haar_block", haar_block)
        monkeypatch.setattr(sampling, "gate_fidelity_batch", batch)
        ch = random_channel(d, 1, rng=54)
        _block_fidelities([(ch, None), (ch, None)], n, 55, 2)
        return opened, tiles, evaluated

    @staticmethod
    def _one_buffer_per_worker(tiles) -> bool:
        buffers = {}
        for thread, address, _ in tiles:
            buffers.setdefault(thread, set()).add(address)
        return all(len(addresses) == 1 for addresses in buffers.values())

    def test_each_block_is_drawn_once_into_its_workers_buffer(self, monkeypatch):
        # up to d = 16 a tile is the whole block: one _haar_block call per
        # block, into the buffer its worker keeps
        opened, tiles, _ = self._recorded_run(monkeypatch, 3, 3 * BLOCK_SIZE + 1)
        assert sorted(block for _, block in opened) == [0, 1, 2, 3]
        assert sorted(rows for _, _, rows in tiles) == [1] + 3 * [BLOCK_SIZE]
        assert self._one_buffer_per_worker(tiles)

    def test_each_large_block_is_drawn_once_into_its_workers_buffers(self, monkeypatch):
        # at d = 65 each block's stream is opened once and drawn in five
        # tiles of at most 2^16 // 65 = 1008 rows, into the one tile its
        # worker keeps
        n = 3 * BLOCK_SIZE + 1
        opened, tiles, _ = self._recorded_run(monkeypatch, 65, n)
        assert sorted(block for _, block in opened) == [0, 1, 2, 3]
        assert len(tiles) == 3 * 5 + 1
        assert sum(rows for _, _, rows in tiles) == n
        assert all(rows <= 1008 for _, _, rows in tiles)
        assert self._one_buffer_per_worker(tiles)

    @pytest.mark.parametrize("d, per_block", [(64, 4), (256, 16)])
    def test_each_tile_is_one_draw_into_its_workers_buffer(self, monkeypatch, d, per_block):
        # each tile of min(BLOCK_SIZE, max(2, 2^16 // d)) rows is one
        # _haar_block call into the one buffer its worker keeps
        n = 2 * BLOCK_SIZE + 3
        opened, tiles, _ = self._recorded_run(monkeypatch, d, n)
        assert sorted(opened) == [(TAG_MAIN, 0), (TAG_MAIN, 1), (TAG_MAIN, 2)]
        rows = min(BLOCK_SIZE, max(2, 2**16 // d))
        assert math.ceil(BLOCK_SIZE / rows) == per_block
        assert len(tiles) == 2 * per_block + 1
        assert sum(size for _, _, size in tiles) == n
        assert all(size <= rows for _, _, size in tiles)
        assert self._one_buffer_per_worker(tiles)

    @pytest.mark.parametrize("d, tiles", [(3, 3), (65, 33)])
    def test_valid_calls_reach_the_guarded_names(self, monkeypatch, d, tiles):
        # positive control for the guards below: the runner opens each
        # block's stream through sampling.generator, draws each tile through
        # sampling._haar_block and evaluates it for every pair through
        # sampling.gate_fidelity_batch. n is tiles - 1 full tiles and a
        # last one of 3 rows
        rows = min(BLOCK_SIZE, max(2, 2**16 // d))
        per_block = math.ceil(BLOCK_SIZE / rows)
        full_blocks, full_tiles = divmod(tiles - 1, per_block)
        n = full_blocks * BLOCK_SIZE + full_tiles * rows + 3
        opened, drawn, evaluated = self._recorded_run(monkeypatch, d, n)
        assert sorted(opened) == [(TAG_MAIN, block) for block in range(full_blocks + 1)]
        assert len(drawn) == tiles and sum(size for _, _, size in drawn) == n
        assert sorted(evaluated) == sorted(2 * [size for _, _, size in drawn])

    def _failing_run(self, monkeypatch, threads, n_blocks, d=3):
        """Run _block_fidelities with block 0 raising; return (error, started blocks).

        Every other block waits, once started, until block 0 has raised, so
        a scheduler that kept going would start all n_blocks blocks.
        """
        boom = _Boom("block 0")
        raised = threading.Event()
        started = []
        current = threading.local()
        real_generator, real_batch = sampling.generator, sampling.gate_fidelity_batch

        def generator(spec, tag, block):
            started.append(block)
            current.block = block
            if block != 0:
                assert raised.wait(timeout=30)
            return real_generator(spec, tag, block)

        def batch(e, u, states, kernel=None):
            if current.block == 0:
                raised.set()
                raise boom
            return real_batch(e, u, states, kernel=kernel)

        monkeypatch.setattr(sampling, "generator", generator)
        monkeypatch.setattr(sampling, "gate_fidelity_batch", batch)
        ch = random_channel(d, 2, rng=56)
        with pytest.raises(_Boom) as info:
            _block_fidelities([(ch, None)], n_blocks * BLOCK_SIZE, 57, threads)
        assert info.value is boom
        return info.value, started

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_block_error_reaches_the_caller_unchanged(self, monkeypatch, threads):
        error, _ = self._failing_run(monkeypatch, threads, 4)
        assert error.args == ("block 0",)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_no_block_starts_after_an_error(self, monkeypatch, threads):
        # block 0 fails at once; each other worker finishes the block it
        # holds and may have claimed one more before the failure was marked
        _, started = self._failing_run(monkeypatch, threads, 16)
        assert started.count(0) == 1
        assert len(started) <= 1 + 2 * (threads - 1)

    @pytest.mark.parametrize("threads", [1, 3])
    def test_no_large_block_starts_after_an_error(self, monkeypatch, threads):
        # the same guard on blocks drawn and evaluated tile by tile
        error, started = self._failing_run(monkeypatch, threads, 8, d=65)
        assert error.args == ("block 0",)
        assert started.count(0) == 1
        assert len(started) <= 1 + 2 * (threads - 1)

    def test_worker_threads_end_with_the_call(self, monkeypatch):
        before = threading.active_count()
        ch = random_channel(3, 2, rng=58)
        fidelity_samples(ch, None, 4 * BLOCK_SIZE, rng=59, threads=3)
        assert threading.active_count() == before
        self._failing_run(monkeypatch, 3, 8)
        assert threading.active_count() == before


class TestMcStats:
    def test_depolarizing_constancy(self):
        stats = mc_fidelity_stats(depolarizing(0.7, 2), None, 10_000, rng=30)
        assert abs(stats.mean - 0.85) < 1e-12
        assert stats.variance <= 1e-15
        assert abs(stats.max - stats.min) < 1e-7

    def test_unitary_channel_perfect(self):
        rng = np.random.default_rng(31)
        raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u, _ = np.linalg.qr(raw)
        stats = mc_fidelity_stats(unitary_channel(u), u, 5000, rng=32)
        assert abs(stats.mean - 1.0) < 1e-9
        assert stats.variance <= 1e-15

    def test_bit_flip_matches_average(self):
        stats = mc_fidelity_stats(unitary_channel(PAULI_X), None, 100_000, rng=33)
        assert abs(stats.mean - 1.0 / 3.0) <= 3.0 * stats.stderr

    def test_summary_consistency(self):
        ch = random_channel(2, 2, rng=34)
        stats = mc_fidelity_stats(ch, None, 4000, rng=35)
        f = fidelity_samples(ch, None, 4000, rng=35)
        assert stats.mean == float(np.mean(f))
        assert stats.variance == float(np.var(f, ddof=1))
        assert stats.min == float(np.min(f)) and stats.max == float(np.max(f))
        assert stats.stderr == float(np.sqrt(stats.variance / stats.n))
        assert stats.seed == RngSpec(seed=35)

    def test_equal_seeds_equal_stats(self):
        ch = depolarizing(0.4, 3)
        a = mc_fidelity_stats(ch, None, 3000, rng=36)
        b = mc_fidelity_stats(ch, None, 3000, rng=36)
        assert a == b

    def test_minimum_sample_count(self):
        with pytest.raises(ValueError):
            mc_fidelity_stats(depolarizing(0.5, 2), None, 1, rng=37)

    def test_chebyshev_tails(self):
        ch = random_channel(4, 4, rng=38)
        f = fidelity_samples(ch, None, 100_000, rng=39)
        mean, std = f.mean(), f.std(ddof=1)
        for k in (2.0, 3.0, 5.0):
            frac = np.mean(np.abs(f - mean) >= k * std)
            slack = 5.0 * np.sqrt(frac * (1 - frac) / len(f) + 1e-12)
            assert frac <= 1.0 / k**2 + slack

    def test_lipschitz_bound_on_pairs(self):
        # |F(phi) - F(psi)| <= 3 sqrt(2) dist(phi, psi) on random pairs
        ch = random_channel(4, 3, rng=40)
        a = haar_states(4, 10_000, rng=41)
        b = haar_states(4, 10_000, rng=42)
        fa = fidelity_samples(ch, None, 10_000, rng=41)
        fb = fidelity_samples(ch, None, 10_000, rng=42)
        gaps = np.abs(fa - fb)
        dists = overlap_distance(np.abs(np.sum(a.conj() * b, axis=-1)))
        assert np.all(gaps <= LIPSCHITZ_CONSTANT * dists + 1e-12)


class TestLevyBound:
    def test_large_dimension_value(self):
        bound = levy_bound(2**20, 0.1)
        assert abs(bound.two_sided_bound - 0.009685944790848831) < 1e-15
        assert abs(bound.two_sided_bound - 9.7e-3) <= 0.1 * 9.7e-3

    def test_one_sided_is_half(self):
        bound = levy_bound(512, 0.2)
        assert bound.one_sided_bound == 0.5 * bound.two_sided_bound

    def test_default_k_reduces_exponent(self):
        # with K = 3 sqrt(2), 2 c1 / K^2 collapses to 1 / (81 pi^3 ln 2)
        d, eps = 4096, 0.15
        got = levy_bound(d, eps).two_sided_bound
        direct = 4.0 * np.exp(-d * eps**2 / (81.0 * np.pi**3 * np.log(2.0)))
        assert abs(got - direct) < 1e-15 * direct

    def test_custom_k(self):
        d, eps, k = 1000, 0.1, 2.0
        got = levy_bound(d, eps, K=k).two_sided_bound
        assert abs(got - 4.0 * np.exp(-2.0 * d * LEVY_C1 * eps**2 / k**2)) < 1e-15

    def test_monotonicity(self):
        assert levy_bound(10**6, 0.1).two_sided_bound < levy_bound(10**5, 0.1).two_sided_bound
        assert levy_bound(10**5, 0.2).two_sided_bound < levy_bound(10**5, 0.1).two_sided_bound

    def test_limits(self):
        assert levy_bound(2, 1e-9).two_sided_bound <= 4.0
        assert levy_bound(10**9, 100.0).two_sided_bound == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            levy_bound(1, 0.1)
        with pytest.raises(ValueError):
            levy_bound(4, 0.0)
        for eps in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                levy_bound(4, eps)
        with pytest.raises(ValueError):
            levy_bound(4, 0.1, K=0.0)
        for k in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="Lipschitz constant K"):
                levy_bound(4, 0.1, K=k)

    def test_dimension_beyond_float_range_refused(self):
        # levy_bound and effective_epsilon both form a float from d
        for huge in (2**1024, 10**400):
            with pytest.raises(ValueError, match=r"d must be below 2\*\*1024, got log2\(d\)"):
                levy_bound(huge, 0.1)
            with pytest.raises(ValueError, match=r"d must be below 2\*\*1024, got log2\(d\)"):
                effective_epsilon(0.01, huge)
        # the largest power of two a float holds still gets a value
        assert levy_bound(2**1023, 0.1).two_sided_bound == 0.0
        assert effective_epsilon(0.01, 2**1023) > 0.0

    def test_squares_beyond_float_range(self):
        # epsilon**2 or K**2 leaves float range; the bound is still formed
        assert levy_bound(8, 1e200).two_sided_bound == 0.0
        assert levy_bound(8, 0.1, K=1e200).two_sided_bound == 4.0
        assert levy_bound(8, 0.1, K=1e-200).two_sided_bound == 0.0
        # both squares underflow to 0: the ratio, 1, still gives the bound
        assert levy_bound(8, 1e-300, K=1e-300).two_sided_bound == 4.0 * math.exp(-16.0 * LEVY_C1)

    def test_huge_d_with_vanishing_ratio(self):
        # -2 d overflows to -inf while (eps/K)^2 underflows to 0: the exponent
        # is below 1e-30 in size, so the bound is 4, not -inf * 0 = NaN
        bound = levy_bound(2**1023, 1e-170)
        assert bound.two_sided_bound == 4.0 and bound.one_sided_bound == 2.0
        assert levy_bound(2**1023 - 1, 1e-170).two_sided_bound == 4.0  # rounds up
        # a subnormal or tiny square no longer turns the bound into 0
        for eps, k in ((1e-170, 1e-10), (1e-155, 1.0)):
            exponent = -2.0 * LEVY_C1 * (2.0**1023 * (eps / k)) * (eps / k)
            assert 3.0 < levy_bound(2**1023, eps, K=k).two_sided_bound
            assert math.isclose(
                levy_bound(2**1023, eps, K=k).two_sided_bound,
                4.0 * math.exp(exponent),
                rel_tol=1e-15,
            )

    @pytest.mark.parametrize(
        "d, eps, k",
        [
            (8, 1e200, LIPSCHITZ_CONSTANT),
            (8, 0.1, 1e200),
            (8, 1e-300, 1e-300),
            (2**1023, 1e-170, 1e-170),
            (2**1023, 1e-170, 1e-200),
        ],
    )
    def test_fallback_keeps_its_bits(self, d, eps, k):
        # inputs that reach the ratio fallback and gave a number before
        ratio = float(eps) / float(k)
        before = 4.0 * math.exp(-2.0 * d * float(LEVY_C1) * (ratio * ratio))
        assert levy_bound(d, eps, K=k).two_sided_bound == before


def _dep_family(d, gen):
    return depolarizing(0.8, d)


def _spread_family(d, gen):
    return phase_spread_unitary(d, gen)


class TestConvergenceReport:
    def test_depolarizing_family_has_zero_std(self):
        # the identity channel is the p = 1 member: F = 1 at every state
        for family in (_dep_family, lambda d, gen: identity_channel(d)):
            rows = convergence_report(family, [2, 4], 2000, rng=60, eps_grid=(0.1,))
            assert len(rows) == 2
            for row in rows:
                assert row["std"] <= 1e-12
                assert row["emp_fraction"] == 0.0

    def test_columns_are_pinned(self):
        rows = convergence_report(_dep_family, [2], 500, rng=61, eps_grid=(0.25, 0.1))
        assert len(rows) == 2
        for row in rows:
            assert tuple(row.keys()) == (
                "d", "n", "mean", "variance", "std", "var_bound_exact", "var_bound_conc",
                "eps", "levy_bound", "emp_fraction", "seed",
            )

    def test_family_unitary_above_budget_refused_before_any_family(self):
        # the spectral route at the largest d holds d complex eigenvalues,
        # (d, 3) real weights and a 3-row real tile: 64 d bytes, which fill
        # the 2 GiB budget just above d = 2^25
        def no_family(d, gen):
            raise AssertionError("a family channel was built before the size check")

        with pytest.raises(AssertionError, match="before the size check"):
            convergence_report(no_family, [2, 2**25], 10, rng=63)
        with pytest.raises(ValueError, match=r"the d=33554433 family spectrum needs 2 GiB"):
            convergence_report(no_family, [2, 2**25, 2**25 + 1], 10, rng=63)
        with pytest.raises(ValueError, match=r"d=100000000 family spectrum needs 5\.96 GiB"):
            convergence_report(no_family, [10**8], 10, rng=63)

    def test_every_workers_tile_counts_toward_the_budget(self):
        # two blocks on two workers hold two 3-row tiles: 88 d bytes at d = 2^25
        def no_family(d, gen):
            raise AssertionError("a family channel was built before the size check")

        with pytest.raises(AssertionError, match="before the size check"):
            convergence_report(no_family, [2**25], 2 * BLOCK_SIZE, rng=63, threads=1)
        with pytest.raises(AssertionError, match="before the size check"):
            convergence_report(no_family, [2**25], BLOCK_SIZE, rng=63, threads=2)
        with pytest.raises(ValueError, match=r"the d=33554432 family spectrum needs 2\.75 GiB"):
            convergence_report(no_family, [2**25], 2 * BLOCK_SIZE, rng=63, threads=2)
        with pytest.raises(ValueError, match=r"the d=33554432 family spectrum needs 2\.75 GiB"):
            convergence_report(no_family, [2**25], 2 * BLOCK_SIZE, rng=63, threads=64)

    def test_channel_family_above_budget_refused_before_its_unitary(self, monkeypatch):
        # the spectrum's bound admits d = 11586, but its d x d unitary is 2 GiB
        def no_draw(*args, **kwargs):
            raise AssertionError("the unitary was drawn before the size check")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(ValueError, match=r"the d=11586 phase-spread unitary needs 2 GiB"):
            convergence_report(phase_spread_unitary, [11586], 10, rng=63)

    def test_std_shrinks_for_spread_family(self):
        rows = convergence_report(_spread_family, [2, 8, 32], 4000, rng=62, eps_grid=(0.1,))
        stds = [row["std"] for row in rows]
        assert stds[0] > stds[1] > stds[2]

    def test_fraction_shrinks_for_embedded_channel(self):
        # the same bit flip viewed on a larger space deviates less often
        def embedded(d, gen):
            return unitary_channel(np.kron(PAULI_X, np.eye(d // 2)))

        rows = convergence_report(embedded, [2, 8, 32], 20_000, rng=63, eps_grid=(0.3,))
        fracs = [row["emp_fraction"] for row in rows]
        assert fracs[2] <= fracs[0] + 0.01

    def test_rows_carry_run_metadata(self):
        rows = convergence_report(_dep_family, [2], 500, rng=64, eps_grid=(0.1,))
        assert rows[0]["seed"] == 64
        assert rows[0]["n"] == 500
        assert rows[0]["d"] == 2

    def test_unsorted_dimensions_rejected(self):
        with pytest.raises(ValueError):
            convergence_report(_dep_family, [4, 2], 100, rng=65)

    def test_family_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            convergence_report(lambda d, g: depolarizing(0.5, 2), [2, 3], 100, rng=66)

    def test_determinism(self):
        a = convergence_report(_spread_family, [2, 4], 1000, rng=67, eps_grid=(0.1,))
        b = convergence_report(_spread_family, [2, 4], 1000, rng=67, eps_grid=(0.1,))
        assert a == b


def _spectrum_family(d, gen):
    return phase_spread_spectrum(d)


def _old_phase_spread_unitary(d, rng):
    """phase_spread_unitary as written with its spectrum inline."""
    g = np.random.default_rng(rng)
    raw = g.standard_normal((d, d)) + 1j * g.standard_normal((d, d))
    q, r = np.linalg.qr(raw)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    phases = np.exp(1j * np.linspace(-1.0, 1.0, d))
    return (q * phases) @ q.conj().T


class TestFamilySpectrum:
    """A family may give a unitary's eigenvalues in place of its channel."""

    @pytest.mark.parametrize("d", [2, 16, 64, 256])
    def test_closed_form_is_the_unitarys_spectrum(self, d):
        lam = phase_spread_spectrum(d)
        got = np.linalg.eigvals(phase_spread_unitary(d, np.random.default_rng([5, d])).kraus[0])
        lam, got = (v[np.argsort(np.angle(v))] for v in (lam, got))
        assert np.max(np.abs(lam - got)) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 16, 256])
    def test_phase_spread_unitary_keeps_its_bits(self, d):
        for seed in (1, [3, d]):
            got = phase_spread_unitary(d, np.random.default_rng(seed)).kraus[0]
            want = _old_phase_spread_unitary(d, np.random.default_rng(seed))
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [3, 64, 300])
    def test_block_stream_is_pinned(self, d):
        # the spectrum's samples are the spectral route's, in linspace order
        lam, spec = phase_spread_spectrum(d), RngSpec(110)
        for n in (2, 257, BLOCK_SIZE + 257):
            (got,) = _block_fidelities([], n, spec, 1, lam)
            assert got.tobytes() == _spectral_reference(lam, n, spec).tobytes(), (d, n)

    @pytest.mark.parametrize("d", [16, 64, 256])
    def test_moments_agree_with_the_channel_family(self, d):
        # mean, variance and 4th central moment within 4 sigma
        n = 5 * BLOCK_SIZE
        (spectral,) = _block_fidelities([], n, 111, 1, phase_spread_spectrum(d))
        channel = fidelity_samples(phase_spread_unitary(d, 64), None, n, 112)
        (ms, es), (mc, ec) = _moment_errors(spectral), _moment_errors(channel)
        for k, (a, b, ea, eb) in enumerate(zip(ms, mc, es, ec)):
            assert abs(a - b) <= 4.0 * math.hypot(ea, eb), (d, k, a, b)

    @pytest.mark.parametrize("d", [2, 16, 64, 256])
    def test_closed_form_average(self, d):
        ch = phase_spread_unitary(d, np.random.default_rng([6, d]))
        got = _spectrum_average(phase_spread_spectrum(d))
        assert abs(got - average_gate_fidelity(ch)) <= 1e-12

    def test_rows_do_not_depend_on_threads(self):
        rows = [
            convergence_report(_spectrum_family, [2, 16, 64, 256], 2 * BLOCK_SIZE + 3, 113,
                               eps_grid=(0.1, 0.01), threads=threads)
            for threads in (1, 2, 3)
        ]
        assert rows[0] == rows[1] == rows[2]
        assert [r["d"] for r in rows[0]] == [2, 2, 16, 16, 64, 64, 256, 256]

    @pytest.mark.parametrize(
        "values, named",
        [
            (lambda d: phase_spread_spectrum(d + 1), r"shape \(3,\) at d=2"),
            (lambda d: phase_spread_spectrum(d)[:, None], r"shape \(2, 1\) at d=2"),
            (lambda d: np.array([1.0, np.nan]), "non-finite"),
            (lambda d: np.array([1.0, complex(0.0, np.inf)]), "non-finite"),
            (lambda d: np.array([1.0, 1.0 + 1e-9]), "off the unit circle"),
            (lambda d: 0.5 * phase_spread_spectrum(d), "off the unit circle"),
        ],
        ids=["long", "column", "nan", "inf", "radius-above", "radius-half"],
    )
    def test_bad_spectrum_refused(self, values, named, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled a refused spectrum")

        monkeypatch.setattr(sampling, "_block_fidelities", no_sampling)
        with pytest.raises(ValueError, match=named):
            convergence_report(lambda d, g: values(d), [2], 100, rng=115)

    def test_spectrum_within_tolerance_admitted(self):
        lam = np.array([1.0, 1.0 + 1e-11])
        rows = convergence_report(lambda d, g: lam, [2], 100, rng=116, eps_grid=(0.1,))
        assert len(rows) == 1
