import functools
import gc
import hashlib
import json
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gatefid import serialize
from gatefid.channels import (
    ChoiMatrix,
    choi_from_kraus,
    depolarizing,
    random_channel,
    validate_cptp,
)
from gatefid.cli import main
from gatefid.minimum import StateNet, build_net, net_minimum
from gatefid.nonuniq import perturb_channel
from gatefid.sampling import RngSpec, levy_bound, mc_fidelity_stats
from gatefid.serialize import (
    canonical_hash,
    channel_from_dict,
    channel_to_dict,
    choi_from_dict,
    choi_to_dict,
    dumps_canonical,
    load_channel,
    load_operator,
    net_from_dict,
    pairs_to_matrix,
    pairs_to_vector,
    read_json,
    state_from_dict,
    unitary_from_dict,
    write_csv,
    write_json,
)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _text_round_trip(obj):
    """obj as a reader sees it: written to canonical JSON text and parsed back."""
    return json.loads(dumps_canonical(obj))


class TestCanonicalJson:
    def test_floats_round_trip_exactly(self):
        awkward = [0.1, 1.0 / 3.0, 2.0 / 3.0, 1e-300, 1e300, 0.30618621784789674]
        parsed = json.loads(dumps_canonical(awkward))
        for original, back in zip(awkward, parsed):
            assert _bits(original) == _bits(back)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_any_finite_float_round_trips(self, x):
        back = json.loads(dumps_canonical(x))
        assert _bits(x) == _bits(back)

    def test_integral_floats_stay_floats(self):
        text = dumps_canonical({"a": 2.0, "b": 2})
        assert text == '{"a":2.0,"b":2}'
        parsed = json.loads(text)
        assert isinstance(parsed["a"], float)
        assert isinstance(parsed["b"], int)

    def test_bool_is_not_int(self):
        assert dumps_canonical([True, False, 1, 0]) == "[true,false,1,0]"

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dumps_canonical(float("nan"))
        with pytest.raises(ValueError):
            dumps_canonical({"x": float("inf")})

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            dumps_canonical({"x": object()})
        with pytest.raises(TypeError):
            dumps_canonical({1: "non-string key"})
        with pytest.raises(TypeError):
            dumps_canonical(StateNet)  # a record class, not a record

    def test_key_order_is_insertion_order(self):
        assert dumps_canonical({"b": 1, "a": 2}) == '{"b":1,"a":2}'

    def test_byte_determinism_and_hash(self):
        payload = {"values": [0.1, 0.2], "n": 3, "tag": "x"}
        assert dumps_canonical(payload) == dumps_canonical(payload)
        assert canonical_hash(payload) == canonical_hash(payload)
        assert canonical_hash(payload) != canonical_hash({"values": [0.1], "n": 3})
        assert len(canonical_hash(payload)) == 64


class TestChannelSerialization:
    def test_round_trip(self, tmp_path):
        ch = depolarizing(0.3, 3)
        path = tmp_path / "ch.json"
        write_json(path, channel_to_dict(ch))
        back = load_channel(path)
        assert back.dim_in == 3 and back.dim_out == 3
        assert np.array_equal(np.stack(back.kraus), np.stack(ch.kraus))

    def test_written_files_are_byte_identical(self, tmp_path):
        ch = depolarizing(0.7, 2)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_json(a, channel_to_dict(ch))
        write_json(b, channel_to_dict(ch))
        assert a.read_bytes() == b.read_bytes()

    def test_choi_round_trip(self, tmp_path):
        choi = choi_from_kraus(depolarizing(0.4, 2))
        path = tmp_path / "choi.json"
        write_json(path, choi_to_dict(choi))
        back = load_operator(path)
        assert isinstance(back, ChoiMatrix)
        assert np.array_equal(back.matrix, choi.matrix)

    def test_load_channel_converts_choi(self, tmp_path):
        choi = choi_from_kraus(depolarizing(0.4, 2))
        path = tmp_path / "choi.json"
        write_json(path, choi_to_dict(choi))
        ch = load_channel(path)
        report = validate_cptp(ch)
        assert report.is_cp and report.is_tp
        diff = choi_from_kraus(ch).matrix - choi.matrix
        assert np.max(np.abs(diff)) < 1e-12

    def test_missing_kraus_field(self):
        with pytest.raises(ValueError, match="missing field 'kraus'"):
            channel_from_dict({"dim_in": 2, "dim_out": 2})

    def test_missing_dims(self):
        with pytest.raises(ValueError, match="'dim_in'"):
            channel_from_dict({"kraus": []})

    def test_bad_kraus_shape_names_entry(self):
        good = _text_round_trip(channel_to_dict(depolarizing(0.5, 2)))
        good["kraus"][1] = [[[1.0, 0.0]]]  # 1x1 instead of 2x2
        with pytest.raises(ValueError, match=r"kraus\[1\]"):
            channel_from_dict(good)

    def test_bad_pair_entry_named(self):
        with pytest.raises(ValueError, match=r"entry \(0,1\)"):
            pairs_to_matrix([[[1.0, 0.0], [1.0]]], "m")

    def test_choi_shape_check(self):
        data = _text_round_trip(choi_to_dict(choi_from_kraus(depolarizing(0.4, 2))))
        data["dim_in"] = 3
        with pytest.raises(ValueError, match="'choi': expected shape 6x6"):
            choi_from_dict(data)

    def test_neither_kraus_nor_choi(self, tmp_path):
        path = tmp_path / "odd.json"
        write_json(path, {"dim_in": 2})
        with pytest.raises(ValueError, match="neither 'kraus' nor 'choi'"):
            load_operator(path)

    def test_load_operator_decodes_both_forms(self, tmp_path):
        ch = depolarizing(0.4, 2)
        choi = choi_from_kraus(ch)
        write_json(tmp_path / "k.json", channel_to_dict(ch))
        write_json(tmp_path / "c.json", choi_to_dict(choi))
        back = load_operator(tmp_path / "k.json")
        assert all(np.array_equal(a, b) for a, b in zip(back.kraus, ch.kraus))
        back = load_operator(tmp_path / "c.json")
        assert np.array_equal(back.matrix, choi.matrix)
        write_json(tmp_path / "odd.json", {"dim_in": 2})
        with pytest.raises(ValueError, match="odd.json: neither 'kraus' nor 'choi'"):
            load_operator(tmp_path / "odd.json")

    def test_malformed_json_reports_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="malformed JSON"):
            read_json(path)


class TestSmallObjects:
    def test_unitary_round_trip(self):
        h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        back = unitary_from_dict(_text_round_trip({"unitary": h.astype(complex)}))
        assert np.array_equal(back, h.astype(complex))

    def test_unitary_must_be_square(self):
        with pytest.raises(ValueError, match="'unitary'"):
            unitary_from_dict({"unitary": [[[1.0, 0.0], [0.0, 0.0]]]})

    def test_state_round_trip(self):
        v = np.array([1.0, 1.0j]) / np.sqrt(2.0)
        back = state_from_dict(_text_round_trip({"state": v}))
        assert np.max(np.abs(back - v)) < 1e-16

    def test_state_norm_check(self):
        with pytest.raises(ValueError, match="'state'"):
            state_from_dict({"state": [[1.0, 0.0], [1.0, 0.0]]})

    def test_stats_dict_carries_seed(self):
        stats = mc_fidelity_stats(depolarizing(0.7, 2), None, 500, rng=11)
        data = _text_round_trip(stats)
        assert data["seed"] == {"seed": 11, "algorithm_id": "pcg64-interleaved-spectral-block4096"}
        assert data["n"] == 500
        assert list(data) == ["n", "mean", "variance", "min", "max", "stderr", "seed"]

    def test_cptp_report_dict(self):
        data = _text_round_trip(validate_cptp(depolarizing(0.5, 2)))
        assert data["is_cp"] is True and data["is_tp"] is True
        assert list(data) == [
            "is_cp",
            "is_tp",
            "min_eigenvalue",
            "tp_residual",
            "hermiticity_gap",
            "tolerance",
        ]

    def test_concentration_dict(self):
        data = _text_round_trip(levy_bound(1024, 0.1))
        assert data["d"] == 1024 and data["epsilon"] == 0.1
        assert data["one_sided_bound"] == data["two_sided_bound"] / 2.0
        assert list(data) == ["d", "epsilon", "K", "two_sided_bound", "one_sided_bound"]

    def test_min_estimate_dict(self):
        net = build_net(2, 0.9, rng=5)
        est = net_minimum(depolarizing(0.5, 2), None, net)
        data = _text_round_trip(est)
        assert list(data) == ["net_min", "lipschitz_lower_bound", "argmin_state", "method"]
        assert _same_bits(pairs_to_vector(data["argmin_state"], "argmin_state"), est.argmin_state)

    def test_state_net_dict(self):
        data = _text_round_trip(build_net(2, 0.9, rng=5))
        assert list(data) == [
            "d",
            "epsilon",
            "metric_id",
            "states",
            "coverage_confidence",
            "seed",
        ]


class TestNetSerialization:
    def test_round_trip(self, tmp_path):
        net = build_net(2, 0.9, rng=5)
        path = tmp_path / "net.json"
        write_json(path, net)
        back = net_from_dict(read_json(path))
        assert isinstance(back, StateNet)
        assert back.d == net.d and back.epsilon == net.epsilon
        assert back.seed == net.seed
        assert np.array_equal(back.states, net.states)

    def test_unknown_metric_rejected(self):
        data = _text_round_trip(build_net(2, 0.9, rng=5))
        data["metric_id"] = "chebyshev"
        with pytest.raises(ValueError, match="'metric_id'"):
            net_from_dict(data)

    def test_non_unit_state_rejected(self):
        data = _text_round_trip(build_net(2, 0.9, rng=5))
        data["states"][0][0] = [2.0, 0.0]
        with pytest.raises(ValueError, match=r"states\[0\]"):
            net_from_dict(data)

    def test_wrong_length_state_rejected(self):
        data = _text_round_trip(build_net(2, 0.9, rng=5))
        data["states"][0] = [[1.0, 0.0]]
        with pytest.raises(ValueError, match=r"states\[0\]"):
            net_from_dict(data)

    @pytest.mark.parametrize("seed", [1.5, True, "7", -3, 2**70], ids=repr)
    def test_bad_seed_refused(self, seed):
        # a seed that as_rng_spec would refuse, or that int() would coerce
        data = _text_round_trip(build_net(2, 0.9, rng=5))
        data["seed"] = seed
        message = f"field 'seed': expected an integer in [0, 2**64), got {seed!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            net_from_dict(data)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_range_ends_accepted(self, tmp_path, seed):
        data = _text_round_trip(build_net(2, 0.9, rng=5))
        data["seed"] = seed
        net = net_from_dict(data)
        assert net.seed == seed and type(net.seed) is int
        path = tmp_path / "net.json"
        write_json(path, data)
        write_json(tmp_path / "again.json", net)
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    def test_later_bad_state_named(self):
        data = _text_round_trip(build_net(2, 0.7, rng=5))
        last = len(data["states"]) - 1
        data["states"][last][1] = [0.0, 3.0]
        with pytest.raises(ValueError, match=rf"'states\[{last}\]': not a unit vector"):
            net_from_dict(data)
        data["states"][2] = data["states"][2][:1]
        with pytest.raises(ValueError, match=r"'states\[2\]': expected length 2, got 1"):
            net_from_dict(data)
        data["states"][1] = [[1.0, "x"], [0.0, 0.0]]
        with pytest.raises(ValueError, match=r"'states\[1\]'.*not an \[re, im\] pair"):
            net_from_dict(data)


class TestCsv:
    def test_fixed_columns_and_formatting(self, tmp_path):
        path = tmp_path / "out.csv"
        rows = [
            {"d": 2, "x": 0.1, "label": "a", "flag": True},
            {"d": 4, "x": 2.0, "label": "b", "flag": False},
        ]
        write_csv(path, rows, columns=("d", "x", "label", "flag"))
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        assert lines[0] == "d,x,label,flag"
        assert lines[1].startswith("2,0.1")
        assert lines[1].endswith("a,true")
        assert lines[2] == "4,2.0,b,false"

    def test_byte_determinism(self, tmp_path):
        rows = [{"a": 1.0 / 3.0, "b": 7}]
        p1, p2 = tmp_path / "1.csv", tmp_path / "2.csv"
        write_csv(p1, rows, columns=("a", "b"))
        write_csv(p2, rows, columns=("a", "b"))
        assert p1.read_bytes() == p2.read_bytes()
        value = float(p1.read_text().splitlines()[1].split(",")[0])
        assert _bits(value) == _bits(1.0 / 3.0)

    def test_failed_encode_leaves_no_file(self, tmp_path):
        with pytest.raises(ValueError, match="non-finite"):
            write_csv(tmp_path / "out.csv", [{"a": float("inf")}], columns=("a",))
        with pytest.raises(ValueError, match="non-finite"):
            write_json(tmp_path / "out.json", {"a": float("nan")})
        assert list(tmp_path.iterdir()) == []


class TestRngSpecValidation:
    def test_defaults(self):
        spec = RngSpec(seed=3)
        assert spec.algorithm_id == "pcg64-interleaved-spectral-block4096"


def _nested_pairs(m) -> list:
    """Reference encoder input: the nested [re, im] lists of Python floats."""
    m = np.asarray(m)
    if m.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in m]
    return [_nested_pairs(row) for row in m]


def _digest_json(m) -> str:
    """What stands for a complex array in canonical_hash, built with struct and hashlib."""
    m = np.asarray(m)
    raw = b"".join(struct.pack("<dd", z.real, z.imag) for z in m.flat)
    shape = ",".join(str(n) for n in m.shape)
    digest = hashlib.sha256(raw).hexdigest()
    return f'{{"dtype":"complex128","shape":[{shape}],"sha256":"{digest}"}}'


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


_finite = st.floats(allow_nan=False, allow_infinity=False)


def _complex_arrays(min_dims, max_dims):
    shapes = hnp.array_shapes(min_dims=min_dims, max_dims=max_dims, min_side=1, max_side=5)
    return shapes.flatmap(
        lambda shape: hnp.arrays(np.float64, shape + (2,), elements=_finite)
    ).map(lambda pairs: pairs.view(complex)[..., 0])


class TestArrayDigest:
    """canonical_hash takes a complex array by its dtype, shape and bytes."""

    @given(_complex_arrays(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_hash_is_sha256_of_digest_json(self, m):
        expected = hashlib.sha256(f'{{"m":{_digest_json(m)}}}'.encode()).hexdigest()
        assert canonical_hash({"m": m}) == expected

    def test_layout_and_byte_order_do_not_matter(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
        wide = np.zeros((8, 15), dtype=complex)
        wide[::2, ::3] = m
        strided = wide[::2, ::3]
        assert not strided.flags.c_contiguous
        copies = [np.asfortranarray(m), strided, m.astype(">c16"), m.astype(complex)]
        assert {canonical_hash(c) for c in copies} == {canonical_hash(m)}

    def test_signed_zero_changes_the_hash(self):
        m = np.array([[1.0, 0.0], [complex(0.0, -0.5), 1.0]])
        flipped = m.copy()
        flipped[0, 1] = complex(-0.0, 0.0)
        assert np.array_equal(m, flipped)
        assert canonical_hash(m) != canonical_hash(flipped)

    def test_shape_changes_the_hash(self):
        m = np.arange(16, dtype=float) + 0.5j
        square, wide = m.reshape(4, 4), m.reshape(2, 8)
        assert square.tobytes() == wide.tobytes()
        assert canonical_hash(square) != canonical_hash(wide)

    def test_non_finite_array_refused(self):
        with pytest.raises(ValueError, match="non-finite float nan"):
            canonical_hash({"m": np.array([[1.0, complex(0.0, np.nan)]])})
        with pytest.raises(ValueError, match="non-finite float -inf"):
            canonical_hash([np.array([-np.inf + 0j])])


class TestArrayCodec:
    @given(_complex_arrays(2, 2))
    @settings(max_examples=300, deadline=None)
    def test_matrix_bytes_match_nested_lists(self, m):
        text = dumps_canonical(m)
        assert text == dumps_canonical(_nested_pairs(m))
        assert _same_bits(pairs_to_matrix(json.loads(text), "m"), m)

    @given(_complex_arrays(1, 1))
    @settings(max_examples=200, deadline=None)
    def test_vector_bytes_match_nested_lists(self, v):
        text = dumps_canonical(v)
        assert text == dumps_canonical(_nested_pairs(v))
        assert _same_bits(pairs_to_vector(json.loads(text), "v"), v)

    @pytest.mark.parametrize(
        "value, token",
        [
            (0.0, "0.0"),
            (-0.0, "-0.0"),
            (-3.0, "-3.0"),
            (1e16, "10000000000000000.0"),
            (99999999999999984.0, "99999999999999984.0"),
            (1e17, "1e+17"),
            (-1e17, "-1e+17"),
            (5e-324, "4.9406564584124654e-324"),
            (2.2250738585072009e-308, "2.2250738585072009e-308"),
            (1.0 / 3.0, "0.33333333333333331"),
        ],
    )
    def test_explicit_tokens(self, value, token):
        m = np.array([[complex(value, 1.5), complex(-1.5, value)], [value, -value]])
        text = dumps_canonical(m)
        assert text == dumps_canonical(_nested_pairs(m))
        assert text.startswith(f"[[[{token},1.5],[-1.5,{token}]]")
        assert _same_bits(pairs_to_matrix(json.loads(text), "m"), m)

    @pytest.mark.parametrize("shape", [(9,), (4, 5), (3, 2, 4)], ids=["1d", "2d", "3d"])
    def test_classed_template_matches_per_entry_reference(self, shape):
        # integral and zero entries take the per-entry template; every
        # token must still be the one _fmt_float writes for that float
        specials = [0.0, -0.0, 1e16, -1e16, 99999999999999984.0, 1e17, -1e17,
                    5e-324, -5e-324, 2.2250738585072009e-308, -3.0, 0.25, 1.0 / 3.0]
        rng = np.random.default_rng(len(shape))
        floats = rng.choice(specials, size=shape + (2,))
        flat = floats.reshape(-1, 2)
        flat[:3] = rng.standard_normal((3, 2))  # a run with no integral entry
        flat[-2:] = 0.0  # and one of zeros only
        m = floats.view(complex)[..., 0]
        text = dumps_canonical(m)
        assert text == dumps_canonical(_nested_pairs(m))
        assert _same_bits(np.array(json.loads(text)).view(complex)[..., 0], m)

    def test_signed_zeros_survive_round_trip(self):
        m = np.array([[complex(0.0, -0.0), complex(-0.0, 0.0)],
                      [complex(-0.0, -0.0), complex(0.0, 0.0)]])
        text = dumps_canonical({"m": m})
        assert text == '{"m":[[[0.0,-0.0],[-0.0,0.0]],[[-0.0,-0.0],[0.0,0.0]]]}'
        back = pairs_to_matrix(json.loads(text)["m"], "m")
        assert _same_bits(back, m)

    def test_dict_helpers_hash_arrays_by_bytes(self):
        ch = depolarizing(0.3, 3)
        # the Kraus set is one (9, 3, 3) array, hashed as one digest
        text = f'{{"dim_in":3,"dim_out":3,"kraus":{_digest_json(ch.kraus)}}}'
        assert canonical_hash(channel_to_dict(ch)) == hashlib.sha256(text.encode()).hexdigest()
        # nested lists are not arrays: they are hashed by their decimal text
        nested = {"dim_in": 3, "dim_out": 3, "kraus": [_nested_pairs(k) for k in ch.kraus]}
        assert canonical_hash(channel_to_dict(ch)) != canonical_hash(nested)
        choi = choi_from_kraus(ch)
        assert dumps_canonical(choi_to_dict(choi)) == dumps_canonical(
            {"dim_in": 3, "dim_out": 3, "choi": _nested_pairs(choi.matrix)}
        )
        back = channel_from_dict(_text_round_trip(channel_to_dict(ch)))
        assert all(_same_bits(a, b) for a, b in zip(back.kraus, ch.kraus))

    @pytest.mark.parametrize(
        "rows",
        [
            [[[1, 0], [True, False]], [[-2, 0.5], [False, True]]],
            [[[True, False], [False, True]]],
            [[[3, -0], [0, 7]]],
        ],
    )
    def test_ints_and_bools_read_as_before(self, rows):
        expected = np.array(
            [[complex(float(re), float(im)) for re, im in row] for row in rows]
        )
        assert _same_bits(pairs_to_matrix(rows, "m"), expected)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), 10**400])
    def test_non_finite_entry_named(self, bad):
        rows = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, bad]]]
        with pytest.raises(ValueError, match=r"'m'.*entry \(1,1\) is not finite"):
            pairs_to_matrix(rows, "m")

    @pytest.mark.parametrize("bad", [None, "1.0", {"re": 1.0}, [1.0]])
    def test_non_number_entry_named(self, bad):
        rows = [[[1.0, 0.0], [0.0, bad]]]
        with pytest.raises(ValueError, match=r"entry \(0,1\) is not an \[re, im\] pair"):
            pairs_to_matrix(rows, "m")

    def test_ragged_rows_named(self):
        with pytest.raises(ValueError, match="row 1"):
            pairs_to_matrix([[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]]], "m")

    def test_array_input_checked(self):
        # the decoder reads JSON-decoded lists only; an array is refused
        with pytest.raises(ValueError, match="'m': expected a non-empty list of rows"):
            pairs_to_matrix(np.eye(2, dtype=complex), "m")

    def test_encoder_refuses_non_finite_array(self):
        with pytest.raises(ValueError, match="non-finite float nan"):
            dumps_canonical({"m": np.array([[1.0, complex(0.0, np.nan)]])})

    def test_non_finite_net_scalars_refused(self):
        data = _text_round_trip(build_net(2, 0.9, rng=5))
        data["epsilon"] = float("nan")
        with pytest.raises(ValueError, match="'epsilon'"):
            net_from_dict(data)

    def test_nan_state_refused_with_entry(self):
        with pytest.raises(ValueError, match=r"'state'.*entry \(0,1\) is not finite"):
            state_from_dict({"state": [[1.0, 0.0], [float("nan"), 0.0]]})


class TestKrausSetEncode:
    """A list of equally shaped arrays has the bytes of their stack, and a
    channel's Kraus set, one array, is encoded once."""

    @given(_complex_arrays(1, 3), st.integers(2, 4))
    @settings(max_examples=80, deadline=None)
    def test_stack_bytes_match_each_array(self, m, count):
        arrays = [m, -m, m * 0.0, -m * 0.0][:count]  # with signed zeros
        each = "[" + ",".join(dumps_canonical(a) for a in arrays) + "]"
        assert dumps_canonical(arrays) == each
        assert dumps_canonical(tuple(arrays)) == each
        assert dumps_canonical({"kraus": arrays}) == '{"kraus":' + each + "}"

    def test_one_encode_per_kraus_set(self, monkeypatch):
        calls = []
        real = serialize._write_array
        monkeypatch.setattr(
            serialize, "_write_array", lambda a, write: calls.append(a.shape) or real(a, write)
        )
        dumps_canonical(channel_to_dict(depolarizing(0.5, 3)))
        assert calls == [(9, 3, 3)]
        # unequal shapes, a lone array and a mixed list keep one encode per array
        calls.clear()
        dumps_canonical([np.eye(2, dtype=complex), np.ones((2, 3), complex)])
        dumps_canonical([np.eye(2, dtype=complex)])
        dumps_canonical([np.eye(2, dtype=complex), 1.5, np.eye(2, dtype=complex)])
        assert calls == [(2, 2), (2, 3), (2, 2), (2, 2), (2, 2)]

    def test_hash_keeps_one_digest_per_array(self):
        arrays = [np.eye(2, dtype=complex), np.array([[0.5, -0.0], [1j, 2]])]
        text = "[" + ",".join(_digest_json(a) for a in arrays) + "]"
        assert canonical_hash(arrays) == hashlib.sha256(text.encode()).hexdigest()

    def test_refusals_unchanged(self):
        with pytest.raises(TypeError, match="0-d complex array"):
            dumps_canonical([np.array(1j), np.array(2j)])
        with pytest.raises(ValueError, match="non-finite float inf"):
            dumps_canonical([np.eye(2, dtype=complex), np.full((2, 2), np.inf + 0j)])
        with pytest.raises(TypeError, match="type ndarray"):
            dumps_canonical([np.eye(2, dtype=complex), np.eye(2)])


def _whole_text_load(path):
    """load_operator as it read a file before Kraus lists were streamed."""
    data = read_json(path)
    if isinstance(data, dict) and "kraus" in data:
        return channel_from_dict(data)
    if isinstance(data, dict) and "choi" in data:
        return choi_from_dict(data)
    raise ValueError(f"{path}: neither 'kraus' nor 'choi' field present")


_A = "[[[0.6,0.0],[-0.0,0]],[[0,-0],[0.6,-0.0]]]"
_B = "[[[0,0.8],[true,false]],[[-0.0,-0],[0e0,8e-1]]]"
_C = "[[[1E-1,-0.0],[false,0]],[[-0,1],[-1e-1,-0.0]]]"
_DIMS = '"dim_in":2,"dim_out":2'

# Kraus files the streamed read must give bit for bit as json.loads does:
# signed zeros, the JSON ints 0 and -0, bools, exponents, padding, key
# orders, extra and nested fields, repeated keys, one operator.
_PANEL = {
    "canonical": f'{{{_DIMS},"kraus":[{_A},{_B},{_C}]}}',
    "padded": f' \n\t{{ "dim_in" : 2 ,\r\n "dim_out":2 , "kraus" : [ {_A} ,\n {_B} , {_C} ] }} \n',
    "indented": json.dumps(
        {"dim_in": 2, "dim_out": 2, "kraus": json.loads(f"[{_A},{_B},{_C}]")}, indent=2
    ),
    "kraus first": f'{{"kraus":[{_A},{_B}],"dim_out":2,"dim_in":2}}',
    "kraus between": f'{{"dim_out":2,"kraus":[{_C}],"dim_in":2}}',
    "extra fields": f'{{"note":{{"kraus":[1,2]}},{_DIMS},"kraus":[{_B}],"tags":["a",null]}}',
    "escaped key": f'{{{_DIMS},"kr\\u0061us":[{_A},{_C}]}}',
    "repeated kraus": f'{{"kraus":[{_A},{_B},{_C}],{_DIMS},"kraus":[{_C},{_A}]}}',
    "repeated dims": f'{{"dim_in":3,{_DIMS},"kraus":[{_B}],"dim_out":2}}',
    "one operator": f'{{{_DIMS},"kraus":[{_A}]}}',
    "five operators": f'{{{_DIMS},"kraus":[{_A},{_B},{_C},{_A},{_B}]}}',
    "unitary": json.dumps({"dim_in": 1, "dim_out": 1, "kraus": [[[[1, -0.0]]]]}),
}

# Files whose refusal must keep its message, word for word.
_REFUSED = {
    "bad token in kraus[2]": f'{{{_DIMS},"kraus":[{_A},{_B},[[[1,0],[0,0]],[[0,0],[1,x]]]]}}',
    "trailing garbage": f'{{{_DIMS},"kraus":[{_A}]}} x',
    "second object": f'{{{_DIMS},"kraus":[{_A}]}}{{}}',
    "unclosed kraus": f'{{{_DIMS},"kraus":[{_A},{_B}',
    "missing comma": f'{{{_DIMS},"kraus":[{_A} {_B}]}}',
    "trailing comma": f'{{{_DIMS},"kraus":[{_A},]}}',
    "bad key": f'{{{_DIMS},kraus:[{_A}]}}',
    "byte order mark": f'﻿{{{_DIMS},"kraus":[{_A}]}}',
    "empty text": "  ",
    "top-level list": f"[{_A}]",
    "kraus not a list": f'{{{_DIMS},"kraus":{{"0":{_A}}}}}',
    "empty kraus": f'{{{_DIMS},"kraus":[]}}',
    "last kraus not a list": f'{{"kraus":[{_A}],{_DIMS},"kraus":3}}',
    "bad entry before dims": f'{{"kraus":[{_A},[[[1,0]]],[[["x",0]]]],"dim_in":2}}',
    "bad entry, then shape": f'{{{_DIMS},"kraus":[{_A},[[[NaN,0]]],[[[1,0]]]]}}',
    "shape, then bad entry": f'{{{_DIMS},"kraus":[{_A},[[[1,0]]],[[[NaN,0]]]]}}',
    "non-finite token": f'{{{_DIMS},"kraus":[{_A},[[[Infinity,0],[0,0]],[[0,0],[1,0]]]]}}',
    "neither form": '{"dim_in":2,"dim_out":2}',
    # a later operator of another shape than the first
    "taller later operator": f'{{{_DIMS},"kraus":[{_A},[[[1,0],[0,0]],[[0,1],[1,0]],[[0,0],[2,0]]]]}}',
    "shorter later operator": f'{{{_DIMS},"kraus":[{_A},{_B},[[[1,0],[0,0]]]]}}',
    "wider later operator": f'{{{_DIMS},"kraus":[{_A},[[[1,0],[0,0],[3,0]],[[0,0],[1,0],[0,0]]]]}}',
    "one-wide later operator": f'{{{_DIMS},"kraus":[{_A},[[[1,0]],[[0,1]]]]}}',
    "every operator 1x1": f'{{{_DIMS},"kraus":[[[[1,0]]],[[[0,1]]]]}}',
}


@pytest.fixture
def empty_shapes(monkeypatch) -> list:
    """The shapes np.empty is asked for from here on, in order."""
    shapes = []
    real_empty = np.empty
    monkeypatch.setattr(np, "empty",
                        lambda shape, *args, **kw: shapes.append(shape) or real_empty(shape, *args, **kw))
    return shapes


class TestStreamedKrausRead:
    """load_operator decodes a 'kraus' list one operator at a time."""

    @pytest.mark.parametrize("name", sorted(_PANEL))
    def test_arrays_bit_equal_to_whole_text_decode(self, tmp_path, name):
        text = _PANEL[name]
        path = tmp_path / "ch.json"
        path.write_text(text, encoding="utf-8")
        expected = channel_from_dict(json.loads(text))
        got = load_operator(path)
        assert (got.dim_in, got.dim_out) == (expected.dim_in, expected.dim_out)
        assert len(got.kraus) == len(expected.kraus)
        assert all(_same_bits(a, b) for a, b in zip(got.kraus, expected.kraus))
        assert all(a.dtype == np.complex128 for a in got.kraus)

    def test_int_minus_zero_reads_as_plus_zero(self, tmp_path):
        path = tmp_path / "ch.json"
        path.write_text(_PANEL["one operator"], encoding="utf-8")
        op = load_operator(path).kraus[0]
        assert _bits(op[1, 0].imag) == _bits(0.0)  # JSON int -0
        assert _bits(op[0, 1].real) == _bits(-0.0)  # JSON float -0.0

    @pytest.mark.parametrize("name", sorted(_REFUSED))
    def test_refusals_keep_their_message(self, tmp_path, name):
        path = tmp_path / "ch.json"
        path.write_text(_REFUSED[name], encoding="utf-8")
        with pytest.raises(ValueError) as expected:
            _whole_text_load(path)
        with pytest.raises(ValueError) as got:
            load_operator(path)
        assert str(got.value) == str(expected.value)

    def test_choi_file_reads_as_before(self, tmp_path):
        path = tmp_path / "c.json"
        write_json(path, choi_to_dict(choi_from_kraus(depolarizing(0.4, 2))))
        assert _same_bits(load_operator(path).matrix, _whole_text_load(path).matrix)

    @pytest.mark.parametrize("name", ["bad token in kraus[2]", "trailing garbage"])
    def test_cli_refuses_malformed_text(self, tmp_path, capsys, name):
        path = tmp_path / "broken.json"
        path.write_text(_REFUSED[name], encoding="utf-8")
        code = main(["channel", "validate", "--channel", str(path),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert f"malformed JSON in {path}" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_each_operator_is_converted_before_the_next_is_decoded(self, tmp_path,
                                                                    monkeypatch):
        path = tmp_path / "ch.json"
        path.write_text(f'{{"dim_in":2,"kraus":[{_A},{_B},{_C}],"dim_out":2}}',
                        encoding="utf-8")
        decoded = []
        events = []
        real_decoder = serialize._DECODER
        real_convert = serialize.pairs_to_vector
        real_matrix = serialize._streamed_matrix

        class SpyDecoder:
            def raw_decode(self, s, idx=0):
                obj, end = real_decoder.raw_decode(s, idx)
                decoded.append(obj)
                return obj, end

        def spy_convert(entries, field):
            # the row converted is the value decoded last
            events.append((field, len(decoded), entries is decoded[-1]))
            return real_convert(entries, field)

        def spy_matrix(win, field, *height):
            matrix = real_matrix(win, field, *height)
            events.append((field, len(decoded), "complete"))
            return matrix

        monkeypatch.setattr(serialize, "_DECODER", SpyDecoder())
        monkeypatch.setattr(serialize, "pairs_to_vector", spy_convert)
        monkeypatch.setattr(serialize, "_streamed_matrix", spy_matrix)
        ch = load_operator(path)
        assert len(ch.kraus) == 3
        # keys and values: dim_in, 2, kraus, then one decode per row, each
        # operator complete before the next one's first row is decoded
        assert events == [
            ("kraus[0]", 4, True), ("kraus[0]", 5, True), ("kraus[0]", 5, "complete"),
            ("kraus[1]", 6, True), ("kraus[1]", 7, True), ("kraus[1]", 7, "complete"),
            ("kraus[2]", 8, True), ("kraus[2]", 9, True), ("kraus[2]", 9, "complete"),
        ]
        assert len(decoded) == 11  # then dim_out, 2

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("text", [_PANEL["canonical"], _REFUSED["unclosed kraus"]])
    def test_gc_state_is_restored(self, tmp_path, enabled, text, monkeypatch):
        # the read never touches the process-wide GC setting
        path = tmp_path / "ch.json"
        path.write_text(text, encoding="utf-8")
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            with monkeypatch.context() as m:
                m.setattr(gc, "disable", lambda: pytest.fail("the read paused the GC"))
                m.setattr(gc, "enable", lambda: pytest.fail("the read resumed the GC"))
                try:
                    load_operator(path)
                except ValueError:
                    pass
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was else gc.disable()

    def test_over_budget_operator_is_refused_on_its_first_row(self, tmp_path, monkeypatch,
                                                              capsys):
        # a 9 x 9 operator needs 1296 bytes, above a budget of 1024: refused
        # once its first row gives the width, with no whole-text read
        path = tmp_path / "ch.json"
        write_json(path, channel_to_dict(random_channel(9, 2, rng=3)))
        monkeypatch.setattr("gatefid.channels.MAX_DENSE_BYTES", 16 * 8 * 8)
        monkeypatch.setattr(serialize, "read_json", lambda path: pytest.fail("read whole"))
        rows = []
        real_convert = serialize.pairs_to_vector
        monkeypatch.setattr(serialize, "pairs_to_vector",
                            lambda row, field: rows.append(field) or real_convert(row, field))
        message = r"the 9x9 kraus\[0\] operator needs .* dense-operator limit"
        with pytest.raises(ValueError, match=message):
            load_operator(path)
        assert rows == ["kraus[0]"]
        out = tmp_path / "r.json"
        assert main(["channel", "validate", "--channel", str(path), "--out", str(out)]) == 2
        assert re.search(message, capsys.readouterr().err)
        assert not out.exists()

    def test_taller_operator_is_refused_before_it_grows(self, tmp_path, monkeypatch):
        # an 8 x 2 operator starts as 2 x 2 and doubles; the 8 x 2 array
        # needs 256 bytes, above a budget of 200, and is never allocated
        path = tmp_path / "ch.json"
        op = np.arange(16).reshape(8, 2) + 1j
        write_json(path, {"dim_in": 2, "dim_out": 8, "kraus": [op]})
        monkeypatch.setattr("gatefid.channels.MAX_DENSE_BYTES", 200)
        monkeypatch.setattr(serialize, "read_json", lambda path: pytest.fail("read whole"))
        grown = []
        real_resize = np.resize
        monkeypatch.setattr(np, "resize",
                            lambda a, shape: grown.append(shape) or real_resize(a, shape))
        with pytest.raises(ValueError, match=r"the 8x2 kraus\[0\] operator needs"):
            load_operator(path)
        assert grown == [(4, 2)]

    @pytest.mark.parametrize("dims_first", [True, False], ids=["dims first", "dims last"])
    def test_wide_operator_starts_at_dim_out_rows(self, tmp_path, monkeypatch, dims_first,
                                                  empty_shapes):
        # a dim_out read before "kraus" sizes the first allocation; read
        # after it, the operator starts square and is trimmed, as before
        op = np.arange(6).reshape(2, 3) + 1j
        fields = {"dim_in": 3, "dim_out": 2}
        path = tmp_path / "ch.json"
        write_json(path, {**fields, "kraus": [op]} if dims_first else {"kraus": [op], **fields})
        monkeypatch.setattr(serialize, "read_json", lambda path: pytest.fail("read whole"))
        assert _same_bits(load_operator(path).kraus[0], op)
        assert empty_shapes == [(2, 3) if dims_first else (3, 3)]

    @pytest.mark.parametrize("dim_out", [True, 0, -1, 2.0, "1"])
    def test_only_a_positive_int_dim_out_sizes_the_start(self, tmp_path, dim_out, empty_shapes):
        # the file is refused on its dims as before, after a square start
        path = tmp_path / "ch.json"
        write_json(path, {"dim_in": 3, "dim_out": dim_out, "kraus": [np.ones((2, 3), dtype=complex)]})
        with pytest.raises(ValueError, match="field 'dim_out': expected a positive integer"):
            load_operator(path)
        assert empty_shapes[0] == (3, 3)

    def test_2048_to_1_read_peak(self, tmp_path):
        # a 41 kB file: a 2048 x 2048 start peaked at 64 MiB
        path = tmp_path / "ch.json"
        op = np.random.default_rng(2).standard_normal((1, 2048)) + 0j
        write_json(path, {"dim_in": 2048, "dim_out": 1, "kraus": [op]})
        tracemalloc.start()
        try:
            back = load_operator(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _same_bits(back.kraus[0], op)
        assert peak < 2**20

    def test_1_by_12000_operator_is_read(self, tmp_path, monkeypatch):
        # 192 kB of entries; a 12000 x 12000 start needed 2.15 GiB and was refused
        path = tmp_path / "ch.json"
        g = np.random.default_rng(3)
        write_json(path, {"dim_in": 12000, "dim_out": 1,
                          "kraus": [g.standard_normal((1, 12000)) + 1j * g.standard_normal((1, 12000))]})
        monkeypatch.setattr(serialize, "read_json", lambda path: pytest.fail("read whole"))
        got = load_operator(path)
        expected = channel_from_dict(json.loads(path.read_text(encoding="utf-8")))
        assert (got.dim_in, got.dim_out) == (12000, 1)
        assert _same_bits(got.kraus[0], expected.kraus[0])

    def test_rank_4_d_256_read_peak(self, tmp_path):
        # the stats-lowrank benchmark's channel shape: an 11.9 MB file
        path = tmp_path / "ch.json"
        ch = random_channel(256, 4, rng=1)
        write_json(path, channel_to_dict(ch))
        tracemalloc.start()
        try:
            back = load_operator(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(_same_bits(a, b) for a, b in zip(back.kraus, ch.kraus))
        # 5,269,693 bytes (5.03 MiB) measured under numpy 2.4.6: the four
        # operators and a window of text. Decoding each operator as one
        # list peaked at 15.2 MiB, reading the whole text first at 26.4 MiB
        # and the whole-text decode at 47.5 MiB.
        assert peak <= 7 * 2**20


def _kraus_variants() -> dict:
    """One Kraus object as texts the window must read alike: layouts,
    line ends, key orders, repeated keys, number forms, a non-ASCII string."""
    obj = json.loads(dumps_canonical(channel_to_dict(random_channel(3, 2, rng=5))))
    canonical = dumps_canonical(obj)
    first = {"kraus": obj["kraus"], "dim_in": 3, "dim_out": 3}
    return {
        "canonical": canonical,
        "indent=2": json.dumps(obj, indent=2),
        "crlf": json.dumps(obj, indent=2).replace("\n", "\r\n"),
        "spaced separators": json.dumps(obj),
        "kraus before dim_in": dumps_canonical(first),
        "repeated kraus": '{"kraus":[[[[1,0]]]],' + canonical[1:],
        "utf-8 note": '{"note":"Gr\u00fc\u00dfe \u2603 \U0001d53d",' + canonical[1:],
        "long numbers": '{"scale":-12.5e+3,"seed":1234567,' + canonical[1:],
        "ints, -0, exponents": _PANEL["canonical"],
        "padded": _PANEL["padded"],
    }


_ROW = "[[0.5,0],[0,-0.0]]"
# Choi files whose refusal must keep the message of the whole-text decode
_CHOI_REFUSED = {
    "extra row": f'{{{_DIMS},"choi":[{_ROW},{_ROW},{_ROW}]}}'.replace('"dim_out":2', '"dim_out":1'),
    "missing row": f'{{"dim_in":1,"dim_out":2,"choi":[{_ROW}]}}',
    "ragged row": f'{{"dim_in":1,"dim_out":2,"choi":[{_ROW},[[1,0]]]}}',
    "one-wide row": f'{{"dim_in":1,"dim_out":2,"choi":[{_ROW},[[1,0]],[[1,0]]]}}',
    "non-finite": f'{{"dim_in":1,"dim_out":2,"choi":[{_ROW},[[1,0],[NaN,0]]]}}',
    "not a list": '{"dim_in":1,"dim_out":1,"choi":3}',
    "empty": '{"dim_in":1,"dim_out":1,"choi":[]}',
    "empty row": '{"dim_in":1,"dim_out":1,"choi":[[]]}',
    "wrong size": f'{{"dim_in":2,"dim_out":2,"choi":[{_ROW},[[1,0],[0,1]]]}}',
}


def _write_text(path, text: str) -> None:
    path.write_bytes(text.encode("utf-8"))  # line ends as given


class TestWindowBoundaries:
    """With pieces of a few characters every token, pair and operator
    crosses a piece boundary; each read must give json.loads's bits."""

    @pytest.fixture(params=[1, 2, 3, 7, 64], autouse=True)
    def piece(self, request, monkeypatch):
        monkeypatch.setattr(serialize, "_PIECE", request.param)
        return request.param

    @pytest.fixture
    def streamed_only(self, monkeypatch):
        # a valid file is never re-read whole, wherever the pieces split it
        monkeypatch.setattr(serialize, "read_json", lambda path: pytest.fail("read whole"))

    @pytest.mark.parametrize("name", sorted(_kraus_variants()))
    def test_kraus_variants_bit_equal(self, tmp_path, name, streamed_only):
        text = _kraus_variants()[name]
        path = tmp_path / "ch.json"
        _write_text(path, text)
        expected = channel_from_dict(json.loads(text))
        got = load_operator(path)
        assert (got.dim_in, got.dim_out) == (expected.dim_in, expected.dim_out)
        assert len(got.kraus) == len(expected.kraus)
        assert all(_same_bits(a, b) for a, b in zip(got.kraus, expected.kraus))

    @pytest.mark.parametrize("indent", [None, 1])
    def test_choi_bit_equal(self, tmp_path, indent, streamed_only):
        data = json.loads(dumps_canonical(choi_to_dict(choi_from_kraus(random_channel(2, 3, 4)))))
        text = json.dumps(data, indent=indent)
        path = tmp_path / "c.json"
        _write_text(path, text)
        assert _same_bits(load_operator(path).matrix, choi_from_dict(json.loads(text)).matrix)

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2)], ids=["2->3", "3->2"])
    @pytest.mark.parametrize("dims_first", [True, False], ids=["dims first", "dims last"])
    def test_rectangular_kraus_bit_equal(self, tmp_path, dims, dims_first, streamed_only):
        # a 3 x 2 operator grows past its first row's width, a 2 x 3 one is trimmed
        d_in, d_out = dims
        g = np.random.default_rng(7)
        ops = [g.standard_normal((d_out, d_in)) + 1j * g.standard_normal((d_out, d_in))
               for _ in range(2)]
        fields = {"dim_in": d_in, "dim_out": d_out}
        obj = {**fields, "kraus": ops} if dims_first else {"kraus": ops, **fields}
        text = dumps_canonical(obj)
        path = tmp_path / "ch.json"
        _write_text(path, text)
        got = load_operator(path)
        expected = channel_from_dict(json.loads(text))
        assert (got.dim_in, got.dim_out) == (d_in, d_out)
        assert got.kraus.shape == (2, d_out, d_in) and got.kraus.flags.c_contiguous
        # and the one array holds no rows beyond its own
        assert (got.kraus if got.kraus.base is None else got.kraus.base).nbytes == 2 * 16 * d_out * d_in
        assert all(_same_bits(a, b) for a, b in zip(got.kraus, expected.kraus))

    @pytest.mark.parametrize("name", sorted(_REFUSED))
    def test_refusals_keep_their_message(self, tmp_path, name):
        path = tmp_path / "ch.json"
        _write_text(path, _REFUSED[name])
        with pytest.raises(ValueError) as expected:
            _whole_text_load(path)
        with pytest.raises(ValueError) as got:
            load_operator(path)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("name", sorted(_CHOI_REFUSED))
    def test_choi_refusals_keep_their_message(self, tmp_path, name):
        path = tmp_path / "c.json"
        _write_text(path, _CHOI_REFUSED[name])
        with pytest.raises(ValueError) as expected:
            _whole_text_load(path)
        with pytest.raises(ValueError) as got:
            load_operator(path)
        assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("pieces", [['{"a":1', "2.5e", "+3}"], ['{"a":-', "0,", '"b":1}']])
def test_a_number_split_by_pieces_is_read_on(pieces):
    # "12.5" and "-" parse (or fail) alone; the number goes on in the next piece
    assert serialize._streamed_fields(iter(pieces)) == json.loads("".join(pieces))


class TestStreamedChoiRead:
    """load_operator decodes a 'choi' matrix a row at a time."""

    @pytest.mark.parametrize("name", sorted(_CHOI_REFUSED))
    def test_refusals_keep_their_message(self, tmp_path, name):
        path = tmp_path / "c.json"
        _write_text(path, _CHOI_REFUSED[name])
        with pytest.raises(ValueError) as expected:
            _whole_text_load(path)
        with pytest.raises(ValueError) as got:
            load_operator(path)
        assert str(got.value) == str(expected.value)

    def test_budget_is_checked_before_the_matrix_is_allocated(self, tmp_path, monkeypatch):
        path = tmp_path / "c.json"
        write_json(path, choi_to_dict(choi_from_kraus(depolarizing(0.4, 3))))
        checks = []
        monkeypatch.setattr(serialize, "_check_budget", lambda need, what: checks.append(need))
        assert load_operator(path).matrix.shape == (9, 9)
        assert checks == [16 * 9 * 9]

    def test_over_budget_matrix_is_refused_without_a_whole_read(self, tmp_path, monkeypatch, capsys):
        # a 9 x 9 matrix needs 1296 bytes, above a budget of 1024: the
        # refusal stands, with no whole-text read that would decode it anyway
        path = tmp_path / "c.json"
        write_json(path, choi_to_dict(choi_from_kraus(depolarizing(0.4, 3))))
        monkeypatch.setattr("gatefid.channels.MAX_DENSE_BYTES", 16 * 8 * 8)

        def no_whole_read(path):
            raise AssertionError("the file was re-read whole")

        monkeypatch.setattr(serialize, "read_json", no_whole_read)
        message = r"the 9x9 Choi matrix needs .* dense-operator limit"
        with pytest.raises(ValueError, match=message):
            load_operator(path)
        out = tmp_path / "r.json"
        assert main(["channel", "validate", "--channel", str(path), "--out", str(out)]) == 2
        assert re.search(message, capsys.readouterr().err)
        assert not out.exists()

    def test_d_32_read_peak(self, tmp_path):
        # a 1024 x 1024 Choi matrix: 16 MiB of complex entries, 48.5 MB of text
        path = tmp_path / "c.json"
        choi = choi_from_kraus(random_channel(32, 4, rng=1))
        write_json(path, choi_to_dict(choi))
        tracemalloc.start()
        try:
            back = load_operator(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _same_bits(back.matrix, choi.matrix)
        # 17,903,120 bytes (17.1 MiB) measured under numpy 2.4.6, the matrix
        # and a window of text; the whole-text decode peaked at 238.9 MiB
        assert peak <= 20 * 2**20


@functools.cache
def _artifacts() -> dict:
    """One object of each artifact kind write_json streams."""
    pair = perturb_channel(depolarizing(0.5, 4), n_verify=100, rng=1)
    signed = np.array([[0.0, -0.0, 3.0], [-2.0 + 0.5j, 1e16 - 0.0j, complex(-0.0, 7.0)]])
    return {
        "kraus set": channel_to_dict(random_channel(5, 3, rng=2)),
        "choi": choi_to_dict(choi_from_kraus(depolarizing(0.3, 3))),
        "twin certificate": {"epsilon": pair.epsilon, "q": channel_to_dict(pair.q),
                             "r": channel_to_dict(pair.r), "signed": signed},
        "net": build_net(2, 0.7, rng=3),
        "stats": mc_fidelity_stats(depolarizing(0.7, 2), None, 500, rng=11),
    }


class TestStreamedWrite:
    """write_json writes to the open file as it encodes, with the bytes of
    dumps_canonical, and refuses everything before the file is opened."""

    @pytest.mark.parametrize("chunk", [1, 3, 4096])
    @pytest.mark.parametrize("kind", sorted(_artifacts()))
    def test_bytes_equal_dumps(self, tmp_path, monkeypatch, kind, chunk):
        obj = _artifacts()[kind]
        monkeypatch.setattr(serialize, "_CHUNK_PAIRS", chunk)  # rows split across chunks
        write_json(tmp_path / "a.json", obj)
        assert (tmp_path / "a.json").read_bytes() == (dumps_canonical(obj) + "\n").encode()

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (2, 0), (2, 0, 3), (3, 2, 0)])
    def test_empty_axes(self, shape):
        m = np.zeros(shape, complex)
        assert dumps_canonical(m) == dumps_canonical(_nested_pairs(m))

    def test_writes_while_encoding(self, tmp_path, monkeypatch):
        writes = []
        real_open = open

        def spy_open(*args, **kwargs):
            fh = real_open(*args, **kwargs)
            real_write = fh.write
            fh.write = lambda text: writes.append(len(text)) or real_write(text)
            return fh

        monkeypatch.setattr("builtins.open", spy_open)
        obj = channel_to_dict(random_channel(64, 4, rng=3))
        write_json(tmp_path / "k.json", obj)
        assert sum(writes) == len(dumps_canonical(obj)) + 1
        assert max(writes) < sum(writes) / 3  # a chunk of pairs, not the file

    @staticmethod
    def _failures():
        ops = [np.eye(3, dtype=complex) for _ in range(4)]
        ops[-1][2, 2] = np.nan  # in the last operator
        return [
            (ValueError, {"dim_in": 3, "dim_out": 3, "kraus": ops}),
            (TypeError, {"a": 1.5, "b": [np.eye(2, dtype=complex)], "z": object()}),
        ]

    @pytest.mark.parametrize("case", [0, 1], ids=["nan in the last operator", "unknown type last"])
    def test_failed_encode_leaves_no_file(self, tmp_path, case):
        error, obj = self._failures()[case]
        with pytest.raises(error):
            write_json(tmp_path / "out.json", obj)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("case", [0, 1], ids=["nan in the last operator", "unknown type last"])
    def test_failed_encode_keeps_an_existing_file(self, tmp_path, case):
        error, obj = self._failures()[case]
        path = tmp_path / "out.json"
        path.write_bytes(b'{"kept":true}\n')
        with pytest.raises(error):
            write_json(path, obj)
        assert path.read_bytes() == b'{"kept":true}\n'

    def test_kraus_set_is_checked_an_operator_at_a_time(self, tmp_path):
        # the first non-finite entry in operator order is the one named
        ops = [np.eye(3, dtype=complex) for _ in range(4)]
        ops[1][2, 2] = complex(0.0, -np.inf)
        ops[2][0, 0] = np.nan
        obj = {"kraus": ops}
        for encode in (dumps_canonical, lambda obj: write_json(tmp_path / "out.json", obj)):
            with pytest.raises(ValueError, match=re.escape("non-finite float -inf")):
                encode(obj)
        assert list(tmp_path.iterdir()) == []
        # the check pass holds the set's finite flags (0.5 MiB), not a copy of it
        obj = channel_to_dict(random_channel(256, 4, rng=1))
        tracemalloc.start()
        try:
            serialize._check_encodable(obj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20

    def test_failed_csv_keeps_an_existing_file(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_bytes(b"kept\n")
        rows = [{"a": 1.0, "b": "x"}, {"a": 2.0, "b": "y"}, {"a": float("inf"), "b": "z"}]
        with pytest.raises(ValueError, match="non-finite"):
            write_csv(path, rows, columns=("b", "a"))
        assert path.read_bytes() == b"kept\n"
        rows[-1]["a"] = 3.0
        write_csv(path, rows, columns=("b", "a"))
        assert path.read_text() == "b,a\nx,1.0\ny,2.0\nz,3.0\n"

    def test_rank_4_d_256_write_peak(self, tmp_path):
        # the stats-lowrank benchmark's channel, written to an 11.9 MB file
        obj = channel_to_dict(random_channel(256, 4, rng=1))
        tracemalloc.start()
        try:
            write_json(tmp_path / "ch.json", obj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "ch.json").read_text() == dumps_canonical(obj) + "\n"
        # 681,424 bytes (0.65 MiB) measured under numpy 2.4.6: the set's
        # finite flags and one chunk; a stacked copy of the Kraus set took
        # it to 4.7 MiB, and joining the text first to 27.3 MiB
        assert peak <= 5.5 * 2**20
