import hashlib
import json
import re
import struct

import numpy as np
import pytest

from gatefid import channels, cli, nonuniq, sampling, serialize
from gatefid.channels import (
    QuantumChannel,
    channel_from_kraus,
    choi_from_kraus,
    depolarizing,
    unitary_channel,
)
from gatefid.cli import main
from gatefid.fidelity import fidelity_kernel

CONVERGENCE_COLUMNS = (
    "d", "n", "mean", "variance", "std", "var_bound_exact", "var_bound_conc",
    "eps", "levy_bound", "emp_fraction", "seed",
)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _write_channel(path, ch):
    serialize.write_json(path, serialize.channel_to_dict(ch))
    return str(path)


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert main([]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_group(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_action(self, capsys):
        assert main(["channel"]) == 1

    def test_unknown_flag(self, capsys):
        assert main(["fidelity", "avg", "--wat", "3"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["channel", "validate"]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["fidelity", "avg", "--p", "0.9", "--d", "2", "--threads", "2"],
            ["fidelity", "avg", "--p", "0.9", "--d", "2", "--format", "csv"],
            ["bounds", "levy", "--d", "8", "--eps", "0.1", "--seed", "3"],
            ["nonuniq", "construct", "--d", "4", "--tol", "1e-3"],
            ["min", "net-min", "--p", "0.9", "--d", "2", "--net", "net.json", "--n", "10"],
            ["channel", "make-depolarizing", "--p", "0.5", "--d", "2", "--seed", "3"],
        ],
        ids=["threads", "format", "seed", "tol", "n", "seed-on-make"],
    )
    def test_flag_the_command_does_not_read(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["fidelity", "stats", "--p", "0.9", "--d", "2", "--n", "100"],
            ["nonuniq", "construct", "--d", "4", "--n", "100"],
            ["nonuniq", "verify", "--q", "CH", "--r", "CH", "--n", "100"],
            ["report", "convergence", "--d-list", "2,4", "--n", "100"],
        ],
        ids=["stats", "construct", "verify", "convergence"],
    )
    def test_negative_threads(self, argv, tmp_path, monkeypatch, capsys):
        # 0 means every core; a negative count is a mistake, not a synonym for it
        ch_path = _write_channel(tmp_path / "ch.json", depolarizing(0.5, 4))
        monkeypatch.chdir(tmp_path)
        argv = [ch_path if a == "CH" else a for a in argv]
        assert main(argv + ["--threads", "-3"]) == 1
        assert "--threads must be 0 or more, got -3" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["ch.json"]

    @pytest.mark.parametrize(
        "flags",
        [["--p", "0.9", "--d", "2"], ["--p", "0.9"], ["--d", "2"]],
        ids=["p-and-d", "p", "d"],
    )
    @pytest.mark.parametrize(
        "command", [["fidelity", "avg"], ["nonuniq", "construct"]], ids=["avg", "construct"]
    )
    def test_channel_file_conflicts_with_shorthand(self, command, flags, tmp_path,
                                                   monkeypatch, capsys):
        path = _write_channel(tmp_path / "dep.json", depolarizing(0.5, 4))
        monkeypatch.chdir(tmp_path)
        assert main(command + ["--channel", path] + flags) == 1
        assert "conflicts with" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["dep.json"]

    def test_dimension_conflicts_with_qubits(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["bounds", "variance", "--d", "4", "--qubits", "3"]) == 1
        assert "--d conflicts with --qubits" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "gatefid" in capsys.readouterr().out


class TestChannelCommands:
    def test_make_and_validate(self, tmp_path, capsys):
        out = tmp_path / "dep.json"
        assert main([
            "channel", "make-depolarizing", "--p", "0.5", "--d", "2",
            "--out", str(out),
        ]) == 0
        ch = serialize.load_channel(out)
        assert len(ch.kraus) == 4
        # run validate with an explicit artifact path to keep tmp clean
        report_out = tmp_path / "report.json"
        assert main([
            "channel", "validate", "--channel", str(out), "--out", str(report_out),
        ]) == 0
        text = capsys.readouterr().out
        assert "is_cp=True" in text and "is_tp=True" in text
        payload = serialize.read_json(report_out)
        assert payload["quantity"] == "cptp_report"
        assert payload["value"]["is_cp"] is True

    def test_clock_shift_channel_has_no_negative_zero(self, tmp_path, capsys):
        # d = 6 is not a power of two: the clock-and-shift basis, whose
        # operators once carried BLAS-made -0.0 entries from matrix products
        out = tmp_path / "dep.json"
        assert main(["channel", "make-depolarizing", "--p", "0.5", "--d", "6",
                     "--out", str(out)]) == 0
        assert not re.search(r"[\[,]-0\.0[,\]]", out.read_text(encoding="utf-8"))
        assert len(serialize.load_channel(out).kraus) == 36
        report_out = tmp_path / "report.json"
        assert main(["channel", "validate", "--channel", str(out), "--out", str(report_out)]) == 0
        assert "is_cp=True" in capsys.readouterr().out

    def test_validate_rejects_non_tp(self, tmp_path, capsys):
        bad = channel_from_kraus((0.9 * np.eye(2),))
        path = _write_channel(tmp_path / "bad.json", bad)
        code = main(["channel", "validate", "--channel", path,
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "is_tp=False" in capsys.readouterr().out

    def test_validate_missing_file(self, tmp_path, capsys):
        code = main(["channel", "validate", "--channel", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_channel_names_field(self, tmp_path, capsys):
        path = tmp_path / "odd.json"
        serialize.write_json(path, {"dim_in": 2, "dim_out": 2})
        code = main(["channel", "validate", "--channel", str(path),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "kraus" in capsys.readouterr().err

    def test_bad_kraus_entry_named(self, tmp_path, capsys):
        data = serialize.channel_to_dict(depolarizing(0.5, 2))
        data["kraus"] = list(data["kraus"])  # the one (4, 2, 2) array, as a list to edit
        data["kraus"][1] = [[[1.0, 0.0]]]
        path = tmp_path / "shape.json"
        serialize.write_json(path, data)
        code = main(["channel", "validate", "--channel", str(path),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "kraus[1]" in capsys.readouterr().err

    def test_broken_json_text(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{no json here", encoding="utf-8")
        code = main(["channel", "validate", "--channel", str(path),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "malformed JSON" in capsys.readouterr().err

    def test_convert_round_trip(self, tmp_path):
        start = _write_channel(tmp_path / "k.json", depolarizing(0.3, 2))
        choi_path = tmp_path / "c.json"
        back_path = tmp_path / "k2.json"
        assert main(["channel", "convert", "--channel", start, "--to", "choi",
                     "--out", str(choi_path)]) == 0
        assert main(["channel", "convert", "--channel", str(choi_path), "--to", "kraus",
                     "--out", str(back_path)]) == 0
        original = choi_from_kraus(serialize.load_channel(start)).matrix
        recovered = choi_from_kraus(serialize.load_channel(back_path)).matrix
        assert np.max(np.abs(original - recovered)) < 1e-9


class TestFidelityCommands:
    def test_avg_depolarizing(self, tmp_path, capsys):
        out = tmp_path / "avg.json"
        assert main(["fidelity", "avg", "--p", "0.9", "--d", "2",
                     "--out", str(out)]) == 0
        assert "0.95" in capsys.readouterr().out
        payload = serialize.read_json(out)
        assert abs(payload["value"] - 0.95) < 1e-12
        assert payload["d"] == 2
        assert payload["quantity"] == "average_gate_fidelity"

    def test_avg_with_unitary_target(self, tmp_path):
        ch_path = _write_channel(tmp_path / "x.json", unitary_channel(PAULI_X))
        u_path = tmp_path / "u.json"
        serialize.write_json(u_path, {"unitary": PAULI_X})
        out = tmp_path / "avg.json"
        assert main(["fidelity", "avg", "--channel", ch_path,
                     "--unitary", str(u_path), "--out", str(out)]) == 0
        assert abs(serialize.read_json(out)["value"] - 1.0) < 1e-12

    def test_point_defaults_to_first_basis_state(self, tmp_path):
        out = tmp_path / "pt.json"
        assert main(["fidelity", "point", "--p", "0.5", "--d", "2",
                     "--out", str(out)]) == 0
        assert abs(serialize.read_json(out)["value"] - 0.75) < 1e-12

    def test_point_with_state_file(self, tmp_path):
        ch_path = _write_channel(tmp_path / "x.json", unitary_channel(PAULI_X))
        state_path = tmp_path / "s.json"
        state = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
        serialize.write_json(state_path, {"state": state})
        out = tmp_path / "pt.json"
        assert main(["fidelity", "point", "--channel", ch_path,
                     "--state", str(state_path), "--out", str(out)]) == 0
        assert abs(serialize.read_json(out)["value"] - 1.0) < 1e-12

    def test_stats_artifacts_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["fidelity", "stats", "--p", "0.8", "--d", "2", "--n", "3000",
                "--seed", "7"]
        assert main(base + ["--out", str(a), "--threads", "1"]) == 0
        assert main(base + ["--out", str(b), "--threads", "3"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_symmetric_form_stats_are_byte_identical(self, tmp_path):
        # a full-rank channel at d=16 samples through the symmetric form,
        # built once before the block loop and shared by the workers
        assert fidelity_kernel(depolarizing(0.5, 16)).form is not None
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = ["fidelity", "stats", "--p", "0.5", "--d", "16", "--n", "20000"]
        assert main(base + ["--out", str(a), "--threads", "1"]) == 0
        assert main(base + ["--out", str(b), "--threads", "2"]) == 0
        assert a.read_bytes() == b.read_bytes()
        stats = serialize.read_json(a)["value"]
        assert abs(stats["mean"] - (0.5 + 0.5 / 16)) < 1e-13

    def test_stats_payload(self, tmp_path):
        out = tmp_path / "st.json"
        assert main(["fidelity", "stats", "--p", "0.8", "--d", "2", "--n", "2000",
                     "--seed", "7", "--out", str(out)]) == 0
        payload = serialize.read_json(out)
        assert payload["seed"] == 7
        stats = payload["value"]
        assert stats["n"] == 2000
        assert abs(stats["mean"] - 0.9) < 1e-12
        assert stats["seed"]["algorithm_id"] == "pcg64-interleaved-spectral-block4096"

    def test_missing_channel_source(self, tmp_path, capsys):
        code = main(["fidelity", "avg", "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "--channel" in capsys.readouterr().err


class TestParserReuse:
    def test_main_calls_share_one_parser_without_leaking_flags(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.delenv("GATEFID_SEED", raising=False)
        parsers = []
        parse = cli._Parser.parse_args

        def spy(self, *args, **kwargs):
            parsers.append(self)
            return parse(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "parse_args", spy)
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert main(["min", "reference", "--p", "0.7", "--d", "2", "--starts", "2",
                     "--seed", "5", "--out", str(first)]) == 0
        assert main(["min", "reference", "--p", "0.7", "--d", "2",
                     "--out", str(second)]) == 0
        assert len(parsers) == 2 and parsers[0] is parsers[1]
        assert serialize.read_json(first)["seed"] == 5
        assert serialize.read_json(second)["seed"] == sampling.DEFAULT_SEED
        summaries = capsys.readouterr().out.splitlines()
        assert "over 2 starts" in summaries[0] and "over 8 starts" in summaries[1]

    def test_seed_default_follows_the_environment(self, monkeypatch):
        monkeypatch.setenv("GATEFID_SEED", "41")
        assert cli.build_parser() is cli.build_parser()
        assert cli.build_parser().parse_args(["min", "reference", "--d", "2"]).seed == 41
        monkeypatch.setenv("GATEFID_SEED", "42")
        assert cli.build_parser().parse_args(["min", "reference", "--d", "2"]).seed == 42


class TestSeedPlumbing:
    def test_env_seed_lands_in_artifact(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GATEFID_SEED", "99")
        out = tmp_path / "st.json"
        assert main(["fidelity", "stats", "--p", "0.8", "--d", "2", "--n", "500",
                     "--out", str(out)]) == 0
        assert serialize.read_json(out)["seed"] == 99

    def test_flag_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GATEFID_SEED", "99")
        out = tmp_path / "st.json"
        assert main(["fidelity", "stats", "--p", "0.8", "--d", "2", "--n", "500",
                     "--seed", "123", "--out", str(out)]) == 0
        assert serialize.read_json(out)["seed"] == 123

    def test_hex_env_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GATEFID_SEED", "0x10")
        out = tmp_path / "st.json"
        assert main(["fidelity", "stats", "--p", "0.8", "--d", "2", "--n", "500",
                     "--out", str(out)]) == 0
        assert serialize.read_json(out)["seed"] == 16

    def test_junk_env_seed_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GATEFID_SEED", "pineapple")
        assert main(["fidelity", "stats", "--p", "0.8", "--d", "2",
                     "--out", str(tmp_path / "x.json")]) == 1
        assert "GATEFID_SEED" in capsys.readouterr().err


class TestBoundsCommands:
    def test_variance_fifty_qubits(self, tmp_path, capsys):
        out = tmp_path / "v.json"
        assert main(["bounds", "variance", "--qubits", "50", "--out", str(out)]) == 0
        value = serialize.read_json(out)["value"]
        assert abs(value["variance_bound_exact"] - 7.10542735760097e-15) < 1e-25
        conc = value["variance_bound_concentration"]
        assert abs(conc - 1.1e-10) <= 0.1 * 1.1e-10

    def test_variance_needs_dimension(self, tmp_path, capsys):
        assert main(["bounds", "variance", "--out", str(tmp_path / "v.json")]) == 2

    def test_levy_large_d(self, tmp_path):
        out = tmp_path / "l.json"
        assert main(["bounds", "levy", "--d", str(2**20), "--eps", "0.1",
                     "--out", str(out)]) == 0
        value = serialize.read_json(out)["value"]
        assert abs(value["two_sided_bound"] - 0.009685944790848831) < 1e-15
        assert value["one_sided_bound"] == value["two_sided_bound"] / 2.0

    def test_levy_huge_d_tiny_eps(self, tmp_path):
        out = tmp_path / "l.json"
        assert main(["bounds", "levy", "--d", str(2**1023), "--eps", "1e-170",
                     "--out", str(out)]) == 0
        assert serialize.read_json(out)["value"]["two_sided_bound"] == 4.0

    def test_levy_custom_k(self, tmp_path):
        out = tmp_path / "l.json"
        assert main(["bounds", "levy", "--d", "1000", "--eps", "0.1", "--k", "2.0",
                     "--out", str(out)]) == 0
        assert serialize.read_json(out)["value"]["K"] == 2.0


class TestNonUniqCommands:
    def test_construct_certificate(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        assert main(["nonuniq", "construct", "--d", "4", "--p", "0.5",
                     "--n", "2000", "--out", str(out)]) == 0
        cert = serialize.read_json(out)
        assert set(cert) == {
            "d", "p_or_channel_hash", "epsilon", "max_epsilon",
            "fidelity_residual_max", "choi_distance", "depolarizing_distance_R",
            "cptp_reports", "choi_normalization", "n_samples", "seed", "q", "r",
        }
        assert cert["d"] == 4
        assert cert["p_or_channel_hash"] == 0.5
        assert abs(cert["epsilon"] - 0.125) < 1e-12
        assert cert["fidelity_residual_max"] <= 1e-10
        assert abs(cert["choi_distance"] - 0.125 * np.sqrt(6.0)) < 1e-9
        assert abs(cert["depolarizing_distance_R"] - cert["choi_distance"]) < 1e-7
        assert cert["choi_normalization"] == "trace_d"
        assert cert["cptp_reports"]["q"]["is_cp"] and cert["cptp_reports"]["r"]["is_cp"]

    def test_construct_verify_round_trip(self, tmp_path):
        cert_path = tmp_path / "cert.json"
        assert main(["nonuniq", "construct", "--d", "4", "--p", "0.5",
                     "--n", "1000", "--out", str(cert_path)]) == 0
        cert = serialize.read_json(cert_path)
        q_path = tmp_path / "q.json"
        r_path = tmp_path / "r.json"
        serialize.write_json(q_path, cert["q"])
        serialize.write_json(r_path, cert["r"])
        out = tmp_path / "verify.json"
        assert main(["nonuniq", "verify", "--q", str(q_path), "--r", str(r_path),
                     "--n", "1000", "--out", str(out)]) == 0
        payload = serialize.read_json(out)
        assert payload["fidelity_residual_max"] <= 1e-10
        assert payload["choi_distance"] > 1e-6

    def test_verify_rejects_identical_channels(self, tmp_path, capsys):
        path = _write_channel(tmp_path / "q.json", depolarizing(0.5, 4))
        out = tmp_path / "verify.json"
        code = main(["nonuniq", "verify", "--q", path, "--r", path,
                     "--n", "500", "--out", str(out)])
        assert code == 2
        assert "FAILED" in capsys.readouterr().out

    def test_artifacts_do_not_depend_on_threads(self, tmp_path):
        # three blocks, split differently over one, two and three workers
        flags = ["--n", str(2 * 4096 + 5), "--seed", "11"]
        certs = {}
        for threads in ("1", "2", "3"):
            out = tmp_path / f"cert{threads}.json"
            assert main(["nonuniq", "construct", "--d", "4", "--p", "0.5", *flags,
                         "--threads", threads, "--out", str(out)]) == 0
            certs[threads] = out.read_bytes()
        assert certs["1"] == certs["2"] == certs["3"]
        cert = serialize.read_json(tmp_path / "cert1.json")
        q_path, r_path = tmp_path / "q.json", tmp_path / "r.json"
        serialize.write_json(q_path, cert["q"])
        serialize.write_json(r_path, cert["r"])
        checks = {}
        for threads in ("1", "2", "3"):
            out = tmp_path / f"verify{threads}.json"
            assert main(["nonuniq", "verify", "--q", str(q_path), "--r", str(r_path),
                         *flags, "--threads", threads, "--out", str(out)]) == 0
            checks[threads] = out.read_bytes()
        assert checks["1"] == checks["2"] == checks["3"]

    def test_construct_defaults_to_depolarizing_d4(self, tmp_path):
        default, explicit = tmp_path / "default.json", tmp_path / "explicit.json"
        assert main(["nonuniq", "construct", "--n", "500", "--out", str(default)]) == 0
        assert main(["nonuniq", "construct", "--d", "4", "--p", "0.5", "--n", "500",
                     "--out", str(explicit)]) == 0
        assert default.read_bytes() == explicit.read_bytes()

    def test_construct_rejects_rank_deficient_base(self, tmp_path, capsys):
        code = main(["nonuniq", "construct", "--d", "4", "--p", "1.0",
                     "--out", str(tmp_path / "c.json")])
        assert code == 2
        assert "full rank" in capsys.readouterr().err

    def test_construct_small_dimension_fails(self, tmp_path, capsys):
        code = main(["nonuniq", "construct", "--d", "3",
                     "--out", str(tmp_path / "c.json")])
        assert code == 2


class TestMinCommands:
    def test_net_build_then_minimize(self, tmp_path, capsys):
        net_path = tmp_path / "net.json"
        assert main(["min", "net-build", "--d", "2", "--eps", "0.7", "--seed", "3",
                     "--out", str(net_path)]) == 0
        net_data = serialize.read_json(net_path)
        assert net_data["d"] == 2 and net_data["seed"] == 3
        out = tmp_path / "min.json"
        assert main(["min", "net-min", "--p", "0.7", "--d", "2",
                     "--net", str(net_path), "--out", str(out)]) == 0
        est = serialize.read_json(out)["value"]
        assert abs(est["net_min"] - 0.85) < 1e-9
        assert est["method"] == "net-scan"

    def test_net_min_hash_covers_the_net(self, tmp_path):
        net_path = tmp_path / "net.json"
        assert main(["min", "net-build", "--d", "2", "--eps", "0.7", "--seed", "3",
                     "--out", str(net_path)]) == 0
        data = serialize.read_json(net_path)

        def inputs_hash(net_data):
            serialize.write_json(net_path, net_data)
            out = tmp_path / "min.json"
            assert main(["min", "net-min", "--p", "0.7", "--d", "2",
                         "--net", str(net_path), "--out", str(out)]) == 0
            return serialize.read_json(out)["inputs_hash"]

        moved = json.loads(json.dumps(data))
        moved["states"][0] = [[0.6, 0.0], [0.0, 0.8]]
        variants = [data, {**data, "epsilon": 0.35}, moved, {**data, "seed": 4}]
        assert len({inputs_hash(v) for v in variants}) == len(variants)

    def test_net_build_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["min", "net-build", "--d", "2", "--eps", "0.8", "--seed", "5"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_net_budget_exhaustion_is_validation_failure(self, tmp_path, capsys):
        code = main(["min", "net-build", "--d", "3", "--eps", "0.05",
                     "--max-states", "40", "--out", str(tmp_path / "n.json")])
        assert code == 2
        assert "budget" in capsys.readouterr().err

    def test_effective_vacuous_note(self, tmp_path, capsys):
        out = tmp_path / "eff.json"
        assert main(["min", "effective", "--avg", "0.99", "--q", "0.1", "--d", "64",
                     "--out", str(out)]) == 0
        assert "vacuous" in capsys.readouterr().out
        payload = serialize.read_json(out)["value"]
        assert payload["low"] == 0.0 and payload["high"] == 0.99

    def test_effective_meaningful_interval(self, tmp_path, capsys):
        out = tmp_path / "eff.json"
        assert main(["min", "effective", "--avg", "0.9", "--q", "0.01",
                     "--d", str(2**30), "--out", str(out)]) == 0
        payload = serialize.read_json(out)["value"]
        assert 0.8 < payload["low"] < 0.9

    def test_reference_depolarizing(self, tmp_path):
        out = tmp_path / "ref.json"
        assert main(["min", "reference", "--p", "0.7", "--d", "2", "--starts", "2",
                     "--out", str(out)]) == 0
        assert abs(serialize.read_json(out)["value"] - 0.85) < 1e-6


class TestReportCommand:
    def test_csv_default_with_pinned_header(self, tmp_path):
        out = tmp_path / "conv.csv"
        assert main(["report", "convergence", "--d-list", "2,4", "--eps-grid", "0.25",
                     "--n", "2000", "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ",".join(CONVERGENCE_COLUMNS)
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "2"
        assert lines[2].split(",")[0] == "4"

    def test_json_format(self, tmp_path):
        out = tmp_path / "conv.json"
        assert main(["report", "convergence", "--d-list", "2,4", "--eps-grid", "0.1",
                     "--n", "1000", "--format", "json", "--out", str(out)]) == 0
        rows = serialize.read_json(out)
        assert isinstance(rows, list) and len(rows) == 2
        assert tuple(rows[0].keys()) == CONVERGENCE_COLUMNS

    def test_summary_mentions_slope(self, tmp_path, capsys):
        assert main(["report", "convergence", "--d-list", "2,4,8", "--eps-grid", "0.25",
                     "--n", "2000", "--out", str(tmp_path / "c.csv")]) == 0
        assert "slope" in capsys.readouterr().out

    def test_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["report", "convergence", "--d-list", "2,4", "--eps-grid", "0.25",
                "--n", "1500", "--seed", "9"]
        assert main(args + ["--out", str(a), "--threads", "1"]) == 0
        assert main(args + ["--out", str(b), "--threads", "4"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_dimension_past_a_dense_unitary_admitted(self, tmp_path):
        # the family is sampled from its spectrum, so d = 11586, whose d x d
        # unitary would pass the 2 GiB budget, needs under 1 MiB
        out = tmp_path / "conv.csv"
        assert main(["report", "convergence", "--d-list", "11586", "--n", "8",
                     "--eps-grid", "0.1", "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2 and lines[1].split(",")[0] == "11586"

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--d-list", ""], "d_list must name at least one dimension"),
            (["--d-list", "0"], "dimension must be at least 2, got 0"),
            (["--n", "1"], "need at least 2 samples for a variance, got 1"),
            (["--eps-grid", ""], "eps_grid must hold at least one epsilon"),
            (["--eps-grid", "0.1,inf"], "epsilon must be positive and finite, got inf"),
        ],
        ids=["empty-d-list", "d-zero", "n-one", "empty-eps-grid", "eps-inf"],
    )
    def test_bad_input_refused_before_sampling(self, flags, named, tmp_path, monkeypatch,
                                               capsys):
        def no_sampling(*args, **kwargs):
            raise AssertionError("states were sampled before the input check")

        monkeypatch.setattr(sampling, "fidelity_samples", no_sampling)
        monkeypatch.setattr(sampling, "_block_fidelities", no_sampling)
        monkeypatch.chdir(tmp_path)
        argv = ["report", "convergence", "--d-list", "2,4", "--n", "100"] + flags
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


class TestDefaultArtifactPath:
    def test_default_filename(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["fidelity", "avg", "--p", "0.9", "--d", "2"]) == 0
        assert (tmp_path / "gatefid-fidelity-avg.json").exists()
        assert "gatefid-fidelity-avg.json" in capsys.readouterr().out

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_extension_follows_the_artifact_kind(self, fmt, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["report", "convergence", "--d-list", "2", "--eps-grid", "0.25",
                     "--n", "500", "--format", fmt]) == 0
        assert [p.name for p in tmp_path.iterdir()] == [f"gatefid-report-convergence.{fmt}"]


def _nested_pairs(m):
    """The [re, im] pair lists the codec wrote before it worked on arrays."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def _digest_json(m):
    """What stands for a complex array in inputs_hash, built with struct and hashlib."""
    m = np.asarray(m)
    raw = b"".join(struct.pack("<dd", z.real, z.imag) for z in m.flat)
    shape = ",".join(str(n) for n in m.shape)
    digest = hashlib.sha256(raw).hexdigest()
    return f'{{"dtype":"complex128","shape":[{shape}],"sha256":"{digest}"}}'


def _write_channel_with_entry(path, ch, op, i, j, value):
    """Channel file whose Kraus entry (i, j) of operator op has real part value.

    Written with json.dumps, which emits NaN and Infinity tokens that the
    canonical writer refuses.
    """
    data = {
        "dim_in": ch.dim_in,
        "dim_out": ch.dim_out,
        "kraus": [_nested_pairs(k) for k in ch.kraus],
    }
    data["kraus"][op][i][j][0] = value
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


class TestInputBoundary:
    def test_stats_refuses_nan_entry_before_sampling(self, tmp_path, capsys, monkeypatch):
        sampled = []
        monkeypatch.setattr(cli, "mc_fidelity_stats", lambda *a, **k: sampled.append(a))
        path = _write_channel_with_entry(
            tmp_path / "nan.json", depolarizing(0.5, 2), 0, 0, 1, float("nan")
        )
        code = main(["fidelity", "stats", "--channel", path, "--n", "1000",
                     "--out", str(tmp_path / "st.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "kraus[0]" in err and "entry (0,1)" in err and "not finite" in err
        assert sampled == []
        assert not (tmp_path / "st.json").exists()

    def test_validate_refuses_infinite_entry(self, tmp_path, capsys):
        path = _write_channel_with_entry(
            tmp_path / "inf.json", depolarizing(0.5, 2), 2, 1, 0, float("-inf")
        )
        code = main(["channel", "validate", "--channel", path,
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        err = capsys.readouterr().err
        assert "kraus[2]" in err and "entry (1,0)" in err and "not finite" in err

    def test_unitary_read_once_and_inputs_hash_unchanged(self, tmp_path, monkeypatch):
        ch = depolarizing(0.8, 2)
        ch_path = _write_channel(tmp_path / "ch.json", ch)
        # Pauli X with signed zeros, which the hash must keep
        u = np.array([[complex(-0.0, 0.0), 1.0], [1.0, complex(0.0, -0.0)]])
        u_path = tmp_path / "u.json"
        serialize.write_json(u_path, {"unitary": u})
        reads = []
        real_read = serialize.read_json
        monkeypatch.setattr(
            serialize, "read_json", lambda p: reads.append(str(p)) or real_read(p)
        )
        out = tmp_path / "st.json"
        assert main(["fidelity", "stats", "--channel", ch_path, "--unitary", str(u_path),
                     "--n", "500", "--out", str(out)]) == 0
        assert reads.count(str(u_path)) == 1
        # recomputed without gatefid: each array enters as its shape and byte
        # digest, the Kraus set as one (4, 2, 2) array
        text = (f'{{"channel":{{"dim_in":2,"dim_out":2,"kraus":{_digest_json(ch.kraus)}}},'
                f'"unitary":{_digest_json(u)},"n":500}}')
        assert real_read(out)["inputs_hash"] == hashlib.sha256(text.encode()).hexdigest()

    def test_validate_reads_once_and_hashes_the_decoded_operator(self, tmp_path, monkeypatch):
        path = tmp_path / "ch.json"
        # hand-written numbers, not in canonical 17-digit form
        path.write_text(
            '{"dim_in": 1, "dim_out": 1, "kraus": [[[[0.6, 0]]], [[[0, 8e-1]]]]}',
            encoding="utf-8",
        )
        kraus_path = _write_channel(tmp_path / "k.json", depolarizing(0.5, 2))
        choi_path = tmp_path / "c.json"
        choi = choi_from_kraus(depolarizing(0.5, 2))
        serialize.write_json(choi_path, serialize.choi_to_dict(choi))
        reads = []
        real_read = serialize.read_json
        # every file the CLI reads, JSON or channel, is read through _read_text
        real_text = serialize._read_text
        monkeypatch.setattr(
            serialize, "_read_text", lambda p: reads.append(str(p)) or real_text(p)
        )
        out = tmp_path / "r.json"
        assert main(["channel", "validate", "--channel", str(path), "--out", str(out)]) == 0
        assert reads == [str(path)]
        decoded = QuantumChannel(1, 1, np.array([[[0.6 + 0j]], [[0.8j]]]))
        expected = serialize.canonical_hash({"path_content": serialize.channel_to_dict(decoded)})
        assert real_read(out)["inputs_hash"] == expected
        # a canonical file's hash is that of its decoded arrays, not of its pair lists
        for canonical, field in ((kraus_path, "kraus"), (str(choi_path), "choi")):
            assert main(["channel", "validate", "--channel", canonical, "--out", str(out)]) == 0
            raw = json.loads(open(canonical, encoding="utf-8").read())
            arrays = np.array(raw[field]).view(complex)[..., 0]
            decoded = {**raw, field: arrays}  # a Kraus set as one array
            got = real_read(out)["inputs_hash"]
            assert got == serialize.canonical_hash({"path_content": decoded})
            assert got != serialize.canonical_hash({"path_content": raw})

    @pytest.mark.parametrize("eps", ["inf", "nan"])
    @pytest.mark.parametrize(
        "command", [["min", "net-build", "--d", "2"], ["bounds", "levy", "--d", "8"]],
        ids=["net-build", "levy"],
    )
    def test_non_finite_epsilon_refused(self, command, eps, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(command + ["--eps", eps]) == 2
        assert "epsilon must be positive and finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["bounds", "levy", "--d", "8", "--eps", "0.1", "--k", "nan"], "Lipschitz constant K"),
            (["bounds", "levy", "--d", "8", "--eps", "0.1", "--k", "inf"], "Lipschitz constant K"),
            (["bounds", "variance", "--qubits", "256"], "d must be below"),
            (["bounds", "variance", "--qubits", "341"], "d must be below"),
            (["bounds", "variance", "--qubits", "342"], "d must be below"),
            # refused before 2**qubits, an integer of about 125 GB, is formed
            (["bounds", "variance", "--qubits", str(10**12)], "d must be below"),
            (["bounds", "variance", "--d", "9" * 400], "d must be below"),
            (["bounds", "levy", "--d", "9" * 400, "--eps", "0.1"], "d must be below 2**1024"),
            (["min", "effective", "--avg", "0.9", "--q", "0.01", "--d", "9" * 400],
             "d must be below 2**1024"),
            (["min", "effective", "--avg", "0.5", "--q", "1e-320", "--d", "4"],
             "quantile mass q=1e-320 is too small"),
            (["channel", "validate", "--channel", "CH", "--tol", "nan"], "tolerance tol"),
            (["channel", "validate", "--channel", "CH", "--tol", "-0.5"], "tolerance tol"),
            (["nonuniq", "verify", "--q", "CH", "--r", "CH", "--tol", "nan"], "tolerance tol"),
            (["fidelity", "avg", "--p", "0.9", "--d", "2", "--out", "missing/avg.json"],
             "missing/avg.json"),
        ],
        ids=["k-nan", "k-inf", "qubits-256", "qubits-341", "qubits-342", "qubits-huge", "d-huge",
             "levy-d-huge", "effective-d-huge", "effective-q-tiny",
             "validate-tol-nan", "validate-tol-negative", "verify-tol-nan", "out-dir-missing"],
    )
    def test_bad_input_refused_at_the_boundary(self, argv, named, tmp_path, monkeypatch, capsys):
        ch_path = _write_channel(tmp_path / "ch.json", depolarizing(0.5, 4))
        monkeypatch.chdir(tmp_path)

        def no_sampling(*args, **kwargs):
            raise AssertionError("states were sampled before the tolerance check")

        monkeypatch.setattr(nonuniq, "_block_fidelities", no_sampling)
        argv = [ch_path if a == "CH" else a for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["ch.json"]

    def test_verify_samples_through_the_guarded_name(self, tmp_path, monkeypatch):
        # positive control for the guard above: a valid verify reaches it
        ch_path = _write_channel(tmp_path / "ch.json", depolarizing(0.5, 4))

        def no_sampling(*args, **kwargs):
            raise AssertionError("states were sampled")

        monkeypatch.setattr(nonuniq, "_block_fidelities", no_sampling)
        with pytest.raises(AssertionError, match="states were sampled"):
            main(["nonuniq", "verify", "--q", ch_path, "--r", ch_path, "--n", "100",
                  "--out", str(tmp_path / "v.json")])

    @pytest.mark.parametrize(
        "argv",
        [
            ["fidelity", "point"],
            ["fidelity", "avg"],
            ["fidelity", "stats", "--n", "100"],
            ["min", "net-min", "--net", "NET"],
            ["min", "reference", "--starts", "1"],
        ],
        ids=lambda argv: argv[1],
    )
    def test_non_unitary_target_refused(self, argv, tmp_path, capsys):
        u_path = tmp_path / "u.json"
        u = np.array([[1.0, 0.5], [0.0, 1.0]], dtype=complex)
        serialize.write_json(u_path, {"unitary": u})
        net_path = tmp_path / "net.json"
        assert main(["min", "net-build", "--d", "2", "--eps", "0.7",
                     "--out", str(net_path)]) == 0
        argv = [str(net_path) if a == "NET" else a for a in argv]
        out = tmp_path / "out.json"
        code = main(argv + ["--p", "0.9", "--d", "2", "--unitary", str(u_path),
                            "--out", str(out)])
        assert code == 2
        assert "error: target matrix is not unitary within 1e-10" in capsys.readouterr().err
        assert not out.exists()


    def test_net_with_bad_seed_refused(self, tmp_path, capsys):
        # the seed goes into inputs_hash, so a coerced one would hash a seed no file holds
        net_path = tmp_path / "net.json"
        assert main(["min", "net-build", "--d", "2", "--eps", "0.7",
                     "--out", str(net_path)]) == 0
        data = serialize.read_json(net_path)
        data["seed"] = 1.5
        serialize.write_json(net_path, data)
        out = tmp_path / "out.json"
        code = main(["min", "net-min", "--p", "0.9", "--d", "2", "--net", str(net_path),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: field 'seed': expected an integer") and "1.5" in err
        assert not out.exists()

    @pytest.mark.parametrize("field", ["epsilon", "coverage_confidence"])
    @pytest.mark.parametrize("value", [True, 10**400], ids=["true", "1e400-int"])
    def test_net_scalar_that_is_no_float_refused(self, field, value, tmp_path, capsys):
        net_path = tmp_path / "net.json"
        assert main(["min", "net-build", "--d", "2", "--eps", "0.7",
                     "--out", str(net_path)]) == 0
        data = serialize.read_json(net_path)
        data[field] = value
        serialize.write_json(net_path, data)
        out = tmp_path / "out.json"
        code = main(["min", "net-min", "--p", "0.9", "--d", "2", "--net", str(net_path),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: field '{field}': expected a finite number, got {value!r}")
        assert not out.exists()


# JSON inputs each refused at the boundary, named as a command reads them
_BAD_INPUTS = {
    "list": "[1, 2]",
    "dim-zero": '{"dim_in":0,"dim_out":2,"kraus":[[[[1,0],[0,0]],[[0,0],[1,0]]]]}',
    "dim-true": '{"dim_in":true,"dim_out":2,"kraus":[[[[1,0],[0,0]],[[0,0],[1,0]]]]}',
    "no-states": json.dumps({"d": 2, "epsilon": 0.5, "metric_id": "euclidean", "states": [],
                             "coverage_confidence": 0.9, "seed": 1}),
}


class TestRefusalMessages:
    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["report", "convergence", "--d-list", "2,x"], 1,
             "usage error: argument --d-list: expected comma-separated integers, got '2,x'"),
            (["report", "convergence", "--eps-grid", "0.1,y"], 1,
             "usage error: argument --eps-grid: expected comma-separated floats, got '0.1,y'"),
            (["fidelity", "point", "--p", "0.5", "--d", "2", "--state", "list"], 2,
             "error: expected a JSON object, got list"),
            (["fidelity", "stats", "--p", "0.5", "--d", "2", "--unitary", "list"], 2,
             "error: expected a JSON object, got list"),
            (["min", "net-min", "--p", "0.5", "--d", "2", "--net", "list"], 2,
             "error: expected a JSON object, got list"),
            (["channel", "validate", "--channel", "dim-zero"], 2,
             "error: field 'dim_in': expected a positive integer, got 0"),
            (["channel", "validate", "--channel", "dim-true"], 2,
             "error: field 'dim_in': expected a positive integer, got True"),
            (["min", "net-min", "--p", "0.5", "--d", "2", "--net", "no-states"], 2,
             "error: field 'states': expected a non-empty list"),
        ],
        ids=["d-list", "eps-grid", "state-list", "unitary-list", "net-list", "dim-in-zero",
             "dim-in-true", "net-no-states"],
    )
    def test_refused_with_its_message_and_no_artifact(self, argv, code, message, tmp_path,
                                                       monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for name, text in _BAD_INPUTS.items():
            (tmp_path / f"{name}.json").write_text(text, encoding="utf-8")
        argv = [f"{a}.json" if a in _BAD_INPUTS else a for a in argv]
        assert main([*argv, "--out", "out.json"]) == code
        captured = capsys.readouterr()
        assert captured.err == message + "\n" and captured.out == ""
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == sorted(f"{name}.json" for name in _BAD_INPUTS)


class TestSizeAndShapeBoundary:
    @pytest.mark.parametrize(
        "argv",
        [
            ["fidelity", "point"],
            ["fidelity", "avg"],
            ["fidelity", "stats", "--n", "100"],
            ["min", "net-min", "--net", "NET"],
            ["min", "reference", "--starts", "1"],
        ],
        ids=lambda argv: argv[1],
    )
    def test_non_square_channel_refused(self, argv, tmp_path, monkeypatch, capsys):
        # an isometry C^2 -> C^3 is a valid channel, but no gate fidelity has one
        ch_path = _write_channel(tmp_path / "wide.json", channel_from_kraus([np.eye(3)[:, :2]]))
        net_path = tmp_path / "net.json"
        assert main(["min", "net-build", "--d", "2", "--eps", "0.7",
                     "--out", str(net_path)]) == 0

        def no_sampling(*args, **kwargs):
            raise AssertionError("states were sampled before the shape check")

        # every block of fidelity stats starts at sampling.generator
        monkeypatch.setattr(sampling, "generator", no_sampling)
        argv = [str(net_path) if a == "NET" else a for a in argv]
        out = tmp_path / "out.json"
        assert main(argv + ["--channel", ch_path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: gate fidelity needs a square channel, got 2 -> 3")
        assert "Traceback" not in err
        assert not out.exists()

    def test_square_channel_samples_through_the_guarded_name(self, tmp_path, monkeypatch):
        # positive control for the guard above: a square channel's stats
        # draw each block through sampling.generator
        ch_path = _write_channel(tmp_path / "square.json", channel_from_kraus([np.eye(2)]))
        blocks = []
        real = sampling.generator

        def spy(spec, *key):
            blocks.append(key)
            return real(spec, *key)

        monkeypatch.setattr(sampling, "generator", spy)
        out = tmp_path / "out.json"
        assert main(["fidelity", "stats", "--n", "100", "--channel", ch_path,
                     "--out", str(out)]) == 0
        assert blocks == [(sampling.TAG_MAIN, 0)]

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["channel", "validate", "--channel", "CH"], "65536x65536 Choi matrix needs 64 GiB"),
            (["fidelity", "avg", "--p", "0.9", "--d", "256"], "d=256 depolarizing channel"),
            (["nonuniq", "construct", "--channel", "CH"], "d=256 perturbation direction G"),
        ],
        ids=["validate", "avg", "construct"],
    )
    def test_dense_budget_refused_before_allocation(self, argv, named, tmp_path, monkeypatch,
                                                    capsys):
        ch_path = _write_channel(tmp_path / "ch.json", unitary_channel(np.eye(256)))
        monkeypatch.chdir(tmp_path)

        def refuse(*args, **kwargs):
            raise AssertionError("allocated past the dense-operator budget check")

        monkeypatch.setattr(np, "zeros", refuse)
        monkeypatch.setattr(channels, "unitary_operator_basis", refuse)
        argv = [ch_path if a == "CH" else a for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and "2 GiB" in err
        assert "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["ch.json"]

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["fidelity", "stats", "--p", "0.5", "--d", "2", "--n", "1000000000000"],
             "array of 1000000000000 fidelity samples needs 7.45e+03 GiB"),
            (["nonuniq", "construct", "--n", "1000000000000"],
             "array of 1000000000000 fidelity samples"),
            (["nonuniq", "verify", "--q", "CH", "--r", "CH", "--n", "1000000000000"],
             "array of 1000000000000 fidelity samples"),
            (["report", "convergence", "--d-list", "2", "--n", "1000000000000"],
             "array of 1000000000000 fidelity samples"),
            (["min", "net-build", "--d", "100000000", "--eps", "0.5"],
             "4096-state Haar block at d=100000000 needs 6.1e+03 GiB"),
            (["report", "convergence", "--d-list", "100000000", "--n", "10"],
             "d=100000000 family spectrum needs 5.96 GiB"),
            (["report", "convergence", "--d-list", "33554432", "--n", "8192", "--threads", "2"],
             "d=33554432 family spectrum needs 2.75 GiB"),
        ],
        ids=["stats-n", "construct-n", "verify-n", "report-n", "net-build-d", "report-d",
             "report-d-threads"],
    )
    def test_sizes_refused_before_allocation(self, argv, named, tmp_path, monkeypatch, capsys):
        ch_path = _write_channel(tmp_path / "ch.json", depolarizing(0.5, 4))
        monkeypatch.chdir(tmp_path)

        def refuse(*args, **kwargs):
            raise AssertionError("allocated past the size check")

        # the next allocating call after each check
        monkeypatch.setattr(sampling, "fidelity_kernel", refuse)
        monkeypatch.setattr(nonuniq, "build_g_operator", refuse)
        monkeypatch.setattr(nonuniq, "choi_from_kraus", refuse)
        monkeypatch.setattr(cli, "phase_spread_spectrum", refuse)
        if "CH" in argv:
            # the reader fills np.empty rows: refuse it once both files are read
            real_verify = cli.verify_pair

            def verify(*args, **kwargs):
                monkeypatch.setattr(np, "empty", refuse)
                return real_verify(*args, **kwargs)

            monkeypatch.setattr(cli, "verify_pair", verify)
        else:
            monkeypatch.setattr(np, "empty", refuse)
        argv = [ch_path if a == "CH" else a for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and "2 GiB" in err
        assert "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["ch.json"]


class TestLevyOverflow:
    @pytest.mark.parametrize(
        "flags, two_sided",
        [(["--eps", "1e200"], 0.0), (["--eps", "0.1", "--k", "1e200"], 4.0)],
        ids=["eps-huge", "k-huge"],
    )
    def test_squares_beyond_float_range(self, flags, two_sided, tmp_path, capsys):
        out = tmp_path / "levy.json"
        assert main(["bounds", "levy", "--d", "8", *flags, "--out", str(out)]) == 0
        assert serialize.read_json(out)["value"]["two_sided_bound"] == two_sided
        assert "Traceback" not in capsys.readouterr().err
