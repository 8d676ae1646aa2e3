"""Command-line surface: channel I/O, fidelity analyses, bounds, twin-pair
certificates, nets and reports.

Every subcommand writes one deterministic JSON or CSV artifact plus a one
line summary on stdout. Exit codes: 0 success, 2 validation failure or bad
input data, 1 usage error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import _blas, serialize
from .channels import (
    choi_from_kraus,
    depolarizing,
    kraus_from_choi,
    phase_spread_spectrum,
    validate_cptp,
)
from .fidelity import (
    LIPSCHITZ_CONSTANT,
    average_gate_fidelity,
    gate_fidelity_batch,
    variance_bounds,
)
from .minimum import (
    NetCoverageError,
    build_net,
    effective_epsilon,
    effective_minimum,
    net_minimum,
    reference_minimum,
)
from .nonuniq import perturb_channel, verify_pair
from .sampling import (
    DEFAULT_SEED,
    RngSpec,
    convergence_report,
    levy_bound,
    mc_fidelity_stats,
)


class UsageError(Exception):
    """Bad flags or arguments; distinct from validation failures."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; 2 is reserved here for
    # validation failures, so route usage problems through an exception.
    def error(self, message):
        raise UsageError(message)


# Every handler takes the parsed namespace, which holds exactly the flags
# its subcommand declares, and returns (kind, payload, summary, ok): kind is
# "json" or "csv", the format of the artifact written from payload.


def _threads(args) -> int:
    if args.threads < 0:
        raise UsageError(f"--threads must be 0 or more, got {args.threads}")
    return args.threads or (os.cpu_count() or 1)


def _record(quantity: str, value, d: int, inputs: dict, seed=None) -> dict:
    rec = {
        "quantity": quantity,
        "value": value,
        "d": d,
        "inputs_hash": serialize.canonical_hash(inputs),
    }
    if seed is not None:
        rec["seed"] = seed
    return rec


def _check_one_channel_source(args) -> None:
    """--channel names the whole channel, so --p or --d beside it is a conflict."""
    given = [flag for flag, value in (("--p", args.p), ("--d", args.d)) if value is not None]
    if args.channel_path is not None and given:
        raise UsageError(f"--channel conflicts with {' and '.join(given)}")


def _load_channel(args):
    """Channel from --channel, or depolarizing(--p, --d) as a shorthand."""
    _check_one_channel_source(args)
    if args.channel_path is not None:
        ch = serialize.load_channel(args.channel_path)
    elif args.p is not None and args.d is not None:
        ch = depolarizing(args.p, args.d)
    else:
        raise ValueError("need --channel FILE, or --p and --d for a depolarizing channel")
    return ch


def _load_unitary(args):
    if args.unitary_path is None:
        return None
    return serialize.unitary_from_dict(serialize.read_json(args.unitary_path))


def _channel_inputs(ch, u, extra: dict | None = None) -> dict:
    """What inputs_hash covers: the channel, the --unitary matrix if given."""
    inputs = {"channel": serialize.channel_to_dict(ch)}
    if u is not None:
        inputs["unitary"] = u
    if extra:
        inputs.update(extra)
    return inputs


def _pair_holds(v, residual_tol: float) -> bool:
    """Both channels CPTP, fidelities equal within residual_tol, Choi matrices apart."""
    return (
        v.cptp_q.is_cp
        and v.cptp_q.is_tp
        and v.cptp_r.is_cp
        and v.cptp_r.is_tp
        and v.fidelity_residual_max <= residual_tol
        and v.choi_distance > 1e-6
    )


def _verification_fields(v) -> dict:
    """The evidence keys shared by a pair certificate and a verify artifact."""
    return {
        "fidelity_residual_max": v.fidelity_residual_max,
        "choi_distance": v.choi_distance,
        "depolarizing_distance_R": v.depolarizing_distance_r,
        "cptp_reports": {"q": v.cptp_q, "r": v.cptp_r},
    }


def _cmd_channel_validate(args):
    # one read; the decoded operator is what inputs_hash covers
    obj = serialize.load_operator(args.channel_path)
    report = validate_cptp(obj, args.tol)
    to_dict = serialize.channel_to_dict if hasattr(obj, "kraus") else serialize.choi_to_dict
    payload = _record("cptp_report", report, obj.dim_in, {"path_content": to_dict(obj)})
    ok = report.is_cp and report.is_tp
    summary = (
        f"cptp check at tol {args.tol:g}: is_cp={report.is_cp} is_tp={report.is_tp} "
        f"min_eig={report.min_eigenvalue:.3e} tp_residual={report.tp_residual:.3e}"
    )
    return "json", payload, summary, ok


def _cmd_channel_make_depolarizing(args):
    ch = depolarizing(args.p, args.d)
    payload = serialize.channel_to_dict(ch)
    summary = (
        f"depolarizing channel p={args.p:g} d={args.d} "
        f"({len(ch.kraus)} Kraus operators)"
    )
    return "json", payload, summary, True


def _cmd_channel_convert(args):
    obj = serialize.load_operator(args.channel_path)
    if args.to_form == "choi":
        choi = obj if not hasattr(obj, "kraus") else choi_from_kraus(obj)
        payload = serialize.choi_to_dict(choi)
    else:
        ch = kraus_from_choi(obj) if hasattr(obj, "matrix") else obj
        payload = serialize.channel_to_dict(ch)
    summary = f"converted {args.channel_path} to {args.to_form} form"
    return "json", payload, summary, True


def _cmd_fidelity_point(args):
    ch = _load_channel(args)
    u = _load_unitary(args)
    if args.state_path is not None:
        phi = serialize.state_from_dict(serialize.read_json(args.state_path))
    else:
        phi = np.zeros(ch.dim_in, dtype=complex)
        phi[0] = 1.0
    value = float(gate_fidelity_batch(ch, u, phi))
    inputs = _channel_inputs(ch, u, {"state": phi})
    payload = _record("gate_fidelity_point", value, ch.dim_in, inputs)
    return "json", payload, f"gate fidelity at state: {value:.12g}", True


def _cmd_fidelity_avg(args):
    ch = _load_channel(args)
    u = _load_unitary(args)
    value = average_gate_fidelity(ch, u)
    payload = _record("average_gate_fidelity", value, ch.dim_in, _channel_inputs(ch, u))
    return "json", payload, f"average gate fidelity: {value:.12g}", True


def _cmd_fidelity_stats(args):
    ch = _load_channel(args)
    u = _load_unitary(args)
    stats = mc_fidelity_stats(ch, u, args.n, RngSpec(args.seed), threads=_threads(args))
    inputs = _channel_inputs(ch, u, {"n": args.n})
    payload = _record("fidelity_stats", stats, ch.dim_in, inputs, args.seed)
    summary = (
        f"fidelity over {args.n} Haar states: mean={stats.mean:.9g} "
        f"std={np.sqrt(stats.variance):.3e} min={stats.min:.9g} max={stats.max:.9g}"
    )
    return "json", payload, summary, True


def _cmd_bounds_variance(args):
    if args.qubits is not None and args.d is not None:
        raise UsageError("--d conflicts with --qubits")
    if args.qubits is not None:
        if args.qubits >= 256:  # refused as variance_bounds refuses d, before 2**qubits is formed
            raise ValueError(f"d must be below about 2**256, got log2(d) = {args.qubits:.6g}")
        d = 2**args.qubits
    elif args.d is not None:
        d = args.d
    else:
        raise ValueError("need --d or --qubits")
    bounds = variance_bounds(d)
    payload = _record("variance_bounds", bounds, d, {"d": d})
    summary = (
        f"variance bounds at d={d}: exact={bounds.variance_bound_exact:.6g} "
        f"concentration={bounds.variance_bound_concentration:.6g}"
    )
    return "json", payload, summary, True


def _cmd_bounds_levy(args):
    bound = levy_bound(args.d, args.epsilon, K=args.lipschitz_k)
    payload = _record(
        "levy_bound", bound, args.d, {"d": args.d, "epsilon": args.epsilon, "K": bound.K}
    )
    summary = (
        f"levy bound at d={args.d}, eps={args.epsilon:g}: "
        f"two_sided={bound.two_sided_bound:.6g} one_sided={bound.one_sided_bound:.6g}"
    )
    return "json", payload, summary, True


def _cmd_nonuniq_construct(args):
    _check_one_channel_source(args)
    if args.channel_path is not None:
        q = serialize.load_channel(args.channel_path)
        p_or_hash = serialize.canonical_hash(serialize.channel_to_dict(q))
    else:
        p = 0.5 if args.p is None else args.p
        q = depolarizing(p, 4 if args.d is None else args.d)
        p_or_hash = p
    pair = perturb_channel(
        q, args.epsilon, n_verify=args.n, rng=args.seed, threads=_threads(args)
    )
    v = pair.verification
    summary = (
        f"pair at d={q.dim_in}, eps={pair.epsilon:.6g} (max {pair.max_epsilon:.6g}): "
        f"fidelity residual {v.fidelity_residual_max:.2e}, choi distance "
        f"{v.choi_distance:.4g}, depolarizing distance {v.depolarizing_distance_r:.4g}"
    )
    # p_or_hash names Q: its depolarizing parameter, or the hash of its file
    cert = {
        "d": q.dim_in,
        "p_or_channel_hash": p_or_hash,
        "epsilon": pair.epsilon,
        "max_epsilon": pair.max_epsilon,
        **_verification_fields(v),
        "choi_normalization": "trace_d",
        "n_samples": v.n_samples,
        "seed": v.seed,
        "q": serialize.channel_to_dict(pair.q),
        "r": serialize.channel_to_dict(pair.r),
    }
    return "json", cert, summary, _pair_holds(v, 1e-10)


def _cmd_nonuniq_verify(args):
    q = serialize.load_channel(args.q_path)
    r = serialize.load_channel(args.r_path)
    v = verify_pair(
        q, r, n_samples=args.n, rng=args.seed, tol=args.tol, threads=_threads(args)
    )
    payload = {
        "d": q.dim_in,
        **_verification_fields(v),
        "n_samples": v.n_samples,
        "seed": v.seed,
    }
    ok = _pair_holds(v, max(args.tol, 1e-10))
    verdict = "identical fidelity functions" if ok else "verification FAILED"
    summary = (
        f"{verdict}: residual {v.fidelity_residual_max:.2e} over {args.n} states, "
        f"choi distance {v.choi_distance:.4g}"
    )
    return "json", payload, summary, ok


def _cmd_min_net_build(args):
    net = build_net(
        args.d,
        args.epsilon,
        rng=args.seed,
        max_states=args.max_states,
        confidence=args.confidence,
    )
    summary = (
        f"net at d={args.d}, eps={args.epsilon:g}: {len(net.states)} states, "
        f"coverage confidence {net.coverage_confidence:.4g}"
    )
    return "json", net, summary, True


def _cmd_min_net_min(args):
    ch = _load_channel(args)
    u = _load_unitary(args)
    net = serialize.net_from_dict(serialize.read_json(args.net_path))
    est = net_minimum(ch, u, net)
    net_inputs = {"states": net.states, "epsilon": net.epsilon, "seed": net.seed}
    inputs = _channel_inputs(ch, u, {"net": net_inputs})
    payload = _record("net_minimum", est, ch.dim_in, inputs)
    summary = (
        f"net minimum {est.net_min:.9g}, lipschitz lower bound "
        f"{est.lipschitz_lower_bound:.9g} ({len(net.states)} states)"
    )
    return "json", payload, summary, True


def _cmd_min_effective(args):
    low, high = effective_minimum(args.avg, args.q_mass, args.d)
    eps = effective_epsilon(args.q_mass, args.d)
    value = {"low": low, "high": high, "epsilon": eps}
    payload = _record(
        "effective_minimum", value, args.d,
        {"avg": args.avg, "Q": args.q_mass, "d": args.d},
    )
    note = " (vacuous at this d)" if low == 0.0 else ""
    summary = f"effective minimum in [{low:.9g}, {high:.9g}], eps={eps:.4g}{note}"
    return "json", payload, summary, True


def _cmd_min_reference(args):
    ch = _load_channel(args)
    u = _load_unitary(args)
    value = reference_minimum(ch, u, n_starts=args.starts, rng=args.seed)
    inputs = _channel_inputs(ch, u, {"starts": args.starts})
    payload = _record("reference_minimum", value, ch.dim_in, inputs, args.seed)
    summary = f"reference minimum over {args.starts} starts: {value:.9g}"
    return "json", payload, summary, True


def _cmd_report_convergence(args):
    # the phase-spread family, sampled from its closed-form spectrum
    rows = convergence_report(
        lambda d, _: phase_spread_spectrum(d),
        list(args.d_list),
        args.n,
        RngSpec(args.seed),
        eps_grid=tuple(args.eps_grid),
        threads=_threads(args),
    )
    stds = [r["std"] for r in rows[:: len(args.eps_grid)]]
    dims = [r["d"] for r in rows[:: len(args.eps_grid)]]
    slope = float(np.polyfit(np.log(dims), np.log(stds), 1)[0]) if len(dims) > 1 else 0.0
    summary = (
        f"convergence report over d={list(args.d_list)}: "
        f"std falls from {stds[0]:.4g} to {stds[-1]:.4g}, log-log slope {slope:.3f}"
    )
    return args.format, rows, summary, True


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command: write its artifact, print its summary line."""
    try:
        kind, payload, summary, ok = args.handler(args)
        out = args.out or f"gatefid-{args.group}-{args.action}.{kind}"
        if kind == "csv":
            serialize.write_csv(out, payload, tuple(payload[0]))
        else:
            serialize.write_json(out, payload)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except (ValueError, OSError, NetCoverageError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print(f"{summary} [{out}]")
    return 0 if ok else 2


def _env_default_seed() -> int:
    raw = os.environ.get("GATEFID_SEED")
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw, 0)
    except ValueError:
        raise UsageError(f"GATEFID_SEED must be an integer, got {raw!r}") from None


def _int_list(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(",") if x)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _float_list(text: str) -> tuple:
    try:
        return tuple(float(x) for x in text.split(",") if x)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}")


def _command(sub, name: str, handler, help: str):
    """One leaf subcommand: its parser, its --out flag and its handler.

    Abbreviated flags are refused: with them, --n would silently mean --net
    on a command that reads no sample count.
    """
    parser = sub.add_parser(name, help=help, allow_abbrev=False)
    parser.add_argument("--out", default=None,
                        help="artifact path (default gatefid-GROUP-ACTION.json, .csv for CSV)")
    parser.set_defaults(handler=handler)
    return parser


def _add_seed(parser, seed_default: int) -> None:
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=seed_default,
                        help=f"rng seed (default {seed_default}, or GATEFID_SEED)")


def _add_n(parser, default: int) -> None:
    parser.add_argument("--n", type=int, default=default,
                        help=f"sample count (default {default})")


def _add_threads(parser) -> None:
    parser.add_argument("--threads", type=int, default=0,
                        help="sampling workers (0 = available parallelism)")


def _add_tol(parser) -> None:
    parser.add_argument("--tol", type=float, default=1e-9, help="validation tolerance")


def _add_channel_source(parser) -> None:
    parser.add_argument("--channel", dest="channel_path", default=None,
                        help="channel JSON file (kraus or choi form)")
    parser.add_argument("--p", type=float, default=None,
                        help="depolarizing parameter, used with --d instead of --channel")
    parser.add_argument("--d", type=int, default=None, help="dimension")
    parser.add_argument("--unitary", dest="unitary_path", default=None,
                        help="target unitary JSON file (default identity)")


def build_parser() -> _Parser:
    """The gatefid parser, built once per process for each GATEFID_SEED default.

    Parsing leaves the parser unchanged and gives each call a fresh
    namespace, so one parser serves every main() call of a process.
    """
    # a malformed GATEFID_SEED is refused here, whatever the command
    return _parser_with_seed_default(_env_default_seed())


@functools.cache
def _parser_with_seed_default(seed_default: int) -> _Parser:
    parser = _Parser(prog="gatefid", description=__doc__.splitlines()[0])
    groups = parser.add_subparsers(dest="group", required=True, metavar="GROUP")

    channel = groups.add_parser("channel", help="channel I/O and validation")
    channel_sub = channel.add_subparsers(dest="action", required=True, metavar="ACTION")
    c_validate = _command(channel_sub, "validate", _cmd_channel_validate,
                          "CPTP check of a channel file")
    c_validate.add_argument("--channel", dest="channel_path", required=True)
    _add_tol(c_validate)
    c_make = _command(channel_sub, "make-depolarizing", _cmd_channel_make_depolarizing,
                      "write a depolarizing channel")
    c_make.add_argument("--p", type=float, required=True)
    c_make.add_argument("--d", type=int, required=True)
    c_convert = _command(channel_sub, "convert", _cmd_channel_convert,
                         "switch between kraus and choi form")
    c_convert.add_argument("--channel", dest="channel_path", required=True)
    c_convert.add_argument("--to", dest="to_form", choices=("kraus", "choi"), required=True)

    fid = groups.add_parser("fidelity", help="gate fidelity quantities")
    fid_sub = fid.add_subparsers(dest="action", required=True, metavar="ACTION")
    f_point = _command(fid_sub, "point", _cmd_fidelity_point, "fidelity at one pure state")
    _add_channel_source(f_point)
    f_point.add_argument("--state", dest="state_path", default=None,
                         help="state JSON file (default basis state 0)")
    f_avg = _command(fid_sub, "avg", _cmd_fidelity_avg, "closed-form Haar average")
    _add_channel_source(f_avg)
    f_stats = _command(fid_sub, "stats", _cmd_fidelity_stats,
                       "Monte-Carlo fidelity statistics")
    _add_channel_source(f_stats)
    _add_seed(f_stats, seed_default)
    _add_n(f_stats, 100000)
    _add_threads(f_stats)

    bounds = groups.add_parser("bounds", help="closed-form bounds")
    bounds_sub = bounds.add_subparsers(dest="action", required=True, metavar="ACTION")
    b_var = _command(bounds_sub, "variance", _cmd_bounds_variance,
                     "variance bounds at a dimension")
    b_var.add_argument("--d", type=int, default=None)
    b_var.add_argument("--qubits", type=int, default=None, help="use d = 2**qubits")
    b_levy = _command(bounds_sub, "levy", _cmd_bounds_levy, "concentration tail bound")
    b_levy.add_argument("--d", type=int, required=True)
    b_levy.add_argument("--eps", dest="epsilon", type=float, required=True)
    b_levy.add_argument("--k", dest="lipschitz_k", type=float, default=LIPSCHITZ_CONSTANT,
                        help="Lipschitz constant (default 3*sqrt(2))")

    nonuniq = groups.add_parser("nonuniq", help="same-fidelity channel pairs")
    nonuniq_sub = nonuniq.add_subparsers(dest="action", required=True, metavar="ACTION")
    nq_make = _command(nonuniq_sub, "construct", _cmd_nonuniq_construct,
                       "build and certify a pair")
    nq_make.add_argument("--d", type=int, default=None, help="dimension (default 4)")
    nq_make.add_argument("--p", type=float, default=None,
                         help="depolarizing parameter of Q (default 0.5)")
    nq_make.add_argument("--channel", dest="channel_path", default=None,
                         help="full-rank base channel instead of depolarizing")
    nq_make.add_argument("--eps", dest="epsilon", type=float, default=None,
                         help="perturbation strength (default: the maximum)")
    _add_seed(nq_make, seed_default)
    _add_n(nq_make, 10000)
    _add_threads(nq_make)
    nq_verify = _command(nonuniq_sub, "verify", _cmd_nonuniq_verify, "check a stored pair")
    nq_verify.add_argument("--q", dest="q_path", required=True)
    nq_verify.add_argument("--r", dest="r_path", required=True)
    _add_seed(nq_verify, seed_default)
    _add_n(nq_verify, 10000)
    _add_tol(nq_verify)
    _add_threads(nq_verify)

    minimum = groups.add_parser("min", help="minimum fidelity estimation")
    minimum_sub = minimum.add_subparsers(dest="action", required=True, metavar="ACTION")
    m_build = _command(minimum_sub, "net-build", _cmd_min_net_build,
                       "build and persist a state net")
    m_build.add_argument("--d", type=int, required=True)
    m_build.add_argument("--eps", dest="epsilon", type=float, required=True)
    m_build.add_argument("--max-states", dest="max_states", type=int, default=2000)
    m_build.add_argument("--confidence", type=float, default=0.99)
    _add_seed(m_build, seed_default)
    m_net = _command(minimum_sub, "net-min", _cmd_min_net_min, "minimum over a stored net")
    _add_channel_source(m_net)
    m_net.add_argument("--net", dest="net_path", required=True)
    m_eff = _command(minimum_sub, "effective", _cmd_min_effective, "concentration interval")
    m_eff.add_argument("--avg", type=float, required=True)
    m_eff.add_argument("--q", dest="q_mass", type=float, required=True,
                       help="tolerated Haar mass Q")
    m_eff.add_argument("--d", type=int, required=True)
    m_ref = _command(minimum_sub, "reference", _cmd_min_reference,
                     "multi-start descent minimum")
    _add_channel_source(m_ref)
    m_ref.add_argument("--starts", type=int, default=8)
    _add_seed(m_ref, seed_default)

    report = groups.add_parser("report", help="tabular experiment reports")
    report_sub = report.add_subparsers(dest="action", required=True, metavar="ACTION")
    r_conv = _command(report_sub, "convergence", _cmd_report_convergence,
                      "fidelity spread versus dimension")
    r_conv.add_argument("--d-list", dest="d_list", type=_int_list,
                        default=(2, 4, 8, 16, 32, 64, 128, 256))
    r_conv.add_argument("--eps-grid", dest="eps_grid", type=_float_list,
                        default=(0.25, 0.1, 0.05))
    r_conv.add_argument("--format", choices=("json", "csv"), default="csv")
    _add_seed(r_conv, seed_default)
    _add_n(r_conv, 100000)
    _add_threads(r_conv)

    return parser


def main(argv=None) -> int:
    _blas.pin_single_thread()
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except SystemExit as ex:  # --help prints and exits 0
        return 0 if ex.code in (None, 0) else int(ex.code)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
