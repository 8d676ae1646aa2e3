"""Command-line surface: channel I/O, fidelity analyses, bounds, twin-pair
certificates, nets and reports.

Every subcommand writes one deterministic JSON or CSV artifact plus a one
line summary on stdout. Exit codes: 0 success, 2 validation failure or bad
input data, 1 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import serialize
from .channels import (
    choi_from_kraus,
    depolarizing,
    kraus_from_choi,
    phase_spread_unitary,
    validate_cptp,
)
from .fidelity import (
    average_gate_fidelity,
    gate_fidelity_pure,
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
from .nonuniq import pair_certificate, perturb_channel, verify_pair
from .sampling import (
    DEFAULT_SEED,
    REPORT_COLUMNS,
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


@dataclass
class RunConfig:
    """Everything a single CLI invocation needs, flags already resolved."""

    command: str
    channel_path: str | None = None
    q_path: str | None = None
    r_path: str | None = None
    unitary_path: str | None = None
    state_path: str | None = None
    net_path: str | None = None
    d: int | None = None
    qubits: int | None = None
    p: float | None = None
    epsilon: float | None = None
    q_mass: float | None = None
    avg: float | None = None
    n: int | None = None
    seed: int = DEFAULT_SEED
    tol: float = 1e-9
    lipschitz_k: float | None = None
    starts: int = 8
    max_states: int = 2000
    confidence: float = 0.99
    d_list: tuple = (2, 4, 8, 16, 32, 64, 128, 256)
    eps_grid: tuple = (0.25, 0.1, 0.05)
    to_form: str | None = None
    out: str | None = None
    format: str = "json"
    threads: int = 0


def _threads(config: RunConfig) -> int:
    return config.threads if config.threads > 0 else (os.cpu_count() or 1)


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


def _load_square_channel(config: RunConfig):
    """Channel from --channel, or depolarizing(--p, --d) as a shorthand."""
    if config.channel_path is not None:
        ch = serialize.load_channel(config.channel_path)
    elif config.p is not None and config.d is not None:
        ch = depolarizing(config.p, config.d)
    else:
        raise ValueError("need --channel FILE, or --p and --d for a depolarizing channel")
    if ch.dim_in != ch.dim_out:
        raise ValueError(
            f"this command needs a square channel, got {ch.dim_in}->{ch.dim_out}"
        )
    return ch


def _load_unitary(config: RunConfig):
    if config.unitary_path is None:
        return None
    return serialize.unitary_from_dict(serialize.read_json(config.unitary_path))


def _channel_inputs(ch, u, extra: dict | None = None) -> dict:
    """What inputs_hash covers: the channel, the --unitary matrix if given."""
    inputs = {"channel": serialize.channel_to_dict(ch)}
    if u is not None:
        inputs["unitary"] = u
    if extra:
        inputs.update(extra)
    return inputs


def _cmd_channel_validate(config: RunConfig):
    obj = serialize.load_operator(config.channel_path)
    report = validate_cptp(obj, config.tol)
    d = obj.dim_in
    payload = _record(
        "cptp_report",
        serialize.cptp_report_to_dict(report),
        d,
        {"path_content": serialize.read_json(config.channel_path)},
    )
    ok = report.is_cp and report.is_tp
    summary = (
        f"cptp check at tol {config.tol:g}: is_cp={report.is_cp} is_tp={report.is_tp} "
        f"min_eig={report.min_eigenvalue:.3e} tp_residual={report.tp_residual:.3e}"
    )
    return ("json", payload), summary, ok


def _cmd_channel_make_depolarizing(config: RunConfig):
    if config.p is None or config.d is None:
        raise ValueError("make-depolarizing needs --p and --d")
    ch = depolarizing(config.p, config.d)
    payload = serialize.channel_to_dict(ch)
    summary = (
        f"depolarizing channel p={config.p:g} d={config.d} "
        f"({len(ch.kraus)} Kraus operators)"
    )
    return ("json", payload), summary, True


def _cmd_channel_convert(config: RunConfig):
    obj = serialize.load_operator(config.channel_path)
    if config.to_form == "choi":
        choi = obj if not hasattr(obj, "kraus") else choi_from_kraus(obj)
        payload = serialize.choi_to_dict(choi)
    elif config.to_form == "kraus":
        ch = kraus_from_choi(obj) if hasattr(obj, "matrix") else obj
        payload = serialize.channel_to_dict(ch)
    else:
        raise ValueError(f"unknown conversion target {config.to_form!r}")
    summary = f"converted {config.channel_path} to {config.to_form} form"
    return ("json", payload), summary, True


def _cmd_fidelity_point(config: RunConfig):
    ch = _load_square_channel(config)
    u = _load_unitary(config)
    if config.state_path is not None:
        phi = serialize.state_from_dict(serialize.read_json(config.state_path))
    else:
        phi = np.zeros(ch.dim_in, dtype=complex)
        phi[0] = 1.0
    value = gate_fidelity_pure(ch, u, phi)
    inputs = _channel_inputs(ch, u, {"state": serialize.vector_to_pairs(phi)})
    payload = _record("gate_fidelity_point", value, ch.dim_in, inputs)
    return ("json", payload), f"gate fidelity at state: {value:.12g}", True


def _cmd_fidelity_avg(config: RunConfig):
    ch = _load_square_channel(config)
    u = _load_unitary(config)
    value = average_gate_fidelity(ch, u)
    payload = _record("average_gate_fidelity", value, ch.dim_in, _channel_inputs(ch, u))
    return ("json", payload), f"average gate fidelity: {value:.12g}", True


def _cmd_fidelity_stats(config: RunConfig):
    ch = _load_square_channel(config)
    u = _load_unitary(config)
    n = config.n or 100000
    stats = mc_fidelity_stats(ch, u, n, RngSpec(config.seed), threads=_threads(config))
    inputs = _channel_inputs(ch, u, {"n": n})
    payload = _record(
        "fidelity_stats", serialize.stats_to_dict(stats), ch.dim_in, inputs, config.seed
    )
    summary = (
        f"fidelity over {n} Haar states: mean={stats.mean:.9g} "
        f"std={np.sqrt(stats.variance):.3e} min={stats.min:.9g} max={stats.max:.9g}"
    )
    return ("json", payload), summary, True


def _cmd_bounds_variance(config: RunConfig):
    if config.qubits is not None:
        d = 2**config.qubits
    elif config.d is not None:
        d = config.d
    else:
        raise ValueError("need --d or --qubits")
    bounds = variance_bounds(d)
    value = {
        "variance_bound_exact": bounds.variance_bound_exact,
        "variance_bound_concentration": bounds.variance_bound_concentration,
        "C": bounds.C,
    }
    payload = _record("variance_bounds", value, d, {"d": d})
    summary = (
        f"variance bounds at d={d}: exact={bounds.variance_bound_exact:.6g} "
        f"concentration={bounds.variance_bound_concentration:.6g}"
    )
    return ("json", payload), summary, True


def _cmd_bounds_levy(config: RunConfig):
    if config.d is None or config.epsilon is None:
        raise ValueError("need --d and --eps")
    kwargs = {}
    if config.lipschitz_k is not None:
        kwargs["K"] = config.lipschitz_k
    bound = levy_bound(config.d, config.epsilon, **kwargs)
    payload = _record(
        "levy_bound",
        serialize.concentration_to_dict(bound),
        config.d,
        {"d": config.d, "epsilon": config.epsilon, "K": bound.K},
    )
    summary = (
        f"levy bound at d={config.d}, eps={config.epsilon:g}: "
        f"two_sided={bound.two_sided_bound:.6g} one_sided={bound.one_sided_bound:.6g}"
    )
    return ("json", payload), summary, True


def _cmd_nonuniq_construct(config: RunConfig):
    if config.channel_path is not None:
        q = serialize.load_channel(config.channel_path)
        if q.dim_in != q.dim_out:
            raise ValueError("the construction needs a square channel")
        d = q.dim_in
        p_or_hash = serialize.canonical_hash(serialize.channel_to_dict(q))
    else:
        d = config.d if config.d is not None else 4
        p = config.p if config.p is not None else 0.5
        q = depolarizing(p, d)
        p_or_hash = p
    n = config.n or 10000
    pair = perturb_channel(q, config.epsilon, n_verify=n, rng=config.seed)
    v = pair.verification
    certificate = pair_certificate(pair, p_or_hash)
    ok = (
        v.cptp_q.is_cp
        and v.cptp_q.is_tp
        and v.cptp_r.is_cp
        and v.cptp_r.is_tp
        and v.fidelity_residual_max <= 1e-10
        and v.choi_distance > 1e-6
    )
    summary = (
        f"pair at d={d}, eps={pair.epsilon:.6g} (max {pair.max_epsilon:.6g}): "
        f"fidelity residual {v.fidelity_residual_max:.2e}, choi distance "
        f"{v.choi_distance:.4g}, depolarizing distance {v.depolarizing_distance_r:.4g}"
    )
    return ("json", certificate), summary, ok


def _cmd_nonuniq_verify(config: RunConfig):
    if config.q_path is None or config.r_path is None:
        raise ValueError("need --q and --r channel files")
    q = serialize.load_channel(config.q_path)
    r = serialize.load_channel(config.r_path)
    if (q.dim_in, q.dim_out) != (r.dim_in, r.dim_out):
        raise ValueError("the two channels have different dimensions")
    n = config.n or 10000
    v = verify_pair(q, r, n_samples=n, rng=config.seed, tol=config.tol)
    payload = {
        "d": q.dim_in,
        "fidelity_residual_max": v.fidelity_residual_max,
        "choi_distance": v.choi_distance,
        "depolarizing_distance_R": v.depolarizing_distance_r,
        "cptp_reports": {
            "q": serialize.cptp_report_to_dict(v.cptp_q),
            "r": serialize.cptp_report_to_dict(v.cptp_r),
        },
        "n_samples": v.n_samples,
        "seed": v.seed,
    }
    ok = (
        v.cptp_q.is_cp
        and v.cptp_q.is_tp
        and v.cptp_r.is_cp
        and v.cptp_r.is_tp
        and v.fidelity_residual_max <= max(config.tol, 1e-10)
        and v.choi_distance > 1e-6
    )
    verdict = "identical fidelity functions" if ok else "verification FAILED"
    summary = (
        f"{verdict}: residual {v.fidelity_residual_max:.2e} over {n} states, "
        f"choi distance {v.choi_distance:.4g}"
    )
    return ("json", payload), summary, ok


def _cmd_min_net_build(config: RunConfig):
    if config.d is None or config.epsilon is None:
        raise ValueError("need --d and --eps")
    net = build_net(
        config.d,
        config.epsilon,
        rng=config.seed,
        max_states=config.max_states,
        confidence=config.confidence,
    )
    summary = (
        f"net at d={config.d}, eps={config.epsilon:g}: {len(net.states)} states, "
        f"coverage confidence {net.coverage_confidence:.4g}"
    )
    return ("json", serialize.net_to_dict(net)), summary, True


def _cmd_min_net_min(config: RunConfig):
    if config.net_path is None:
        raise ValueError("need --net FILE")
    ch = _load_square_channel(config)
    u = _load_unitary(config)
    net = serialize.net_from_dict(serialize.read_json(config.net_path))
    est = net_minimum(ch, u, net)
    inputs = _channel_inputs(ch, u, {"net_seed": net.seed, "net_size": len(net.states)})
    payload = _record(
        "net_minimum", serialize.min_estimate_to_dict(est), ch.dim_in, inputs
    )
    summary = (
        f"net minimum {est.net_min:.9g}, lipschitz lower bound "
        f"{est.lipschitz_lower_bound:.9g} ({len(net.states)} states)"
    )
    return ("json", payload), summary, True


def _cmd_min_effective(config: RunConfig):
    if config.avg is None or config.q_mass is None or config.d is None:
        raise ValueError("need --avg, --q and --d")
    low, high = effective_minimum(config.avg, config.q_mass, config.d)
    eps = effective_epsilon(config.q_mass, config.d)
    value = {"low": low, "high": high, "epsilon": eps}
    payload = _record(
        "effective_minimum", value, config.d,
        {"avg": config.avg, "Q": config.q_mass, "d": config.d},
    )
    note = " (vacuous at this d)" if low == 0.0 else ""
    summary = f"effective minimum in [{low:.9g}, {high:.9g}], eps={eps:.4g}{note}"
    return ("json", payload), summary, True


def _cmd_min_reference(config: RunConfig):
    ch = _load_square_channel(config)
    u = _load_unitary(config)
    value = reference_minimum(ch, u, n_starts=config.starts, rng=config.seed)
    inputs = _channel_inputs(ch, u, {"starts": config.starts})
    payload = _record("reference_minimum", value, ch.dim_in, inputs, config.seed)
    summary = f"reference minimum over {config.starts} starts: {value:.9g}"
    return ("json", payload), summary, True


def _cmd_report_convergence(config: RunConfig):
    n = config.n or 100000
    rows = convergence_report(
        lambda d, g: phase_spread_unitary(d, g),
        list(config.d_list),
        n,
        RngSpec(config.seed),
        eps_grid=tuple(config.eps_grid),
        threads=_threads(config),
    )
    stds = [r["std"] for r in rows[:: len(config.eps_grid)]]
    dims = [r["d"] for r in rows[:: len(config.eps_grid)]]
    slope = float(np.polyfit(np.log(dims), np.log(stds), 1)[0]) if len(dims) > 1 else 0.0
    summary = (
        f"convergence report over d={list(config.d_list)}: "
        f"std falls from {stds[0]:.4g} to {stds[-1]:.4g}, log-log slope {slope:.3f}"
    )
    if config.format == "json":
        return ("json", rows), summary, True
    return ("csv", rows, REPORT_COLUMNS), summary, True


_HANDLERS = {
    "channel validate": _cmd_channel_validate,
    "channel make-depolarizing": _cmd_channel_make_depolarizing,
    "channel convert": _cmd_channel_convert,
    "fidelity point": _cmd_fidelity_point,
    "fidelity avg": _cmd_fidelity_avg,
    "fidelity stats": _cmd_fidelity_stats,
    "bounds variance": _cmd_bounds_variance,
    "bounds levy": _cmd_bounds_levy,
    "nonuniq construct": _cmd_nonuniq_construct,
    "nonuniq verify": _cmd_nonuniq_verify,
    "min net-build": _cmd_min_net_build,
    "min net-min": _cmd_min_net_min,
    "min effective": _cmd_min_effective,
    "min reference": _cmd_min_reference,
    "report convergence": _cmd_report_convergence,
}


def _default_out(config: RunConfig) -> str:
    ext = "csv" if config.format == "csv" else "json"
    return "gatefid-" + config.command.replace(" ", "-") + "." + ext


def run(config: RunConfig) -> int:
    """Execute one command: write its artifact, print its summary line."""
    handler = _HANDLERS.get(config.command)
    if handler is None:
        print(f"unknown command {config.command!r}", file=sys.stderr)
        return 1
    try:
        artifact, summary, ok = handler(config)
    except (ValueError, OSError, NetCoverageError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    out = config.out or _default_out(config)
    if artifact[0] == "csv":
        _, rows, columns = artifact
        serialize.write_csv(out, rows, columns)
    else:
        serialize.write_json(out, artifact[1])
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


def _add_common(parser, seed_default: int) -> None:
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=seed_default,
                        help=f"rng seed (default {seed_default}, or GATEFID_SEED)")
    parser.add_argument("--n", type=int, default=None, help="sample count")
    parser.add_argument("--tol", type=float, default=1e-9, help="validation tolerance")
    parser.add_argument("--out", default=None, help="artifact path")
    parser.add_argument("--format", choices=("json", "csv"), default=None)
    parser.add_argument("--threads", type=int, default=0,
                        help="sampling workers (0 = available parallelism)")


def _add_channel_source(parser) -> None:
    parser.add_argument("--channel", dest="channel_path", default=None,
                        help="channel JSON file (kraus or choi form)")
    parser.add_argument("--p", type=float, default=None,
                        help="depolarizing parameter, used with --d instead of --channel")
    parser.add_argument("--d", type=int, default=None, help="dimension")
    parser.add_argument("--unitary", dest="unitary_path", default=None,
                        help="target unitary JSON file (default identity)")


def build_parser() -> _Parser:
    seed_default = _env_default_seed()
    parser = _Parser(prog="gatefid", description=__doc__.splitlines()[0])
    groups = parser.add_subparsers(dest="group", required=True, metavar="GROUP")

    channel = groups.add_parser("channel", help="channel I/O and validation")
    channel_sub = channel.add_subparsers(dest="action", required=True, metavar="ACTION")
    c_validate = channel_sub.add_parser("validate", help="CPTP check of a channel file")
    c_validate.add_argument("--channel", dest="channel_path", required=True)
    _add_common(c_validate, seed_default)
    c_make = channel_sub.add_parser("make-depolarizing", help="write a depolarizing channel")
    c_make.add_argument("--p", type=float, required=True)
    c_make.add_argument("--d", type=int, required=True)
    _add_common(c_make, seed_default)
    c_convert = channel_sub.add_parser("convert", help="switch between kraus and choi form")
    c_convert.add_argument("--channel", dest="channel_path", required=True)
    c_convert.add_argument("--to", dest="to_form", choices=("kraus", "choi"), required=True)
    _add_common(c_convert, seed_default)

    fid = groups.add_parser("fidelity", help="gate fidelity quantities")
    fid_sub = fid.add_subparsers(dest="action", required=True, metavar="ACTION")
    f_point = fid_sub.add_parser("point", help="fidelity at one pure state")
    _add_channel_source(f_point)
    f_point.add_argument("--state", dest="state_path", default=None,
                         help="state JSON file (default basis state 0)")
    _add_common(f_point, seed_default)
    f_avg = fid_sub.add_parser("avg", help="closed-form Haar average")
    _add_channel_source(f_avg)
    _add_common(f_avg, seed_default)
    f_stats = fid_sub.add_parser("stats", help="Monte-Carlo fidelity statistics")
    _add_channel_source(f_stats)
    _add_common(f_stats, seed_default)

    bounds = groups.add_parser("bounds", help="closed-form bounds")
    bounds_sub = bounds.add_subparsers(dest="action", required=True, metavar="ACTION")
    b_var = bounds_sub.add_parser("variance", help="variance bounds at a dimension")
    b_var.add_argument("--d", type=int, default=None)
    b_var.add_argument("--qubits", type=int, default=None, help="use d = 2**qubits")
    _add_common(b_var, seed_default)
    b_levy = bounds_sub.add_parser("levy", help="concentration tail bound")
    b_levy.add_argument("--d", type=int, required=True)
    b_levy.add_argument("--eps", dest="epsilon", type=float, required=True)
    b_levy.add_argument("--k", dest="lipschitz_k", type=float, default=None,
                        help="Lipschitz constant (default 3*sqrt(2))")
    _add_common(b_levy, seed_default)

    nonuniq = groups.add_parser("nonuniq", help="same-fidelity channel pairs")
    nonuniq_sub = nonuniq.add_subparsers(dest="action", required=True, metavar="ACTION")
    nq_make = nonuniq_sub.add_parser("construct", help="build and certify a pair")
    nq_make.add_argument("--d", type=int, default=None, help="dimension (default 4)")
    nq_make.add_argument("--p", type=float, default=None,
                         help="depolarizing parameter of Q (default 0.5)")
    nq_make.add_argument("--channel", dest="channel_path", default=None,
                         help="full-rank base channel instead of depolarizing")
    nq_make.add_argument("--eps", dest="epsilon", type=float, default=None,
                         help="perturbation strength (default: the maximum)")
    _add_common(nq_make, seed_default)
    nq_verify = nonuniq_sub.add_parser("verify", help="check a stored pair")
    nq_verify.add_argument("--q", dest="q_path", required=True)
    nq_verify.add_argument("--r", dest="r_path", required=True)
    _add_common(nq_verify, seed_default)

    minimum = groups.add_parser("min", help="minimum fidelity estimation")
    minimum_sub = minimum.add_subparsers(dest="action", required=True, metavar="ACTION")
    m_build = minimum_sub.add_parser("net-build", help="build and persist a state net")
    m_build.add_argument("--d", type=int, required=True)
    m_build.add_argument("--eps", dest="epsilon", type=float, required=True)
    m_build.add_argument("--max-states", dest="max_states", type=int, default=2000)
    m_build.add_argument("--confidence", type=float, default=0.99)
    _add_common(m_build, seed_default)
    m_net = minimum_sub.add_parser("net-min", help="minimum over a stored net")
    _add_channel_source(m_net)
    m_net.add_argument("--net", dest="net_path", required=True)
    _add_common(m_net, seed_default)
    m_eff = minimum_sub.add_parser("effective", help="concentration interval")
    m_eff.add_argument("--avg", type=float, required=True)
    m_eff.add_argument("--q", dest="q_mass", type=float, required=True,
                       help="tolerated Haar mass Q")
    m_eff.add_argument("--d", type=int, required=True)
    _add_common(m_eff, seed_default)
    m_ref = minimum_sub.add_parser("reference", help="multi-start descent minimum")
    _add_channel_source(m_ref)
    m_ref.add_argument("--starts", type=int, default=8)
    _add_common(m_ref, seed_default)

    report = groups.add_parser("report", help="tabular experiment reports")
    report_sub = report.add_subparsers(dest="action", required=True, metavar="ACTION")
    r_conv = report_sub.add_parser("convergence", help="fidelity spread versus dimension")
    r_conv.add_argument("--d-list", dest="d_list", type=_int_list,
                        default=(2, 4, 8, 16, 32, 64, 128, 256))
    r_conv.add_argument("--eps-grid", dest="eps_grid", type=_float_list,
                        default=(0.25, 0.1, 0.05))
    _add_common(r_conv, seed_default)

    return parser


def config_from_args(ns: argparse.Namespace) -> RunConfig:
    command = f"{ns.group} {ns.action}"
    fmt = getattr(ns, "format", None)
    if fmt is None:
        fmt = "csv" if ns.group == "report" else "json"
    config = RunConfig(command=command, format=fmt)
    for name in (
        "channel_path", "q_path", "r_path", "unitary_path", "state_path", "net_path",
        "d", "qubits", "p", "epsilon", "q_mass", "avg", "n", "seed", "tol",
        "lipschitz_k", "starts", "max_states", "confidence", "d_list", "eps_grid",
        "to_form", "out", "threads",
    ):
        if hasattr(ns, name):
            setattr(config, name, getattr(ns, name))
    return config


def main(argv=None) -> int:
    try:
        # parser construction can fail too, on a malformed GATEFID_SEED
        parser = build_parser()
        ns = parser.parse_args(argv)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except SystemExit as ex:  # --help prints and exits 0
        return 0 if ex.code in (None, 0) else int(ex.code)
    return run(config_from_args(ns))


if __name__ == "__main__":
    sys.exit(main())
