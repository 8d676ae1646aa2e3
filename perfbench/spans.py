"""Outside-in span tracing of gatefid's layers, and the per-layer metrics.

``Tracer.install`` replaces every public function of the eight library
modules (plus ``sampling._haar_block``) with a recording wrapper, at every
module global that binds it, which is the name callers look it up by.
Nothing under ``src/`` is edited; ``uninstall`` restores the originals.
Spans are kept in memory and written once, when the run ends.

A span is a dict with ``id``, ``name`` (``layer.function``), ``start`` and
``end`` (``perf_counter_ns``), ``parent`` (0 for none), ``job``, ``thread``
and optional ``attrs`` (work counts taken at the boundary). Worker threads
started by ``sampling.fidelity_samples`` inherit the caller's span through
a context-propagating executor, so block spans nest under their caller.
"""

from __future__ import annotations

import concurrent.futures
import contextvars
import functools
import importlib
import itertools
import os
import statistics
import threading
import time
import types

LAYERS = ("cli", "serialize", "sampling", "fidelity", "channels", "linalg", "nonuniq", "minimum")
PRIVATE_LAYER_FUNCTIONS = {"sampling": ("_haar_block",)}
JOB_SPAN = "bench.job"

CHANNEL_CONSTRUCTORS = frozenset(
    "channels." + n
    for n in (
        "amplitude_damping", "channel_from_kraus", "compose", "depolarizing",
        "identity_channel", "kraus_from_choi", "phase_spread_unitary",
        "random_channel", "reduce_to_lambda", "unitary_channel",
        "unitary_operator_basis",
    )
)


# every per-layer metric the traced run prints, with its unit
PER_LAYER_UNITS = {
    "cli.cmd_s": "s", "cli.self_s": "s",
    "serialize.busy_s": "s", "serialize.self_s": "s",
    "serialize.read_s": "s", "serialize.read_mb": "MB", "serialize.hash_s": "s",
    "serialize.encode_s": "s", "serialize.write_s": "s", "serialize.write_mb": "MB",
    "sampling.busy_s": "s", "sampling.self_s": "s",
    "sampling.haar_s": "s", "sampling.blocks": "count",
    "sampling.samples_s": "s", "sampling.parallelism": "ratio",
    "fidelity.busy_s": "s", "fidelity.self_s": "s",
    "fidelity.kernel_s": "s", "fidelity.kernel_calls": "count", "fidelity.kernel_rows": "count",
    "fidelity.kernel_gflop": "GFLOP", "fidelity.kernel_gflops": "GFLOP/s",
    "channels.busy_s": "s", "channels.self_s": "s",
    "channels.build_s": "s", "channels.choi_s": "s", "channels.choi_calls": "count",
    "channels.validate_s": "s", "channels.kraus_mb": "MB",
    "linalg.busy_s": "s", "linalg.self_s": "s", "linalg.eig_s": "s", "linalg.norm_s": "s",
    "nonuniq.busy_s": "s", "nonuniq.self_s": "s",
    "nonuniq.perturb_s": "s", "nonuniq.verify_s": "s", "nonuniq.depdist_s": "s",
    "minimum.busy_s": "s", "minimum.self_s": "s",
    "minimum.net_build_s": "s", "minimum.net_states": "count", "minimum.net_blocks": "count",
    "minimum.net_scan_s": "s", "minimum.descent_s": "s",
    "minimum.descent_evals": "count", "minimum.descent_rows": "count",
    "trace.spans": "count", "trace.job_s": "s", "trace.overhead_s": "s",
}


def _rows(states) -> int:
    shape = getattr(states, "shape", None)
    if shape is None or len(shape) == 1:
        return 1
    return int(shape[0])


def _kernel_attrs(args, kwargs, result) -> dict:
    e, u, states = args[:3]
    d = e.dim_in
    rows = _rows(states)
    # complex GEMM states @ A^T is 8 d^2 real flops per row, the overlap 8 d
    per_row = len(e.kraus) * (8 * d * d + 8 * d) + (8 * d * d if u is not None else 0)
    return {"rows": rows, "flop": rows * per_row}


def _file_attrs(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _kraus_attrs(args, kwargs, result) -> dict:
    kraus = getattr(result, "kraus", None)
    return {"kraus_bytes": sum(op.nbytes for op in kraus)} if kraus is not None else {}


def _net_attrs(args, kwargs, result) -> dict:
    return {"states": len(result.states)}


ATTR_HOOKS = {
    "fidelity.gate_fidelity_batch": _kernel_attrs,
    "serialize.read_json": _file_attrs,
    "serialize.write_json": _file_attrs,
    "serialize.write_csv": _file_attrs,
    "minimum.build_net": _net_attrs,
    **{name: _kraus_attrs for name in CHANNEL_CONSTRUCTORS},
}


class _ContextPool(concurrent.futures.ThreadPoolExecutor):
    """Thread pool whose tasks run in a copy of the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.job = None
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span", default=0)
        self._patches: list = []

    def _record(self, name, fn, args, kwargs):
        sid = next(self._ids)
        parent = self._current.get()
        token = self._current.set(sid)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._current.reset(token)
        span = {
            "id": sid, "name": name, "start": start, "end": end, "parent": parent,
            "job": self.job, "thread": threading.get_ident(),
        }
        hook = ATTR_HOOKS.get(name)
        if hook is not None:
            try:
                span["attrs"] = hook(args, kwargs, result)
            except (AttributeError, IndexError, KeyError, OSError, TypeError, ValueError) as err:
                # a changed signature loses the counts, never the job
                span["attrs"] = {"hook_error": repr(err)}
        self.spans.append(span)
        return result

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._record(name, fn, args, kwargs)

        return traced

    def install(self) -> None:
        """Wrap the layer functions at every gatefid module global naming them."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: importlib.import_module(f"gatefid.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            private = PRIVATE_LAYER_FUNCTIONS.get(layer, ())
            for attr, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                    and (not attr.startswith("_") or attr in private)
                ):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for mod in (importlib.import_module("gatefid"), *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])
        self._patch(modules["sampling"], "ThreadPoolExecutor", _ContextPool)

    def _patch(self, mod, attr, value) -> None:
        self._patches.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def run_job(self, job: int, fn):
        """Run fn() under a root span for the job, with the layers wrapped."""
        self.job = job
        self.install()
        try:
            return self._record(JOB_SPAN, fn, (), {})
        finally:
            self.uninstall()
            self.job = None


# analysis -------------------------------------------------------------------


def _union_ns(intervals) -> int:
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanTree:
    """Parent/child index over one job's spans."""

    def __init__(self, spans):
        self.spans = list(spans)
        self.by_id = {s["id"]: s for s in self.spans}
        self.children = {s["id"]: [] for s in self.spans}
        for s in self.spans:
            if s["parent"] in self.children:
                self.children[s["parent"]].append(s)

    def self_ns(self, span) -> int:
        """Duration minus the part of it that child spans cover.

        Children in worker threads may overlap each other, so the covered
        part is the union of the child intervals.
        """
        kids = self.children[span["id"]]
        return span["end"] - span["start"] - _union_ns((k["start"], k["end"]) for k in kids)

    def ancestors(self, span):
        parent = self.by_id.get(span["parent"])
        while parent is not None:
            yield parent
            parent = self.by_id.get(parent["parent"])

    def has_ancestor(self, span, pred) -> bool:
        return any(pred(a) for a in self.ancestors(span))


def check_spans(spans) -> list:
    """Invariants of a trace: known parents, nesting in time, self time >= 0."""
    tree = SpanTree(spans)
    problems = []
    for s in tree.spans:
        if s["end"] < s["start"]:
            problems.append(f"span {s['id']} {s['name']} ends before it starts")
        if s["parent"]:
            p = tree.by_id.get(s["parent"])
            if p is None:
                problems.append(f"span {s['id']} {s['name']} has unknown parent {s['parent']}")
            elif s["start"] < p["start"] or s["end"] > p["end"]:
                problems.append(
                    f"span {s['id']} {s['name']} outlasts its parent {p['id']} {p['name']}"
                )
            elif s["job"] != p["job"]:
                problems.append(f"span {s['id']} {s['name']} is in another job than its parent")
        if tree.self_ns(s) < 0:
            problems.append(f"span {s['id']} {s['name']} has negative self time")
    return problems


def _layer(span) -> str:
    return span["name"].split(".", 1)[0]


def _serialize_kind(func: str) -> str:
    if func.startswith("write_"):
        return "write"
    if func == "canonical_hash":
        return "hash"
    if func == "read_json" or func.startswith(("load_", "pairs_to_")) or func.endswith("_from_dict"):
        return "read"
    return "encode"


def job_metrics(spans) -> dict:
    """Per-layer metrics of one traced job. Times in seconds."""
    tree = SpanTree(spans)
    named = {}
    for s in tree.spans:
        named.setdefault(s["name"], []).append(s)

    def dur(s):
        return (s["end"] - s["start"]) / 1e9

    def total(name, pred=None):
        return sum(dur(s) for s in named.get(name, ()) if pred is None or pred(s))

    def attr_sum(names, key, pred=None):
        return sum(
            s.get("attrs", {}).get(key, 0)
            for n in names
            for s in named.get(n, ())
            if pred is None or pred(s)
        )

    def under(name):
        return lambda s: tree.has_ancestor(s, lambda a: a["name"] == name)

    def outermost_in(names):
        return lambda s: not tree.has_ancestor(s, lambda a: a["name"] in names)

    m = {}
    for layer in LAYERS:
        spans_l = [s for s in tree.spans if _layer(s) == layer]
        if layer != "cli":
            # per thread, the time inside the layer; summed over threads
            by_thread = {}
            for s in spans_l:
                by_thread.setdefault(s["thread"], []).append((s["start"], s["end"]))
            m[f"{layer}.busy_s"] = sum(_union_ns(iv) for iv in by_thread.values()) / 1e9
        m[f"{layer}.self_s"] = sum(tree.self_ns(s) for s in spans_l) / 1e9

    m["cli.cmd_s"] = total("cli.main")

    kinds = {"read": 0.0, "hash": 0.0, "encode": 0.0, "write": 0.0}
    for s in tree.spans:
        if _layer(s) == "serialize" and not tree.has_ancestor(s, lambda a: _layer(a) == "serialize"):
            kinds[_serialize_kind(s["name"].split(".", 1)[1])] += dur(s)
    for kind, seconds in kinds.items():
        m[f"serialize.{kind}_s"] = seconds
    m["serialize.read_mb"] = attr_sum(["serialize.read_json"], "bytes") / 1e6
    m["serialize.write_mb"] = attr_sum(["serialize.write_json", "serialize.write_csv"], "bytes") / 1e6

    m["sampling.haar_s"] = total("sampling._haar_block")
    m["sampling.blocks"] = len(named.get("sampling._haar_block", ()))
    samples = named.get("sampling.fidelity_samples", [])
    m["sampling.samples_s"] = sum(dur(s) for s in samples)
    child_busy = sum(dur(k) for s in samples for k in tree.children[s["id"]])
    m["sampling.parallelism"] = child_busy / m["sampling.samples_s"] if samples else 0.0

    kernel = "fidelity.gate_fidelity_batch"
    m["fidelity.kernel_s"] = total(kernel)
    m["fidelity.kernel_calls"] = len(named.get(kernel, ()))
    m["fidelity.kernel_rows"] = attr_sum([kernel], "rows")
    m["fidelity.kernel_gflop"] = attr_sum([kernel], "flop") / 1e9
    m["fidelity.kernel_gflops"] = (
        m["fidelity.kernel_gflop"] / m["fidelity.kernel_s"] if m["fidelity.kernel_s"] else 0.0
    )

    builds = outermost_in(CHANNEL_CONSTRUCTORS)
    m["channels.build_s"] = sum(total(n, builds) for n in CHANNEL_CONSTRUCTORS)
    m["channels.kraus_mb"] = attr_sum(CHANNEL_CONSTRUCTORS, "kraus_bytes", builds) / 1e6
    choi = "channels.choi_from_kraus"
    m["channels.choi_s"] = total(choi)
    m["channels.choi_calls"] = len(named.get(choi, ()))
    m["channels.validate_s"] = total("channels.validate_cptp")

    m["linalg.eig_s"] = total("linalg.hermitian_eig")
    m["linalg.norm_s"] = total("linalg.schatten_norm")

    m["nonuniq.perturb_s"] = total("nonuniq.perturb_channel")
    m["nonuniq.verify_s"] = total("nonuniq.verify_pair")
    m["nonuniq.depdist_s"] = total("nonuniq.depolarizing_distance")

    m["minimum.net_build_s"] = total("minimum.build_net")
    m["minimum.net_states"] = attr_sum(["minimum.build_net"], "states")
    m["minimum.net_blocks"] = len(
        [s for s in named.get("sampling._haar_block", ()) if under("minimum.build_net")(s)]
    )
    m["minimum.net_scan_s"] = total("minimum.net_minimum")
    m["minimum.descent_s"] = total("minimum.reference_minimum")
    in_descent = under("minimum.reference_minimum")
    m["minimum.descent_evals"] = len([s for s in named.get(kernel, ()) if in_descent(s)])
    m["minimum.descent_rows"] = attr_sum([kernel], "rows", in_descent)

    m["trace.spans"] = len(tree.spans)
    return m


def median_metrics(per_job: list) -> dict:
    """Median of each metric over jobs."""
    return {k: statistics.median(j[k] for j in per_job) for k in per_job[0]}
