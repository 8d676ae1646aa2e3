"""Deterministic JSON and CSV serialization.

Floats are written with 17 significant digits, which round-trips IEEE
doubles exactly, so re-reading an artifact reproduces bit-identical
numbers and identical inputs produce byte-identical files. Complex
matrices are stored row-major as [re, im] pairs. They stay numpy arrays
until bytes are produced: a complex array is encoded a row at a time,
with the same 17-significant-digit bytes the nested pair lists give (a
Kraus set as the one array it stacks to), and a matrix field is decoded
in one numpy conversion. load_operator reads a Kraus file's 'kraus' list
one operator at a time, converting each before the next is decoded, so a
rank-r file never holds more than one operator as decoded lists; Choi,
unitary, state and net files are decoded whole. A result record (a
dataclass instance) is written as a JSON object of its fields in
declaration order, so the dataclass is the one statement of its
artifact's keys.

canonical_hash digests the same canonical JSON, except that each complex
array stands as {"dtype":"complex128","shape":[...],"sha256":"<hex>"},
the hex being the sha256 of its C-order little-endian complex128 bytes:
an array is hashed at the cost of its bytes, not of its decimal text.

Channel, state and net files must hold finite numbers. JSON readers
accept NaN and Infinity tokens, so a non-finite entry is refused at read
time with a ValueError naming the field and the entry.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import hashlib
import json
import math
import re
from typing import NoReturn

import numpy as np

from .channels import ChoiMatrix, QuantumChannel, kraus_from_choi
from .minimum import StateNet

# How _fmt_float writes an entry of each class, as a template piece: a
# signed zero literally, another integral |x| < 1e17 as "%.1f" (the
# "%.17g" digits and ".0"), anything else as "%.17g".
_ENTRY_PIECES = ("0.0", "-0.0", "%.1f", "%.17g")


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    s = format(float(x), ".17g")
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"  # keep the token a float on re-parse
    return s


def _pairs_text(floats: np.ndarray, row: str) -> str:
    # floats: a complex array viewed as float64; row: the template of one row
    if floats.ndim == 1:
        return row % tuple(floats.tolist())
    return "[" + ",".join([_pairs_text(sub, row) for sub in floats]) + "]"


@functools.cache
def _pair_pieces(depth: int) -> tuple:
    # a pair's template piece and the separator after it, indexed by
    # 16 * (brackets it closes) + 4 * (class of re) + (class of im)
    return tuple(
        f"[{real},{imag}]" + "]" * c + "," + "[" * c
        for c in range(depth + 1)
        for real in _ENTRY_PIECES
        for imag in _ENTRY_PIECES
    )


def _classed_text(floats: np.ndarray, integral: np.ndarray) -> str:
    # floats: a complex array viewed as float64; integral: its entries
    # that "%.17g" writes as bare integers. One template piece per pair,
    # then one % over the entries that are not zero.
    zero = floats == 0
    kind = np.where(zero, np.signbit(floats), np.where(integral, 2, 3))
    pair = (4 * kind[..., 0::2] + kind[..., 1::2]).reshape(-1)
    # the brackets a pair closes: one per trailing axis that ends at it
    shape = floats.shape[:-1] + (floats.shape[-1] // 2,)
    ends = np.arange(1, pair.size + 1)
    closes = 0
    span = 1
    for size in reversed(shape):
        span *= size
        closes = closes + (ends % span == 0)
    depth = len(shape)
    lookup = _pair_pieces(depth)
    pieces = [lookup[i] for i in (16 * closes + pair).tolist()]
    # the last pair closes every bracket; drop the separator after it
    template = "[" * depth + "".join(pieces)[: -(depth + 1)]
    return template % tuple(floats[~zero].tolist())


def _finite_floats(arr: np.ndarray) -> np.ndarray:
    """A complex array's C-order little-endian float64 view, refused if not finite."""
    if arr.ndim == 0:
        raise TypeError("cannot serialize a 0-d complex array")
    floats = np.ascontiguousarray(arr, dtype="<c16").view("<f8")
    finite = np.isfinite(floats)
    if not finite.all():
        bad = float(floats[~finite][0])
        raise ValueError(f"cannot serialize non-finite float {bad!r}")
    return floats


def _complex_array_text(arr: np.ndarray) -> str:
    """Nested [re, im] pair text of a complex array, as _fmt_float writes it."""
    floats = _finite_floats(arr)
    # "%.17g" writes a bare integer exactly for integral |x| < 1e17
    integral = (np.trunc(floats) == floats) & (np.abs(floats) < 1e17)
    if integral.any():
        return _classed_text(floats, integral)
    row = "[" + ",".join(["[%.17g,%.17g]"] * arr.shape[-1]) + "]"
    return _pairs_text(floats, row)


def _array_digest(arr: np.ndarray) -> str:
    """The canonical JSON that stands for a complex array in canonical_hash."""
    digest = hashlib.sha256(_finite_floats(arr)).hexdigest()
    shape = ",".join(str(n) for n in arr.shape)
    return f'{{"dtype":"complex128","shape":[{shape}],"sha256":"{digest}"}}'


def _stackable(items) -> bool:
    """True for two or more complex arrays of one shape, at least 1-d."""
    first = items[0] if len(items) > 1 else None
    return isinstance(first, np.ndarray) and first.ndim > 0 and all(
        isinstance(a, np.ndarray) and a.dtype.kind == "c" and a.shape == first.shape
        for a in items
    )


def _emit(obj, out: list, array, stack: bool = False) -> None:
    # array: the text that stands for a complex ndarray; stack: write a
    # list of equally shaped complex arrays as the one array they stack to
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray) and obj.dtype.kind == "c":
        out.append(array(obj))
    elif isinstance(obj, (list, tuple)) and stack and _stackable(obj):
        # the stack's text is the list's, byte for byte, in one encode
        out.append(array(np.stack(obj)))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _emit(item, out, array, stack)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be strings, got {key!r}")
            if i:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            _emit(value, out, array, stack)
        out.append("}")
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        # the field order is the artifact's key order
        fields = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
        _emit(fields, out, array, stack)
    else:
        raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: fixed float format, insertion-ordered keys.

    A complex numpy array is written as nested [re, im] pairs, byte for byte
    as the equivalent nested lists of floats; a list or tuple of two or more
    equally shaped complex arrays (a Kraus set) is encoded as their stack,
    which gives the same bytes; a dataclass instance as an object of its
    fields in declaration order.
    """
    out: list = []
    _emit(obj, out, _complex_array_text, stack=True)
    return "".join(out)


def canonical_hash(obj) -> str:
    """sha256 of the canonical JSON, as a hex digest.

    Each complex numpy array enters as {"dtype":"complex128","shape":[...],
    "sha256":"<hex of its C-order little-endian bytes>"}, so its layout,
    byte order and decimal text do not matter, and a signed zero does.
    """
    out: list = []
    _emit(obj, out, _array_digest)
    return hashlib.sha256("".join(out).encode("utf-8")).hexdigest()


def write_json(path, obj) -> None:
    # encoded before the file is opened, so a failed encode leaves no file
    text = dumps_canonical(obj)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
        fh.write("\n")


def _read_text(path) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _loads(text: str, path):
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"malformed JSON in {path}: {err}") from None


def read_json(path):
    return _loads(_read_text(path), path)


def _name_bad_entry(rows, field: str) -> NoReturn:
    """Raise a ValueError naming the first entry that is not a finite pair."""
    width = None
    for i, row in enumerate(rows):
        if not isinstance(row, list) or (width is not None and len(row) != width):
            raise ValueError(f"field {field!r}: row {i} is not a list of width {width}")
        width = len(row)
        for j, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(x, (int, float)) for x in entry)
            ):
                raise ValueError(
                    f"field {field!r}: entry ({i},{j}) is not an [re, im] pair"
                )
            try:
                finite = all(math.isfinite(float(x)) for x in entry)
            except OverflowError:
                finite = False
            if not finite:
                raise ValueError(f"field {field!r}: entry ({i},{j}) is not finite")
    raise ValueError(f"field {field!r}: expected rows of [re, im] float64 pairs")


def pairs_to_matrix(rows, field: str) -> np.ndarray:
    """Complex matrix from JSON-decoded row-major [re, im] pairs."""
    if not isinstance(rows, list) or not rows:
        raise ValueError(f"field {field!r}: expected a non-empty list of rows")
    try:
        pairs = np.array(rows)
    except (ValueError, TypeError, OverflowError):  # ragged nesting
        pairs = None
    if (
        pairs is None
        or pairs.ndim != 3
        or pairs.shape[2] != 2
        or pairs.dtype.kind not in "biuf"
        or not np.isfinite(pairs).all()
    ):
        _name_bad_entry(rows, field)
    # viewing the pairs as complex keeps signed zeros; re + 1j*im would not
    pairs = np.ascontiguousarray(pairs, dtype=np.float64)
    return pairs.view(np.complex128)[..., 0]


def pairs_to_vector(entries, field: str) -> np.ndarray:
    matrix = pairs_to_matrix([entries], field)
    return matrix[0]


def _require(data: dict, field: str):
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    if field not in data:
        raise ValueError(f"missing field {field!r}")
    return data[field]


def _positive_int(data: dict, field: str) -> int:
    value = _require(data, field)
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"field {field!r}: expected a positive integer, got {value!r}")
    return value


def _seed(data: dict) -> int:
    """The 'seed' field, refused unless an int that as_rng_spec accepts."""
    value = _require(data, "seed")
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value < 2**64:
        raise ValueError(f"field 'seed': expected an integer in [0, 2**64), got {value!r}")
    return value


def _finite_float(data: dict, field: str) -> float:
    value = _require(data, field)
    # a JSON true is a bool, not a number; an int past float range overflows
    try:
        finite = type(value) in (int, float) and math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(f"field {field!r}: expected a finite number, got {value!r}")
    return float(value)


def channel_to_dict(ch: QuantumChannel) -> dict:
    return {
        "dim_in": ch.dim_in,
        "dim_out": ch.dim_out,
        "kraus": [np.asarray(op, dtype=np.complex128) for op in ch.kraus],
    }


def channel_from_dict(data: dict) -> QuantumChannel:
    dim_in = _positive_int(data, "dim_in")
    dim_out = _positive_int(data, "dim_out")
    raw = _require(data, "kraus")
    if not isinstance(raw, list) or not raw:
        raise ValueError("field 'kraus': expected a non-empty list of matrices")
    ops = []
    for i, entry in enumerate(raw):
        if isinstance(raw, _DecodedKraus) and isinstance(entry, np.ndarray):
            op = entry
        else:
            op = pairs_to_matrix(entry, f"kraus[{i}]")
        if op.shape != (dim_out, dim_in):
            raise ValueError(
                f"field 'kraus[{i}]': expected shape {dim_out}x{dim_in}, got "
                f"{op.shape[0]}x{op.shape[1]}"
            )
        ops.append(op)
    return QuantumChannel(dim_in=dim_in, dim_out=dim_out, kraus=tuple(ops))


def choi_to_dict(choi: ChoiMatrix) -> dict:
    return {
        "dim_in": choi.dim_in,
        "dim_out": choi.dim_out,
        "choi": np.asarray(choi.matrix, dtype=np.complex128),
    }


def choi_from_dict(data: dict) -> ChoiMatrix:
    dim_in = _positive_int(data, "dim_in")
    dim_out = _positive_int(data, "dim_out")
    matrix = pairs_to_matrix(_require(data, "choi"), "choi")
    n = dim_in * dim_out
    if matrix.shape != (n, n):
        raise ValueError(
            f"field 'choi': expected shape {n}x{n}, got {matrix.shape[0]}x{matrix.shape[1]}"
        )
    return ChoiMatrix(dim_in=dim_in, dim_out=dim_out, matrix=matrix)


# the JSON decoder json.loads uses, and the whitespace its scanner skips
_DECODER = json.JSONDecoder()
_SPACE = re.compile(r"[ \t\n\r]*")


class _DecodedKraus(list):
    """A 'kraus' list read an entry at a time: each entry is pairs_to_matrix's
    matrix, or the decoded entry itself where pairs_to_matrix refused it."""


def _kraus_entries(text: str, i: int) -> tuple:
    # text[i] opens the list. Each entry is converted before the next is
    # decoded, so the decoded lists of one operator at a time are alive.
    ops = _DecodedKraus()
    i = _SPACE.match(text, i + 1).end()
    if text.startswith("]", i):
        return ops, i + 1
    while True:
        entry, i = _DECODER.raw_decode(text, i)
        try:
            entry = pairs_to_matrix(entry, f"kraus[{len(ops)}]")
        except ValueError:
            pass  # channel_from_dict refuses it in its turn, after the dims
        ops.append(entry)
        i = _SPACE.match(text, i).end()
        if text.startswith("]", i):
            return ops, i + 1
        if not text.startswith(",", i):
            raise ValueError("expected ',' or ']'")
        i = _SPACE.match(text, i + 1).end()


def _operator_fields(text: str) -> dict:
    """The JSON object text holds, its list-valued 'kraus' field read an
    operator at a time; ValueError if text is not one JSON object.

    Other values are decoded whole by json's own scanner, keys in file
    order, a repeated key's last value winning, as json.loads gives them.
    """
    i = _SPACE.match(text).end()
    if not text.startswith("{", i):
        raise ValueError("not an object")
    data = {}
    i = _SPACE.match(text, i + 1).end()
    closed = text.startswith("}", i)
    while not closed:
        if not text.startswith('"', i):
            raise ValueError("expected a key")
        key, i = _DECODER.raw_decode(text, i)
        i = _SPACE.match(text, i).end()
        if not text.startswith(":", i):
            raise ValueError("expected ':'")
        i = _SPACE.match(text, i + 1).end()
        if key == "kraus" and text.startswith("[", i):
            data[key], i = _kraus_entries(text, i)
        else:
            data[key], i = _DECODER.raw_decode(text, i)
        i = _SPACE.match(text, i).end()
        closed = text.startswith("}", i)
        if not closed:
            if not text.startswith(",", i):
                raise ValueError("expected ',' or '}'")
            i = _SPACE.match(text, i + 1).end()
    if _SPACE.match(text, i + 1).end() != len(text):
        raise ValueError("extra data")
    return data


def load_operator(path) -> QuantumChannel | ChoiMatrix:
    """Read a channel file in either Kraus or Choi form.

    A Kraus file's 'kraus' list is decoded one operator at a time, each
    converted to its matrix before the next is decoded, with the cyclic GC
    paused (decoded JSON holds no cycles): a rank-r file never holds more
    than one operator's decoded lists. The tokens go through json.loads's
    own scanner, so every matrix has the bits json.loads would give.
    Text that is not one JSON object is decoded whole by json.loads, so a
    malformed file is refused with the message it gives.
    """
    text = _read_text(path)
    enabled = gc.isenabled()
    gc.disable()
    try:
        data = _operator_fields(text)
    except ValueError:
        data = None  # decoded whole below, as json.loads decodes any text
    finally:
        if enabled:
            gc.enable()
    if data is None:
        data = _loads(text, path)
    if isinstance(data, dict) and "kraus" in data:
        return channel_from_dict(data)
    if isinstance(data, dict) and "choi" in data:
        return choi_from_dict(data)
    raise ValueError(f"{path}: neither 'kraus' nor 'choi' field present")


def load_channel(path) -> QuantumChannel:
    """Read a channel file, extracting Kraus operators if stored as Choi."""
    obj = load_operator(path)
    if isinstance(obj, ChoiMatrix):
        return kraus_from_choi(obj)
    return obj


def unitary_from_dict(data: dict) -> np.ndarray:
    m = pairs_to_matrix(_require(data, "unitary"), "unitary")
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"field 'unitary': expected a square matrix, got {m.shape}")
    return m


def state_from_dict(data: dict) -> np.ndarray:
    v = pairs_to_vector(_require(data, "state"), "state")
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"field 'state': norm {norm:.12g} is not 1")
    return v


def net_from_dict(data: dict) -> StateNet:
    d = _positive_int(data, "d")
    epsilon = _finite_float(data, "epsilon")
    metric_id = _require(data, "metric_id")
    if metric_id != "euclidean":
        raise ValueError(f"field 'metric_id': unknown metric {metric_id!r}")
    raw = _require(data, "states")
    if not isinstance(raw, list) or not raw:
        raise ValueError("field 'states': expected a non-empty list")
    try:
        states = pairs_to_matrix(raw, "states")
    except ValueError:
        states = None
    if states is None or states.shape[1] != d:
        # a state of the wrong length or form: name the first one
        for i, entry in enumerate(raw):
            v = pairs_to_vector(entry, f"states[{i}]")
            if len(v) != d:
                raise ValueError(f"field 'states[{i}]': expected length {d}, got {len(v)}")
    off_unit = np.flatnonzero(np.abs(np.linalg.norm(states, axis=1) - 1.0) > 1e-12)
    if len(off_unit):
        raise ValueError(f"field 'states[{off_unit[0]}]': not a unit vector")
    return StateNet(
        d=d,
        epsilon=epsilon,
        metric_id=metric_id,
        states=states,
        coverage_confidence=_finite_float(data, "coverage_confidence"),
        seed=_seed(data),
    )


def write_csv(path, rows, columns) -> None:
    """Write dict rows in a fixed column order with deterministic floats."""
    def cell(value) -> str:
        return value if isinstance(value, str) else dumps_canonical(value)

    lines = [",".join(columns)]
    lines += [",".join(cell(row[c]) for c in columns) for row in rows]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
