"""Deterministic JSON and CSV serialization, streamed both ways.

Floats are written with 17 significant digits, which round-trips IEEE
doubles exactly, so re-reading an artifact reproduces bit-identical
numbers and identical inputs produce byte-identical files. Complex
matrices are stored row-major as [re, im] pairs. They stay numpy arrays
until bytes are produced, with the bytes the nested pair lists give, a
Kraus set as one (rank, dim_out, dim_in) array. A result record (a
dataclass instance) is written as a JSON object of its fields in
declaration order, so the dataclass is the one statement of its
artifact's keys.

No path holds a whole channel file's text. write_json and write_csv write
to the open file as they encode, a complex array _CHUNK_PAIRS pairs at a
time. A first pass that writes nothing refuses what the encoder refuses
(a non-finite float, a non-string key, an unknown type) before the file
is opened, so a failed encode leaves no file and an existing file keeps
its bytes. load_operator reads _PIECE characters at a time and parses
the top-level object through json's own scanner, so every number has the
bits json.loads gives it. Every matrix, each Kraus operator and a Choi
matrix alike, is decoded a row at a time into an array allocated from
its first row's width: square, doubled for a taller operator, trimmed
for a wider one; the first Kraus operator sizes the set's one array, into
which the others are decoded. A file the streamed read does not take is
re-read whole by json.loads, so every refusal keeps its message; a matrix over the
dense-operator budget is refused at once. Unitary, state and net files
are small and decoded whole.

canonical_hash digests the same canonical JSON, except that each complex
array stands as {"dtype":"complex128","shape":[...],"sha256":"<hex>"},
the hex being the sha256 of its C-order little-endian complex128 bytes:
an array is hashed at the cost of its bytes, not of its decimal text.

Channel, state and net files must hold finite numbers. JSON readers
accept NaN and Infinity tokens, so a non-finite entry is refused at read
time with a ValueError naming the field and the entry.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import re
from typing import NoReturn

import numpy as np

from .channels import ChoiMatrix, QuantumChannel, _OverBudget, _check_budget, kraus_from_choi
from .minimum import StateNet

# How _fmt_float writes an entry of each class, as a template piece: a
# signed zero literally, another integral |x| < 1e17 as "%.1f" (the
# "%.17g" digits and ".0"), anything else as "%.17g".
_ENTRY_PIECES = ("0.0", "-0.0", "%.1f", "%.17g")
# pairs of a complex array formatted and written at a time, in whole rows
_CHUNK_PAIRS = 4096


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    s = format(float(x), ".17g")
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"  # keep the token a float on re-parse
    return s


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


def _write_array(arr: np.ndarray, write) -> None:
    """Write a complex array as nested [re, im] pairs, each entry as
    _fmt_float writes it, _CHUNK_PAIRS pairs (whole rows) at a time."""
    floats = _finite_floats(arr)
    if not arr.size:  # nested empty lists
        return write(json.dumps(np.empty(arr.shape).tolist(), separators=(",", ":")))
    rows = floats.reshape(-1, floats.shape[-1])
    # the brackets a row's last pair closes: its row's, and one for each
    # axis whose span of rows ends there
    ends = np.arange(1, len(rows) + 1)
    closes = np.ones(len(rows), dtype=np.int64)
    for k in range(arr.ndim - 1):
        closes += ends % math.prod(arr.shape[k:-1]) == 0
    # a pair's template piece and the separator after it, indexed by
    # 16 * (brackets it closes) + 4 * (class of re) + (class of im)
    lookup = [f"[{real},{imag}]" + "]" * c + "," + "[" * c
              for c in range(arr.ndim + 1) for real in _ENTRY_PIECES for imag in _ENTRY_PIECES]
    step = max(1, _CHUNK_PAIRS // arr.shape[-1])
    write("[" * arr.ndim)
    for start in range(0, len(rows), step):
        chunk = rows[start : start + step]
        # "%.17g" writes an integral |x| < 1e17 as a bare integer, so each
        # entry's piece follows its class; the zeros are written literally
        zero = chunk == 0
        integral = (np.trunc(chunk) == chunk) & (np.abs(chunk) < 1e17)
        kind = np.where(zero, np.signbit(chunk), np.where(integral, 2, 3))
        pair = 4 * kind[:, 0::2] + kind[:, 1::2]
        pair[:, -1] += 16 * closes[start : start + step]
        template = "".join([lookup[i] for i in pair.ravel().tolist()])
        if start + step >= len(rows):
            template = template[: -(arr.ndim + 1)]  # no separator after the last pair
        write(template % tuple(chunk[~zero].tolist()))


def _array_digest(arr: np.ndarray) -> str:
    """The canonical JSON that stands for a complex array in canonical_hash."""
    digest = hashlib.sha256(_finite_floats(arr)).hexdigest()
    shape = ",".join(str(n) for n in arr.shape)
    return f'{{"dtype":"complex128","shape":[{shape}],"sha256":"{digest}"}}'


def _emit(obj, write, array) -> None:
    # write: takes the text a piece at a time; array(arr, write) writes a
    # complex ndarray
    if obj is None:
        write("null")
    elif isinstance(obj, bool):
        write("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        write(_fmt_float(float(obj)))
    elif isinstance(obj, str):
        write(json.dumps(obj))
    elif isinstance(obj, np.ndarray) and obj.dtype.kind == "c":
        array(obj, write)
    elif isinstance(obj, (list, tuple)):
        write("[")
        for i, item in enumerate(obj):
            if i:
                write(",")
            _emit(item, write, array)
        write("]")
    elif isinstance(obj, dict):
        write("{")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be strings, got {key!r}")
            if i:
                write(",")
            write(json.dumps(key) + ":")
            _emit(value, write, array)
        write("}")
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        # the field order is the artifact's key order
        fields = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
        _emit(fields, write, array)
    else:
        raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: fixed float format, insertion-ordered keys.

    A complex numpy array is written as nested [re, im] pairs, byte for byte
    as the equivalent nested lists of floats; a dataclass instance as an
    object of its fields in declaration order.
    """
    out: list = []
    _emit(obj, out.append, _write_array)
    return "".join(out)


def canonical_hash(obj) -> str:
    """sha256 of the canonical JSON, as a hex digest.

    Each complex numpy array enters as {"dtype":"complex128","shape":[...],
    "sha256":"<hex of its C-order little-endian bytes>"}, so its layout,
    byte order and decimal text do not matter, and a signed zero does.
    """
    out: list = []
    _emit(obj, out.append, lambda arr, write: write(_array_digest(arr)))
    return hashlib.sha256("".join(out).encode("utf-8")).hexdigest()


def _check_encodable(obj) -> None:
    """Raise what encoding obj would raise, writing nothing."""
    _emit(obj, lambda text: None, lambda arr, write: _finite_floats(arr))


def write_json(path, obj) -> None:
    """Write obj's canonical JSON text and a newline, streamed to the file."""
    _check_encodable(obj)  # before the file is opened: a failed encode leaves no file
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        _emit(obj, fh.write, _write_array)
        fh.write("\n")


# characters of a file's text read at a time
_PIECE = 2**18


def _read_text(path):
    """The file's UTF-8 text in pieces of _PIECE characters, read as they are taken."""
    with open(path, "r", encoding="utf-8") as fh:
        while piece := fh.read(_PIECE):
            yield piece


def read_json(path):
    try:
        return json.loads("".join(_read_text(path)))
    except json.JSONDecodeError as err:
        raise ValueError(f"malformed JSON in {path}: {err}") from None


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
    return pairs_to_matrix([entries], field)[0]


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
        "kraus": ch.kraus,
    }


def channel_from_dict(data: dict) -> QuantumChannel:
    """A channel from its fields: a 'kraus' list of [re, im] pair matrices,
    stacked once all pass their checks, or load_operator's streamed array."""
    dim_in = _positive_int(data, "dim_in")
    dim_out = _positive_int(data, "dim_out")
    raw = _require(data, "kraus")
    if not isinstance(raw, (list, np.ndarray)) or not len(raw):
        raise ValueError("field 'kraus': expected a non-empty list of matrices")
    streamed = isinstance(raw, np.ndarray)  # its operators have one shape
    ops = []
    for i, entry in enumerate(raw[:1] if streamed else raw):
        op = entry if streamed else pairs_to_matrix(entry, f"kraus[{i}]")
        if op.shape != (dim_out, dim_in):
            raise ValueError(
                f"field 'kraus[{i}]': expected shape {dim_out}x{dim_in}, got "
                f"{op.shape[0]}x{op.shape[1]}"
            )
        ops.append(op)
    return QuantumChannel(dim_in=dim_in, dim_out=dim_out, kraus=raw if streamed else np.array(ops))


def choi_to_dict(choi: ChoiMatrix) -> dict:
    return {
        "dim_in": choi.dim_in,
        "dim_out": choi.dim_out,
        "choi": np.asarray(choi.matrix, dtype=np.complex128),
    }


def choi_from_dict(data: dict) -> ChoiMatrix:
    """A Choi matrix from [re, im] pair rows, or load_operator's streamed array."""
    dim_in = _positive_int(data, "dim_in")
    dim_out = _positive_int(data, "dim_out")
    matrix = _require(data, "choi")
    if not isinstance(matrix, np.ndarray):
        matrix = pairs_to_matrix(matrix, "choi")
    n = dim_in * dim_out
    if matrix.shape != (n, n):
        raise ValueError(
            f"field 'choi': expected shape {n}x{n}, got {matrix.shape[0]}x{matrix.shape[1]}"
        )
    return ChoiMatrix(dim_in=dim_in, dim_out=dim_out, matrix=matrix)


# the decoder json.loads uses, the whitespace its scanner skips, and the
# characters that may go on a number
_DECODER = json.JSONDecoder()
_SPACE = re.compile(r"[ \t\n\r]*")
_NUMBER_TAIL = re.compile(r"[-+.0-9eE]*")


class _Window:
    """The unread front of a file's text, read on as far as a value needs."""

    text, i, ended, last = "", 0, False, 0  # text[:i] is parsed; last: the last value's length

    def __init__(self, pieces):
        self.pieces = pieces

    def _fill(self, size: int) -> None:
        # drop the parsed text, then read on until size characters are unread
        text, self.text, self.i = self.text[self.i :], "", 0
        while len(text) < size and not self.ended:
            piece = next(self.pieces, "")
            self.ended = not piece
            text += piece
        self.text = text

    def peek(self) -> str:
        """The next character after whitespace; "" at the end of the text."""
        self.i = _SPACE.match(self.text, self.i).end()
        while self.i == len(self.text) and not self.ended:
            self._fill(1)
            self.i = _SPACE.match(self.text).end()
        return self.text[self.i : self.i + 1]

    def take(self, char: str) -> bool:
        found = self.peek() == char
        self.i += found
        return found

    def expect(self, char: str) -> None:
        if not self.take(char):
            raise ValueError(f"expected {char!r}")

    def value(self):
        """The JSON value at the front, decoded once its text is all read."""
        self.peek()
        if len(self.text) - self.i < self.last:
            self._fill(self.last)  # values come in runs of one size: a matrix's rows
        while True:
            try:
                obj, end = _DECODER.raw_decode(self.text, self.i)
            except json.JSONDecodeError:
                if self.ended:
                    raise
                end = len(self.text)  # not whole yet: read on
            # a number may go on in the next piece
            if self.ended or _NUMBER_TAIL.match(self.text, end).end() < len(self.text):
                self.last, self.i = end - self.i, end
                if 2 * end > len(self.text):
                    self._fill(0)  # free the parsed text while obj is converted
                return obj
            self._fill(16 * (len(self.text) - self.i) + 1)


def _streamed_matrix(win: _Window, field: str, height=None, out=None) -> np.ndarray:
    # each row is decoded into a matrix allocated once the first gives its
    # width: min(height, width) rows for a positive int height, else square;
    # then doubled (budget first) or trimmed to the rows read. Given out, the
    # rows fill it in its place, and it grows or is trimmed like any other.
    what = "Choi matrix" if field == "choi" else f"{field} operator"
    win.expect("[")
    row = pairs_to_vector(win.value(), field)
    if out is None:
        width = len(row)
        height = min(height, width) if type(height) is int and height > 0 else width
        _check_budget(16 * height * width, f"{height}x{width} {what}")
        out = np.empty((height, width), dtype=np.complex128)
    matrix, width, rows = out, out.shape[1], 0
    while True:
        if row.shape != (width,):
            raise ValueError("ragged rows")
        if rows == len(matrix):
            _check_budget(32 * rows * width, f"{2 * rows}x{width} {what}")
            matrix = np.resize(matrix, (2 * rows, width))
        matrix[rows] = row
        rows += 1
        if win.take("]"):
            return matrix if rows == len(matrix) else matrix[:rows].copy()
        win.expect(",")
        row = pairs_to_vector(win.value(), field)


def _streamed_kraus(win: _Window, field: str, dim_out=None):
    # one (rank, h, w) array, its shape from the first operator (a dim_out
    # read before the list is its first height), the rest decoded into it
    # as it doubles in place, then trimmed; an operator of another shape is
    # refused, for the whole-text read to name. An empty list stays a list.
    win.expect("[")
    if win.take("]"):
        return []
    ops = _streamed_matrix(win, f"{field}[0]", dim_out)[None].copy()
    rank = 1
    while not win.take("]"):
        win.expect(",")
        if rank == len(ops):  # no view of ops is alive here
            ops.resize((2 * rank, *ops.shape[1:]), refcheck=False)
        if _streamed_matrix(win, f"{field}[{rank}]", None, ops[rank]).base is not ops:
            raise ValueError("ragged rows")  # not in its slot: it grew or was trimmed
        rank += 1
    ops.resize((rank, *ops.shape[1:]), refcheck=False)
    return ops


def _streamed_fields(pieces) -> dict:
    """A channel file's JSON object, 'kraus' and 'choi' converted as decoded."""
    win = _Window(pieces)
    win.expect("{")
    data = {}
    while not win.take("}"):
        if data:
            win.expect(",")
        if win.peek() != '"':
            raise ValueError("expected a key")
        key = win.value()
        win.expect(":")
        if key == "kraus":
            data[key] = _streamed_kraus(win, key, data.get("dim_out"))
        else:
            data[key] = _streamed_matrix(win, key) if key == "choi" else win.value()
    if win.peek():
        raise ValueError("extra data")
    return data


def load_operator(path) -> QuantumChannel | ChoiMatrix:
    """Read a channel file in either Kraus or Choi form, streamed as the module
    docstring says; a file the streamed read refuses, but for the budget, goes
    through read_json."""
    try:
        with contextlib.closing(_read_text(path)) as pieces:
            data = _streamed_fields(pieces)
    except _OverBudget:
        raise
    except ValueError:
        data = read_json(path)
    if isinstance(data, dict) and "kraus" in data:
        return channel_from_dict(data)
    if isinstance(data, dict) and "choi" in data:
        return choi_from_dict(data)
    raise ValueError(f"{path}: neither 'kraus' nor 'choi' field present")


def load_channel(path) -> QuantumChannel:
    """Read a channel file, extracting Kraus operators if stored as Choi."""
    obj = load_operator(path)
    return kraus_from_choi(obj) if isinstance(obj, ChoiMatrix) else obj


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
    """Write dict rows in a fixed column order with deterministic floats, a line at a time."""
    def cell(value) -> str:
        return value if isinstance(value, str) else dumps_canonical(value)

    table = [[row[c] for c in columns] for row in rows]
    _check_encodable(table)  # before the file is opened, as in write_json
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for cells in table:
            fh.write(",".join(cell(value) for value in cells) + "\n")
