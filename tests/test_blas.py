import ctypes
import glob
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gatefid import _blas
from gatefid.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def _openblas_call(symbol: str):
    for path in sorted(glob.glob(_blas._LIB_GLOB)):
        fn = getattr(ctypes.CDLL(path), symbol, None)
        if fn is not None:
            return fn
    pytest.skip(f"numpy's OpenBLAS does not export {symbol}")


def _thread_getter():
    get = _openblas_call("scipy_openblas_get_num_threads64_")
    get.argtypes = []
    get.restype = ctypes.c_int
    return get


def test_main_pins_one_blas_thread(tmp_path):
    assert main(["bounds", "levy", "--d", "8", "--eps", "0.1",
                 "--out", str(tmp_path / "l.json")]) == 0
    assert _thread_getter()() == 1


def test_pin_without_the_library_is_a_no_op(tmp_path, monkeypatch):
    get_threads = _thread_getter()
    set_threads = _openblas_call(_blas._SET_THREADS)
    set_threads.argtypes = [ctypes.c_int]
    set_threads.restype = None
    set_threads(2)
    before = get_threads()
    monkeypatch.setattr(_blas, "_LIB_GLOB", str(tmp_path / "*.so"))
    _blas.pin_single_thread.cache_clear()
    try:
        assert _blas.pin_single_thread() is False
        assert get_threads() == before
    finally:
        monkeypatch.undo()
        _blas.pin_single_thread.cache_clear()
        _blas.pin_single_thread()


def _artifact_hashes(tmp_path: Path, blas_threads: int) -> dict:
    out = tmp_path / f"blas{blas_threads}"
    out.mkdir()
    commands = {
        "report.csv": ["report", "convergence", "--d-list", "2,16,64,128", "--n", "20000"],
        "twin.json": ["nonuniq", "construct", "--d", "16", "--p", "0.5", "--seed", "7"],
    }
    script = "from gatefid.cli import main\n" + "".join(
        f"assert main({argv + ['--out', str(out / name)]!r}) == 0\n"
        for name, argv in commands.items()
    )
    env = {k: v for k, v in os.environ.items() if k not in ("GATEFID_SEED", "OMP_NUM_THREADS")}
    env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    env["PYTHONPATH"] = str(SRC)
    subprocess.run([sys.executable, "-c", script], env=env, check=True,
                   capture_output=True, timeout=300)
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in commands}


def test_artifact_bytes_do_not_depend_on_blas_threads(tmp_path):
    assert _artifact_hashes(tmp_path, 1) == _artifact_hashes(tmp_path, 2)
