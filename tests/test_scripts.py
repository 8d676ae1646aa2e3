"""The experiment and bench scripts under scripts/: each one starts, and the
bench scripts share code only through bench_common."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_help_exits_zero(script):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, str(script), "--help"], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_estimate_minimum_runs():
    # one amplitude-damping channel: the reference descent reaches 1 - gamma
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = ["--gammas", "0.3", "--eps", "0.9", "--starts", "2"]
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "estimate_minimum.py"), *argv],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    header, row = done.stdout.splitlines()[-2:]
    assert header.split()[-1] == "reference"
    assert row.split()[0] == "0.30" and row.split()[-1] == "0.700000"


@pytest.mark.parametrize("script", SCRIPTS, ids=[p.name for p in SCRIPTS])
def test_no_script_imports_another_but_bench_common(script):
    others = {p.stem for p in SCRIPTS} - {"bench_common"}
    imported = set()
    for node in ast.walk(ast.parse(script.read_text())):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.split(".")[0])
    assert not imported & others
