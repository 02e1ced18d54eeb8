"""Each demo script runs to completion against the package in src/, and the
demos that print only exact values print the same bytes as tests/golden/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden"
# bessel_products.py also prints floating-point residuals, so it is left out
EXACT_DEMOS = ["confluent_family", "reduction_walkthrough", "residue_routes"]


def run_demo(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, timeout=120
    )


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_exits_0(demo):
    result = run_demo(demo)
    assert result.returncode == 0, result.stderr.decode()


@pytest.mark.parametrize("name", EXACT_DEMOS)
def test_exact_demo_stdout_bytes(name):
    result = run_demo(ROOT / "demos" / f"{name}.py")
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == (GOLDEN / f"{name}.out").read_bytes()
