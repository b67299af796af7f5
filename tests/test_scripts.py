"""Smoke tests: each experiment script runs at its defaults and shows what its docstring says."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name):
    """Rows of the script's CSV output, as dicts of floats."""
    proc = subprocess.run([sys.executable, str(SCRIPTS / name)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    header, *rows = [line for line in proc.stdout.splitlines() if not line.startswith("#")]
    return [dict(zip(header.split(","), map(float, row.split(",")))) for row in rows]


def test_tune_gap_demo_floor_is_a_constant_times_T2():
    rows = run_script("tune_gap_demo.py")
    assert len(rows) == 13  # T from 1e-3 to 1e3, two points per decade
    for row in rows:
        assert row["bound_over_T2"] == pytest.approx(2.2767175312280727, rel=1e-9)


def test_sweep_threshold_follows_the_divergence_law():
    rows = run_script("sweep_threshold.py")
    factors = [row["divergence_factor"] for row in rows]
    assert all(a > b > 1.0 for a, b in zip(factors, factors[1:]))
    assert factors[-1] == pytest.approx(1.0, abs=1e-4)
    best = min(rows, key=lambda row: row["crb_over_T2"])
    assert best is min(rows, key=lambda row: abs(row["x"] - 2.4))
