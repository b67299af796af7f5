"""The package's public names, the functions the benchmark's per-layer metrics time, and
the modules a fresh interpreter loads to run each command."""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import thermometry
from _pins import PINS, output_digest, pin_argv

LAYERS = ["bounds", "estimation", "fisher", "montecarlo", "thermal"]
ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"


@pytest.mark.parametrize("layer", LAYERS)
def test_package_republishes_each_layer_api(layer):
    module = importlib.import_module(f"thermometry.{layer}")
    for name in module.__all__:
        assert getattr(thermometry, name) is getattr(module, name), name


def test_no_two_layers_export_one_name():
    modules = [importlib.import_module(f"thermometry.{layer}") for layer in LAYERS]
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names))


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert thermometry.__version__ == project["version"]


def _timed_functions():
    """(layer, function) for every per-layer metric ``<layer>.<fn>.calls|self_s|iterations``."""
    for metric in json.loads(BENCHMARK.read_text())["per_layer"]:
        parts = metric["name"].split(".")
        if len(parts) == 3 and parts[2] in ("calls", "self_s", "iterations"):
            yield parts[0], parts[1]


@pytest.mark.parametrize("layer, name", list(_timed_functions()))
def test_benchmark_metric_times_a_public_function(layer, name):
    # the tracer wraps only functions that a layer's __all__ names and that it defines
    module = importlib.import_module(f"thermometry.{layer}")
    assert name in module.__all__
    fn = getattr(module, name)
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__


# Runs a list of argv lists through cli.main in a fresh interpreter, with every scipy
# import failing if the second argument is "block". Prints, as JSON, each run's
# (exit code, stdout) and the scipy modules loaded after the last run.
COLD_START = """
import contextlib, io, json, sys
if sys.argv[2] == "block":
    sys.modules["scipy"] = None  # importing scipy or any submodule raises ImportError
from thermometry import cli

def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()

runs = [run(argv) for argv in json.loads(sys.argv[1])]
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"runs": runs, "scipy": scipy}))
"""


def _cold_start(argvs: list, scipy: str) -> dict:
    env = dict(os.environ)
    src = str(Path(thermometry.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, json.dumps(argvs), scipy],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    return json.loads(proc.stdout)


def test_no_command_imports_scipy(tmp_path):
    # every pinned command, in one fresh interpreter: none loads scipy, and each prints the
    # pinned bytes, also where importing scipy fails
    argvs = [pin_argv(pin, tmp_path) for pin in PINS]
    loaded = _cold_start(argvs, "load")
    assert loaded["scipy"] == []
    blocked = _cold_start(argvs, "block")
    for scipy, cold in (("load", loaded), ("block", blocked)):
        for pin, (code, out) in zip(PINS, cold["runs"], strict=True):
            assert (code, output_digest(out)) == (0, pin.digest), (scipy, pin.id)
