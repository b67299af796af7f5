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
from thermometry.cli import main

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


# Runs batches of argv lists through cli.main in a fresh interpreter, with every scipy
# import failing if the second argument is "block". Prints, as JSON, each run's
# (exit code, stdout) and the scipy modules loaded after each batch.
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

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

result = []
for batch in json.loads(sys.argv[1]):
    result.append({"runs": [run(argv) for argv in batch], "scipy": scipy_modules()})
print(json.dumps(result))
"""


def _write(path: Path, data) -> str:
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _cold_start(batches: list, scipy: str) -> list[dict]:
    env = dict(os.environ)
    src = str(Path(thermometry.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, json.dumps(batches), scipy],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    return json.loads(proc.stdout)


def test_no_command_imports_scipy(tmp_path, capsys):
    config = json.loads((ROOT / "configs" / "saturation_x24.cfg").read_text(encoding="utf-8"))
    config["trials"] = 200
    cfg = _write(tmp_path / "config.json", config)
    spectrum = _write(tmp_path / "qubit.json",
                      {"label": "qubit", "levels": [{"energy": 0.0}, {"energy": 1.0}]})
    sample = _write(tmp_path / "sample.json", {"spectrum_label": "qubit", "counts": [731, 269]})
    linear = _write(tmp_path / "linear.json", {"kind": "linear", "slope": 1.0, "intercept": 0.0,
                                               "lambda_min": 0.01, "lambda_max": 10.0})
    quadratic = _write(tmp_path / "quadratic.json",
                       {"kind": "quadratic", "curvature": 2.0, "center": 1.0, "gap_min": 0.1,
                        "lambda_min": 0.0, "lambda_max": 3.0})
    table = _write(tmp_path / "table.json",
                   {"kind": "table", "points": [[0.0, 0.5], [5.0, 2.4], [10.0, 9.0]]})
    sampling = [
        ["simulate", "--config", cfg],
        ["sweep", "--spectrum", spectrum, "--temperatures", "0.4", "1.0", "-M", "100",
         "-R", "50"],
        ["bound", "--spectrum", spectrum, "-T", "0.4", "-M", "10"],
        ["estimate", "--sample", sample, "--spectrum", spectrum],
        ["estimate", "--sample", sample, "--spectrum", spectrum, "--prior", "0.1", "5",
         "--grid", "256"],
        ["gfun", "--min", "0.5", "--max", "3", "--step", "0.5"],
        ["hfun", "--min", "1", "--max", "3", "--step", "0.5"],
    ]
    analytic = [["minima"]] + [
        ["tune", "--family", family, "-T", "1.0"] for family in (linear, quadratic, table)
    ]
    loaded = _cold_start([sampling, analytic], "load")
    assert [batch["scipy"] for batch in loaded] == [[], []]
    (blocked,) = _cold_start([analytic], "block")
    runs = loaded[0]["runs"] + loaded[1]["runs"] + blocked["runs"]
    for argv, (code, out) in zip(sampling + analytic + analytic, runs):
        assert code == 0 and out, argv
        assert main(argv) == 0 and capsys.readouterr().out == out, argv
