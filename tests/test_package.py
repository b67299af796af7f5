"""The package's public names, and the functions the benchmark's per-layer metrics time."""

import importlib
import inspect
import json
from pathlib import Path

import pytest

import thermometry

LAYERS = ["bounds", "estimation", "fisher", "montecarlo", "thermal"]
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


@pytest.mark.parametrize("layer", LAYERS)
def test_package_republishes_each_layer_api(layer):
    module = importlib.import_module(f"thermometry.{layer}")
    for name in module.__all__:
        assert getattr(thermometry, name) is getattr(module, name), name


def test_no_two_layers_export_one_name():
    modules = [importlib.import_module(f"thermometry.{layer}") for layer in LAYERS]
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names))


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
