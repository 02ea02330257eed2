"""Guards on the public surface: exported names and benchmark layers.

`perfbench/spans.py::LAYERS` traces each layer by replacing a module
attribute, so a renamed or removed attribute would make that layer's
metric read 0 instead of failing.  These tests read perfbench; they do
not change it.
"""

import importlib

import pytest
from perfbench import spans

MODULES = ("vecp", "special", "pde", "dnmap", "recovery", "config")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"plprobe.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert module.__all__ and missing == []


def test_benchmark_layers_are_callable_attributes():
    assert spans.LAYERS
    for _, module, attr in spans.LAYERS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
