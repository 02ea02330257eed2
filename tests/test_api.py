"""Guards on the public surface: exported names and benchmark layers.

`perfbench/spans.py::LAYERS` traces each layer by replacing a module
attribute, so a renamed or removed attribute would make that layer's
metric read 0 instead of failing.  These tests read perfbench; they do
not change it.
"""

import importlib

import numpy as np
import pytest
from perfbench import spans
from plprobe import pde, recovery

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


def test_benchmark_reads_solve_result():
    # layer_metrics reads energy_history, eps_final_abs and field.ncomp
    grid = pde.build_grid(pde.Rectangle(half_width=0.5, height=0.5), 16)
    datum = pde.PField.from_function(
        grid, lambda x: np.exp(3.0 * (1j * x[:, 0] - x[:, 1])), "complex")
    tracer = spans.Tracer()
    with tracer.installed():
        sol = pde.solve_dirichlet(grid, pde.ConductivityField.constant(1.0),
                                  3.0, datum, pde.SolverSettings(init="zero"))
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["pde.newton_steps"] == len(sol.energy_history) > 0
    assert metrics["pde.newton_steps_before_final_eps"] == 0
    assert metrics["pde.free_dofs"] == int((~grid.boundary).sum()) * 2


def test_benchmark_traces_the_recovery_grid():
    # recover_boundary_value must look probe_window_grid up at call time
    tracer = spans.Tracer()
    with tracer.installed():
        rep = recovery.recover_boundary_value(
            pde.ConductivityField.constant(1.0), 3.0, "complex", [4])
    assert rep.rows[0].ok
    grids = [s for s in tracer.spans if s.name == "recovery.probe_window_grid"]
    assert len(grids) == 1
