"""Guards on the public surface: exported names, benchmark layers and
defaulted parameters.

`perfbench/spans.py::LAYERS` traces each layer by replacing a module
attribute, so a renamed or removed attribute would make that layer's
metric read 0 instead of failing.  These tests read perfbench; they do
not change it.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest
from perfbench import spans
from plprobe import pde, recovery

MODULES = ("vecp", "special", "pde", "dnmap", "recovery", "config")
ROOT = Path(__file__).resolve().parent.parent


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


# Defaulted parameters that only tests set, as "function.parameter".
SET_BY_TESTS_ONLY = {
    "quadrature_limit.tol",
    "solve_wolff_profile.initial_slope",
    "make_complex_exponential.direction",
}


def _function_defs(tree):
    """(FunctionDef, is_method) of every function in the tree; a method's
    first parameter is bound, unless it is a staticmethod."""
    out = []

    def visit(node, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                out.append((child, in_class and not static))
                visit(child, False)
            else:
                visit(child, isinstance(child, ast.ClassDef))

    visit(tree, False)
    return out


def _calls_by_name(trees):
    """Every call in the trees, keyed by the called name or attribute."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _sets(call, positional, param):
    """Whether the call passes `param` by keyword, by position or through
    * or **."""
    return (any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg in (None, param) for k in call.keywords)
            or (param in positional and positional.index(param) < len(call.args)))


def test_every_defaulted_parameter_is_set_by_the_program():
    # a default that no call of the package or of the benchmark overrides is
    # dead API; calls are matched to definitions by name
    def parse(directory):
        return [ast.parse(f.read_text()) for f in sorted(directory.glob("*.py"))]

    src = parse(ROOT / "src" / "plprobe")
    calls = _calls_by_name(src + parse(ROOT / "perfbench"))
    unset = []
    for tree in src:
        for fn, method in _function_defs(tree):
            if fn.name.startswith("__") and fn.name.endswith("__"):
                continue
            args = fn.args
            positional = [a.arg for a in args.posonlyargs + args.args][int(method):]
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            for param in defaulted:
                if f"{fn.name}.{param}" in SET_BY_TESTS_ONLY:
                    continue
                if not any(_sets(c, positional, param) for c in calls.get(fn.name, [])):
                    unset.append(f"{fn.name}.{param}")
    assert unset == []


def test_bincount_only_in_the_free_dof_newton():
    # one element-to-node scatter: the package sums element terms onto nodes
    # only through the slots of pde._FreeDofNewton, which fix the order
    inside, outside = [], []
    for path in sorted((ROOT / "src" / "plprobe").glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.stem == "pde":
            newton = next(node for node in tree.body if isinstance(node, ast.ClassDef)
                          and node.name == "_FreeDofNewton")
            allowed = {id(node) for node in ast.walk(newton)}
        for call in _calls_by_name([tree]).get("bincount", []):
            where = f"{path.name}:{call.lineno}"
            (inside if id(call) in allowed else outside).append(where)
    assert inside and outside == []
