"""Guards on the public surface: exported names, benchmark layers,
defaulted parameters and defaulted dataclass fields.

`perfbench/spans.py::LAYERS` traces each layer by replacing a module
attribute, so a renamed or removed attribute would make that layer's
metric read 0 instead of failing.  These tests read perfbench; they do
not change it.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest
from perfbench import spans
from plprobe import config, pde, recovery

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
    # recover_boundary_value must look its layers up at call time, at both
    # grid levels of a two-level row
    gamma = pde.ConductivityField.constant(1.0)
    family = recovery.ProbeSpec(mode="complex", p=3.0, M=4.0)
    tracer = spans.Tracer()
    with tracer.installed():
        rep = recovery.recover_boundary_value(gamma, family, [4])
    assert rep.rows[0].ok
    grids = [s for s in tracer.spans if s.name == "recovery.probe_window_grid"]
    assert len(grids) == 1

    # complex p = 3 at M = 8 starts from the half-resolution solve
    tracer = spans.Tracer()
    with tracer.installed():
        rep = recovery.recover_boundary_value(gamma, family, [8])
    assert rep.rows[0].ok

    def named(name):
        return [s for s in tracer.spans if s.name == name]

    assert len(named("recovery.probe_window_grid")) == 2
    assert len(named("recovery.build_probe")) == 2
    coarse, full = (s.solve[0].nx for s in named("pde.solve_dirichlet"))
    assert coarse == full // 2
    assert len(named("dnmap.flux_pairing")) == 1
    assert len(named("recovery.remainder_split")) == 1


def test_recovery_takes_the_probe_family_as_one_spec():
    # the family's fields live in ProbeSpec alone; the driver restates none
    fields = {f.name for f in dataclasses.fields(recovery.ProbeSpec)}
    params = set(inspect.signature(recovery.recover_boundary_value).parameters)
    assert "spec" in params and len(params) <= 6
    assert params & fields == set()


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


def _parse(directory):
    return [ast.parse(f.read_text()) for f in sorted(directory.glob("*.py"))]


def test_every_defaulted_parameter_is_set_by_the_program():
    # a default that no call of the package or of the benchmark overrides is
    # dead API; calls are matched to definitions by name
    src = _parse(ROOT / "src" / "plprobe")
    calls = _calls_by_name(src + _parse(ROOT / "perfbench"))
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
                if not any(_sets(c, positional, param) for c in calls.get(fn.name, [])):
                    unset.append(f"{fn.name}.{param}")
    assert unset == []


def _dataclasses(tree):
    """(name, init fields in order, defaulted init fields) of every
    dataclass in the tree."""
    def name_of(node):
        return getattr(node, "id", None) or getattr(node, "attr", None)

    out = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ClassDef) and any(
                name_of(getattr(d, "func", d)) == "dataclass"
                for d in node.decorator_list)):
            continue
        ordered, defaulted = [], []
        for stmt in node.body:
            if not (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)):
                continue
            value = stmt.value
            if isinstance(value, ast.Call) and name_of(value.func) == "field":
                keywords = {k.arg: k.value for k in value.keywords}
                init = keywords.get("init")
                if isinstance(init, ast.Constant) and init.value is False:
                    continue
                default = "default" in keywords or "default_factory" in keywords
            else:
                default = value is not None
            ordered.append(stmt.target.id)
            if default:
                defaulted.append(stmt.target.id)
        out.append((node.name, ordered, defaulted))
    return out


def _assigned_attributes(trees):
    """Every attribute name assigned to, as in `row.estimate = ...`."""
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AugAssign)
                       else [])
            names.update(t.attr for t in targets if isinstance(t, ast.Attribute))
    return names


def test_every_defaulted_dataclass_field_is_set_by_the_program():
    # a field default that the package and the benchmark never override, by
    # a call of the class (matched by name), a `replace` or an attribute
    # assignment, is dead API.  The config sections are exempt: the config
    # parser builds them from the keys of the config file.
    src = _parse(ROOT / "src" / "plprobe")
    program = src + _parse(ROOT / "perfbench")
    calls = _calls_by_name(program)
    assigned = _assigned_attributes(program)
    sections = {cls.__name__ for cls in config._SECTIONS.values()}
    unset = []
    for tree in src:
        for name, ordered, defaulted in _dataclasses(tree):
            if name in sections:
                continue
            for fld in defaulted:
                set_by_program = (
                    fld in assigned
                    or any(_sets(c, ordered, fld) for c in calls.get(name, []))
                    or any(_sets(c, [], fld) for c in calls.get("replace", [])))
                if not set_by_program:
                    unset.append(f"{name}.{fld}")
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
