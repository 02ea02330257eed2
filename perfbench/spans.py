"""Spans around the calls into plprobe's public functions.

A `Tracer` replaces a module attribute by a wrapper that records a span
(name, start, end, parent span, operation id) and calls the original.  The
table `LAYERS` names every attribute through which the workloads reach a
layer, so the program's own code is not changed: `cli` and `recovery` look
these names up at call time.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np
from plprobe import dnmap, pde, recovery, special

# (span name, module, attribute): every place a workload reaches the layer.
LAYERS = (
    ("pde.solve_dirichlet", pde, "solve_dirichlet"),
    ("pde.solve_dirichlet", recovery, "solve_dirichlet"),
    ("recovery.probe_window_grid", recovery, "probe_window_grid"),
    ("recovery.build_probe", recovery, "build_probe"),
    ("recovery.remainder_split", recovery, "remainder_split"),
    ("recovery.quadrature_limit", recovery, "quadrature_limit"),
    ("dnmap.flux_pairing", dnmap, "flux_pairing"),
    ("dnmap.flux_pairing", recovery, "flux_pairing"),
    ("special.solve_wolff_profile", special, "solve_wolff_profile"),
)
LAYER_NAMES = tuple(dict.fromkeys(name for name, _, _ in LAYERS))
SOLVE = "pde.solve_dirichlet"
PER_LAYER_UNITS = {
    **{f"{name}_s": "s" for name in LAYER_NAMES},
    "pde.step_s": "s", "pde.newton_steps": "count",
    "pde.newton_steps_before_final_eps": "count", "pde.free_dofs": "count",
    "pde.hessian_nnz": "count-computed", "trace_overhead_s": "s",
}


class Span:
    __slots__ = ("name", "op", "parent", "start", "end", "solve")

    def __init__(self, name, op, parent, start):
        self.name, self.op, self.parent, self.start = name, op, parent, start
        self.end = None
        self.solve = None  # (grid, SolveResult) of a solve that returned

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self, index: int) -> dict:
        return {"id": index, "name": self.name, "op": self.op,
                "parent": self.parent, "start": self.start, "end": self.end}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = None

    @contextlib.contextmanager
    def _span(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self._op, parent, time.perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self._span(name) as span:
                result = fn(*args, **kwargs)
            if name == SOLVE:
                span.solve = (args[0], result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap every attribute of LAYERS for its traced wrapper."""
        saved = [(module, attr, getattr(module, attr)) for _, module, attr in LAYERS]
        try:
            for (name, module, attr), (_, _, fn) in zip(LAYERS, saved):
                setattr(module, attr, self._wrap(name, fn))
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    @contextlib.contextmanager
    def operation(self, label: str):
        """A root span for one benchmark operation; its index is the op id."""
        with self._span(label) as span:
            span.op = self._op = len(self.spans) - 1
            try:
                yield
            finally:
                self._op = None


def free_hessian_nnz(tri: np.ndarray, free: np.ndarray, ncomp: int) -> int:
    """Structural nonzeros of the Newton matrix restricted to free dofs:
    node pairs that share a triangle, both free, times ncomp^2 blocks."""
    npt = free.size
    rows = np.repeat(tri, 3, axis=1).ravel().astype(np.int64)
    cols = np.tile(tri, (1, 3)).ravel().astype(np.int64)
    keep = free[rows] & free[cols]
    return int(np.unique(rows[keep] * npt + cols[keep]).size) * ncomp * ncomp


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer figures of one traced round; `trace_overhead_s` is added
    by the runner, which alone sees the untraced rounds."""
    out = {f"{name}_s": 0.0 for name in LAYER_NAMES}
    for span in spans:
        if span.name in LAYER_NAMES:
            out[f"{span.name}_s"] += span.seconds
    solves = [s for s in spans if s.solve is not None]
    steps = before_final = 0
    for s in solves:
        result = s.solve[1]
        steps += len(result.energy_history)
        before_final += sum(1 for eps, _, _ in result.energy_history
                            if eps != result.eps_final_abs)
    out["pde.newton_steps"] = steps
    out["pde.newton_steps_before_final_eps"] = before_final
    out["pde.step_s"] = out["pde.free_dofs"] = out["pde.hessian_nnz"] = 0
    if solves:
        def free_dofs(s):
            grid, result = s.solve
            return int((~grid.boundary).sum()) * result.field.ncomp
        largest = max(solves, key=free_dofs)  # first of the largest on ties
        grid, result = largest.solve
        out["pde.step_s"] = largest.seconds / len(result.energy_history)
        out["pde.free_dofs"] = free_dofs(largest)
        out["pde.hessian_nnz"] = free_hessian_nnz(grid.tri, ~grid.boundary,
                                                  result.field.ncomp)
    return out
