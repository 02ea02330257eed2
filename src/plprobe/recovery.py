"""Boundary-value recovery from localized oscillatory probes.

A probe in the plane at scale M concentrates on B(0, 1/M) around the
base boundary point (normalized to the origin, inward normal e_2) and
oscillates at frequency N = M^s, s > 1, so M/N -> 0.  Normalized so that
its DN self-pairing converges to gamma(0):

    complex mode:  v_M = (M N^(1-p) / c_p)^(1/p) eta_M h_N,
    real mode:     same scaling with the Wolff field e^(-N rho) a(N x_1),

with c_p the mode's normalization constant.  Two independent routes
estimate gamma(0):

* quadrature_limit: grid-free adaptive tensor Gauss quadrature of the
  closed-form probe energy M N^(1-p) int gamma |grad u_0|^p / c_p (no
  PDE); isolates the pure-in-M convergence at machine quadrature accuracy.

* recover_boundary_value: per-M PDE solves with datum v_M and self-pairing
  <L(f_M), f_M>; the correction-decay indicator M N^(1-p)
  ||grad(u - u_0)||_p^p and the leading/remainder split of the pairing
  identity isolate how far the probe is from an exact solution.

The scaled integrands live on y = (M x_1, N rho): boundary layer
e^(-p y_2) times a bounded profile, oscillatory in y_1 only in real mode.
In y_1, Gauss panels are aligned to the cutoff kinks and to half-periods
of the oscillation.  In y_2 the layer takes Gauss panels graded toward the
boundary, or, where it lies deep inside the cutoff's plateau, one
Gauss-Laguerre rule for the weight e^(-p y_2) (`_layer_rule`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import special
from .pde import (ConductivityField, DomainGrid, PField, Rectangle,
                  SolverSettings, SolverConvergenceError, _complex_gradients,
                  _one_openblas_thread, _p_energy, build_grid, solve_dirichlet)
from .dnmap import flux_pairing
from .vecp import _norm_sq, _pow_or_zero

__all__ = [
    "ProbeSpec",
    "UnderResolvedProbeError",
    "GridBudgetError",
    "QuadratureError",
    "build_probe",
    "quadrature_limit",
    "probe_window_grid",
    "RecoveryRow",
    "RecoveryReport",
    "monotone_errors",
    "recover_boundary_value",
    "remainder_split",
]


class UnderResolvedProbeError(ValueError):
    """Grid cannot resolve the probe oscillation or support."""


class GridBudgetError(ValueError):
    """The probe window grid would exceed its node budget."""


class QuadratureError(RuntimeError):
    """Panel refinement failed to converge."""


@dataclass(frozen=True)
class ProbeSpec:
    """Localized probe: mode, exponent, scales and ingredient fields.

    N follows M through N = M^s with s > 1 (so M/N -> 0); the base point
    is the origin of the plane with inward normal e_2.  Real mode needs a
    Wolff profile and a boundary defining function (flat by default).
    Complex mode uses `special.make_complex_exponential`, which oscillates
    along e_1 with |beta|^2 = p - 1.
    """

    mode: str
    p: float
    M: float
    s: float = 2.0
    cutoff: special.CutoffProfile = field(default_factory=special.CutoffProfile)
    profile: special.WolffProfile | None = None
    rho: special.BoundaryDefiningFunction = field(
        default_factory=special.BoundaryDefiningFunction)

    def __post_init__(self):
        if self.mode not in ("complex", "real"):
            raise ValueError(f"unknown probe mode {self.mode!r}")
        if not self.p > 1:
            raise ValueError("p must be > 1")
        if not self.M > 0:
            raise ValueError("M must be positive")
        if not self.s > 1:
            raise ValueError("N-rule exponent s must exceed 1 (M/N must vanish)")
        if self.mode == "real" and self.profile is None:
            raise ValueError("real mode requires a Wolff profile")
        if self.mode == "real" and self.profile.p != self.p:
            raise ValueError("profile exponent does not match the probe exponent")

    @property
    def N(self) -> float:
        return self.M**self.s

    @property
    def wavelength(self) -> float:
        """Oscillation wavelength of the probe along x_1."""
        if self.mode == "complex":
            return 2.0 * math.pi / (self.N * math.sqrt(self.p - 1.0))
        return self.profile.lam / self.N

    def c_p(self) -> float:
        if self.mode == "complex":
            return special.c_p_complex(self.p, self.cutoff)
        return special.c_p_real(self.p, self.cutoff, self.profile)

    def normalization(self) -> float:
        """(M N^(1-p) / c_p)^(1/p): makes the self-pairing -> gamma(0)."""
        return (self.M * self.N ** (1.0 - self.p) / self.c_p()) ** (1.0 / self.p)


def _probe_values(spec: ProbeSpec, pts: np.ndarray) -> np.ndarray:
    eta = special.CutoffField(M=spec.M, profile=spec.cutoff)
    cut = eta.value(pts.T)
    if spec.mode == "complex":
        h = special.make_complex_exponential(spec.p, N=spec.N)
        return cut * h.value(pts)
    fld = special.WolffField(spec.profile, spec.N, spec.rho)
    return cut * fld.value(pts)


def build_probe(spec: ProbeSpec, grid: DomainGrid) -> PField:
    """The normalized probe v_M on the grid nodes: `spec.normalization()`
    times the raw probe eta_M h_N (complex) or eta_M e^(-N rho) a(N x_1)
    (real).

    Preconditions: at least 8 cells per oscillation wavelength and at
    least 8 cells across the support radius 1/M; complex probes require a
    flat bottom boundary.
    """
    if spec.mode == "complex":
        flat = isinstance(grid.shape, Rectangle) and grid.shape.bottom.flat
        if not (flat and spec.rho.flat):
            raise ValueError("complex-mode probes require a flat bottom boundary")
    h = grid.h
    need = []
    if spec.wavelength / h < 8.0 * (1.0 - 1e-9):
        need.append(f"oscillation needs resolution >= {8.0 / spec.wavelength:.0f}")
    if 1.0 / (spec.M * h) < 8.0 * (1.0 - 1e-9):
        need.append(f"support needs resolution >= {8.0 * spec.M:.0f}")
    if need:
        raise UnderResolvedProbeError(
            "under-resolved probe (M = {:g}, N = {:g}): {}".format(
                spec.M, spec.N, "; ".join(need)))

    raw_vals = _probe_values(spec, grid.pts)
    if spec.mode == "real":
        raw_vals = raw_vals.real.astype(np.complex128)
    return PField(values=spec.normalization() * raw_vals, mode=spec.mode)


# ---------------------------------------------------------------------------
# Grid-free quadrature of the probe energy
# ---------------------------------------------------------------------------


# Breaks of the boundary layer in units of 1/p, graded toward 0; the
# e^(-p y) tail beyond 44/p is ~1e-19 of the peak.  Refinement cuts only the
# head, the panels up to 20/p: the tail beyond holds <= e^(-20) of the layer
# weight, and 10-point Gauss on its base panels is exact well below 1e-16
# of the total, so refining it would only add nodes.
_LAYER_HEAD = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0,
                        11.0, 15.0, 20.0])
_LAYER_TAIL = np.array([26.0, 33.0, 44.0])


# Order of the Gauss-Laguerre layer rule.
_LAGUERRE_ORDER = 20


@functools.cache
def _laguerre_rule():
    """Gauss-Laguerre nodes x_k and weights w_k e^(x_k) of order
    `_LAGUERRE_ORDER` for int_0^oo f(t) dt, built once, on first use."""
    x, w = np.polynomial.laguerre.laggauss(_LAGUERRE_ORDER)
    return x, w * np.exp(x)


def _layer_rule(spec: ProbeSpec, level: int):
    """Nodes and weights in y_2 of the boundary layer at refinement `level`.

    The layer's head, the panels up to y_2 = 20/p, lies at a depth
    (20/p)/N in x_2; against the cutoff's plateau radius 1/(2M) that is the
    ratio (M/N)(20/p), and it sets one of three rules:

    * ratio <= `special.PLATEAU_RADIUS`/4: the 20-node Gauss-Laguerre rule
      in y_2, nodes x_k/p and weights w_k e^(x_k)/p, the same at every
      level; with `_tensor_quad`'s e^(-p y_2) it is the classical rule for
      int_0^oo e^(-p y_2) f dy_2.  There every row's layer factor is smooth
      except where the row crosses the plateau's edge, at a depth the decay
      makes negligible: over 360 cases below the threshold (p from 1.1 to
      8; s = 2 with M up to 256 and s = 1.5 with M from 512 to 4096;
      complex, real, and real above the bottom -x_1^2/10; five
      conductivities) the probe energy stayed within 5.3e-15 relative of
      the panel rule refined to width (4/p)/8 in the head and 2/p in the
      tail, where the panel rule below stayed within 4.4e-16.  Between
      this threshold and the plateau radius some rows cross the edge
      inside the layer, and 16 to 32 Laguerre nodes missed by up to 4e-13
      at ratio 1/4 and 3e-10 at 1/2.
    * ratio <= `special.PLATEAU_RADIUS`: Gauss panels, the head's at
      level 0 at every level: refining it there moved the probe energy by
      at most 2.1e-13 relative over 462 cases, so the change from level to
      level is the perpendicular panels'.
    * elsewhere: Gauss panels, the head's cut to width (4/p)/2^level.

    In both panel rules the tail, the panels from 20/p to 44/p, keeps its
    base panels.
    """
    p = spec.p
    ratio = (spec.M / spec.N) * (_LAYER_HEAD[-1] / p)
    if ratio <= special.PLATEAU_RADIUS / 4.0:
        x, w = _laguerre_rule()
        return x / p, w / p
    if ratio <= special.PLATEAU_RADIUS:
        level = 0
    head = special._subdivide(_LAYER_HEAD / p, (4.0 / p) / 2**level)
    return special._gauss_panels(np.concatenate([head, _LAYER_TAIL / p]))


def _perp_breaks(spec: ProbeSpec, level: int) -> np.ndarray:
    # cutoff kinks at +-1/2 and +-1 in the scaled variable
    plateau = special.PLATEAU_RADIUS
    base = np.array([-1.0, -plateau, 0.0, plateau, 1.0])
    width = 0.25 / 2**level
    if spec.mode == "real":
        # resolve the oscillation: at most half a period per panel
        period = spec.profile.lam * spec.M / spec.N
        width = min(width, period / (2.0 * 2**level))
    return special._subdivide(base, width)


def _scaled_points(spec: ProbeSpec, y_perp: np.ndarray,
                   y_layer: np.ndarray) -> np.ndarray:
    """Points x of the (y_1, y_2) tensor grid as a component-major
    (2, n_perp, n_layer) block.

    y_1 = M x_1 spans the cutoff support and y_2 = N rho(x) the boundary
    layer.
    """
    M, N = spec.M, spec.N
    x = np.empty((2, y_perp.size, y_layer.size))
    x[0] = (y_perp / M)[:, None]
    rho_val = (y_layer / N)[None, :]
    # graph boundary: rho(x) = x_2 - g(x_1), so x_2 = rho + g(x_1);
    # the (x_1, rho) substitution is volume-preserving (unit jacobian).
    # x[0, :, :1] holds x_1 on the first layer, in g's (..., 1) shape.
    g = spec.rho.g
    x[1] = rho_val if g is None else rho_val + g(x[0, :, :1])[:, None]
    return x


def _energy_density(spec: ProbeSpec, gamma: ConductivityField, x1: np.ndarray):
    """The probe energy's integrand gamma(x) |G(x)/N|^p without the
    e^(-p y_2) layer factor, G/N = (M/N) grad eta (Mx) * osc + eta (Mx) *
    (unit-scale field gradient), on one quadrature level whose
    perpendicular nodes sit at x_1 = `x1`; `_tensor_quad` describes the
    returned block(x, rows).

    Factors of x_1 alone are evaluated once per level, on all of `x1`:
    a(N x_1), a'(N x_1), grad rho (a function of x_1 for the graph
    boundaries `_scaled_points` substitutes), on a flat bottom the x_1^2
    term of the squared radius, and |G/N|^p on the cutoff's plateau,
    where eta = 1 and grad eta = 0.  A block's rows that lie on the
    plateau throughout take that value; the others are evaluated point by
    point.  Each point's arithmetic keeps the order of the pointwise
    formula, so no bit depends on the blocking: grad eta's zeros and the
    products with grad rho = e_2 left out on a flat bottom, which only
    multiply by 0 and by 1, change |G/N|^2 at most in the sign of a zero
    that it squares.
    """
    M, N, p = spec.M, spec.N, spec.p
    cutoff = special.CutoffField(M=M, profile=spec.cutoff)
    flat = spec.rho.flat
    x1_sq = (x1**2)[:, None]
    if spec.mode == "real":
        a, ap = (f[:, None] for f in spec.profile.values_at(N * x1))
    if spec.mode == "real" and not flat:
        # rho.gradient takes and returns point lists (m, 2) and reads x_1
        # alone; this is (2, n_perp, 1), one value per perpendicular node
        grad_rho = spec.rho.gradient(
            np.column_stack([x1, np.zeros_like(x1)])).T[..., None]

    def field_sq(eta, vec, rows):
        """|G/N|^2 from eta(Mx) and vec = (M/N) grad eta(Mx), which it
        overwrites, at the perpendicular nodes x1[rows]."""
        if spec.mode == "complex":
            # |G/N|^2 = |(M/N) grad eta(Mx) - eta e_2|^2 + eta^2 |beta|^2
            vec[1] -= eta
            mag2 = _norm_sq(vec, axis=0)
            mag2 += eta**2 * (p - 1.0)
            return mag2
        # G/N = a (M/N) grad eta(Mx) - eta a grad rho + eta a' e_1
        vec *= a[rows]
        if flat:
            vec[1] -= eta * a[rows]
        else:
            vec -= eta * a[rows] * grad_rho[:, rows]
        vec[0] += eta * ap[rows]
        return _norm_sq(vec, axis=0)

    # On the cutoff's plateau eta = 1 and grad eta = +-0, which |G/N|^2
    # only squares, so there |G/N|^p is a function of x_1 alone.
    plateau_power = field_sq(np.ones((x1.size, 1)), np.zeros((2, x1.size, 1)),
                             slice(None)) ** (p / 2.0)

    def block(x, rows):
        r2 = x1_sq[rows] + x[1, :1]**2 if flat else _norm_sq(x, axis=0)
        # gamma of the (m, 2) point list, a view of the block
        density = gamma(x.reshape(2, -1).T).reshape(r2.shape)
        # runs of rows on the plateau throughout, by their largest radius,
        # and of rows that reach past it
        inner = cutoff.on_plateau(r2.max(axis=1))
        cuts = np.flatnonzero(np.diff(inner)) + 1
        for lo, hi in zip([0, *cuts], [*cuts, inner.size]):
            run = slice(rows.start + lo, rows.start + hi)
            if inner[lo]:
                power = plateau_power[run]
            else:
                eta, vec = cutoff.value_and_gradient(x[:, lo:hi], r2[lo:hi])
                vec /= M  # grad eta evaluated at Mx
                vec *= M / N
                power = field_sq(eta, vec, run) ** (p / 2.0)
            density[lo:hi] *= power
        return density

    return block


# Perpendicular rows per summation chunk, which fixes the order of the
# sums; points per integrand evaluation block.
_CHUNK = 4096
_EVAL_POINTS = 1 << 15


def _tensor_quad(spec: ProbeSpec, integrand, level: int) -> float:
    """int int integrand(x) e^(-p y_2) dy_1 dy_2 over the scaled cutoff
    support and boundary layer, by the tensor product of Gauss panels in
    y_1 and `_layer_rule` in y_2, refined `level` times: each level halves
    the perpendicular panels, and the layer's head panels up to y_2 = 20/p
    where the head reaches deeper than the cutoff's plateau; the layer's
    tail, and the Gauss-Laguerre layer where the layer lies deep inside the
    plateau, stay as they are.  The layer's weights are those of the
    integral without e^(-p y_2), which is multiplied in at the nodes.

    `integrand(x1)` is called once per level with the x_1 values of its
    perpendicular nodes, those `_scaled_points` writes, and returns
    block(x, rows), which maps the component-major (2, n_rows, n_layer)
    block x of the points of the perpendicular nodes x1[rows], a slice, one
    row of layer nodes per perpendicular node, to values (n_rows, n_layer);
    component k of every point is the contiguous array x[k].  So factors of
    x_1 alone can be evaluated once per level; everything else must work
    point by point.  The perpendicular nodes are summed in chunks of
    `_CHUNK` rows, which fixes the order of the sums.  Inside a chunk the
    integrand is evaluated in blocks of about `_EVAL_POINTS` points, which
    bounds the working set and changes no bit, and the layer decay is
    multiplied into the chunk in place.

    The weighted sums run on one thread of numpy's OpenBLAS: each output
    of the vector-matrix product is one dot product either way, so the
    bits are the same, and a second thread bought no wall time on 2 cores
    while it spun between the sums, and lost time where another process
    held the other core.
    """
    layer_nodes, layer_w = _layer_rule(spec, level)
    y_perp, w_perp = special._gauss_panels(_perp_breaks(spec, level))
    block = integrand(y_perp / spec.M)  # the x_1 that `_scaled_points` writes
    decay = np.exp(-spec.p * layer_nodes)[None, :]
    rows = max(1, _EVAL_POINTS // layer_nodes.size)
    total = 0.0
    with _one_openblas_thread("numpy"):
        for k in range(0, y_perp.size, _CHUNK):
            end = min(k + _CHUNK, y_perp.size)
            vals = np.empty((end - k, layer_nodes.size))
            for b in range(k, end, rows):
                e = min(b + rows, end)
                x = _scaled_points(spec, y_perp[b:e], layer_nodes)
                np.multiply(block(x, slice(b, e)), decay, out=vals[b - k:e - k])
            total += float(w_perp[k:end] @ vals @ layer_w)
    return total


def _refined_quad(spec: ProbeSpec, integrand, tol: float, max_level: int) -> float:
    """_tensor_quad at levels 0, 1, ... until two successive levels agree
    to `tol` relative; raises QuadratureError after `max_level`, which
    must be at least 1."""
    if max_level < 1:
        raise QuadratureError(
            f"panel refinement needs at least 1 level to compare, got {max_level}")
    prev = _tensor_quad(spec, integrand, 0)
    for level in range(1, max_level + 1):
        cur = _tensor_quad(spec, integrand, level)
        change = abs(cur - prev)
        if change <= tol * max(abs(cur), 1e-300):
            return cur
        prev = cur
    raise QuadratureError(
        f"panel refinement did not converge to {tol:g} within {max_level} levels "
        f"(last change {change:.3e})")


# Refinement levels `quadrature_limit` tries after level 0, and the relative
# change between successive levels at which it stops.
_MAX_LEVEL = 4
_QUAD_TOL = 1e-7


def quadrature_limit(gamma: ConductivityField, spec: ProbeSpec) -> float:
    """Grid-free estimate of gamma(0): M N^(1-p) int gamma |grad u_0|^p / c_p.

    `_tensor_quad` at levels 0, 1, ...: the perpendicular panels halve at
    every level, and the layer rule (`_layer_rule`) is Gauss-Laguerre,
    fixed panels or refining panels by how deep the layer reaches into the
    cutoff's plateau.  Raises QuadratureError if successive levels fail to
    agree to `_QUAD_TOL` relative within `_MAX_LEVEL` refinements.
    """
    return _refined_quad(spec, lambda x1: _energy_density(spec, gamma, x1),
                         _QUAD_TOL, _MAX_LEVEL) / spec.c_p()


# ---------------------------------------------------------------------------
# Per-M grids
# ---------------------------------------------------------------------------


# Half-width of the probe window in units of 1/M: twice the probe support
# radius 1/M, so a band of width 1/M separates the support from the
# window's lateral and top sides, where the datum is zero.
WINDOW_MARGIN = 2.0


def probe_window_grid(spec: ProbeSpec, nodes_per_wavelength: float = 16.0,
                      max_nodes: int = 1_500_000) -> DomainGrid:
    """Rectangle [-w/M, w/M] x [0, w/M], w = WINDOW_MARGIN, above the bottom
    of `spec.rho`, with `nodes_per_wavelength` cells per probe oscillation
    and at least 8 across the probe support, within `max_nodes`.

    Under x -> M x this is a fixed domain with effective frequency
    N/M -> infinity and conductivity gamma(x/M) -> gamma(0), so the
    recovery limit is unchanged while node counts stay ~ (M^(s-1))^2.
    """
    half = WINDOW_MARGIN / spec.M
    res = max(nodes_per_wavelength / spec.wavelength, 8.0 * spec.M, 8.0)
    approx_nodes = (2 * half * res + 1) * (half * res + 1)
    if approx_nodes > max_nodes:
        raise GridBudgetError(
            f"grid would need ~{approx_nodes:.0f} nodes (> {max_nodes})")
    return build_grid(Rectangle(half_width=half, height=half, bottom=spec.rho),
                      res)


def _lattice_interpolate(coarse: DomainGrid, values: np.ndarray,
                         fine: DomainGrid) -> np.ndarray:
    """Bilinear interpolation of the nodal `values` of `coarse` to the nodes
    of `fine`, two structured grids of one rectangle.

    Node (i, j) of either lattice sits at lattice coordinates (i/nx, j/ny),
    and the interpolation is bilinear in those coordinates; the lattices
    need not be nested.  Both grids map lattice coordinates to the same
    point of the rectangle, curved bottom included, so a field affine in
    lattice coordinates is reproduced exactly.
    """
    def cells(n_from, n_to):
        """Coarse cell and offset in it of every fine lattice line."""
        x = np.arange(n_to + 1) * n_from / n_to
        k = np.minimum(x.astype(np.intp), n_from - 1)
        return k, x - k

    (i, fi), (j, fj) = cells(coarse.nx, fine.nx), cells(coarse.ny, fine.ny)
    C = values.reshape(coarse.ny + 1, coarse.nx + 1)
    rows = C[:, i] * (1.0 - fi) + C[:, i + 1] * fi     # (coarse ny + 1, fine nx + 1)
    fj = fj[:, None]
    return (rows[j] * (1.0 - fj) + rows[j + 1] * fj).ravel()


def _window_solve(spec: ProbeSpec, gamma, settings, nodes_per_wavelength: float,
                  max_nodes: int, two_level: bool = True):
    """(grid, probe, solve) of the probe-window solve of `spec`.

    Where the probe is still resolved at half the resolution, by
    `build_probe`'s own floors (8 cells per wavelength and 8 across the
    support), both windows are set by the wavelength and the coarse one has
    exactly half the resolution.  There the solve starts from the probe plus
    the correction u_c - v_c of the same solve on the half-resolution window
    (one level, `two_level=False`), interpolated in lattice coordinates, and
    the coarse arrays are released before the full solve.  Elsewhere, or
    where the coarse solve fails, it starts from the probe.
    """
    # looked up at call time, so a tracer can swap the module attributes
    grid = probe_window_grid(spec, nodes_per_wavelength=nodes_per_wavelength,
                             max_nodes=max_nodes)
    probe = build_probe(spec, grid)
    start = probe
    half = nodes_per_wavelength / 2.0
    if two_level and half >= 8.0 and half / spec.wavelength >= 8.0 * spec.M:
        try:
            coarse, coarse_probe, coarse_sol = _window_solve(
                spec, gamma, settings, half, max_nodes, two_level=False)
        except SolverConvergenceError:
            pass
        else:
            start = PField(values=probe.values + _lattice_interpolate(
                coarse, coarse_sol.field.values - coarse_probe.values, grid),
                mode=spec.mode)
            del coarse, coarse_probe, coarse_sol
    return grid, probe, solve_dirichlet(grid, gamma, spec.p, probe, settings,
                                        initial=start)


# ---------------------------------------------------------------------------
# Recovery driver
# ---------------------------------------------------------------------------


@dataclass
class RecoveryRow:
    M: float
    N: float
    ok: bool
    estimate: float = math.nan
    quad_estimate: float = math.nan
    correction: float = math.nan
    leading: float = math.nan
    remainder: complex = complex(math.nan, 0.0)
    pairing_imag: float = math.nan
    newton_iterations: int = 0   # steps of the full solve, chord steps included
    weak_residual: float = math.nan
    message: str = ""


# The monotone-error contract allows this many rises of |estimate - gamma0|
# along M (one row at the discretization floor); a rise within the relative
# slack is rounding and does not count.
PLATEAU_ALLOWED = 1
MONOTONE_SLACK = 1e-9


def monotone_errors(errors) -> bool:
    """Errors non-increasing along M, up to PLATEAU_ALLOWED rises."""
    rises = sum(1 for a, b in zip(errors[:-1], errors[1:])
                if b > a * (1.0 + MONOTONE_SLACK))
    return rises <= PLATEAU_ALLOWED


@dataclass
class RecoveryReport:
    mode: str
    p: float
    s: float
    gamma0: float
    rows: list
    extrapolated: float = math.nan

    def errors(self):
        return [abs(r.estimate - self.gamma0) for r in self.rows if r.ok]

    def monotone_contract(self) -> bool:
        """`monotone_errors` over the rows; any failed row breaks the contract."""
        return (bool(self.rows) and all(r.ok for r in self.rows)
                and monotone_errors(self.errors()))

    def final_relative_error(self) -> float:
        errs = self.errors()
        if not errs:
            return math.inf
        return errs[-1] / abs(self.gamma0)


def remainder_split(grid: DomainGrid, gamma: ConductivityField, p: float,
                    probe: PField, u: PField) -> tuple[float, complex]:
    """The two terms of the pairing identity, computed on one quadrature:

    <L(f), f> = int gamma |grad u_0|^p
                + int gamma (flux(grad u) - flux(grad u_0)) . grad conj(u_0).
    """
    gamma_c = gamma(grid.centroid)
    qv = _complex_gradients(grid, probe.components())
    qu = _complex_gradients(grid, u.components())
    qv2 = _norm_sq(qv)
    expo = (p - 2.0) / 2.0
    leading = _p_energy(grid, qv2, p, gamma_c)
    diff = (_pow_or_zero(_norm_sq(qu), expo)[:, None] * qu
            - _pow_or_zero(qv2, expo)[:, None] * qv)
    remainder = complex((grid.area * gamma_c
                         * (diff * np.conj(qv)).sum(axis=1)).sum())
    return leading, remainder


def _correction_indicator(grid, spec: ProbeSpec, probe: PField,
                          u: PField) -> float:
    """M N^(1-p) ||grad(u - u_0)||_p^p for the unnormalized probe
    (= c_p times the plain p-energy of the normalized correction)."""
    qd = _complex_gradients(grid, u.components() - probe.components())
    return spec.c_p() * _p_energy(grid, _norm_sq(qd), spec.p)


def recover_boundary_value(gamma: ConductivityField, spec: ProbeSpec, M_list, *,
                           settings: SolverSettings | None = None,
                           nodes_per_wavelength: float = 16.0,
                           max_nodes: int = 1_500_000) -> RecoveryReport:
    """Run the probe family `spec` along `M_list` and report per-M DN
    self-pairings; row M probes with `replace(spec, M=M)`.

    Each row is one `_window_solve`, on the `probe_window_grid` that
    receives `nodes_per_wavelength` and `max_nodes`, with its two-level
    start.  `newton_iterations` counts the steps of the full resolution
    solve only, chord steps included.  A per-M solver, resolution,
    quadrature or grid-budget failure is recorded in its row, which is not
    ok, and the run continues; any other exception propagates.  The
    extrapolated value adds the last step between the two final estimates
    once more.
    """
    gamma0 = float(gamma(np.zeros((1, 2)))[0])
    M_list = list(M_list)
    if any(b <= a for a, b in zip(M_list[:-1], M_list[1:])):
        raise ValueError("M list must be strictly increasing")

    rows = []
    for M in M_list:
        row_spec = replace(spec, M=float(M))
        row = RecoveryRow(M=float(M), N=row_spec.N, ok=False)
        try:
            grid, probe, sol = _window_solve(row_spec, gamma, settings,
                                             nodes_per_wavelength, max_nodes)
            # looked up at call time, so a tracer can swap the module attributes
            pairing = flux_pairing(grid, gamma, spec.p, sol.field, probe)
            leading, remainder = remainder_split(grid, gamma, spec.p, probe, sol.field)
            row.estimate = pairing.real
            row.pairing_imag = abs(pairing.imag)
            row.leading = leading
            row.remainder = remainder
            row.correction = _correction_indicator(grid, row_spec, probe, sol.field)
            row.newton_iterations = len(sol.energy_history)
            row.weak_residual = sol.weak_residual
            # the window's arrays are not held through the next row's solve
            del grid, probe, sol
            row.quad_estimate = quadrature_limit(gamma, row_spec)
            row.ok = True
        except (SolverConvergenceError, UnderResolvedProbeError,
                QuadratureError, GridBudgetError) as exc:
            row.message = f"{type(exc).__name__}: {exc}"
        rows.append(row)

    report = RecoveryReport(mode=spec.mode, p=spec.p, s=spec.s, gamma0=gamma0,
                            rows=rows)
    good = [r for r in rows if r.ok]
    if len(good) >= 2:
        e_prev, e_last = good[-2].estimate, good[-1].estimate
        report.extrapolated = e_last + (e_last - e_prev)
    elif len(good) == 1:
        report.extrapolated = good[0].estimate
    return report

