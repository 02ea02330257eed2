"""Boundary-value recovery from localized oscillatory probes.

A probe at scale M concentrates on B(0, 1/M) around the base boundary
point (normalized to the origin, inward normal e_n) and oscillates at
frequency N = M^s, s > 1, so M/N -> 0.  Normalized so that its DN
self-pairing converges to gamma(0):

    complex mode:  v_M = (M^(n-1) N^(1-p) / c_p)^(1/p) eta_M h_N,
    real mode:     same scaling with the Wolff field e^(-N rho) a(N x_1),

with c_p the mode's normalization constant.  Two independent routes
estimate gamma(0):

* quadrature_limit: grid-free adaptive panel quadrature of the closed-form
  probe energy M^(n-1) N^(1-p) int gamma |grad u_0|^p / c_p (no PDE);
  isolates the pure-in-M convergence at machine quadrature accuracy.

* recover_boundary_value: per-M PDE solves with datum v_M and self-pairing
  <L(f_M), f_M>; the correction-decay indicator M^(n-1) N^(1-p)
  ||grad(u - u_0)||_p^p and the leading/remainder split of the pairing
  identity isolate how far the probe is from an exact solution.

The scaled integrands live on y = (M x', N rho): boundary layer e^(-p y_n)
times a bounded profile, oscillatory in y_1 only in real mode; panels are
aligned to the cutoff kinks and to half-periods of the oscillation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import special
from .pde import (ConductivityField, DomainGrid, PField, Rectangle,
                  SolverSettings, SolverConvergenceError, _complex_gradients,
                  _p_energy, build_grid, solve_dirichlet)
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
    is the origin with inward normal e_n.  Real mode needs a Wolff profile
    and a boundary defining function (flat by default).  Complex mode uses
    `special.make_complex_exponential`, which oscillates along e_1 with
    |beta|^2 = p - 1.
    """

    mode: str
    p: float
    M: float
    s: float = 2.0
    n: int = 2
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
        if self.n not in (2, 3):
            raise ValueError("n must be 2 or 3")
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
            return special.c_p_complex(self.p, self.cutoff, self.n)
        return special.c_p_real(self.p, self.cutoff, self.profile, self.n)

    def normalization(self) -> float:
        """(M^(n-1) N^(1-p) / c_p)^(1/p): makes the self-pairing -> gamma(0)."""
        return (self.M ** (self.n - 1) * self.N ** (1.0 - self.p) / self.c_p()) ** (1.0 / self.p)


def _probe_values(spec: ProbeSpec, pts: np.ndarray) -> np.ndarray:
    eta = special.CutoffField(M=spec.M, profile=spec.cutoff)
    cut = eta.value(pts.T)
    if spec.mode == "complex":
        h = special.make_complex_exponential(spec.p, spec.n, N=spec.N)
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


def _layer_breaks(p: float) -> np.ndarray:
    # graded toward 0; e^(-p y) tail beyond 44/p is ~1e-19 of the peak
    return np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0,
                     11.0, 15.0, 20.0, 26.0, 33.0, 44.0]) / p


def _perp_breaks(spec: ProbeSpec, level: int) -> np.ndarray:
    # cutoff kinks at +-1/2 and +-1 in the scaled variable
    base = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    width = 0.25 / 2**level
    if spec.mode == "real":
        # resolve the oscillation: at most half a period per panel
        period = spec.profile.lam * spec.M / spec.N
        width = min(width, period / (2.0 * 2**level))
    return special._subdivide(base, width)


def _scaled_points(spec: ProbeSpec, y_perp: np.ndarray,
                   y_layer: np.ndarray) -> np.ndarray:
    """Points x of the (y', y_n) tensor grid as a component-major
    (n, n_perp, n_layer) block.

    y' = M x' spans the cutoff support and y_n = N rho(x) the boundary layer.
    """
    M, N, n = spec.M, spec.N, spec.n
    x = np.empty((n, y_perp.shape[0], y_layer.size))
    x[0] = y_perp[:, 0][:, None] / M
    if n == 3:
        x[1] = y_perp[:, 1][:, None] / M
    rho_val = (y_layer / N)[None, :]
    # graph boundary: rho(x) = x_n - g(x_1), so x_n = rho + g(x_1);
    # the (x_1, rho) substitution is volume-preserving (unit jacobian).
    # x[0, :, :1] holds x_1 on the first layer, in g's (..., 1) shape.
    g = spec.rho.g
    x[n - 1] = rho_val if g is None else rho_val + g(x[0, :, :1])[:, None]
    return x


def _energy_density(spec: ProbeSpec, gamma: ConductivityField,
                    x: np.ndarray) -> np.ndarray:
    """gamma(x) |G(x)/N|^p on a component-major (n, n_perp, n_layer) block of
    scaled points, without the e^(-p y_n) layer factor, where G/N =
    (M/N) grad eta (Mx) * osc + eta (Mx) * (unit-scale field gradient);
    returns (n_perp, n_layer).

    Each vector component is one contiguous (n_perp, n_layer) array.
    Factors of x' alone are evaluated once per perpendicular node, on the
    block's first layer: a(N x_1), a'(N x_1) and grad rho, which depends on
    x' only for the graph boundaries `_scaled_points` substitutes.
    """
    M, N, p, n = spec.M, spec.N, spec.p, spec.n
    eta, geta = special.CutoffField(M=M, profile=spec.cutoff).value_and_gradient(x)
    geta /= M  # grad eta evaluated at Mx

    if spec.mode == "complex":
        # |G/N|^2 = |(M/N) grad eta(Mx) - eta e_n|^2 + eta^2 |beta|^2
        vec = (M / N) * geta
        vec[n - 1] -= eta
        mag2 = _norm_sq(vec, axis=0) + eta**2 * (p - 1.0)
    else:
        tau = N * x[0, :, :1]
        a, ap = spec.profile.values_at(tau)
        # rho.gradient takes and returns point lists (m, n); this is
        # (n, n_perp, 1), one value per perpendicular node
        grad_rho = spec.rho.gradient(x[:, :, 0].T).T[..., None]
        vec = (M / N) * geta * a - eta * a * grad_rho
        vec[0] += eta * ap
        mag2 = _norm_sq(vec, axis=0)

    # gamma of the (m, n) point list, a view of the block
    return gamma(x.reshape(n, -1).T).reshape(x.shape[1:]) * mag2 ** (p / 2.0)


# Perpendicular rows per summation chunk, which fixes the order of the
# sums; points per integrand evaluation block.
_CHUNK = 4096
_EVAL_POINTS = 1 << 15


def _tensor_quad(spec: ProbeSpec, integrand, level: int) -> float:
    """int int integrand(x) e^(-p y_n) dy' dy_n over the scaled cutoff
    support and boundary layer, by Gauss panels refined `level` times.

    `integrand` maps a component-major (n, n_perp, n_layer) block of points,
    one row of layer nodes per perpendicular node, to values (n_perp,
    n_layer); component k of every point is the contiguous array x[k].  It
    may evaluate factors of x' alone on x[:, :, :1] and broadcast them, and
    must otherwise work point by point.  The perpendicular nodes are summed in
    chunks of `_CHUNK` rows, which fixes the order of the sums.  Inside a
    chunk the integrand is evaluated in blocks of about `_EVAL_POINTS`
    points, which bounds the working set and changes no bit.
    """
    layer_nodes, layer_w = special._gauss_panels(
        special._subdivide(_layer_breaks(spec.p), (4.0 / spec.p) / 2**level))
    perp1_nodes, perp1_w = special._gauss_panels(_perp_breaks(spec, level))
    if spec.n == 2:
        y_perp = perp1_nodes[:, None]
        w_perp = perp1_w
    else:
        t_nodes, t_w = special._gauss_panels(special._subdivide(
            np.array([-1.0, -0.5, 0.0, 0.5, 1.0]), 0.25 / 2**level))
        Y1, Y2 = np.meshgrid(perp1_nodes, t_nodes, indexing="ij")
        y_perp = np.column_stack([Y1.ravel(), Y2.ravel()])
        w_perp = (perp1_w[:, None] * t_w[None, :]).ravel()
    decay = np.exp(-spec.p * layer_nodes)[None, :]
    rows = max(1, _EVAL_POINTS // layer_nodes.size)
    total = 0.0
    for k in range(0, y_perp.shape[0], _CHUNK):
        y_chunk = y_perp[k:k + _CHUNK]
        vals = np.empty((y_chunk.shape[0], layer_nodes.size))
        for b in range(0, y_chunk.shape[0], rows):
            x = _scaled_points(spec, y_chunk[b:b + rows], layer_nodes)
            vals[b:b + rows] = integrand(x) * decay
        total += float(w_perp[k:k + _CHUNK] @ vals @ layer_w)
    return total


def _refined_quad(spec: ProbeSpec, integrand, tol: float, max_level: int) -> float:
    """_tensor_quad at levels 0, 1, ... until two successive levels agree
    to `tol` relative; raises QuadratureError after `max_level`."""
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


# Refinement levels `quadrature_limit` tries after level 0.
_MAX_LEVEL = 4


def quadrature_limit(gamma: ConductivityField, spec: ProbeSpec,
                     tol: float = 1e-7) -> float:
    """Grid-free estimate of gamma(0): M^(n-1) N^(1-p) int gamma |grad u_0|^p / c_p.

    Adaptive panel refinement; raises QuadratureError if successive levels
    fail to agree to `tol` relative within `_MAX_LEVEL` refinements.
    """
    return _refined_quad(spec, lambda x: _energy_density(spec, gamma, x),
                         tol, _MAX_LEVEL) / spec.c_p()


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


def _two_level_start(spec: ProbeSpec, grid: DomainGrid, probe: PField,
                     gamma, settings, nodes_per_wavelength: float,
                     max_nodes: int) -> PField:
    """The start of the probe-window solve on `grid`: the probe plus the
    correction u_c - v_c of the solve on the half-resolution window,
    interpolated in lattice coordinates.

    The coarse level is used only where the probe is still resolved at half
    the resolution, by `build_probe`'s own floors (8 cells per wavelength
    and 8 across the support), so that both windows are set by the
    wavelength and the coarse one has exactly half the resolution.  Where
    it is not, or where the coarse solve fails, the start is the probe.
    All coarse arrays are released on return.
    """
    coarse_npw = nodes_per_wavelength / 2.0
    if not (coarse_npw >= 8.0 and coarse_npw / spec.wavelength >= 8.0 * spec.M):
        return probe
    coarse = probe_window_grid(spec, nodes_per_wavelength=coarse_npw,
                               max_nodes=max_nodes)
    coarse_probe = build_probe(spec, coarse)
    try:
        sol = solve_dirichlet(coarse, gamma, spec.p, coarse_probe, settings,
                              initial=coarse_probe)
    except SolverConvergenceError:
        return probe
    correction = _lattice_interpolate(coarse, sol.field.values - coarse_probe.values,
                                      grid)
    return PField(values=probe.values + correction, mode=spec.mode)


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
    newton_iterations: int = 0
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
    """M^(n-1) N^(1-p) ||grad(u - u_0)||_p^p for the unnormalized probe
    (= c_p times the plain p-energy of the normalized correction)."""
    qd = _complex_gradients(grid, u.components() - probe.components())
    return spec.c_p() * _p_energy(grid, _norm_sq(qd), spec.p)


def recover_boundary_value(gamma: ConductivityField, p: float, mode: str, M_list,
                           *, s: float = 2.0,
                           settings: SolverSettings | None = None,
                           cutoff: special.CutoffProfile | None = None,
                           rho: special.BoundaryDefiningFunction = (
                               special.BoundaryDefiningFunction()),
                           profile: special.WolffProfile | None = None,
                           nodes_per_wavelength: float = 16.0,
                           max_nodes: int = 1_500_000) -> RecoveryReport:
    """Run the probe sequence and report per-M DN self-pairings.

    Each M is solved on its `probe_window_grid`, which receives
    `nodes_per_wavelength` and `max_nodes`.  Where the probe is resolved
    at half that resolution, the solve starts from the probe plus the
    correction of the same solve on the half-resolution window (a
    two-level start); otherwise, or if that coarse solve fails, it starts
    from the probe.  `newton_iterations` counts the steps of the full
    resolution solve only.  A per-M solver, resolution, quadrature or
    grid-budget failure is recorded in its row and the run continues; any
    other exception propagates.  The extrapolated value adds the last step
    between the two final estimates once more.
    """
    gamma0 = float(gamma(np.zeros((1, 2)))[0])
    cutoff = cutoff or special.CutoffProfile()
    if mode == "real" and profile is None:
        profile = special.solve_wolff_profile(p)

    M_list = list(M_list)
    if any(b <= a for a, b in zip(M_list[:-1], M_list[1:])):
        raise ValueError("M list must be strictly increasing")

    rows = []
    for M in M_list:
        spec = ProbeSpec(mode=mode, p=p, M=float(M), s=s, cutoff=cutoff,
                         profile=profile if mode == "real" else None,
                         rho=rho)
        row = RecoveryRow(M=float(M), N=spec.N, ok=False)
        try:
            # looked up at call time, so a tracer can swap the module attribute
            grid = probe_window_grid(spec, nodes_per_wavelength=nodes_per_wavelength,
                                     max_nodes=max_nodes)
            probe = build_probe(spec, grid)
            start = _two_level_start(spec, grid, probe, gamma, settings,
                                     nodes_per_wavelength, max_nodes)
            sol = solve_dirichlet(grid, gamma, p, probe, settings, initial=start)
            pairing = flux_pairing(grid, gamma, p, sol.field, probe)
            leading, remainder = remainder_split(grid, gamma, p, probe, sol.field)
            row.ok = True
            row.estimate = pairing.real
            row.pairing_imag = abs(pairing.imag)
            row.leading = leading
            row.remainder = remainder
            row.correction = _correction_indicator(grid, spec, probe, sol.field)
            row.newton_iterations = len(sol.energy_history)
            row.weak_residual = sol.weak_residual
            row.quad_estimate = quadrature_limit(gamma, spec)
        except (SolverConvergenceError, UnderResolvedProbeError,
                QuadratureError, GridBudgetError) as exc:
            row.message = f"{type(exc).__name__}: {exc}"
        rows.append(row)

    report = RecoveryReport(mode=mode, p=p, s=s, gamma0=gamma0, rows=rows)
    good = [r for r in rows if r.ok]
    if len(good) >= 2:
        e_prev, e_last = good[-2].estimate, good[-1].estimate
        report.extrapolated = e_last + (e_last - e_prev)
    elif len(good) == 1:
        report.extrapolated = good[0].estimate
    return report

