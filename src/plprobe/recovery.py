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
                  SolverSettings, SolverConvergenceError, _as_gamma, _p_energy,
                  build_grid, solve_dirichlet)
from .dnmap import flux_pairing, _complex_gradients
from .vecp import _norm_sq, _pow_or_zero

__all__ = [
    "ProbeSpec",
    "ProbeFields",
    "UnderResolvedProbeError",
    "QuadratureError",
    "build_probe",
    "quadrature_limit",
    "oscillatory_average_check",
    "probe_window_grid",
    "RecoveryRow",
    "RecoveryReport",
    "monotone_errors",
    "recover_boundary_value",
    "remainder_split",
]


class UnderResolvedProbeError(ValueError):
    """Grid cannot resolve the probe oscillation or support."""


class QuadratureError(RuntimeError):
    """Panel refinement failed to converge."""


@dataclass(frozen=True)
class ProbeSpec:
    """Localized probe: mode, exponent, scales and ingredient fields.

    N follows M through N = M^s with s > 1 (so M/N -> 0); the base point
    is the origin with inward normal e_n.  Real mode needs a Wolff profile
    and a boundary defining function (flat by default); complex mode an
    oscillation direction orthogonal to e_n.
    """

    mode: str
    p: float
    M: float
    s: float = 2.0
    n: int = 2
    cutoff: special.CutoffProfile = field(default_factory=special.CutoffProfile)
    direction: np.ndarray | None = None
    profile: special.WolffProfile | None = None
    rho: special.BoundaryDefiningFunction | None = None

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
        if self.direction is not None:
            d = np.asarray(self.direction, dtype=float)
            if d.shape != (self.n,) or abs(np.linalg.norm(d) - 1.0) > 1e-12 \
                    or abs(d[-1]) > 1e-13:
                raise ValueError("direction must be a unit vector orthogonal to e_n")

    @property
    def N(self) -> float:
        return self.M**self.s

    @property
    def beta(self) -> np.ndarray:
        d = self.direction
        if d is None:
            d = np.zeros(self.n)
            d[0] = 1.0
        return math.sqrt(self.p - 1.0) * np.asarray(d, dtype=float)

    @property
    def boundary_fn(self) -> special.BoundaryDefiningFunction:
        return self.rho if self.rho is not None else special.flat_boundary(self.n)

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


@dataclass
class ProbeFields:
    field: PField          # normalized probe v_M on the grid nodes
    trace: np.ndarray      # v_M restricted to boundary nodes
    scale: float           # normalization factor applied to u_0


def _probe_values(spec: ProbeSpec, pts: np.ndarray) -> np.ndarray:
    eta = special.CutoffField(M=spec.M, profile=spec.cutoff)
    cut = eta.value(pts)
    if spec.mode == "complex":
        h = special.ComplexExponentialField(p=spec.p, N=spec.N, beta=spec.beta)
        return cut * h.value(pts)
    fld = special.make_wolff_field(spec.profile, spec.N, spec.boundary_fn)
    return cut * fld.value(pts)


def build_probe(spec: ProbeSpec, grid: DomainGrid) -> ProbeFields:
    """Evaluate the normalized probe on the grid and take its boundary trace.

    Preconditions: at least 8 cells per oscillation wavelength and at
    least 8 cells across the support radius 1/M; complex probes require a
    flat bottom boundary.
    """
    if spec.mode == "complex":
        flat = isinstance(grid.shape, Rectangle) and grid.shape.bottom is None
        if not flat or (spec.rho is not None and not spec.rho.flat):
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
    scale = spec.normalization()
    norm = PField(values=scale * raw_vals, mode=spec.mode)
    trace = norm.values[grid.boundary_idx]
    return ProbeFields(field=norm, trace=trace, scale=scale)


# ---------------------------------------------------------------------------
# Grid-free quadrature of the probe energy
# ---------------------------------------------------------------------------


def _gauss_panels(breaks: np.ndarray, order: int):
    """Composite Gauss-Legendre nodes/weights on the given panel breaks."""
    x, w = np.polynomial.legendre.leggauss(order)
    a, b = breaks[:-1], breaks[1:]
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _subdivide(breaks: np.ndarray, max_width: float) -> np.ndarray:
    out = [breaks[0]]
    for a, b in zip(breaks[:-1], breaks[1:]):
        k = max(1, int(math.ceil((b - a) / max_width)))
        out.extend(a + (b - a) * np.arange(1, k + 1) / k)
    return np.asarray(out)


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
    return _subdivide(base, width)


def _scaled_points(spec: ProbeSpec, y_perp: np.ndarray,
                   y_layer: np.ndarray) -> np.ndarray:
    """Points x of the (y', y_n) tensor grid as a (n_perp, n_layer, n) block.

    y' = M x' spans the cutoff support and y_n = N rho(x) the boundary layer.
    """
    M, N, n = spec.M, spec.N, spec.n
    x = np.empty((y_perp.shape[0], y_layer.size, n))
    x[..., 0] = y_perp[:, 0][:, None] / M
    if n == 3:
        x[..., 1] = y_perp[:, 1][:, None] / M
    rho_val = (y_layer / N)[None, :]
    # graph boundary: rho(x) = x_n - g(x_1), so x_n = rho + g(x_1);
    # the (x_1, rho) substitution is volume-preserving (unit jacobian)
    bottom, _ = spec.boundary_fn.bottom_curve()
    x[..., n - 1] = (rho_val if bottom is None
                     else rho_val + bottom(x[:, 0, 0])[:, None])
    return x


def _energy_density(spec: ProbeSpec, gamma_fn, x: np.ndarray) -> np.ndarray:
    """gamma(x) |G(x)/N|^p on a (n_perp, n_layer, n) block of scaled points,
    without the e^(-p y_n) layer factor, where G/N = (M/N) grad eta (Mx) * osc
    + eta (Mx) * (unit-scale field gradient); returns (n_perp, n_layer).

    Factors of x' alone are evaluated once per perpendicular node, on the
    block's first layer: a(N x_1), a'(N x_1) and grad rho, which depends on
    x' only for the graph boundaries `_scaled_points` substitutes.
    """
    M, N, p, n = spec.M, spec.N, spec.p, spec.n
    eta_field = special.CutoffField(M=M, profile=spec.cutoff)
    eta = eta_field.value(x)
    geta = eta_field.gradient(x) / M  # grad eta evaluated at Mx

    if spec.mode == "complex":
        # |G/N|^2 = |(M/N) grad eta(Mx) - eta e_n|^2 + eta^2 |beta|^2
        vec = (M / N) * geta
        vec[..., n - 1] -= eta
        mag2 = _norm_sq(vec) + eta**2 * (p - 1.0)
    else:
        tau = N * x[:, :1, 0]
        a = spec.profile.a_at(tau)
        ap = spec.profile.aprime_at(tau)
        grad_rho = spec.boundary_fn.gradient(x[:, :1])
        vec = (M / N) * geta * a[..., None] - eta[..., None] * a[..., None] * grad_rho
        vec[..., 0] += eta * ap
        mag2 = _norm_sq(vec)

    gam = np.asarray(gamma_fn(x.reshape(-1, n)), dtype=float)
    if gam.ndim:  # a constant gamma_fn may return a scalar
        gam = gam.reshape(x.shape[:2])
    return gam * mag2 ** (p / 2.0)


def _tensor_quad(spec: ProbeSpec, integrand, level: int, order: int = 10,
                 chunk: int = 4096) -> float:
    """int int integrand(x) e^(-p y_n) dy' dy_n over the scaled cutoff
    support and boundary layer, by Gauss panels refined `level` times.

    `integrand` maps a (n_perp, n_layer, n) block of points, one row of
    layer nodes per perpendicular node, to values (n_perp, n_layer); it may
    evaluate factors of x' alone on x[:, :1] and broadcast them.  The
    perpendicular nodes go in chunks of `chunk`, which fixes the order of
    the sums.
    """
    layer_nodes, layer_w = _gauss_panels(
        _subdivide(_layer_breaks(spec.p), (4.0 / spec.p) / 2**level), order)
    perp1_nodes, perp1_w = _gauss_panels(_perp_breaks(spec, level), order)
    if spec.n == 2:
        y_perp = perp1_nodes[:, None]
        w_perp = perp1_w
    else:
        t_breaks = _subdivide(np.array([-1.0, -0.5, 0.0, 0.5, 1.0]), 0.25 / 2**level)
        t_nodes, t_w = _gauss_panels(t_breaks, order)
        Y1, Y2 = np.meshgrid(perp1_nodes, t_nodes, indexing="ij")
        y_perp = np.column_stack([Y1.ravel(), Y2.ravel()])
        w_perp = (perp1_w[:, None] * t_w[None, :]).ravel()
    decay = np.exp(-spec.p * layer_nodes)[None, :]
    total = 0.0
    for k in range(0, y_perp.shape[0], chunk):  # bound the tensor-grid memory
        x = _scaled_points(spec, y_perp[k:k + chunk], layer_nodes)
        vals = integrand(x) * decay
        total += float(w_perp[k:k + chunk] @ vals @ layer_w)
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


def quadrature_limit(gamma_fn, spec: ProbeSpec, tol: float = 1e-7,
                     max_level: int = 4) -> float:
    """Grid-free estimate of gamma(0): M^(n-1) N^(1-p) int gamma |grad u_0|^p / c_p.

    Adaptive panel refinement; raises QuadratureError if successive levels
    fail to agree to `tol` relative.
    """
    gamma_fn = gamma_fn.fn if isinstance(gamma_fn, ConductivityField) else gamma_fn
    return _refined_quad(spec, lambda x: _energy_density(spec, gamma_fn, x),
                         tol, max_level) / spec.c_p()


def oscillatory_average_check(spec: ProbeSpec, tol: float = 1e-7,
                              max_level: int = 5) -> dict:
    """Scaled oscillatory integral against its period-average prediction.

    lhs = M^(n-1) N int eta(Mx)^2 e^(-p N rho) a(N x_1)^2 dx,
    rhs = (mean of a^2 over one period / p) * int eta(x', 0)^2 dx'.
    Both sides are computed by independent quadratures (panel tensor rule
    vs. profile period average + adaptive slice quadrature).
    """
    if spec.mode != "real":
        raise ValueError("oscillatory average check applies to real-mode probes")
    eta_field = special.CutoffField(M=spec.M, profile=spec.cutoff)

    def integrand(x):
        return eta_field.value(x) ** 2 * spec.profile.a_at(spec.N * x[:, :1, 0]) ** 2

    lhs = _refined_quad(spec, integrand, tol, max_level)
    c = float(np.mean(spec.profile.a ** 2))
    rhs = (c / spec.p) * spec.cutoff.slice_integral(2.0, spec.n)
    return {"lhs": lhs, "rhs": rhs, "rel_diff": abs(lhs - rhs) / abs(rhs)}


# ---------------------------------------------------------------------------
# Per-M grids
# ---------------------------------------------------------------------------


def probe_window_grid(spec: ProbeSpec, margin: float = 2.0,
                      nodes_per_wavelength: float = 16.0,
                      max_nodes: int = 1_500_000) -> DomainGrid:
    """Rectangle [-w/M, w/M] x [0, w/M] with `nodes_per_wavelength` cells per
    probe oscillation and at least 8 across the probe support, within
    `max_nodes`.

    Under x -> M x this is a fixed domain with effective frequency
    N/M -> infinity and conductivity gamma(x/M) -> gamma(0), so the
    recovery limit is unchanged while node counts stay ~ (M^(s-1))^2.
    """
    if margin < 1.0:
        raise ValueError("window margin must be at least 1 (probe support 1/M)")
    half = margin / spec.M
    rho = spec.boundary_fn
    rho.check_inside(np.array([[half * math.sqrt(2.0), 0.0]]))
    res = max(nodes_per_wavelength / spec.wavelength, 8.0 * spec.M, 8.0)
    approx_nodes = (2 * half * res + 1) * (half * res + 1)
    if approx_nodes > max_nodes:
        raise ValueError(
            f"grid would need ~{approx_nodes:.0f} nodes (> {max_nodes})")
    bottom, bottom_deriv = rho.bottom_curve()
    return build_grid(Rectangle(half_width=half, height=half, bottom=bottom,
                                bottom_deriv=bottom_deriv), res)


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


def remainder_split(grid: DomainGrid, gamma, p: float, probe: PField,
                    u: PField) -> tuple[float, complex]:
    """The two terms of the pairing identity, computed on one quadrature:

    <L(f), f> = int gamma |grad u_0|^p
                + int gamma (flux(grad u) - flux(grad u_0)) . grad conj(u_0).
    """
    gamma_c = _as_gamma(gamma)(grid.centroid)
    qv = _complex_gradients(grid, probe)
    qu = _complex_gradients(grid, u)
    qv2 = _norm_sq(qv)
    expo = (p - 2.0) / 2.0
    leading = _p_energy(grid, qv2, p, gamma_c)
    diff = (_pow_or_zero(_norm_sq(qu), expo)[:, None] * qu
            - _pow_or_zero(qv2, expo)[:, None] * qv)
    remainder = complex((grid.area * gamma_c
                         * (diff * np.conj(qv)).sum(axis=1)).sum())
    return leading, remainder


def _correction_indicator(grid, spec: ProbeSpec, probe: ProbeFields,
                          u: PField) -> float:
    """M^(n-1) N^(1-p) ||grad(u - u_0)||_p^p for the unnormalized probe
    (= c_p times the plain p-energy of the normalized correction)."""
    qd = _complex_gradients(grid, PField(u.values - probe.field.values, u.mode))
    return spec.c_p() * _p_energy(grid, _norm_sq(qd), spec.p)


def recover_boundary_value(gamma, p: float, mode: str, M_list,
                           *, s: float = 2.0,
                           settings: SolverSettings | None = None,
                           cutoff: special.CutoffProfile | None = None,
                           rho: special.BoundaryDefiningFunction | None = None,
                           profile: special.WolffProfile | None = None,
                           nodes_per_wavelength: float = 16.0,
                           window_margin: float = 2.0,
                           max_nodes: int = 1_500_000) -> RecoveryReport:
    """Run the probe sequence and report per-M DN self-pairings.

    Each M is solved on its `probe_window_grid`, which receives
    `window_margin`, `nodes_per_wavelength` and `max_nodes`.  Per-M
    failures are recorded in their rows and the run continues.  The
    extrapolated value adds the last step between the two final estimates
    once more.
    """
    gamma_f = _as_gamma(gamma)
    gamma0 = float(gamma_f(np.zeros((1, 2)))[0])
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
            grid = probe_window_grid(spec, margin=window_margin,
                                     nodes_per_wavelength=nodes_per_wavelength,
                                     max_nodes=max_nodes)
            probe = build_probe(spec, grid)
            sol = solve_dirichlet(grid, gamma_f, p, probe.field, settings,
                                  initial=probe.field)
            pairing = flux_pairing(grid, gamma_f, p, sol.field, probe.field)
            leading, remainder = remainder_split(grid, gamma_f, p,
                                                 probe.field, sol.field)
            row.ok = True
            row.estimate = pairing.real
            row.pairing_imag = abs(pairing.imag)
            row.leading = leading
            row.remainder = remainder
            row.correction = _correction_indicator(grid, spec, probe, sol.field)
            row.newton_iterations = len(sol.energy_history)
            row.weak_residual = sol.weak_residual
            row.quad_estimate = quadrature_limit(gamma_f, spec)
        except (SolverConvergenceError, UnderResolvedProbeError,
                QuadratureError, ValueError) as exc:
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

