"""Closed-form and ODE-generated p-harmonic building blocks.

Two families of p-harmonic fields drive the boundary-recovery experiments:

* complex exponentials  h_N(x) = exp(N (i b - e_n) . x)  with |b|^2 = p - 1
  and b orthogonal to e_n, which solve div(|grad h|^(p-2) grad h) = 0
  exactly for every p > 1;

* real oscillatory fields of Wolff type  e^(-N rho(x)) a(N x_1), where the
  profile a solves  a'' + V(a, a') a = 0  with
  V = ((2p-3) a'^2 + (p-1) a^2) / ((p-1) a'^2 + a^2)
  and is periodic with zero mean; rho is a boundary defining function
  (rho = x_n in the flat case).

The module also provides the radial cutoff used to localize probes, the
normalization constants c_p for both families, and a finite-difference
p-Laplace residual used to certify the fields numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.interpolate import CubicSpline

from .vecp import _norm_sq, _pow_or_zero

__all__ = [
    "CutoffProfile",
    "CutoffField",
    "make_cutoff",
    "ComplexExponentialField",
    "make_complex_exponential",
    "BoundaryDefiningFunction",
    "flat_boundary",
    "graph_boundary",
    "WolffProfile",
    "PeriodDetectionError",
    "solve_wolff_profile",
    "WolffField",
    "make_wolff_field",
    "c_p_complex",
    "c_p_real",
    "p_laplace_residual",
]


# ---------------------------------------------------------------------------
# Cutoff
# ---------------------------------------------------------------------------

# Polynomial smoothsteps S(0)=0, S(1)=1 with derivatives vanishing to the
# stated order at both endpoints; coefficients of s^k, ascending.
_SMOOTHSTEP_COEFFS = {
    "c1": np.array([0.0, 0.0, 3.0, -2.0]),
    "c2": np.array([0.0, 0.0, 0.0, 10.0, -15.0, 6.0]),
    "c3": np.array([0.0, 0.0, 0.0, 0.0, 35.0, -84.0, 70.0, -20.0]),
}


@dataclass(frozen=True)
class CutoffProfile:
    """Radial bump: 1 on [0, 1/2], polynomial smoothstep down to 0 at 1."""

    smoothness: str = "c3"

    def __post_init__(self):
        if self.smoothness not in _SMOOTHSTEP_COEFFS:
            raise ValueError(f"unknown cutoff smoothness {self.smoothness!r}")

    def _step(self, s):
        c = _SMOOTHSTEP_COEFFS[self.smoothness]
        return np.polynomial.polynomial.polyval(s, c)

    def _step_deriv(self, s):
        c = _SMOOTHSTEP_COEFFS[self.smoothness]
        dc = c[1:] * np.arange(1, len(c))
        return np.polynomial.polynomial.polyval(s, dc)

    # The smoothstep is evaluated on the shoulder 1/2 < r < 1 only; elsewhere
    # the values are exactly 1 or 0.  A scalar r gives a scalar.

    def value_radial(self, r):
        r = np.asarray(r, dtype=float)
        plateau = r <= 0.5
        out = np.where(plateau, 1.0, 0.0)
        shoulder = ~(plateau | (r >= 1.0))  # a NaN r stays NaN
        out[shoulder] = 1.0 - self._step(2.0 * r[shoulder] - 1.0)
        return out[()]

    def deriv_radial(self, r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        shoulder = (r > 0.5) & (r < 1.0)
        out[shoulder] = -2.0 * self._step_deriv(2.0 * r[shoulder] - 1.0)
        return out[()]

    def slice_integral(self, p: float, n: int = 2) -> float:
        """Integral of eta(x', 0)^p over the (n-1)-dimensional slice.

        n = 2: integral of eta(|t|)^p over the line; n = 3: over the plane.
        The plateau contributes exactly; the shoulder is integrated
        adaptively to 1e-12.
        """
        if p <= 0:
            raise ValueError("p must be positive")
        if n == 2:
            shoulder = quad(lambda r: self.value_radial(r) ** p, 0.5, 1.0,
                            epsabs=1e-13, epsrel=1e-12)[0]
            return 2.0 * (0.5 + shoulder)
        if n == 3:
            shoulder = quad(lambda r: self.value_radial(r) ** p * r, 0.5, 1.0,
                            epsabs=1e-13, epsrel=1e-12)[0]
            return 2.0 * math.pi * (0.125 + shoulder)
        raise ValueError("slice integral implemented for n in {2, 3}")


@dataclass(frozen=True)
class CutoffField:
    """Scaled cutoff eta_M(x) = eta(M x): plateau |x| <= 1/(2M), support |x| <= 1/M."""

    M: float
    profile: CutoffProfile = field(default_factory=CutoffProfile)

    def __post_init__(self):
        if not self.M > 0:
            raise ValueError("M must be positive")

    @property
    def support_radius(self) -> float:
        return 1.0 / self.M

    def value(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        r = np.sqrt(_norm_sq(pts))
        return self.profile.value_radial(self.M * r)

    def gradient(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        r = np.sqrt(_norm_sq(pts))
        d = self.M * self.profile.deriv_radial(self.M * r)
        safe_r = np.where(r > 0, r, 1.0)
        return d[..., None] * pts / safe_r[..., None]


def make_cutoff(M: float, smoothness: str = "c3") -> CutoffField:
    return CutoffField(M=float(M), profile=CutoffProfile(smoothness))


# ---------------------------------------------------------------------------
# Complex exponential
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComplexExponentialField:
    """h_N(x) = exp(N (i b - e_n) . x), p-harmonic for |b|^2 = p - 1, b . e_n = 0."""

    p: float
    N: float
    beta: np.ndarray  # |beta|^2 = p - 1, beta . e_n = 0

    @property
    def n(self) -> int:
        return self.beta.size

    @property
    def wavenumber(self) -> float:
        return self.N

    @property
    def exponent_vector(self) -> np.ndarray:
        """i beta - e_n; its squared complex norm equals p."""
        e_n = np.zeros(self.n)
        e_n[-1] = 1.0
        return 1j * self.beta - e_n

    def value(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        return np.exp(self.N * pts @ self.exponent_vector)

    def gradient(self, pts) -> np.ndarray:
        return self.value(pts)[..., None] * (self.N * self.exponent_vector)

    def identity_residual(self):
        """((p-1)|alpha|^2 - |beta|^2, alpha . beta) for alpha = -e_n; both 0."""
        alpha = np.zeros(self.n)
        alpha[-1] = -1.0
        return ((self.p - 1.0) * alpha @ alpha - self.beta @ self.beta,
                float(alpha @ self.beta))


def make_complex_exponential(p: float, n: int = 2, direction=None,
                             N: float = 1.0) -> ComplexExponentialField:
    """Oscillation along `direction` (unit vector orthogonal to e_n)."""
    if not p > 1:
        raise ValueError("p must be > 1")
    if not N > 0:
        raise ValueError("N must be positive")
    if n not in (2, 3):
        raise ValueError("n must be 2 or 3")
    if direction is None:
        direction = np.zeros(n)
        direction[0] = 1.0
    direction = np.asarray(direction, dtype=float)
    if direction.shape != (n,):
        raise ValueError(f"direction must have shape ({n},)")
    if abs(np.linalg.norm(direction) - 1.0) > 1e-12:
        raise ValueError("direction must be a unit vector")
    if abs(direction[-1]) > 1e-13:
        raise ValueError("direction must be orthogonal to e_n")
    beta = math.sqrt(p - 1.0) * direction
    return ComplexExponentialField(p=float(p), N=float(N), beta=beta)


# ---------------------------------------------------------------------------
# Boundary defining function
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryDefiningFunction:
    """rho with rho(0) = 0, grad rho(0) = e_n; domain side is rho > 0.

    `value` maps points (m, n) -> (m,); `gradient` maps (m, n) -> (m, n).
    `radius` bounds the validity neighborhood around the base point.
    """

    value: object
    gradient: object
    radius: float = math.inf
    flat: bool = True

    def check_inside(self, pts) -> None:
        if not math.isfinite(self.radius):
            return
        pts = np.asarray(pts, dtype=float)
        r = np.sqrt((pts**2).sum(axis=-1))
        if np.any(r > self.radius * (1.0 + 1e-12)):
            raise ValueError(
                f"point outside the defining-function neighborhood "
                f"(|x| up to {float(np.max(r)):.3g} > radius {self.radius:.3g})")

    def bottom_curve(self):
        """(g, g') with g(x_1) = -rho(x_1, 0): the graph bottom that
        `pde.Rectangle` takes, or (None, None) for a flat boundary."""
        if self.flat:
            return None, None

        def on_axis(x1):
            x1 = np.asarray(x1, dtype=float)
            return np.stack([x1, np.zeros_like(x1)], axis=-1)

        return (lambda x1: -self.value(on_axis(x1)),
                lambda x1: -self.gradient(on_axis(x1))[..., 0])


def flat_boundary(n: int = 2) -> BoundaryDefiningFunction:
    def value(pts):
        return np.asarray(pts, dtype=float)[..., -1]

    def gradient(pts):
        pts = np.asarray(pts, dtype=float)
        g = np.zeros_like(pts)
        g[..., -1] = 1.0
        return g

    return BoundaryDefiningFunction(value=value, gradient=gradient,
                                    radius=math.inf, flat=True)


def graph_boundary(g, g_deriv, radius: float = math.inf) -> BoundaryDefiningFunction:
    """rho(x) = x_2 - g(x_1) for a graph bottom boundary, n = 2.

    Normalizes internally: requires g(0) = 0 and g'(0) = 0 after shifting,
    so that rho(0) = 0 and grad rho(0) = e_2 exactly.
    """
    g0 = float(g(np.zeros(1))[0]) if np.ndim(g(np.zeros(1))) else float(g(0.0))
    dg0 = float(np.asarray(g_deriv(np.zeros(1))).reshape(-1)[0])
    if abs(dg0) > 1e-10:
        raise ValueError(
            f"graph boundary must be tangent to the horizontal at 0, g'(0) = {dg0:.3g}")

    def value(pts):
        pts = np.asarray(pts, dtype=float)
        return pts[..., 1] - (np.asarray(g(pts[..., 0])) - g0)

    def gradient(pts):
        pts = np.asarray(pts, dtype=float)
        out = np.empty_like(pts)
        out[..., 0] = -np.asarray(g_deriv(pts[..., 0]))
        out[..., 1] = 1.0
        return out

    return BoundaryDefiningFunction(value=value, gradient=gradient,
                                    radius=radius, flat=False)


# ---------------------------------------------------------------------------
# Wolff profile
# ---------------------------------------------------------------------------


class PeriodDetectionError(RuntimeError):
    """No full period found within the integration horizon."""


def wolff_potential(a, aprime, p: float):
    """V(a, a') = ((2p-3) a'^2 + (p-1) a^2) / ((p-1) a'^2 + a^2)."""
    a = np.asarray(a, dtype=float)
    aprime = np.asarray(aprime, dtype=float)
    return ((2.0 * p - 3.0) * aprime**2 + (p - 1.0) * a**2) / (
        (p - 1.0) * aprime**2 + a**2)


@dataclass
class WolffProfile:
    """One period of the oscillatory profile with uniform (a, a') samples."""

    p: float
    lam: float
    t: np.ndarray            # uniform in [0, lam), endpoint excluded
    a: np.ndarray
    aprime: np.ndarray
    K: float
    a_mean: float
    ode_tol: float
    period_return_drift: float  # |(a, a')(lam) - (0, 1)|

    def __post_init__(self):
        tk = np.append(self.t, self.lam)
        self._spline_a = CubicSpline(tk, np.append(self.a, self.a[0]),
                                     bc_type="periodic")
        self._spline_ap = CubicSpline(tk, np.append(self.aprime, self.aprime[0]),
                                      bc_type="periodic")

    def a_at(self, tau):
        return self._spline_a(np.mod(tau, self.lam))

    def aprime_at(self, tau):
        return self._spline_ap(np.mod(tau, self.lam))

    def ode_residual_max(self) -> float:
        """max_t |a'' + V(a, a') a| / scale over the stored samples.

        a'' is recovered by differentiating the a' spline, independently of
        the relation a'' = -V a used during integration.
        """
        a2 = self._spline_ap.derivative()(self.t)
        res = a2 + wolff_potential(self.a, self.aprime, self.p) * self.a
        scale = float(np.max(np.abs(a2))) or 1.0
        return float(np.max(np.abs(res))) / scale

    def running_mean_drift(self, offsets=(0.3, 1.1, 2.4)) -> float:
        """Max deviation of the period average of a over shifted windows."""
        worst = abs(self.a_mean)
        m = self.t.size
        for t0 in offsets:
            ts = t0 + self.lam * np.arange(m) / m
            worst = max(worst, abs(float(np.mean(self.a_at(ts)))))
        return worst


def solve_wolff_profile(p: float, tol: float = 1e-10,
                        horizon: float | None = None,
                        initial_slope: float = 1.0) -> WolffProfile:
    """Integrate the profile ODE from (a, a')(0) = (0, slope), extract one period.

    V is 0-homogeneous in (a, a'), so the default normalization (slope 1)
    loses no generality; changing the slope rescales a without moving the
    period.  The period is the first upward zero crossing of a with a' > 0
    after the start (half periods have a' < 0 and are skipped).
    """
    if not p > 1:
        raise ValueError("p must be > 1")
    if not initial_slope > 0:
        raise ValueError("initial slope must be positive")
    if horizon is None:
        horizon = 500.0 * max(1.0, 1.0 / (p - 1.0))

    def rhs(t, y):
        a, ap = y
        return (ap, -wolff_potential(a, ap, p) * a)

    def upward_zero(t, y):
        return y[0]

    upward_zero.direction = 1.0
    upward_zero.terminal = 2  # the t = 0 start may register as occurrence one

    # Without a step cap the integrator strides the whole period in a few
    # steps and the dense-output interpolant (not the solution) dominates
    # the sampled residual; capping keeps the interpolant at solver accuracy.
    max_step = 0.02 * max(1.0, 1.0 / (p - 1.0))
    sol = solve_ivp(rhs, (0.0, horizon), [0.0, initial_slope], method="DOP853",
                    rtol=tol, atol=tol * 1e-2 * initial_slope, events=upward_zero,
                    dense_output=True, max_step=max_step)
    crossings = [tc for tc in sol.t_events[0] if tc > 1e-10]
    if not crossings:
        raise PeriodDetectionError(
            f"no period detected for p = {p} within horizon {horizon:.3g}")
    lam = float(crossings[0])

    end = sol.sol(lam)
    drift = float(np.hypot(end[0] - 0.0, end[1] - initial_slope)) / initial_slope

    ts = np.linspace(0.0, lam, 8192, endpoint=False)
    a, aprime = sol.sol(ts)
    envelope = a**2 + aprime**2
    if envelope.min() <= 0.0:
        raise RuntimeError("profile envelope degenerated to zero")

    # Uniform periodic samples: the plain mean is the spectrally accurate
    # trapezoid rule for periodic integrands.
    K = float(np.mean(envelope ** (p / 2.0)))
    a_mean = float(np.mean(a))
    return WolffProfile(p=float(p), lam=lam, t=ts, a=a, aprime=aprime,
                        K=K, a_mean=a_mean, ode_tol=tol,
                        period_return_drift=drift)


@dataclass(frozen=True)
class WolffField:
    """e^(-N rho(x)) a(N x_1) with gradient N e^(-N rho) (a' e_1 - a grad rho)."""

    profile: WolffProfile
    N: float
    rho: BoundaryDefiningFunction

    @property
    def wavenumber(self) -> float:
        return self.N

    def value(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        self.rho.check_inside(pts)
        return np.exp(-self.N * self.rho.value(pts)) * self.profile.a_at(
            self.N * pts[..., 0])

    def gradient(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        self.rho.check_inside(pts)
        tau = self.N * pts[..., 0]
        damp = np.exp(-self.N * self.rho.value(pts))
        grad_rho = self.rho.gradient(pts)
        out = -self.profile.a_at(tau)[..., None] * grad_rho
        out[..., 0] += self.profile.aprime_at(tau)
        return self.N * damp[..., None] * out


def make_wolff_field(profile: WolffProfile, N: float,
                     rho: BoundaryDefiningFunction | None = None) -> WolffField:
    if not N > 0:
        raise ValueError("N must be positive")
    return WolffField(profile=profile, N=float(N),
                      rho=rho if rho is not None else flat_boundary())


# ---------------------------------------------------------------------------
# Normalization constants
# ---------------------------------------------------------------------------


def c_p_complex(p: float, eta: CutoffField | CutoffProfile, n: int = 2) -> float:
    """p^((p-2)/2) * integral of eta(x', 0)^p over the boundary slice."""
    if not p > 1:
        raise ValueError("p must be > 1")
    profile = eta.profile if isinstance(eta, CutoffField) else eta
    return p ** ((p - 2.0) / 2.0) * profile.slice_integral(p, n)


def c_p_real(p: float, eta: CutoffField | CutoffProfile, profile: WolffProfile,
             n: int = 2) -> float:
    """(K / p) * integral of eta(x', 0)^p over the boundary slice."""
    if not p > 1:
        raise ValueError("p must be > 1")
    cut = eta.profile if isinstance(eta, CutoffField) else eta
    return (profile.K / p) * cut.slice_integral(p, n)


# ---------------------------------------------------------------------------
# Finite-difference p-Laplace residual
# ---------------------------------------------------------------------------


def p_laplace_residual(gradient_fn, point, p: float, step: float,
                       wavenumber: float | None = None) -> float:
    """Dimensionless central-difference residual of div(|grad u|^(p-2) grad u).

    `gradient_fn` is either a field object exposing .gradient(pts) (and
    optionally .wavenumber) or a bare callable pts (m, n) -> (m, n) complex.
    The raw divergence is normalized by (wavenumber * max stencil |flux|),
    which makes the residual scale-free: exactly p-harmonic smooth fields
    give O(step^2) values.
    """
    if not step > 0:
        raise ValueError("step must be positive")
    if not p > 1:
        raise ValueError("p must be > 1")
    grad = getattr(gradient_fn, "gradient", gradient_fn)
    if wavenumber is None:
        wavenumber = float(getattr(gradient_fn, "wavenumber", 1.0))
    x = np.asarray(point, dtype=float)
    n = x.size

    stencil = np.repeat(x[None, :], 2 * n, axis=0)
    for j in range(n):
        stencil[2 * j, j] += step
        stencil[2 * j + 1, j] -= step
    g = np.asarray(grad(stencil), dtype=np.complex128)
    flux = _pow_or_zero(_norm_sq(g), (p - 2.0) / 2.0)[:, None] * g

    div = 0.0 + 0.0j
    for j in range(n):
        div += (flux[2 * j, j] - flux[2 * j + 1, j]) / (2.0 * step)
    flux_scale = float(np.sqrt(_norm_sq(flux)).max())
    if flux_scale == 0.0:
        return 0.0
    return abs(div) / (wavenumber * flux_scale)
