"""Closed-form and ODE-generated p-harmonic building blocks.

Two families of p-harmonic fields drive the boundary-recovery experiments:

* complex exponentials  h_N(x) = exp(N (i b - e_n) . x)  with |b|^2 = p - 1
  and b orthogonal to e_n, which solve div(|grad h|^(p-2) grad h) = 0
  exactly for every p > 1;

* real oscillatory fields of Wolff type  e^(-N rho(x)) a(N x_1), where the
  profile a solves  a'' + V(a, a') a = 0  with
  V = ((2p-3) a'^2 + (p-1) a^2) / ((p-1) a'^2 + a^2)
  and is periodic with zero mean.

The boundary defining function is rho(x) = x_n - g(x_1) for a flat (no g)
or graph bottom x_n = g(x_1); one `BoundaryDefiningFunction` carries g to
the Wolff field, the probe, its quadrature and the grid of `pde`.  The
module also provides the radial cutoff used to localize probes, the
normalization constants c_p for both families, and a finite-difference
p-Laplace residual used to certify the fields numerically.

scipy is imported where it is used, not with the module: `quad` by the
cutoff's slice integral (every c_p), `solve_ivp` by `solve_wolff_profile`
and `CubicSpline` by `WolffProfile`.  The complex exponentials and the
boundary defining function need none of them, so a command that never
computes a c_p or a Wolff profile never loads scipy.integrate or
scipy.interpolate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
import numpy as np

from .vecp import _norm_sq, _pow_or_zero

__all__ = [
    "CutoffProfile",
    "CutoffField",
    "ComplexExponentialField",
    "make_complex_exponential",
    "BoundaryDefiningFunction",
    "WolffProfile",
    "PeriodDetectionError",
    "solve_wolff_profile",
    "WolffField",
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
    # slice integrals by (p, n), each computed once per profile: a command
    # builds one profile and needs the same c_p at every M
    _slices: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def __post_init__(self):
        if self.smoothness not in _SMOOTHSTEP_COEFFS:
            raise ValueError(f"unknown cutoff smoothness {self.smoothness!r}")

    def radial(self, r):
        """(eta(r), eta'(r)).  The smoothstep and its derivative are
        evaluated on the shoulder 1/2 < r < 1 only; elsewhere the values are
        exactly 1 or 0 and the slope 0.  A scalar r gives scalars."""
        r = np.asarray(r, dtype=float)
        plateau = r <= 0.5
        value, slope = np.where(plateau, 1.0, 0.0), np.zeros_like(r)
        shoulder = ~(plateau | (r >= 1.0))  # a NaN r stays NaN
        s = 2.0 * r[shoulder] - 1.0
        c = _SMOOTHSTEP_COEFFS[self.smoothness]
        polyval = np.polynomial.polynomial.polyval
        value[shoulder] = 1.0 - polyval(s, c)
        slope[shoulder] = -2.0 * polyval(s, c[1:] * np.arange(1, len(c)))
        return value[()], slope[()]

    def slice_integral(self, p: float, n: int = 2) -> float:
        """Integral of eta(x', 0)^p over the (n-1)-dimensional slice.

        n = 2: integral of eta(|t|)^p over the line; n = 3: over the plane.
        The plateau contributes exactly; the shoulder is integrated
        adaptively to 1e-12, once per (p, n) for this profile.
        """
        if p <= 0:
            raise ValueError("p must be positive")
        if (p, n) not in self._slices:
            self._slices[p, n] = self._slice_integral(p, n)
        return self._slices[p, n]

    def _slice_integral(self, p: float, n: int) -> float:
        from scipy.integrate import quad

        if n == 2:
            shoulder = quad(lambda r: self.radial(r)[0] ** p, 0.5, 1.0,
                            epsabs=1e-13, epsrel=1e-12)[0]
            return 2.0 * (0.5 + shoulder)
        if n == 3:
            shoulder = quad(lambda r: self.radial(r)[0] ** p * r, 0.5, 1.0,
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

    # Points are component-major, (n, ...): a point list (m, n) is passed
    # as its transpose, and the probe quadrature's (n, rows, layer) blocks
    # as they are.

    def value(self, pts) -> np.ndarray:
        """eta(M x) at component-major points (n, ...) -> (...)."""
        pts = np.asarray(pts, dtype=float)
        r = np.sqrt(_norm_sq(pts, axis=0))
        return self.profile.radial(self.M * r)[0]

    def value_and_gradient(self, pts) -> tuple[np.ndarray, np.ndarray]:
        """(value(pts), gradient(pts)) from one radius per point; the
        gradient is component-major like `pts`."""
        pts = np.asarray(pts, dtype=float)
        r = np.sqrt(_norm_sq(pts, axis=0))
        value, slope = self.profile.radial(self.M * r)
        slope *= self.M
        safe_r = np.where(r > 0, r, 1.0)
        return value, slope * pts / safe_r


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
    """rho(x) = x_n - g(x_1) for the bottom boundary x_n = g(x_1); flat
    (rho = x_n) when g is None.

    g and g_deriv map points of one coordinate, shape (..., 1), to (...);
    g(0) = 0 and g'(0) = 0, so rho(0) = 0 and grad rho(0) = e_n, and the
    domain side is rho > 0.  A graph bottom is defined for every x_1.
    """

    g: object = None
    g_deriv: object = None

    def __post_init__(self):
        if self.flat:
            return
        zero = np.zeros((1, 1))
        g0, dg0 = float(self.g(zero)[0]), float(self.g_deriv(zero)[0])
        if not (abs(g0) <= 1e-12 and abs(dg0) <= 1e-10):  # NaN fails too
            raise ValueError(f"graph bottom must satisfy g(0) = 0 and g'(0) = 0 "
                             f"(got g(0) = {g0:.3g}, g'(0) = {dg0:.3g})")

    @property
    def flat(self) -> bool:
        return self.g is None

    def value(self, pts) -> np.ndarray:
        """rho at points (m, n) -> (m,)."""
        pts = np.asarray(pts, dtype=float)
        if self.flat:
            return pts[..., -1]
        return pts[..., -1] - self.g(pts[..., :1])

    def gradient(self, pts) -> np.ndarray:
        """grad rho = e_n - g'(x_1) e_1 at points (m, n) -> (m, n)."""
        pts = np.asarray(pts, dtype=float)
        out = np.zeros_like(pts)
        out[..., -1] = 1.0
        if not self.flat:
            out[..., 0] = -self.g_deriv(pts[..., :1])
        return out


# ---------------------------------------------------------------------------
# Wolff profile
# ---------------------------------------------------------------------------


class PeriodDetectionError(RuntimeError):
    """No full period found within the integration horizon."""


def wolff_potential(a, aprime, p: float):
    """V(a, a') = ((2p-3) a'^2 + (p-1) a^2) / ((p-1) a'^2 + a^2) for floats
    or arrays of floats, elementwise.

    The squares are products, which numpy's x**2 is too, so an array gives
    the same bits as the same values passed one float at a time.
    """
    ap2, a2 = aprime * aprime, a * a
    return ((2.0 * p - 3.0) * ap2 + (p - 1.0) * a2) / ((p - 1.0) * ap2 + a2)


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
        from scipy.interpolate import CubicSpline

        tk = np.append(self.t, self.lam)
        self._spline_a = CubicSpline(tk, np.append(self.a, self.a[0]),
                                     bc_type="periodic")
        self._spline_ap = CubicSpline(tk, np.append(self.aprime, self.aprime[0]),
                                      bc_type="periodic")

    def a_at(self, tau):
        return self._spline_a(np.mod(tau, self.lam))

    def aprime_at(self, tau):
        return self._spline_ap(np.mod(tau, self.lam))


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

    from scipy.integrate import solve_ivp

    def rhs(t, y):
        # Python floats: ~3,500 calls per solve, each cheaper than on
        # 0-d arrays, with the same IEEE double arithmetic
        a, ap = float(y[0]), float(y[1])
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
    rho: BoundaryDefiningFunction = field(default_factory=BoundaryDefiningFunction)

    def __post_init__(self):
        if not self.N > 0:
            raise ValueError("N must be positive")

    def value(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        return np.exp(-self.N * self.rho.value(pts)) * self.profile.a_at(
            self.N * pts[..., 0])

    def gradient(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        tau = self.N * pts[..., 0]
        damp = np.exp(-self.N * self.rho.value(pts))
        grad_rho = self.rho.gradient(pts)
        out = -self.profile.a_at(tau)[..., None] * grad_rho
        out[..., 0] += self.profile.aprime_at(tau)
        return self.N * damp[..., None] * out


# ---------------------------------------------------------------------------
# Normalization constants
# ---------------------------------------------------------------------------


def c_p_complex(p: float, eta: CutoffProfile, n: int = 2) -> float:
    """p^((p-2)/2) * integral of eta(x', 0)^p over the boundary slice."""
    if not p > 1:
        raise ValueError("p must be > 1")
    return p ** ((p - 2.0) / 2.0) * eta.slice_integral(p, n)


def c_p_real(p: float, eta: CutoffProfile, profile: WolffProfile,
             n: int = 2) -> float:
    """(K / p) * integral of eta(x', 0)^p over the boundary slice."""
    if not p > 1:
        raise ValueError("p must be > 1")
    return (profile.K / p) * eta.slice_integral(p, n)


# ---------------------------------------------------------------------------
# Finite-difference p-Laplace residual
# ---------------------------------------------------------------------------


def p_laplace_residual(gradient, point, p: float, step: float,
                       wavenumber: float) -> float:
    """Dimensionless central-difference residual of div(|grad u|^(p-2) grad u).

    `gradient` maps points (m, n) to complex gradients (m, n), for example
    a field's `.gradient`.  The raw divergence is normalized by
    (wavenumber * max stencil |flux|), which makes the residual scale-free:
    exactly p-harmonic smooth fields give O(step^2) values.
    """
    if not step > 0:
        raise ValueError("step must be positive")
    if not p > 1:
        raise ValueError("p must be > 1")
    x = np.asarray(point, dtype=float)
    n = x.size

    stencil = np.repeat(x[None, :], 2 * n, axis=0)
    for j in range(n):
        stencil[2 * j, j] += step
        stencil[2 * j + 1, j] -= step
    g = np.asarray(gradient(stencil), dtype=np.complex128)
    flux = _pow_or_zero(_norm_sq(g), (p - 2.0) / 2.0)[:, None] * g

    div = 0.0 + 0.0j
    for j in range(n):
        div += (flux[2 * j, j] - flux[2 * j + 1, j]) / (2.0 * step)
    flux_scale = float(np.sqrt(_norm_sq(flux)).max())
    if flux_scale == 0.0:
        return 0.0
    return abs(div) / (wavenumber * flux_scale)
