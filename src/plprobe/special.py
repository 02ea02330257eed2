"""Closed-form p-harmonic building blocks.

Two families of p-harmonic fields drive the boundary-recovery experiments:

* complex exponentials  h_N(x) = exp(N (i b - e_n) . x)  with |b|^2 = p - 1
  and b orthogonal to e_n, which solve div(|grad h|^(p-2) grad h) = 0
  exactly for every p > 1;

* real oscillatory fields of Wolff type  e^(-N rho(x)) a(N x_1), where the
  profile a solves  a'' + V(a, a') a = 0  with
  V = ((2p-3) a'^2 + (p-1) a^2) / ((p-1) a'^2 + a^2),
  is periodic with zero mean and is known in closed form.

The boundary defining function is rho(x) = x_n - g(x_1) for a flat (no g)
or graph bottom x_n = g(x_1); one `BoundaryDefiningFunction` carries g to
the Wolff field, the probe, its quadrature and the grid of `pde`.  The
module also provides the radial cutoff used to localize probes, the
normalization constants c_p for both families, the Gauss-Legendre panels
of every quadrature, and a finite-difference p-Laplace residual used to
certify the fields numerically.  It needs numpy only.
"""

from __future__ import annotations

import functools
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
        The plateau contributes exactly; the shoulder takes the fixed
        Gauss rule `_shoulder_rule(p)`, once per (p, n) for this profile.
        """
        if p <= 0:
            raise ValueError("p must be positive")
        if (p, n) not in self._slices:
            self._slices[p, n] = self._slice_integral(p, n)
        return self._slices[p, n]

    def _slice_integral(self, p: float, n: int) -> float:
        r, w = _shoulder_rule(p)
        # 1 - smoothstep may round below 0 next to r = 1
        eta_p = np.maximum(self.radial(r)[0], 0.0) ** p
        if n == 2:
            return 2.0 * (0.5 + float(w @ eta_p))
        if n == 3:
            return 2.0 * math.pi * (0.125 + float(w @ (eta_p * r)))
        raise ValueError("slice integral implemented for n in {2, 3}")


def _shoulder_rule(p: float):
    """Gauss panels on the cutoff's shoulder 1/2 < r < 1 for eta(r)^p.

    eta vanishes at r = 1 like (1 - r)^k, so eta^p is a power of order p
    there: the panels halve toward r = 1, down to width 2^-22.  At large p,
    eta^p falls from 1 over a width of order 1/sqrt(p), which no panel
    exceeds.  Against 22-digit quadrature the slice integral is within
    3.2e-16 relative for c1, c2, c3 and 1 < p <= 100, and 1e-15 at
    p = 1000, where the rounding of eta raised to the power p dominates.
    """
    breaks = np.append(1.0 - 0.5 ** np.arange(1, 23), 1.0)
    return _gauss_panels(_subdivide(breaks, min(0.125, 0.25 / math.sqrt(p))))


# ---------------------------------------------------------------------------
# Gauss-Legendre panels
# ---------------------------------------------------------------------------


# Gauss order of every panel.
_ORDER = 10


@functools.cache
def _gauss_rule():
    """The Gauss-Legendre rule of order `_ORDER` on [-1, 1], built once, on
    first use: numpy builds it with LAPACK, whose buffers (about 0.9 MiB) a
    process that integrates nothing need not hold."""
    return np.polynomial.legendre.leggauss(_ORDER)


def _gauss_panels(breaks: np.ndarray):
    """Composite Gauss-Legendre nodes/weights on the given panel breaks."""
    x, w = _gauss_rule()
    a, b = breaks[:-1], breaks[1:]
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def _subdivide(breaks: np.ndarray, max_width: float) -> np.ndarray:
    """The breaks with every panel cut into equal parts of at most max_width."""
    out = [breaks[0]]
    for a, b in zip(breaks[:-1], breaks[1:]):
        k = max(1, int(math.ceil((b - a) / max_width)))
        out.extend(a + (b - a) * np.arange(1, k + 1) / k)
    return np.asarray(out)


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


def _phase(M, e):
    """u with u + e sin u = M, for M in [0, 4 pi] and |e| < 1, point by point.

    g(u) = u + e sin u - M increases, and between its inflections u = j pi,
    where u = M, it is convex on the pieces where e sin u <= 0 and concave
    on the others.  Newton's method started at the end of M's piece
    [j pi, (j + 1) pi] where g has the sign of g'' moves monotonically to the
    root, for every |e| < 1.  Each point stops at its first step that does
    not carry it further, so its bits depend on no other point.
    """
    j = np.minimum(np.floor(M / math.pi), 3.0)
    convex = (e > 0) == (j % 2 == 1)
    u = np.where(convex, j + 1.0, j) * math.pi
    down = np.where(convex, -1.0, 1.0)
    live = np.arange(M.size)
    while live.size:
        v = u[live]
        new = v - (v + e * np.sin(v) - M[live]) / (1.0 + e * np.cos(v))
        moves = (new - v) * down[live] > 0
        live = live[moves]
        u[live] = new[moves]
    return u


@dataclass
class WolffProfile:
    """The periodic profile a with (a, a')(0) = (0, slope), in closed form.

    V is 0-homogeneous, so in the phase plane (a, a') = r (sin psi, cos psi)
    the ODE separates (T. Wolff, "Gap series constructions for the
    p-Laplacian", J. Anal. Math. 102, 2007):

        t = (p psi / 2 + (p - 2) sin(2 psi) / 4) / (p - 1),
        r = slope exp(-(p - 2) sin^2 psi / (2 (p - 1))),

    and psi = 2 pi closes the period lam = pi p / (p - 1).  With u = 2 psi
    the first is the Kepler-type equation u + e sin u = 4 (p - 1) t / p,
    e = (p - 2) / p.  The slope scales a and leaves the period.  `t`, `a`,
    `aprime` are one period's 8,192 uniform samples; K is the mean of
    |(a, a')|^p and a_mean the mean of a over them.
    """

    p: float
    slope: float = 1.0
    lam: float = field(init=False)
    t: np.ndarray = field(init=False, repr=False)
    a: np.ndarray = field(init=False, repr=False)
    aprime: np.ndarray = field(init=False, repr=False)
    K: float = field(init=False)
    a_mean: float = field(init=False)

    def __post_init__(self):
        if not self.p > 1:
            raise ValueError("p must be > 1")
        if not self.slope > 0:
            raise ValueError("initial slope must be positive")
        self.lam = math.pi * self.p / (self.p - 1.0)
        self.t = np.linspace(0.0, self.lam, 8192, endpoint=False)
        self.a, self.aprime = self.values_at(self.t)
        # the plain mean of uniform periodic samples is the spectrally
        # accurate trapezoid rule
        self.K = float(np.mean((self.a**2 + self.aprime**2) ** (self.p / 2.0)))
        self.a_mean = float(np.mean(self.a))

    def values_at(self, tau):
        """(a(tau), a'(tau)), each of tau's shape, from one phase solve."""
        p = self.p
        M = np.mod(np.ravel(tau), self.lam) * (4.0 * (p - 1.0) / p)
        psi = _phase(M, (p - 2.0) / p) / 2.0
        s = np.sin(psi)
        r = self.slope * np.exp((2.0 - p) / (2.0 * (p - 1.0)) * s * s)
        shape = np.shape(tau)
        return (r * s).reshape(shape), (r * np.cos(psi)).reshape(shape)


def solve_wolff_profile(p: float, initial_slope: float = 1.0) -> WolffProfile:
    """The Wolff profile of exponent p with a'(0) = initial_slope."""
    return WolffProfile(float(p), float(initial_slope))


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
        return (np.exp(-self.N * self.rho.value(pts))
                * self.profile.values_at(self.N * pts[..., 0])[0])

    def gradient(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        a, ap = self.profile.values_at(self.N * pts[..., 0])
        damp = np.exp(-self.N * self.rho.value(pts))
        out = -a[..., None] * self.rho.gradient(pts)
        out[..., 0] += ap
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
