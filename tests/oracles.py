"""Validators of paper facts that only the tests use.

* the classical inequalities of the flux nonlinearity |z|^(p-2) z;
* the period-average limit of the real probe's oscillatory integral;
* the Wolff potential V, the profile's ODE residual and the drift of its
  running mean, and its period and K from the phase-plane quadrature;
* the Hardy ratio ||v / delta||_p / ||grad v||_p and the H1 error against
  an analytic gradient;
* the dual-norm weak residual as the solver computed it before it read the
  Newton gradient, with its own flux weight and node sums;
* the config expression language's original tokenizer and
  recursive-descent parser, frozen as the reference for its trees;
* the 41 x 41 lattice on which the config check sampled a rectangle's
  conductivity before it read `pde.lattice_points`;
* the probe quadrature's boundary-layer rule from before it stopped
  refining the layer's tail, and from before its head kept its level-0
  panels within the cutoff's plateau; and the panel rule refined past any
  level, the reference of the Gauss-Laguerre layer;
* the cutoff's radial profile by numpy's `polyval`, the panel subdivision
  by a loop over the panels, and the probe energy's integrand with every
  factor evaluated on every point of a block, as they were before the
  integrand took its factors of x_1 alone once per quadrature level.

They evaluate what `plprobe` computes with formulas of their own; the
package itself runs none of them.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad, solve_ivp

from plprobe import pde, recovery, special
from plprobe.config import ConfigError, parse_expression
from plprobe.vecp import _norm_sq, _pow_or_zero

# Fixed seed of every randomized inequality battery.
PROPERTY_SEED = 20120621

# Log-uniform magnitude window of `sample_vectors`; exercises scaling
# extremes without leaving double precision.
MAG_RANGE = (1e-6, 1e6)

# ---------------------------------------------------------------------------
# p-power vector algebra
#
# Real and complex vectors in dimension 2 or 3 are complex arrays with the
# components on the trailing axis (imaginary part zero in the real case).
# The dot product does not conjugate, z . w = sum_j z_j w_j, and |z| is the
# Euclidean norm of the underlying real vector.  With flux(z) = |z|^(p-2) z:
#
#   convexity_gap          |w|^p - |z|^p - p|z|^(p-2) Re[z.(conj w - conj z)] >= 0
#   p_power_difference_gap p(|z|^(p-1)+|w|^(p-1))|z-w| - ||z|^p - |w|^p|     >= 0
#   difference_ratio       |flux(z)-flux(w)| / ((|z|+|w|)^(p-2)|z-w|)        <= C(p)
#   monotonicity_ratio     Re[(flux(z)-flux(w)).(conj z - conj w)]
#                          / ((|z|+|w|)^(p-2)|z-w|^2)   in [c1(p), c2(p)], > 0
# ---------------------------------------------------------------------------


def _check_p(p: float) -> float:
    p = float(p)
    if not p > 1.0:
        raise ValueError(f"exponent p must be > 1, got {p}")
    return p


def as_vectors(z) -> np.ndarray:
    """Coerce to a complex array with 2 or 3 components on the last axis."""
    z = np.asarray(z, dtype=np.complex128)
    if z.ndim == 0 or z.shape[-1] not in (2, 3):
        raise ValueError("vectors must have 2 or 3 components on the trailing axis")
    return z


def vec_norm(z) -> np.ndarray:
    return np.sqrt(_norm_sq(as_vectors(z)))


def vec_dot(z, w) -> np.ndarray:
    """Non-conjugating dot product sum_j z_j w_j."""
    return (as_vectors(z) * as_vectors(w)).sum(axis=-1)


def p_flux(z, p: float) -> np.ndarray:
    """Flux nonlinearity |z|^(p-2) z, equal to 0 at z = 0 for every p > 1."""
    p = _check_p(p)
    z = as_vectors(z)
    return z * _pow_or_zero(vec_norm(z), p - 2.0)[..., None]


def convexity_gap(z, w, p: float) -> np.ndarray:
    """|w|^p - |z|^p - p |z|^(p-2) Re[z.(conj(w) - conj(z))]; >= 0 always."""
    p = _check_p(p)
    z = as_vectors(z)
    w = as_vectors(w)
    rz = vec_norm(z)
    rw = vec_norm(w)
    inner = np.real(vec_dot(z, np.conj(w) - np.conj(z)))
    # |z|^(p-2) * inner -> 0 as z -> 0 (inner carries a factor |z|).
    return rw**p - rz**p - p * _pow_or_zero(rz, p - 2.0) * inner


def convexity_gap_scale(z, w, p: float) -> np.ndarray:
    """Magnitude scale of the convexity_gap terms, for floating-point slack."""
    p = _check_p(p)
    z = as_vectors(z)
    w = as_vectors(w)
    rz = vec_norm(z)
    rw = vec_norm(w)
    return rw**p + rz**p + p * _pow_or_zero(rz, p - 1.0) * vec_norm(w - z)


def p_power_difference_gap(z, w, p: float) -> np.ndarray:
    """p (|z|^(p-1) + |w|^(p-1)) |z-w|  -  ||z|^p - |w|^p|; >= 0 always."""
    p = _check_p(p)
    rz = vec_norm(z)
    rw = vec_norm(w)
    dist = vec_norm(as_vectors(z) - as_vectors(w))
    return p * (rz ** (p - 1.0) + rw ** (p - 1.0)) * dist - np.abs(rz**p - rw**p)


def p_power_difference_scale(z, w, p: float) -> np.ndarray:
    p = _check_p(p)
    rz = vec_norm(z)
    rw = vec_norm(w)
    dist = vec_norm(as_vectors(z) - as_vectors(w))
    return p * (rz ** (p - 1.0) + rw ** (p - 1.0)) * dist + rz**p + rw**p


def _distinct_norms(z, w):
    """(|z|, |w|) of distinct vectors, not both zero."""
    if np.any((z == w).all(axis=-1)):
        raise ValueError("undefined for coinciding vectors z = w")
    rz = vec_norm(z)
    rw = vec_norm(w)
    if np.any(rz + rw == 0.0):
        raise ValueError("undefined for z = w = 0")
    return rz, rw


def difference_ratio(z, w, p: float) -> np.ndarray:
    """|flux(z) - flux(w)| / ((|z|+|w|)^(p-2) |z-w|).

    Bounded above by a p-dependent constant; undefined for z = w.
    """
    p = _check_p(p)
    z = as_vectors(z)
    w = as_vectors(w)
    rz, rw = _distinct_norms(z, w)
    num = vec_norm(p_flux(z, p) - p_flux(w, p))
    den = (rz + rw) ** (p - 2.0) * vec_norm(z - w)
    return num / den


def monotonicity_ratio(z, w, p: float) -> np.ndarray:
    """Re[(flux(z)-flux(w)).(conj z - conj w)] / ((|z|+|w|)^(p-2)|z-w|^2).

    Sandwiched between positive p-dependent constants; exactly 1 at p = 2.
    """
    p = _check_p(p)
    z = as_vectors(z)
    w = as_vectors(w)
    rz, rw = _distinct_norms(z, w)
    diff = z - w
    num = np.real(vec_dot(p_flux(z, p) - p_flux(w, p), np.conj(diff)))
    den = (rz + rw) ** (p - 2.0) * vec_norm(diff) ** 2
    return num / den


def sample_vectors(rng: np.random.Generator, count: int, dim: int = 2,
                   kind: str = "complex") -> np.ndarray:
    """Random vectors with log-uniform magnitudes in MAG_RANGE.

    kind = "complex" | "real"; the real case is the im = 0 specialization.
    """
    if kind == "complex":
        raw = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    elif kind == "real":
        raw = rng.standard_normal((count, dim)) + 0j
    else:
        raise ValueError(f"unknown sample kind {kind!r}")
    norms = vec_norm(raw)
    norms = np.where(norms > 0, norms, 1.0)
    lo, hi = np.log10(MAG_RANGE[0]), np.log10(MAG_RANGE[1])
    mags = 10.0 ** rng.uniform(lo, hi, count)
    return raw * (mags / norms)[:, None]


# ---------------------------------------------------------------------------
# Oscillatory average of the real probe
# ---------------------------------------------------------------------------


def oscillatory_average_check(spec: recovery.ProbeSpec, tol: float = 1e-7,
                              max_level: int = 5) -> dict:
    """Scaled oscillatory integral against its period-average prediction.

    lhs = M^(n-1) N int eta(Mx)^2 e^(-p N rho) a(N x_1)^2 dx,
    rhs = (mean of a^2 over one period / p) * int eta(x', 0)^2 dx'.
    Both sides are computed by independent quadratures (panel tensor rule
    vs. profile period average + the cutoff's slice integral).
    """
    if spec.mode != "real":
        raise ValueError("oscillatory average check applies to real-mode probes")
    eta_field = special.CutoffField(M=spec.M, profile=spec.cutoff)

    def integrand(x1):
        # a(N x_1) once per level, on every perpendicular node
        a = spec.profile.values_at(spec.N * x1)[0][:, None]
        return lambda x, rows: eta_field.value(x) ** 2 * a[rows] ** 2

    lhs = recovery._refined_quad(spec, integrand, tol, max_level)
    c = float(np.mean(spec.profile.a ** 2))
    rhs = (c / spec.p) * special.slice_integral(spec.cutoff.smoothness, 2.0)
    return {"lhs": lhs, "rhs": rhs, "rel_diff": abs(lhs - rhs) / abs(rhs)}


# ---------------------------------------------------------------------------
# Wolff profile
# ---------------------------------------------------------------------------


def wolff_potential(a, aprime, p: float):
    """V(a, a') = ((2p-3) a'^2 + (p-1) a^2) / ((p-1) a'^2 + a^2), elementwise."""
    ap2, a2 = aprime * aprime, a * a
    return ((2.0 * p - 3.0) * ap2 + (p - 1.0) * a2) / ((p - 1.0) * ap2 + a2)


def ode_residual_max(profile: special.WolffProfile) -> float:
    """max_t |a'' + V(a, a') a| / scale over the stored samples.

    a'' is the exact derivative of the trigonometric interpolant of the a'
    samples, independent of the relation a'' = -V a.  (A periodic cubic
    spline's derivative is off by O(h^3) in itself: 2.4e-7 of max |a''| at
    p = 20, where the spectral derivative reads 1.7e-12.)
    """
    n = profile.t.size
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=profile.lam / n)
    a2 = np.fft.irfft(1j * k * np.fft.rfft(profile.aprime), n)
    res = a2 + wolff_potential(profile.a, profile.aprime, profile.p) * profile.a
    scale = float(np.max(np.abs(a2))) or 1.0
    return float(np.max(np.abs(res))) / scale


# The potential V is 0-homogeneous in (a, a'), so in polar phase-plane
# coordinates (a, a') = r (cos th, sin th) the angular speed depends on th
# alone: dth/dt = -(p-1) / D(th), D = (p-1) sin^2 th + cos^2 th.  The period
# is a plain 1D quadrature and r(th) solves a non-oscillatory scalar ODE,
# giving K by quadrature: numerically, from the ODE, and independent of the
# closed form the package evaluates.


def oracle_period(p):
    return quad(lambda th: ((p - 1) * np.sin(th) ** 2 + np.cos(th) ** 2) / (p - 1),
                0.0, 2.0 * np.pi, epsabs=1e-13, epsrel=1e-13)[0]


def oracle_K(p):
    def D(th):
        return (p - 1) * np.sin(th) ** 2 + np.cos(th) ** 2

    def V(th):
        return ((2 * p - 3) * np.sin(th) ** 2 + (p - 1) * np.cos(th) ** 2) / D(th)

    def dlnr(th, y):
        return [np.cos(th) * np.sin(th) * (1.0 - V(th)) * (-D(th) / (p - 1))]

    th0 = np.pi / 2
    sol = solve_ivp(dlnr, (th0, th0 - 2 * np.pi), [0.0], method="DOP853",
                    rtol=1e-12, atol=1e-14, dense_output=True)
    lam = oracle_period(p)
    val = quad(lambda th: np.exp(p * sol.sol(th)[0]) * D(th) / (p - 1),
               th0 - 2 * np.pi, th0, limit=200, epsabs=1e-13, epsrel=1e-12)[0]
    return val / lam


def running_mean_drift(profile: special.WolffProfile,
                       offsets=(0.3, 1.1, 2.4)) -> float:
    """Max deviation of the period average of a over shifted windows."""
    worst = abs(profile.a_mean)
    m = profile.t.size
    for t0 in offsets:
        ts = t0 + profile.lam * np.arange(m) / m
        worst = max(worst, abs(float(np.mean(profile.values_at(ts)[0]))))
    return worst


# ---------------------------------------------------------------------------
# Grid functionals
# ---------------------------------------------------------------------------


def distance_to_boundary(grid: pde.DomainGrid) -> np.ndarray:
    """Distance of every node to the boundary (exact for flat shapes,
    first-order normal distance for graph bottoms); 0 exactly on boundary
    nodes."""
    x, y = grid.pts[:, 0], grid.pts[:, 1]
    shape = grid.shape
    if isinstance(shape, pde.HalfDisc):
        delta = np.maximum(np.minimum(shape.radius - np.hypot(x, y), y), 0.0)
    else:
        hw, ht = shape.half_width, shape.height
        lateral = np.minimum(x + hw, hw - x)
        rho = shape.bottom
        bottom = rho.value(grid.pts) / np.hypot(*rho.gradient(grid.pts).T)
        delta = np.maximum(np.minimum(np.minimum(lateral, ht - y), bottom), 0.0)
    delta[grid.boundary] = 0.0
    return delta


def _node_sums(grid: pde.DomainGrid, el_values: np.ndarray) -> np.ndarray:
    """Per-element hat values (3, nel) summed onto the nodes, (npt,); each
    node adds its terms in element order."""
    return np.bincount(grid.tri.ravel(), weights=el_values.T.ravel(), minlength=grid.npt)


def hardy_ratio(grid: pde.DomainGrid, v: pde.PField, p: float) -> float:
    """||v / delta||_p / ||grad v||_p for fields vanishing on the boundary,
    with the nodal p-norm weighted by the lumped node areas."""
    if not p > 1:
        raise ValueError("p must be > 1")
    vals = v.values
    if np.max(np.abs(vals[grid.boundary])) > 1e-14 * max(1.0, np.max(np.abs(vals))):
        raise ValueError("hardy_ratio requires a field vanishing on the boundary")
    q = pde._element_gradients(grid, v.components())
    q2 = _norm_sq(q.reshape(-1, q.shape[-1]), axis=0)
    den = pde._p_energy(grid, q2, p) ** (1.0 / p)
    if den == 0.0:
        raise ValueError("hardy_ratio undefined for a constant field")
    interior = ~grid.boundary
    node_area = _node_sums(grid, np.broadcast_to(grid.area / 3.0, (3, grid.area.size)))
    ratio_terms = np.abs(vals[interior]) / distance_to_boundary(grid)[interior]
    num = float((node_area[interior] * ratio_terms**p).sum()) ** (1.0 / p)
    return num / den


def dual_residual(grid: pde.DomainGrid, gamma_c, p: float, U: np.ndarray,
                  eps: float) -> float:
    """max_i |int gamma w grad u . grad phi_i| / (||grad u||_p^(p-1) ||grad phi_i||_p)
    over interior hats, w = (|q|^2 + eps^2)^((p-2)/2) extended by 0 where
    grad u = 0; 0 for a field with grad u = 0."""
    G = grid.grad
    phinorm = _node_sums(grid, grid.area * (G[:, 0]**2 + G[:, 1]**2) ** (p / 2.0)) ** (1.0 / p)
    q = pde._element_gradients(grid, U)
    q2 = _norm_sq(q.reshape(-1, q.shape[-1]), axis=0)
    unorm = pde._p_energy(grid, q2, p) ** (1.0 / p)
    if unorm == 0.0:
        return 0.0
    coef = grid.area * gamma_c * _pow_or_zero(q2 + eps * eps, (p - 2.0) / 2.0)
    dots = pde._hat_dots(grid, q) * coef                # (3, ncomp, nel)
    r = np.stack([_node_sums(grid, dots[:, c]) for c in range(U.shape[1])])
    rnorm = np.sqrt((r**2).sum(axis=0))
    interior = ~grid.boundary
    return float(np.max(rnorm[interior] / (unorm ** (p - 1.0) * phinorm[interior])))


def h1_relative_error(grid: pde.DomainGrid, u: pde.PField, grad_exact) -> float:
    """Element-gradient L2 error against an analytic gradient at centroids."""
    qc = pde._complex_gradients(grid, u.components())
    gex = np.asarray(grad_exact(grid.centroid), dtype=np.complex128)
    return float(math.sqrt((grid.area * _norm_sq(qc - gex)).sum()
                           / (grid.area * _norm_sq(gex)).sum()))


# ---------------------------------------------------------------------------
# The expression parser that `plprobe.config` used before it parsed with
# `ast`, kept unchanged.  `reference_expression_tree` returns the tree that
# `Expression._node` must equal, and the set of variables.
# ---------------------------------------------------------------------------

_REFERENCE_FUNCTIONS = ("exp", "sin", "cos", "abs")


class _Tok:
    def __init__(self, kind, text, pos):
        self.kind, self.text, self.pos = kind, text, pos


def _tokenize(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^()":
            toks.append(_Tok(c, c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] in ".eE"
                             or (text[j] in "+-" and j > i and text[j - 1] in "eE")):
                j += 1
            try:
                float(text[i:j])
            except ValueError:
                raise ConfigError(f"bad numeric literal {text[i:j]!r} at column {i + 1}")
            toks.append(_Tok("num", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("name", text[i:j], i))
            i = j
            continue
        raise ConfigError(f"unexpected character {c!r} at column {i + 1}")
    toks.append(_Tok("end", "", n))
    return toks


class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = _tokenize(text)
        self.k = 0
        self.vars = set()

    def peek(self):
        return self.toks[self.k]

    def take(self, kind=None):
        t = self.toks[self.k]
        if kind and t.kind != kind:
            raise ConfigError(
                f"expected {kind!r} at column {t.pos + 1}, found {t.text or 'end'!r}")
        self.k += 1
        return t

    def parse(self):
        node = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ConfigError(f"unexpected {t.text!r} at column {t.pos + 1}")
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind in "+-":
            op = self.take().kind
            node = (op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind in "*/":
            op = self.take().kind
            node = (op, node, self.unary())
        return node

    def unary(self):
        if self.peek().kind == "-":
            self.take()
            return ("neg", self.unary())
        if self.peek().kind == "+":
            self.take()
            return self.unary()
        return self.power()

    def power(self):
        base = self.primary()
        if self.peek().kind == "^":
            self.take()
            return ("^", base, self.unary())  # right-associative
        return base

    def primary(self):
        t = self.peek()
        if t.kind == "num":
            self.take()
            return ("num", float(t.text))
        if t.kind == "(":
            self.take()
            node = self.expr()
            self.take(")")
            return node
        if t.kind == "name":
            self.take()
            if t.text in ("x1", "x2"):
                self.vars.add(t.text)
                return ("var", t.text)
            if t.text in _REFERENCE_FUNCTIONS:
                self.take("(")
                arg = self.expr()
                self.take(")")
                return ("call", t.text, arg)
            raise ConfigError(
                f"unknown name {t.text!r} at column {t.pos + 1} "
                f"(variables x1, x2; functions exp, sin, cos, abs)")
        raise ConfigError(f"unexpected {t.text or 'end'!r} at column {t.pos + 1}")


def reference_expression_tree(text: str):
    """(tree, variables) of `text` as the original parser built them; raises
    ConfigError where it rejected the text."""
    text = text.strip()
    if not text:
        raise ConfigError("empty expression")
    p = _Parser(text)
    node = p.parse()
    return node, frozenset(p.vars)


def positivity_lattice(half_width: float, height: float, bottom: str) -> np.ndarray:
    """The rectangle's 41 x 41 box, stretched above the bottom curve `bottom`
    (flat when empty) as the mesh is, x1 running fastest."""
    xs = np.linspace(-half_width, half_width, 41)
    ys = np.linspace(0.0, height, 41)
    X, Y = np.meshgrid(xs, ys)
    if bottom:
        g = parse_expression(bottom)(xs[:, None])[None, :]
        Y = g + Y * (height - g) / height
    return np.column_stack([X.ravel(), Y.ravel()])


# ---------------------------------------------------------------------------
# The boundary-layer rule of the probe quadrature before the tail beyond
# 20/p kept its base panels, kept unchanged: every panel cut to width
# (4/p)/2^level.  A drop-in for `recovery._layer_rule`.
# ---------------------------------------------------------------------------


def parent_layer_rule(p: float, level: int):
    breaks = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0,
                       11.0, 15.0, 20.0, 26.0, 33.0, 44.0]) / p
    return special._gauss_panels(special._subdivide(breaks, (4.0 / p) / 2**level))


# ---------------------------------------------------------------------------
# The boundary-layer rule before the head kept its level-0 panels where it
# lies within the cutoff's plateau: the head, the panels up to 20/p, cut
# to width (4/p)/2^level at every level for every spec, and the tail's
# base panels as they are.  A drop-in for `recovery._layer_rule`.
# ---------------------------------------------------------------------------


def head_refining_layer_rule(spec, level: int):
    p = spec.p
    head = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0,
                     11.0, 15.0, 20.0]) / p
    tail = np.array([26.0, 33.0, 44.0]) / p
    head = special._subdivide(head, (4.0 / p) / 2**level)
    return special._gauss_panels(np.concatenate([head, tail]))


# ---------------------------------------------------------------------------
# The boundary-layer rule refined past any level the quadrature tries where
# the layer lies deep inside the cutoff's plateau: the head cut to width
# (4/p)/8 and the tail to 2/p, the same at every level.  The reference of
# the Gauss-Laguerre layer rule.  A drop-in for `recovery._layer_rule`.
# ---------------------------------------------------------------------------


def refined_layer_rule(spec, level: int):
    p = spec.p
    head = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0,
                     11.0, 15.0, 20.0]) / p
    tail = np.array([20.0, 26.0, 33.0, 44.0]) / p
    return special._gauss_panels(np.concatenate([
        special._subdivide(head, (4.0 / p) / 8.0),
        special._subdivide(tail, 2.0 / p)[1:]]))


# ---------------------------------------------------------------------------
# The cutoff, the panel subdivision and the probe energy's integrand before
# the integrand took its factors of x_1 alone once per quadrature level,
# kept unchanged as the bit-for-bit reference of `special.CutoffProfile.radial`,
# `special._subdivide` and `recovery._energy_density`.
# ---------------------------------------------------------------------------


def polyval_radial(profile: special.CutoffProfile, r, slope: bool = True):
    """`CutoffProfile.radial` with the smoothstep and its slope by `polyval`."""
    r = np.asarray(r, dtype=float)
    plateau = r <= special.PLATEAU_RADIUS
    value = np.where(plateau, 1.0, 0.0)
    shoulder = ~(plateau | (r >= 1.0))
    s = 2.0 * r[shoulder] - 1.0
    c = special._SMOOTHSTEP_COEFFS[profile.smoothness]
    polyval = np.polynomial.polynomial.polyval
    value[shoulder] = np.maximum(1.0 - polyval(s, c), 0.0)
    if not slope:
        return value[()]
    deriv = np.zeros_like(r)
    deriv[shoulder] = -2.0 * polyval(s, c[1:] * np.arange(1, len(c)))
    return value[()], deriv[()]


def loop_subdivide(breaks: np.ndarray, max_width: float) -> np.ndarray:
    """`special._subdivide` by a loop over the panels."""
    out = [breaks[0]]
    for a, b in zip(breaks[:-1], breaks[1:]):
        k = max(1, int(math.ceil((b - a) / max_width)))
        out.extend(a + (b - a) * np.arange(1, k + 1) / k)
    return np.asarray(out)


def pointwise_energy_density(spec: recovery.ProbeSpec, gamma: pde.ConductivityField,
                             x: np.ndarray) -> np.ndarray:
    """The integrand of `recovery._energy_density` on a component-major
    (2, n_perp, n_layer) block x, every factor but those of x_1 alone
    (taken on the block's first layer) evaluated on every point."""
    M, N, p = spec.M, spec.N, spec.p
    r = np.sqrt(_norm_sq(x, axis=0))
    eta, slope = polyval_radial(spec.cutoff, M * r)
    slope *= M
    geta = slope * x / np.where(r > 0, r, 1.0)
    geta /= M  # grad eta evaluated at Mx

    if spec.mode == "complex":
        vec = (M / N) * geta
        vec[1] -= eta
        mag2 = _norm_sq(vec, axis=0) + eta**2 * (p - 1.0)
    else:
        a, ap = spec.profile.values_at(N * x[0, :, :1])
        grad_rho = spec.rho.gradient(x[:, :, 0].T).T[..., None]
        vec = (M / N) * geta * a - eta * a * grad_rho
        vec[0] += eta * ap
        mag2 = _norm_sq(vec, axis=0)
    return gamma(x.reshape(2, -1).T).reshape(x.shape[1:]) * mag2 ** (p / 2.0)
