"""p-power vector algebra and inequality checkers.

Real and complex vectors in dimension 2 or 3 are handled uniformly as
arrays with the components on the trailing axis (complex dtype, imaginary
part zero in the real case).  The dot product does not conjugate,
z . w = sum_j z_j w_j, and |z| is the Euclidean norm of the underlying
real vector, |z|^2 = |Re z|^2 + |Im z|^2.

The central object is the flux nonlinearity

    flux_p(z) = |z|^(p-2) z,   p > 1,

extended by 0 at z = 0 (the limit exists for every p > 1).  The checkers
below return residuals/ratios whose sign or boundedness encodes the
classical p-th power inequalities controlling this nonlinearity:

    convexity_gap         |w|^p - |z|^p - p|z|^(p-2) Re[z.(conj w - conj z)] >= 0
    p_power_difference_gap p(|z|^(p-1)+|w|^(p-1))|z-w| - ||z|^p - |w|^p|     >= 0
    difference_ratio       |flux(z)-flux(w)| / ((|z|+|w|)^(p-2)|z-w|)        <= C(p)
    monotonicity_ratio     Re[(flux(z)-flux(w)).(conj z - conj w)]
                           / ((|z|+|w|)^(p-2)|z-w|^2)   in [c1(p), c2(p)], > 0

All operations broadcast over leading axes and are pure functions; the
seeded property suites drive them over log-uniform magnitude samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PROPERTY_SEED",
    "SuiteCheck",
    "as_vectors",
    "vec_norm",
    "vec_dot",
    "p_flux",
    "convexity_gap",
    "convexity_gap_scale",
    "p_power_difference_gap",
    "p_power_difference_scale",
    "difference_ratio",
    "monotonicity_ratio",
    "sample_vectors",
    "convexity_suite",
    "monotonicity_suite",
    "difference_suite",
    "flux_identity_suite",
    "all_suites",
]

# Fixed seed for every randomized property suite (determinism contract).
PROPERTY_SEED = 20120621

# Log-uniform magnitude window used by the samplers; exercises scaling
# extremes without leaving double precision.
MAG_RANGE = (1e-6, 1e6)


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


def _norm_sq(z: np.ndarray) -> np.ndarray:
    """|z|^2 = |Re z|^2 + |Im z|^2 over the trailing axis (no validation)."""
    return (z.real**2 + z.imag**2).sum(axis=-1)


def vec_norm(z) -> np.ndarray:
    return np.sqrt(_norm_sq(as_vectors(z)))


def vec_dot(z, w) -> np.ndarray:
    """Non-conjugating dot product sum_j z_j w_j."""
    return (as_vectors(z) * as_vectors(w)).sum(axis=-1)


def _pow_or_zero(r: np.ndarray, expo: float) -> np.ndarray:
    """r**expo with the convention 0**expo = 0 (also for negative expo)."""
    safe = np.where(r > 0.0, r, 1.0)
    return np.where(r > 0.0, safe**expo, 0.0)


def p_flux(z, p: float) -> np.ndarray:
    """Flux nonlinearity |z|^(p-2) z, equal to 0 at z = 0 for every p > 1."""
    p = _check_p(p)
    z = as_vectors(z)
    scale = _pow_or_zero(vec_norm(z), p - 2.0)
    return z * scale[..., None]


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


def _require_distinct(z: np.ndarray, w: np.ndarray) -> None:
    if np.any((z == w).all(axis=-1)):
        raise ValueError("undefined for coinciding vectors z = w")


def difference_ratio(z, w, p: float) -> np.ndarray:
    """|flux(z) - flux(w)| / ((|z|+|w|)^(p-2) |z-w|).

    Bounded above by a p-dependent constant; undefined for z = w or
    z = w = 0.
    """
    p = _check_p(p)
    z = as_vectors(z)
    w = as_vectors(w)
    _require_distinct(z, w)
    rz = vec_norm(z)
    rw = vec_norm(w)
    if np.any(rz + rw == 0.0):
        raise ValueError("undefined for z = w = 0")
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
    _require_distinct(z, w)
    rz = vec_norm(z)
    rw = vec_norm(w)
    if np.any(rz + rw == 0.0):
        raise ValueError("undefined for z = w = 0")
    diff = z - w
    num = np.real(vec_dot(p_flux(z, p) - p_flux(w, p), np.conj(diff)))
    den = (rz + rw) ** (p - 2.0) * vec_norm(diff) ** 2
    return num / den


# ---------------------------------------------------------------------------
# Seeded property suites (also exposed through the CLI `verify` command)
# ---------------------------------------------------------------------------


@dataclass
class SuiteCheck:
    """One property-suite verdict: passes iff margin >= 0."""

    suite: str
    name: str
    passed: bool
    margin: float
    detail: str = ""


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


def _sample_pairs(rng, count, dim, kind):
    z = sample_vectors(rng, count, dim, kind)
    w = sample_vectors(rng, count, dim, kind)
    keep = ~(z == w).all(axis=-1)
    return z[keep], w[keep]


def _pair_batches(pairs: int, seed: int):
    """Half complex / half real pairs in dimensions 2 and 3."""
    rng = np.random.default_rng(seed)
    quarter = max(1, pairs // 4)
    for dim in (2, 3):
        for kind in ("complex", "real"):
            yield _sample_pairs(rng, quarter, dim, kind)


def convexity_suite(p_values=(1.1, 1.5, 2.0, 3.0, 10.0), pairs: int = 100_000,
                    seed: int = PROPERTY_SEED, slack: float = 1e-12):
    """convexity_gap and p_power_difference_gap nonnegativity battery."""
    checks = []
    for p in p_values:
        worst_cvx = np.inf
        worst_pow = np.inf
        for z, w in _pair_batches(pairs, seed):
            g = convexity_gap(z, w, p) / convexity_gap_scale(z, w, p)
            worst_cvx = min(worst_cvx, float(g.min()))
            g2 = p_power_difference_gap(z, w, p) / p_power_difference_scale(z, w, p)
            worst_pow = min(worst_pow, float(g2.min()))
        checks.append(SuiteCheck("vecp", f"convexity_gap[p={p:g}]",
                                 worst_cvx >= -slack, worst_cvx + slack,
                                 f"min gap/scale = {worst_cvx:.3e}"))
        checks.append(SuiteCheck("vecp", f"p_power_difference_gap[p={p:g}]",
                                 worst_pow >= -slack, worst_pow + slack,
                                 f"min gap/scale = {worst_pow:.3e}"))
    return checks


def monotonicity_suite(p_values=(1.1, 1.5, 2.0, 3.0, 10.0), pairs: int = 100_000,
                       seed: int = PROPERTY_SEED):
    """Positivity (and p = 2 identity) of the monotonicity ratio.

    The empirical min/max brackets are recorded in the detail string; only
    positivity/finiteness is asserted, never specific constants.
    """
    checks = []
    for p in p_values:
        lo, hi = np.inf, -np.inf
        for z, w in _pair_batches(pairs, seed):
            r = monotonicity_ratio(z, w, p)
            lo = min(lo, float(r.min()))
            hi = max(hi, float(r.max()))
        detail = f"bracket [{lo:.6e} .. {hi:.6e}]"  # comma-free: lands in CSV
        if p == 2.0:
            dev = max(abs(lo - 1.0), abs(hi - 1.0))
            checks.append(SuiteCheck("vecp", "monotonicity_ratio[p=2]==1",
                                     dev <= 1e-13, 1e-13 - dev, detail))
        checks.append(SuiteCheck("vecp", f"monotonicity_ratio[p={p:g}]>0",
                                 lo > 0.0 and np.isfinite(hi), lo, detail))
    return checks


def difference_suite(p_values=(1.1, 1.5, 2.0, 3.0, 10.0), pairs: int = 100_000,
                     seed: int = PROPERTY_SEED):
    """Boundedness of the flux difference ratio; sup recorded, not pinned."""
    checks = []
    for p in p_values:
        sup = 0.0
        for z, w in _pair_batches(pairs, seed):
            r = difference_ratio(z, w, p)
            sup = max(sup, float(r.max()))
        checks.append(SuiteCheck("vecp", f"difference_ratio[p={p:g}] bounded",
                                 np.isfinite(sup) and sup > 0.0, 1.0,
                                 f"empirical sup = {sup:.6e}"))
    return checks


def flux_identity_suite(p_values=(1.5, 2.0, 3.0), pairs: int = 20_000,
                        seed: int = PROPERTY_SEED):
    """Homogeneity flux(t z) = t^(p-1) flux(z) and Re[flux(z).conj z] = |z|^p."""
    rng = np.random.default_rng(seed)
    checks = []
    for p in p_values:
        z = sample_vectors(rng, pairs, 2, "complex")
        t = 10.0 ** rng.uniform(-3, 3, pairs)
        lhs = p_flux(z * t[:, None], p)
        rhs = t[:, None] ** (p - 1.0) * p_flux(z, p)
        hom = float((vec_norm(lhs - rhs) / vec_norm(rhs)).max())
        checks.append(SuiteCheck("vecp", f"flux_homogeneity[p={p:g}]",
                                 hom <= 1e-13, 1e-13 - hom,
                                 f"max rel dev = {hom:.3e}"))
        power = np.real(vec_dot(p_flux(z, p), np.conj(z)))
        dev = float(np.max(np.abs(power - vec_norm(z) ** p) / vec_norm(z) ** p))
        checks.append(SuiteCheck("vecp", f"flux_power_identity[p={p:g}]",
                                 dev <= 1e-13, 1e-13 - dev,
                                 f"max rel dev = {dev:.3e}"))
    return checks


def all_suites(pairs: int = 100_000, seed: int = PROPERTY_SEED):
    return (convexity_suite(pairs=pairs, seed=seed)
            + monotonicity_suite(pairs=pairs, seed=seed)
            + difference_suite(pairs=pairs, seed=seed)
            + flux_identity_suite(seed=seed))
