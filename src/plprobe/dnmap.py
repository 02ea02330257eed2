"""Weak Dirichlet-to-Neumann pairing and its structural checks.

The pairing is always evaluated in volume form,

    <L(f), g> = int_Omega gamma |grad u_f|^(p-2) grad u_f . grad conj(g) dx,

never as a boundary flux integral: u_f solves the Dirichlet problem for
the trace of f, and any extension of g with the same trace gives the same
value up to solver tolerance (the discrete weak form annihilates interior
test functions).  Structural facts checked here: p-homogeneity
<L(t f), t f> = t^p <L(f), f>, invariance under constant shifts of the
datum (so linearization at constants carries no information), positivity
and boundedness of the self-pairing.
"""

from __future__ import annotations

import numpy as np

from .pde import (ConductivityField, DomainGrid, PField, _complex_gradients,
                  _p_energy, solve_dirichlet)
from .vecp import _norm_sq, _pow_or_zero

__all__ = [
    "flux_pairing",
    "dn_pairing",
    "homogeneity_check",
    "constant_shift_check",
    "self_pairing_slope",
    "pairing_bound_margin",
]


def flux_pairing(grid: DomainGrid, gamma: ConductivityField, p: float, u: PField,
                 g: PField) -> complex:
    """int gamma |grad u|^(p-2) grad u . grad conj(g), element-midpoint quadrature."""
    gamma_c = gamma(grid.centroid)
    qu = _complex_gradients(grid, u.components())
    qg = _complex_gradients(grid, g.components())
    w = _pow_or_zero(_norm_sq(qu), (p - 2.0) / 2.0)
    return complex((grid.area * gamma_c * w * (qu * np.conj(qg)).sum(axis=1)).sum())


def dn_pairing(grid: DomainGrid, gamma: ConductivityField, p: float,
               f: PField) -> complex:
    """The self-pairing <L_gamma(trace f), trace f>: one solve from f, whose
    interior values warm-start it, then `flux_pairing` against f."""
    return flux_pairing(grid, gamma, p, solve_dirichlet(grid, gamma, p, f).field, f)


def homogeneity_check(grid, gamma, p, f: PField, t: float) -> float:
    """| <L(tf), tf> - t^p <L(f), f> | / (t^p |<L(f), f>|): the
    `constant_shift_check` with zero shift."""
    return constant_shift_check(grid, gamma, p, f, 0.0, t)


def constant_shift_check(grid, gamma, p, f: PField, z: complex, t: float) -> float:
    """Relative deviation of <L(z + tf), z + tf> from t^p <L(f), f>.

    The pairing slot is linear in the extension gradient and constants have
    zero gradient, so the shift contributes nothing.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    if f.mode == "real" and np.iscomplexobj(z) and np.imag(z) != 0:
        raise ValueError("real-mode shift must be real")
    base = dn_pairing(grid, gamma, p, f)
    shifted = PField(z + t * f.values, f.mode)
    paired = dn_pairing(grid, gamma, p, shifted)
    target = t**p * base
    return abs(paired - target) / abs(target)


def self_pairing_slope(grid, gamma, p, f: PField, t_values) -> float:
    """Least-squares slope of log <L(tf), tf> against log t.

    Equals p exactly in the continuum; demonstrates that the map has no
    first-order linearization at constants (the pairing scales like t^p,
    i.e. the flux like t^(p-1)).
    """
    t_values = np.asarray(t_values, dtype=float)
    if t_values.size < 2 or np.any(t_values <= 0.0):
        raise ValueError("need at least two positive t values")
    logs = []
    for t in t_values:
        ft = PField(f.values * t, f.mode)
        val = abs(dn_pairing(grid, gamma, p, ft))
        if val == 0.0:
            raise ValueError("pairing vanished; slope undefined")
        logs.append(float(np.log(val)))
    slope = np.polyfit(np.log(t_values), np.array(logs), 1)[0]
    return float(slope)


def pairing_bound_margin(grid, gamma, p, f: PField) -> float:
    """|<L(f), f>| / (gamma_max ||grad u_f||_p^(p-1) ||grad f||_p); at most 1."""
    _, gamma_max = gamma.validate_on(grid)
    u = solve_dirichlet(grid, gamma, p, f).field
    val = flux_pairing(grid, gamma, p, u, f)
    nu, nf = (_p_energy(grid, _norm_sq(_complex_gradients(grid, v.components())),
                        p) ** (1 / p) for v in (u, f))
    return abs(val) / (gamma_max * nu ** (p - 1.0) * nf)
