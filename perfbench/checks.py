"""Correctness checks for the benchmark's outputs.

Every reference here is computed from the workload's inputs by a formula
written out in this file: the conductivity's value at the base point, the
exact p-harmonic exponential and its gradient, P1 element gradients and the
p-energy.  Nothing is read from a stored copy of earlier output and nothing
calls plprobe, so a fault in the program cannot move its own reference.

Each `check_*` function returns a list of problems; an empty list means the
output passed.  `test_checks.py` feeds each one a corrupted output.
"""

from __future__ import annotations

import math

import numpy as np

# recover-grid: the pairing identity estimate = leading + remainder holds
# to rounding; the finest row must be within 10 % of gamma(0).
PAIRING_REL_TOL = 1e-10
RECOVER_FINAL_REL_TOL = 0.10

# probe-check: for N = M^2 the probe error is O((M/N)^2) = O(M^-2); the
# measured constant err * M^2 is 1.5 to 4.4 (README), and the bound allows 8.
PROBE_ERROR_CONSTANT = 8.0

# cold-solve: P1 interpolation error in H1 relative to the solution is at
# most C h |D^2 u| / |D u| = C h N sqrt(p) for the exponential; C = 1 here.
COLD_H1_CONSTANT = 1.0
# Zero and random starts converge to the unique minimizer.
ENERGY_REL_TOL = 1e-8


def conductivity_text(c: float, b: float, a: float) -> str:
    """Config expression of gamma = c (1 + b x1 + a x2), in fixed notation."""
    return f"{c:.12f} * (1 + {b:.12f} * x1 + {a:.12f} * x2)"


def conductivity(c: float, b: float, a: float, x1: float, x2: float) -> float:
    """gamma = c (1 + b x1 + a x2); gamma(0, 0) is the recovery target."""
    return c * (1.0 + b * x1 + a * x2)


def _ints(rows, key):
    return [int(float(r[key])) for r in rows]


def check_recover(exit_code: int, rows: list[dict], gamma0: float,
                  m_list: list[int]) -> list[str]:
    """One `plprobe recover` call: `rows` are the rows of report.csv."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if _ints(rows, "M") != list(m_list):
        return problems + [f"rows for M = {_ints(rows, 'M')}, expected {list(m_list)}"]
    for r in rows:
        if r["ok"] != "true":
            problems.append(f"M = {r['M']}: row not ok ({r['message']})")
    if problems:
        return problems
    for r in rows:
        est = float(r["estimate"])
        split = float(r["leading"]) + float(r["remainder_re"])
        if not abs(split - est) <= PAIRING_REL_TOL * abs(est):
            problems.append(f"M = {r['M']}: leading + remainder_re = {split!r} "
                            f"!= estimate {est!r}")
    corr = [float(r["correction"]) for r in rows]
    if not all(b < a for a, b in zip(corr, corr[1:])):
        problems.append(f"correction not strictly decreasing in M: {corr}")
    final = float(rows[-1]["estimate"])
    if not abs(final - gamma0) <= RECOVER_FINAL_REL_TOL * gamma0:
        problems.append(f"M = {m_list[-1]}: estimate {final!r} is not within "
                        f"{RECOVER_FINAL_REL_TOL:g} of gamma(0) = {gamma0!r}")
    return problems


def check_probe(exit_code: int, rows: list[dict], gamma0: float,
                m_list: list[int]) -> list[str]:
    """One `plprobe probe-check` call: `rows` are the rows of probe_check.csv."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if _ints(rows, "M") != list(m_list):
        return problems + [f"rows for M = {_ints(rows, 'M')}, expected {list(m_list)}"]
    errs = [abs(float(r["estimate"]) - gamma0) for r in rows]
    if not all(b < a for a, b in zip(errs, errs[1:])):
        problems.append(f"|estimate - gamma(0)| not strictly decreasing in M: {errs}")
    bound = PROBE_ERROR_CONSTANT / m_list[-1] ** 2
    if not errs[-1] / gamma0 <= bound:
        problems.append(f"M = {m_list[-1]}: relative error {errs[-1] / gamma0:.3e} "
                        f"above {bound:.3e}")
    return problems


def exponential(pts: np.ndarray, p: float, N: float) -> np.ndarray:
    """u = exp(N (i beta - e_2) . x), beta = sqrt(p - 1) e_1: p-harmonic."""
    beta = math.sqrt(p - 1.0)
    return np.exp(N * (1j * beta * pts[:, 0] - pts[:, 1]))


def exponential_gradient(pts: np.ndarray, p: float, N: float) -> np.ndarray:
    """grad u = N (i beta - e_2) exp(N (i beta - e_2) . x), shape (npts, 2)."""
    k = N * np.array([1j * math.sqrt(p - 1.0), -1.0])
    return k[None, :] * exponential(pts, p, N)[:, None]


def p1_gradients(pts: np.ndarray, tri: np.ndarray, values: np.ndarray):
    """Element areas, centroids and constant gradients of the P1 interpolant."""
    p0, p1, p2 = pts[tri[:, 0]], pts[tri[:, 1]], pts[tri[:, 2]]
    e1, e2 = p1 - p0, p2 - p0
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    du1 = values[tri[:, 1]] - values[tri[:, 0]]
    du2 = values[tri[:, 2]] - values[tri[:, 0]]
    # solve [e1; e2] g = [du1; du2] by Cramer's rule
    gx = (du1 * e2[:, 1] - du2 * e1[:, 1]) / det
    gy = (e1[:, 0] * du2 - e2[:, 0] * du1) / det
    return 0.5 * np.abs(det), (p0 + p1 + p2) / 3.0, np.column_stack([gx, gy])


def h1_relative_error(pts, tri, values, p: float, N: float) -> float:
    """||grad u_h - grad u|| / ||grad u|| in L2, by the centroid rule."""
    area, centroid, q = p1_gradients(pts, tri, values)
    g = exponential_gradient(centroid, p, N)
    err2 = (np.abs(q - g) ** 2).sum(axis=1)
    ref2 = (np.abs(g) ** 2).sum(axis=1)
    return math.sqrt(float((area * err2).sum() / (area * ref2).sum()))


def p_energy(pts, tri, values, p: float) -> float:
    """int |grad u_h|^p for gamma = 1."""
    area, _, q = p1_gradients(pts, tri, values)
    return float((area * ((np.abs(q) ** 2).sum(axis=1)) ** (p / 2.0)).sum())


def check_cold(h1_error: float, h: float, p: float, N: float) -> list[str]:
    """One converged `solve_dirichlet` against the exact exponential."""
    bound = COLD_H1_CONSTANT * h * N * math.sqrt(p)
    if not h1_error <= bound:
        return [f"H1 relative error {h1_error:.3e} above {bound:.3e}"]
    return []


def check_same_energy(energy_zero: float, energy_random: float) -> list[str]:
    """Zero and random starts reach the unique minimizer's energy."""
    if not abs(energy_random - energy_zero) <= ENERGY_REL_TOL * abs(energy_zero):
        return [f"energy from a random start {energy_random!r} != "
                f"energy from zero {energy_zero!r}"]
    return []
