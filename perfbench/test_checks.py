"""Each benchmark check passes a real output and rejects a corrupted one.

Run from the repository root:  python3 -m pytest perfbench
"""

import contextlib
import copy
import io
import math

import numpy as np
import pytest
from plprobe import cli, pde

import checks
from workloads import read_csv


def _run_cli(tmp_path, command, output, config):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([command, "--config", str(cfg), "--out", str(tmp_path)])
    return code, read_csv(tmp_path / output)


RECOVER_M = [4, 8]
PROBE_M = [8, 16, 32, 64, 128, 256]


@pytest.fixture(scope="module")
def recover_output(tmp_path_factory):
    gamma = checks.conductivity_text(1.5, 0.1, 0.5)
    return 1.5, _run_cli(tmp_path_factory.mktemp("recover"), "recover", "report.csv",
                         f"[physics]\np = 3\ngamma = {gamma}\n"
                         f"[probe]\nmode = complex\nm_list = 4, 8\n")


@pytest.fixture(scope="module")
def probe_output(tmp_path_factory):
    gamma = checks.conductivity_text(0.75, -0.2, 1.0)
    return 0.75, _run_cli(tmp_path_factory.mktemp("probe"), "probe-check",
                          "probe_check.csv",
                          f"[physics]\np = 3\ngamma = {gamma}\n[probe]\n"
                          f"mode = complex\nm_list = {', '.join(map(str, PROBE_M))}\n")


def test_recover_check_accepts_real_output(recover_output):
    gamma0, (code, rows) = recover_output
    assert checks.conductivity(1.5, 0.1, 0.5, 0.0, 0.0) == gamma0
    assert checks.check_recover(code, rows, gamma0, RECOVER_M) == []


def _scaled(row, factor, *keys):
    return dict(row, **{k: format(float(row[k]) * factor, ".17g") for k in keys})


@pytest.mark.parametrize("corruption", ["exit code 2", "row not ok", "dropped row",
                                        "pairing identity off by 1e-9",
                                        "correction grows",
                                        "final estimate 20 % high"])
def test_recover_check_rejects(recover_output, corruption):
    gamma0, (code, rows) = recover_output
    first, last = rows
    if corruption == "exit code 2":
        code = 2
    elif corruption == "row not ok":
        first = dict(first, ok="false")
    elif corruption == "dropped row":
        rows = [first]
    elif corruption == "pairing identity off by 1e-9":
        first = _scaled(first, 1 + 1e-9, "estimate")
    elif corruption == "correction grows":
        last = dict(last, correction=first["correction"])
    else:  # estimate and leading move together, so the identity still holds
        last = _scaled(last, 1.2, "estimate", "leading")
    if corruption != "dropped row":
        rows = [first, last]
    assert checks.check_recover(code, rows, gamma0, RECOVER_M)


def test_probe_check_accepts_real_output(probe_output):
    gamma0, (code, rows) = probe_output
    assert checks.check_probe(code, rows, gamma0, PROBE_M) == []


def _probe_estimates(rows, values):
    rows = copy.deepcopy(rows)
    for row, v in zip(rows, values):
        row["estimate"] = format(v, ".17g")
    return rows


@pytest.mark.parametrize("corruption", ["exit code 2", "dropped row",
                                        "error grows at M = 64",
                                        "error decays like 1/M"])
def test_probe_check_rejects(probe_output, corruption):
    gamma0, (code, rows) = probe_output
    estimates = [float(r["estimate"]) for r in rows]
    if corruption == "exit code 2":
        code = 2
    elif corruption == "dropped row":
        rows = rows[:-1]
    elif corruption == "error grows at M = 64":
        estimates[3] = gamma0 + 2.0 * (estimates[2] - gamma0)
        rows = _probe_estimates(rows, estimates)
    else:  # still strictly decreasing, but at the slower rate
        rows = _probe_estimates(rows, [gamma0 * (1 + 0.05 / M) for M in PROBE_M])
    assert checks.check_probe(code, rows, gamma0, PROBE_M)


@pytest.fixture(scope="module")
def cold_grid():
    return pde.build_grid(pde.Rectangle(1.0, 1.0), 16.0)


def test_p1_gradients_exact_for_affine(cold_grid):
    g = cold_grid
    values = (2.0 - 3.0j) * g.pts[:, 0] + 0.5 * g.pts[:, 1] + 7.0
    area, _, q = checks.p1_gradients(g.pts, g.tri, values)
    assert math.isclose(area.sum(), 2.0, rel_tol=1e-12)
    assert np.allclose(q, [2.0 - 3.0j, 0.5], rtol=0, atol=1e-12)


def test_exponential_gradient_matches_finite_differences():
    x = np.array([[0.3, 0.2], [-0.7, 0.9]])
    step = 1e-6
    for p in (1.5, 3.0):
        grad = checks.exponential_gradient(x, p, 3.0)
        for axis in (0, 1):
            dx = np.zeros(2)
            dx[axis] = step
            fd = (checks.exponential(x + dx, p, 3.0)
                  - checks.exponential(x - dx, p, 3.0)) / (2 * step)
            assert np.allclose(fd, grad[:, axis], rtol=1e-8)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_cold_check_accepts_solve_and_rejects_corrupted(cold_grid, p):
    g, N = cold_grid, 3.0
    datum = pde.PField(checks.exponential(g.pts, p, N), "complex")
    sol = pde.solve_dirichlet(g, pde.ConductivityField.constant(1.0), p, datum,
                              pde.SolverSettings(init="zero"))
    values = sol.field.values
    err = checks.h1_relative_error(g.pts, g.tri, values, p, N)
    assert checks.check_cold(err, g.h, p, N) == []

    noisy = values.copy()
    noisy[~g.boundary] += 0.05 * np.random.default_rng(0).standard_normal(
        int((~g.boundary).sum()))
    conjugate = np.conj(values)  # the exponential with -beta: wrong solution
    for bad in (noisy, conjugate):
        bad_err = checks.h1_relative_error(g.pts, g.tri, bad, p, N)
        assert checks.check_cold(bad_err, g.h, p, N)


def test_same_energy_check(cold_grid):
    g, p, N = cold_grid, 3.0, 3.0
    datum = pde.PField(checks.exponential(g.pts, p, N), "complex")
    energies = []
    for init in ("zero", "random"):
        sol = pde.solve_dirichlet(g, pde.ConductivityField.constant(1.0), p, datum,
                                  pde.SolverSettings(init=init, seed=5))
        energies.append(checks.p_energy(g.pts, g.tri, sol.field.values, p))
    assert checks.check_same_energy(*energies) == []
    assert checks.check_same_energy(energies[0], energies[1] * (1 + 1e-6))
