import math
import tracemalloc

import numpy as np
import pytest

import oracles
from plprobe import cli, dnmap, pde, recovery, special


@pytest.fixture(scope="module")
def wolff15():
    return special.solve_wolff_profile(1.5)


@pytest.fixture(scope="module")
def wolff2():
    return special.solve_wolff_profile(2.0)


@pytest.fixture(scope="module")
def wolff3():
    return special.solve_wolff_profile(3.0)


GAMMA_SLOPE = pde.ConductivityField(lambda x: 1.0 + x[:, 1] / 2.0)
GAMMA_RAMP = pde.ConductivityField(lambda x: 1.0 + x[:, 1])
GAMMA_ONE = pde.ConductivityField.constant(1.0)


# ---------------------------------------------------------------------------
# ProbeSpec and probe construction
# ---------------------------------------------------------------------------


def test_probe_spec_invariants(wolff3):
    spec = recovery.ProbeSpec(mode="complex", p=3.0, M=8.0, s=2.0)
    assert spec.N == 64.0
    assert spec.M / spec.N == 0.125  # M/N -> 0 as M grows
    with pytest.raises(ValueError):
        recovery.ProbeSpec(mode="complex", p=3.0, M=8.0, s=1.0)
    with pytest.raises(ValueError):
        recovery.ProbeSpec(mode="real", p=3.0, M=8.0)  # profile missing
    with pytest.raises(ValueError):
        recovery.ProbeSpec(mode="real", p=2.5, M=8.0, profile=wolff3)


def test_probe_trace_support_exact(wolff3):
    for mode, prof in (("complex", None), ("real", wolff3)):
        spec = recovery.ProbeSpec(mode=mode, p=3.0, M=4.0, profile=prof)
        grid = recovery.probe_window_grid(spec)
        probe = recovery.build_probe(spec, grid)
        bpts = grid.pts[grid.boundary]
        r = np.sqrt((bpts**2).sum(axis=1))
        trace = probe.values[grid.boundary]
        outside = np.abs(trace[r > 1.0 / spec.M])
        assert outside.size > 0 and np.all(outside == 0.0)


def test_complex_probe_trace_modulus_is_cutoff(wolff2):
    # On the flat boundary |h_N| = 1, so |f_M| = normalization * eta(M x')
    spec = recovery.ProbeSpec(mode="complex", p=2.0, M=4.0)
    grid = recovery.probe_window_grid(spec)
    probe = recovery.build_probe(spec, grid)
    bottom = np.arange(grid.nx + 1)  # the bottom row, x1 running fastest
    eta = special.CutoffField(M=spec.M, profile=spec.cutoff)
    expected = spec.normalization() * eta.value(grid.pts[bottom].T)
    assert np.allclose(np.abs(probe.values[bottom]), expected, atol=1e-14)


def test_real_probe_trace_is_damped_sine_at_p2(wolff2):
    spec = recovery.ProbeSpec(mode="real", p=2.0, M=4.0, profile=wolff2)
    grid = recovery.probe_window_grid(spec)
    probe = recovery.build_probe(spec, grid)
    bottom = np.arange(grid.nx + 1)  # the bottom row, x1 running fastest
    x1 = grid.pts[bottom, 0]
    eta = special.CutoffField(M=spec.M, profile=spec.cutoff)
    expected = spec.normalization() * eta.value(grid.pts[bottom].T) * np.sin(spec.N * x1)
    assert np.allclose(probe.values[bottom].real, expected, atol=1e-9)


@pytest.mark.parametrize("mode", ("complex", "real"))
def test_build_probe_is_normalization_times_raw_probe(mode, wolff3):
    spec = recovery.ProbeSpec(mode=mode, p=3.0, M=4.0,
                              profile=wolff3 if mode == "real" else None)
    grid = recovery.probe_window_grid(spec, nodes_per_wavelength=8.0)
    eta = special.CutoffField(M=spec.M, profile=spec.cutoff).value(grid.pts.T)
    if mode == "complex":
        raw = eta * special.make_complex_exponential(3.0, 2, N=spec.N).value(grid.pts)
    else:
        raw = (eta * special.WolffField(wolff3, spec.N, spec.rho).value(grid.pts)).real
    probe = recovery.build_probe(spec, grid)
    assert isinstance(probe, pde.PField) and probe.mode == mode
    assert np.array_equal(probe.values, spec.normalization() * raw)


def test_scalar_conductivity_runs_through_solve_pairing_and_quadrature():
    # a conductivity function that returns one scalar is broadcast by
    # ConductivityField alone, and then matches the constant field
    scalar = pde.ConductivityField(lambda x: 2.5)
    spec = recovery.ProbeSpec(mode="complex", p=3.0, M=4.0)
    grid = recovery.probe_window_grid(spec, nodes_per_wavelength=8.0)
    probe = recovery.build_probe(spec, grid)
    u = pde.solve_dirichlet(grid, scalar, 3.0, probe).field
    u_const = pde.solve_dirichlet(grid, pde.ConductivityField.constant(2.5), 3.0,
                                  probe).field
    assert u.values.tobytes() == u_const.values.tobytes()
    assert (dnmap.flux_pairing(grid, scalar, 3.0, u, probe)
            == dnmap.flux_pairing(grid, pde.ConductivityField.constant(2.5), 3.0,
                                  u, probe))
    quad = recovery.quadrature_limit(scalar, spec)
    assert quad == pytest.approx(2.5 * recovery.quadrature_limit(GAMMA_ONE, spec),
                                 rel=1e-15, abs=0.0)


def test_build_probe_under_resolved_error(wolff3):
    spec = recovery.ProbeSpec(mode="complex", p=3.0, M=4.0)
    coarse = pde.build_grid(pde.Rectangle(half_width=0.5, height=0.5), 16)
    with pytest.raises(recovery.UnderResolvedProbeError, match="resolution"):
        recovery.build_probe(spec, coarse)


def test_complex_probe_rejects_curved_boundary(wolff3):
    rho = special.BoundaryDefiningFunction(lambda x: -0.1 * x[..., 0] ** 2,
                                           lambda x: -0.2 * x[..., 0])
    spec = recovery.ProbeSpec(mode="complex", p=3.0, M=4.0, rho=rho)
    grid = recovery.probe_window_grid(
        recovery.ProbeSpec(mode="complex", p=3.0, M=4.0))
    with pytest.raises(ValueError, match="flat"):
        recovery.build_probe(spec, grid)


def test_probe_window_grid_validation(wolff3):
    spec = recovery.ProbeSpec(mode="complex", p=3.0, M=4.0)
    with pytest.raises(ValueError):
        recovery.probe_window_grid(spec, max_nodes=10)


# ---------------------------------------------------------------------------
# Quadrature limit (grid-free)
# ---------------------------------------------------------------------------


def test_quadrature_limit_constant_gamma(wolff3):
    for mode, prof in (("complex", None), ("real", wolff3)):
        spec = recovery.ProbeSpec(mode=mode, p=3.0, M=32.0, profile=prof)
        est = recovery.quadrature_limit(GAMMA_ONE, spec)
        assert est == pytest.approx(1.0, abs=5e-3)


@pytest.mark.parametrize("mode", ("complex", "real"))
@pytest.mark.parametrize("p", (1.5, 3.0))
def test_quadrature_limit_monotone_ramp(mode, p, wolff15, wolff3):
    prof = None
    if mode == "real":
        prof = wolff15 if p == 1.5 else wolff3
    errs = []
    for M in (8.0, 16.0, 32.0, 64.0):
        spec = recovery.ProbeSpec(mode=mode, p=p, M=M, profile=prof)
        est = recovery.quadrature_limit(GAMMA_RAMP, spec)
        errs.append(abs(est - 1.0))
    assert all(b < a for a, b in zip(errs[:-1], errs[1:]))
    assert errs[-1] <= 0.02


def test_quadrature_limit_n3_consistency(wolff3):
    # 3D appears at the quadrature level only; gamma = 1 forces the limit 1.
    # Looser quadrature tolerance: the assertion bands are percent-level.
    spec = recovery.ProbeSpec(mode="complex", p=3.0, M=32.0, n=3)
    assert recovery.quadrature_limit(GAMMA_ONE, spec, tol=1e-4) == pytest.approx(
        1.0, abs=1e-2)
    spec_r = recovery.ProbeSpec(mode="real", p=3.0, M=8.0, n=3, profile=wolff3)
    assert recovery.quadrature_limit(GAMMA_ONE, spec_r, tol=1e-4) == pytest.approx(
        1.0, abs=5e-2)


def test_quadrature_limit_s_robustness(wolff3):
    # changing the N-rule exponent moves the estimate within the O(M/N) band
    est2 = recovery.quadrature_limit(
        GAMMA_RAMP, recovery.ProbeSpec(mode="complex", p=3.0, M=64.0, s=2.0))
    est15 = recovery.quadrature_limit(
        GAMMA_RAMP, recovery.ProbeSpec(mode="complex", p=3.0, M=64.0, s=1.5))
    assert abs(est2 - est15) <= 64.0 ** (-0.5) + 1e-3  # M/N envelope at s = 1.5


def test_oscillatory_average_cross_check(wolff15, wolff3):
    for prof, p in ((wolff15, 1.5), (wolff3, 3.0)):
        spec = recovery.ProbeSpec(mode="real", p=p, M=64.0, profile=prof)
        res = oracles.oscillatory_average_check(spec)
        assert res["rel_diff"] <= 5e-3


def test_oscillatory_average_check_n3(wolff3):
    # the tensor rule runs over a 2-D perpendicular grid in n = 3
    spec = recovery.ProbeSpec(mode="real", p=3.0, M=16.0, n=3, profile=wolff3)
    res = oracles.oscillatory_average_check(spec, tol=1e-3)
    assert res["rel_diff"] <= 5e-3


def test_curved_boundary_quadrature_limit(wolff3):
    rho = special.BoundaryDefiningFunction(lambda x: -0.1 * x[..., 0] ** 2,
                                           lambda x: -0.2 * x[..., 0])
    spec = recovery.ProbeSpec(mode="real", p=3.0, M=32.0, profile=wolff3, rho=rho)
    est = recovery.quadrature_limit(GAMMA_SLOPE, spec)
    assert est == pytest.approx(1.0, abs=2e-2)


def _flat_energy_density(spec, gamma_fn, x):
    """Reference: every factor evaluated at every point of a flat row-major
    (m, n) array, with numpy's own sum for the squared norm."""
    M, N, p, n = spec.M, spec.N, spec.p, spec.n
    eta_field = special.CutoffField(M=M, profile=spec.cutoff)
    eta = eta_field.value(x.T)
    geta = eta_field.value_and_gradient(x.T)[1].T / M
    if spec.mode == "complex":
        vec = (M / N) * geta
        vec[:, n - 1] -= eta
        mag2 = (vec**2).sum(axis=1) + eta**2 * (p - 1.0)
    else:
        tau = N * x[:, 0]
        a, ap = spec.profile.values_at(tau)
        grad_rho = spec.rho.gradient(x)
        vec = (M / N) * geta * a[:, None] - eta[:, None] * a[:, None] * grad_rho
        vec[:, 0] += eta * ap
        mag2 = (vec**2).sum(axis=1)
    return np.asarray(gamma_fn(x), dtype=float) * mag2 ** (p / 2.0)


@pytest.mark.parametrize("mode, p, n, curved", [
    ("complex", 3.0, 2, False), ("real", 1.5, 2, False),
    ("real", 3.0, 2, True), ("real", 3.0, 3, False)])
def test_energy_density_block_equals_flat(mode, p, n, curved, wolff15, wolff3):
    # x'-only factors evaluated once per perpendicular node change no bit
    rho = special.BoundaryDefiningFunction()
    if curved:
        rho = special.BoundaryDefiningFunction(lambda x: -x[..., 0] ** 2 / 10.0,
                                               lambda x: -x[..., 0] / 5.0)
    profile = {1.5: wolff15, 3.0: wolff3}[p] if mode == "real" else None
    spec = recovery.ProbeSpec(mode=mode, p=p, M=16.0, n=n, rho=rho,
                              profile=profile)
    rng = np.random.default_rng(5)
    y_perp = rng.uniform(-1.1, 1.1, (40, n - 1))
    y_layer = np.sort(rng.uniform(0.0, 44.0 / spec.p, 30))
    x = recovery._scaled_points(spec, y_perp, y_layer)
    assert x.shape == (n, 40, 30)
    rows = np.ascontiguousarray(np.moveaxis(x, 0, -1)).reshape(-1, n)

    def gamma_fn(pts):
        return 1.0 + pts[:, -1] / 2.0 + pts[:, 0] ** 2

    block = recovery._energy_density(spec, pde.ConductivityField(gamma_fn), x)
    flat = _flat_energy_density(spec, gamma_fn, rows).reshape(40, 30)
    assert block.tobytes() == flat.tobytes()


@pytest.mark.parametrize("mode, p, n, curved, M, levels", [
    ("complex", 3.0, 2, False, 256.0, (0, 1, 2)),
    ("real", 1.5, 2, False, 256.0, (0, 1)),
    # level 1: 4,360 perpendicular nodes, two chunks, 109-row blocks
    ("real", 3.0, 2, True, 256.0, (1,)),
    ("real", 3.0, 3, False, 8.0, (0,))])
def test_tensor_quad_block_size_changes_no_bit(mode, p, n, curved, M, levels,
                                               monkeypatch, wolff15, wolff3):
    rho = special.BoundaryDefiningFunction()
    if curved:
        rho = special.BoundaryDefiningFunction(lambda x: -x[..., 0] ** 2 / 10.0,
                                               lambda x: -x[..., 0] / 5.0)
    profile = {1.5: wolff15, 3.0: wolff3}[p] if mode == "real" else None
    spec = recovery.ProbeSpec(mode=mode, p=p, M=M, n=n, rho=rho,
                              profile=profile)

    def integrand(x):
        return recovery._energy_density(spec, GAMMA_SLOPE, x)

    def sums():
        return [recovery._tensor_quad(spec, integrand, level) for level in levels]

    def row_major(x):
        rows = np.ascontiguousarray(np.moveaxis(x, 0, -1)).reshape(-1, n)
        return _flat_energy_density(spec, GAMMA_SLOPE, rows).reshape(x.shape[1:])

    blocked = sums()
    # the component-major blocks sum to the bits of the row-major oracle
    assert [recovery._tensor_quad(spec, row_major, level)
            for level in levels] == blocked
    # one block per summation chunk: the whole chunk evaluated at once
    monkeypatch.setattr(recovery, "_EVAL_POINTS", recovery._CHUNK * 10**6)
    assert sums() == blocked


def test_quadrature_limit_working_set_is_bounded(wolff3):
    # evaluating a whole 4,096-row chunk at once peaks at about 94 MiB
    spec = recovery.ProbeSpec(mode="real", p=3.0, M=256.0, profile=wolff3)
    tracemalloc.start()
    try:
        recovery.quadrature_limit(GAMMA_SLOPE, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20


# ---------------------------------------------------------------------------
# Remainder split and correction
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def solved_probe():
    spec = recovery.ProbeSpec(mode="complex", p=3.0, M=4.0)
    grid = recovery.probe_window_grid(spec)
    probe = recovery.build_probe(spec, grid)
    sol = pde.solve_dirichlet(grid, GAMMA_SLOPE, 3.0, probe, initial=probe)
    return spec, grid, probe, sol


def test_remainder_split_sum_consistency(solved_probe):
    spec, grid, probe, sol = solved_probe
    pairing = dnmap.flux_pairing(grid, GAMMA_SLOPE, 3.0, sol.field, probe)
    lead, rem = recovery.remainder_split(grid, GAMMA_SLOPE, 3.0, probe, sol.field)
    assert abs(lead + rem - pairing) <= 1e-10 * abs(pairing)


def test_remainder_fraction_shrinks_with_m(wolff3):
    fracs = []
    for M in (4.0, 8.0):
        spec = recovery.ProbeSpec(mode="complex", p=3.0, M=M)
        grid = recovery.probe_window_grid(spec)
        probe = recovery.build_probe(spec, grid)
        sol = pde.solve_dirichlet(grid, GAMMA_ONE, 3.0, probe, initial=probe)
        lead, rem = recovery.remainder_split(grid, GAMMA_ONE, 3.0, probe, sol.field)
        fracs.append(abs(rem) / lead)
    assert fracs[1] < fracs[0]


def test_p2_remainder_linear_oracle():
    # at p = 2 the weak form gives remainder = -int gamma |grad(u - u_0)|^2
    spec = recovery.ProbeSpec(mode="real", p=2.0, M=4.0,
                              profile=special.solve_wolff_profile(2.0))
    grid = recovery.probe_window_grid(spec)
    probe = recovery.build_probe(spec, grid)
    sol = pde.solve_dirichlet(grid, GAMMA_SLOPE, 2.0, probe, initial=probe)
    lead, rem = recovery.remainder_split(grid, GAMMA_SLOPE, 2.0, probe, sol.field)
    diff = pde.PField(sol.field.values - probe.values, "real")
    oracle = -pde._energy(grid, diff.components(), GAMMA_SLOPE(grid.centroid), 2.0, 0.0)
    assert rem.real == pytest.approx(oracle, rel=1e-6, abs=1e-12)
    assert abs(rem.imag) <= 1e-14


# ---------------------------------------------------------------------------
# Recovery driver
# ---------------------------------------------------------------------------


def test_recover_constant_gamma_p2():
    c0 = 2.5
    gam = pde.ConductivityField.constant(c0)
    rep = recovery.recover_boundary_value(gam, 2.0, "complex", [4, 8])
    assert rep.gamma0 == c0
    errs = [abs(r.estimate - c0) / c0 for r in rep.rows]
    assert all(r.ok for r in rep.rows)
    # cutoff error O((M/N)^2) remains even for constants; it halves and
    # more per doubling of M
    assert errs[0] <= 0.10 and errs[1] <= 0.03
    assert errs[1] < errs[0] / 2.0


def test_recover_monotone_trajectory_small():
    rep = recovery.recover_boundary_value(GAMMA_SLOPE, 3.0, "real", [4, 8])
    assert rep.monotone_contract()
    assert all(r.ok for r in rep.rows)
    errs = rep.errors()
    assert errs[1] < errs[0]
    corr = [r.correction for r in rep.rows]
    assert corr[1] < corr[0]


def test_recover_mode_independence():
    # both constructions estimate the same boundary value
    rc = recovery.recover_boundary_value(GAMMA_SLOPE, 1.5, "complex", [4, 8])
    rr = recovery.recover_boundary_value(GAMMA_SLOPE, 1.5, "real", [4, 8])
    assert abs(rc.rows[-1].estimate - rr.rows[-1].estimate) <= 0.1
    assert abs(rc.rows[-1].estimate - 1.0) <= 0.1
    assert abs(rr.rows[-1].estimate - 1.0) <= 0.1


def test_recover_rows_carry_diagnostics():
    rep = recovery.recover_boundary_value(GAMMA_SLOPE, 3.0, "complex", [4])
    row = rep.rows[0]
    assert row.ok
    assert row.newton_iterations > 0
    assert row.weak_residual <= 1e-5
    assert row.pairing_imag <= 1e-12
    assert math.isfinite(row.quad_estimate)
    assert abs(row.leading + row.remainder.real - row.estimate) <= 1e-9


def test_recover_failure_rows_recorded():
    # the window grids need ~1,750 nodes at M = 4 and ~6,800 at M = 8
    rep = recovery.recover_boundary_value(GAMMA_SLOPE, 3.0, "complex", [4, 8],
                                          max_nodes=3000)
    assert rep.rows[0].ok
    assert not rep.rows[1].ok
    assert rep.rows[1].message.startswith("GridBudgetError: grid would need ~")
    assert not rep.monotone_contract()


def _lattice_coordinates(grid):
    """(i/nx, j/ny) of every node of a structured grid."""
    j, i = np.divmod(np.arange(grid.npt), grid.nx + 1)
    return i / grid.nx, j / grid.ny


def _lattice_affine(grid):
    s, t = _lattice_coordinates(grid)
    return (0.3 - 1.7j) + (2.5 + 0.5j) * s - (1.25 - 3.0j) * t


def test_lattice_interpolation_reproduces_affine_fields_between_windows():
    # the M = 16 complex p = 3 window and its half-resolution companion,
    # whose lattices are not nested
    spec = recovery.ProbeSpec(mode="complex", p=3.0, M=16.0)
    fine = recovery.probe_window_grid(spec)
    coarse = recovery.probe_window_grid(spec, nodes_per_wavelength=8.0)
    assert (fine.nx, coarse.nx) == (230, 116)
    out = recovery._lattice_interpolate(coarse, _lattice_affine(coarse), fine)
    assert np.abs(out - _lattice_affine(fine)).max() <= 1e-14


def test_lattice_interpolation_follows_a_curved_bottom():
    rho = special.BoundaryDefiningFunction(lambda x: -x[..., 0] ** 2 / 10.0,
                                           lambda x: -x[..., 0] / 5.0)
    shape = pde.Rectangle(half_width=0.5, height=0.5, bottom=rho)
    fine, coarse = pde.build_grid(shape, 60.0), pde.build_grid(shape, 31.0)
    assert (fine.nx, coarse.nx) == (60, 32)

    def field(grid):
        # affine in x1 and in the height above the bottom, relative to the
        # column: affine in lattice coordinates, not in x2
        x1, x2 = grid.pts.T
        g = -x1**2 / 10.0
        return 1.0 + 2.0 * x1 - 3.0 * (x2 - g) / (0.5 - g)

    out = recovery._lattice_interpolate(coarse, field(coarse), fine)
    assert np.abs(out - field(fine)).max() <= 1e-14


class _CoarseLevel(Exception):
    pass


def test_two_level_start_runs_where_half_resolution_resolves(monkeypatch,
                                                              wolff15, wolff3):
    def coarse_window(*args, **kwargs):
        raise _CoarseLevel

    monkeypatch.setattr(recovery, "probe_window_grid", coarse_window)
    coarse = set()
    for mode in ("complex", "real"):
        for p, profile in ((1.5, wolff15), (3.0, wolff3)):
            for M in (4.0, 8.0, 16.0):
                spec = recovery.ProbeSpec(mode=mode, p=p, M=M, profile=(
                    profile if mode == "real" else None))
                try:
                    assert recovery._two_level_start(
                        spec, None, "probe", None, None, 16.0, 1_500_000) == "probe"
                except _CoarseLevel:
                    coarse.add((mode, p, M))
    assert coarse == {("complex", 3.0, 8.0), ("complex", 3.0, 16.0),
                      ("complex", 1.5, 16.0), ("real", 3.0, 8.0),
                      ("real", 3.0, 16.0), ("real", 1.5, 16.0)}


def test_failed_coarse_solve_falls_back_to_the_probe_start(monkeypatch):
    spec = recovery.ProbeSpec(mode="complex", p=3.0, M=8.0)
    grid = recovery.probe_window_grid(spec)
    probe = recovery.build_probe(spec, grid)
    direct = pde.solve_dirichlet(grid, GAMMA_SLOPE, 3.0, probe, initial=probe)
    expected = dnmap.flux_pairing(grid, GAMMA_SLOPE, 3.0, direct.field, probe).real

    solve, grids = recovery.solve_dirichlet, []

    def coarse_fails(grid, *args, **kwargs):
        grids.append(grid.nx)
        if len(grids) == 1:
            raise pde.SolverConvergenceError("injected")
        return solve(grid, *args, **kwargs)

    monkeypatch.setattr(recovery, "solve_dirichlet", coarse_fails)
    row = recovery.recover_boundary_value(GAMMA_SLOPE, 3.0, "complex", [8]).rows[0]
    assert grids == [grid.nx // 2, grid.nx]
    assert row.ok, row.message
    assert row.estimate == pytest.approx(expected, rel=1e-12)
    # the same row of the recover demo's golden, written before the
    # two-level start existed
    assert row.estimate == pytest.approx(1.0039390498376664, rel=1e-12)
    assert row.newton_iterations == len(direct.energy_history) == 7


def test_recover_requires_increasing_m():
    with pytest.raises(ValueError):
        recovery.recover_boundary_value(GAMMA_SLOPE, 3.0, "complex", [8, 4])


def test_extrapolation_one_geometric_step():
    rep = recovery.recover_boundary_value(GAMMA_SLOPE, 3.0, "complex", [4, 8])
    e_prev, e_last = rep.rows[0].estimate, rep.rows[1].estimate
    assert rep.extrapolated == pytest.approx(2.0 * e_last - e_prev, rel=1e-12)


# error lists along M: strictly falling, one rise, two rises, and a rise
# of 1e-10 relative, inside the 1e-9 rounding slack, or of 1e-8, outside it
MONOTONE_CASES = [
    ([0.1, 0.05, 0.02], True),
    ([0.1, 0.05, 0.06, 0.01], True),
    ([0.1, 0.12, 0.05, 0.06], False),
    ([0.1, 0.1 * (1 + 1e-10), 0.12, 0.05], True),
    ([0.1, 0.1 * (1 + 1e-8), 0.12, 0.05], False),
]


def _report_with_errors(errors, gamma0=1.0):
    rows = [recovery.RecoveryRow(M=4.0 * 2**k, N=16.0 * 4**k, ok=True,
                                 estimate=gamma0 + e)
            for k, e in enumerate(errors)]
    return recovery.RecoveryReport(mode="complex", p=3.0, s=2.0,
                                   gamma0=gamma0, rows=rows)


@pytest.mark.parametrize("errors,verdict", MONOTONE_CASES)
def test_monotone_contract_counts_rises(errors, verdict):
    assert recovery.monotone_errors(errors) is verdict
    assert _report_with_errors(errors).monotone_contract() is verdict


@pytest.mark.parametrize("errors", [errors for errors, _ in MONOTONE_CASES])
def test_probe_check_contract_matches_report(tmp_path, monkeypatch, errors):
    estimates = iter(1.0 + e for e in errors)
    monkeypatch.setattr(recovery, "quadrature_limit",
                        lambda gamma, spec: next(estimates))
    cfg = tmp_path / "pc.cfg"
    cfg.write_text("[physics]\ngamma = 1\n[probe]\nmode = complex\nm_list = "
                   + ", ".join(str(4 * 2**k) for k in range(len(errors))) + "\n")
    code = cli.main(["probe-check", "--config", str(cfg), "--out", str(tmp_path)])
    text = (tmp_path / "probe_check.csv").read_text()
    report_verdict = _report_with_errors(errors).monotone_contract()
    assert f"# contract: {'pass' if report_verdict else 'fail'}" in text
    assert code == (0 if report_verdict else 2)


def test_monotone_contract_fails_on_failed_or_no_rows():
    rep = _report_with_errors([0.1, 0.05])
    rep.rows[1].ok = False
    assert not rep.monotone_contract()
    assert not _report_with_errors([]).monotone_contract()


def test_probe_scaling_invariance_of_indicator(wolff3):
    # indicator is built from normalized quantities: rebuilding the probe
    # from a rescaled raw field leaves it unchanged by construction
    spec = recovery.ProbeSpec(mode="complex", p=3.0, M=4.0)
    grid = recovery.probe_window_grid(spec)
    probe = recovery.build_probe(spec, grid)
    sol = pde.solve_dirichlet(grid, GAMMA_ONE, 3.0, probe, initial=probe)
    base = recovery._correction_indicator(grid, spec, probe, sol.field)
    # scale datum and solution together (solver homogeneity): indicator of
    # the scaled pair divided by the scale^p matches
    t = 4.0
    probe_t = pde.PField(t * probe.values, "complex")
    sol_t = pde.PField(t * sol.field.values, "complex")
    scaled = recovery._correction_indicator(grid, spec, probe_t, sol_t)
    assert scaled / t**3.0 == pytest.approx(base, rel=1e-12)


@pytest.mark.parametrize("mode,p", (("complex", 3.0), ("real", 1.5)))
def test_normalization_consistency_leading_vs_quadrature(mode, p, wolff15):
    # the FEM leading term of the pairing split and the grid-free panel
    # quadrature are two independent routes to the same scaled probe
    # energy; they must agree to 1% once the mesh resolves the probe
    prof = wolff15 if mode == "real" else None
    rep = recovery.recover_boundary_value(GAMMA_SLOPE, p, mode, [4, 8],
                                          profile=prof,
                                          nodes_per_wavelength=32.0)
    for r in rep.rows:
        assert r.ok
        assert abs(r.leading - r.quad_estimate) <= 1e-2 * r.quad_estimate


def test_hardy_ratio_bounded_over_probe_family():
    # correction fields from the recovery runs: ||u1/delta||_p / ||grad u1||_p
    ratios = []
    for M in (4.0, 8.0):
        spec = recovery.ProbeSpec(mode="complex", p=3.0, M=M)
        grid = recovery.probe_window_grid(spec)
        probe = recovery.build_probe(spec, grid)
        sol = pde.solve_dirichlet(grid, GAMMA_SLOPE, 3.0, probe, initial=probe)
        u1 = pde.PField(sol.field.values - probe.values, "complex")
        ratios.append(oracles.hardy_ratio(grid, u1, 3.0))
    assert all(0.0 < r < 20.0 for r in ratios)
