import math

import numpy as np
import pytest

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
        bpts = grid.pts[grid.boundary_idx]
        r = np.sqrt((bpts**2).sum(axis=1))
        outside = np.abs(probe.trace[r > 1.0 / spec.M])
        assert outside.size > 0 and np.all(outside == 0.0)


def test_complex_probe_trace_modulus_is_cutoff(wolff2):
    # On the flat boundary |h_N| = 1, so |f_M| = normalization * eta(M x')
    spec = recovery.ProbeSpec(mode="complex", p=2.0, M=4.0)
    grid = recovery.probe_window_grid(spec)
    probe = recovery.build_probe(spec, grid)
    bottom = grid.bottom_idx
    eta = special.CutoffField(M=spec.M, profile=spec.cutoff)
    expected = probe.scale * eta.value(grid.pts[bottom])
    assert np.allclose(np.abs(probe.field.values[bottom]), expected, atol=1e-14)


def test_real_probe_trace_is_damped_sine_at_p2(wolff2):
    spec = recovery.ProbeSpec(mode="real", p=2.0, M=4.0, profile=wolff2)
    grid = recovery.probe_window_grid(spec)
    probe = recovery.build_probe(spec, grid)
    bottom = grid.bottom_idx
    x1 = grid.pts[bottom, 0]
    eta = special.CutoffField(M=spec.M, profile=spec.cutoff)
    expected = probe.scale * eta.value(grid.pts[bottom]) * np.sin(spec.N * x1)
    assert np.allclose(probe.field.values[bottom].real, expected, atol=1e-9)


def test_build_probe_under_resolved_error(wolff3):
    spec = recovery.ProbeSpec(mode="complex", p=3.0, M=4.0)
    coarse = pde.build_grid(pde.Rectangle(half_width=0.5, height=0.5), 16)
    with pytest.raises(recovery.UnderResolvedProbeError, match="resolution"):
        recovery.build_probe(spec, coarse)


def test_complex_probe_rejects_curved_boundary(wolff3):
    rho = special.graph_boundary(lambda x: -0.1 * np.asarray(x) ** 2,
                                 lambda x: -0.2 * np.asarray(x))
    spec = recovery.ProbeSpec(mode="complex", p=3.0, M=4.0, rho=rho)
    grid = recovery.probe_window_grid(
        recovery.ProbeSpec(mode="complex", p=3.0, M=4.0))
    with pytest.raises(ValueError, match="flat"):
        recovery.build_probe(spec, grid)


def test_probe_window_grid_validation(wolff3):
    spec = recovery.ProbeSpec(mode="complex", p=3.0, M=4.0)
    with pytest.raises(ValueError):
        recovery.probe_window_grid(spec, margin=0.5)
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
        res = recovery.oscillatory_average_check(spec)
        assert res["rel_diff"] <= 5e-3


def test_oscillatory_average_check_n3(wolff3):
    # the tensor rule runs over a 2-D perpendicular grid in n = 3
    spec = recovery.ProbeSpec(mode="real", p=3.0, M=16.0, n=3, profile=wolff3)
    res = recovery.oscillatory_average_check(spec, tol=1e-3)
    assert res["rel_diff"] <= 5e-3


def test_curved_boundary_quadrature_limit(wolff3):
    rho = special.graph_boundary(lambda x: -0.1 * np.asarray(x) ** 2,
                                 lambda x: -0.2 * np.asarray(x), radius=1.0)
    spec = recovery.ProbeSpec(mode="real", p=3.0, M=32.0, profile=wolff3, rho=rho)
    est = recovery.quadrature_limit(GAMMA_SLOPE, spec)
    assert est == pytest.approx(1.0, abs=2e-2)


def _flat_energy_density(spec, gamma_fn, x):
    """Reference: every factor evaluated at every point of a flat (m, n)
    array, with numpy's own sum for the squared norm."""
    M, N, p, n = spec.M, spec.N, spec.p, spec.n
    eta_field = special.CutoffField(M=M, profile=spec.cutoff)
    eta = eta_field.value(x)
    geta = eta_field.gradient(x) / M
    if spec.mode == "complex":
        vec = (M / N) * geta
        vec[:, n - 1] -= eta
        mag2 = (vec**2).sum(axis=1) + eta**2 * (p - 1.0)
    else:
        tau = N * x[:, 0]
        a = spec.profile.a_at(tau)
        ap = spec.profile.aprime_at(tau)
        grad_rho = spec.boundary_fn.gradient(x)
        vec = (M / N) * geta * a[:, None] - eta[:, None] * a[:, None] * grad_rho
        vec[:, 0] += eta * ap
        mag2 = (vec**2).sum(axis=1)
    return np.asarray(gamma_fn(x), dtype=float) * mag2 ** (p / 2.0)


@pytest.mark.parametrize("mode, p, n, curved", [
    ("complex", 3.0, 2, False), ("real", 1.5, 2, False),
    ("real", 3.0, 2, True), ("real", 3.0, 3, False)])
def test_energy_density_block_equals_flat(mode, p, n, curved, wolff15, wolff3):
    # x'-only factors evaluated once per perpendicular node change no bit
    rho = None
    if curved:
        rho = special.graph_boundary(lambda x: -np.asarray(x) ** 2 / 10.0,
                                     lambda x: -np.asarray(x) / 5.0, radius=1.0)
    profile = {1.5: wolff15, 3.0: wolff3}[p] if mode == "real" else None
    spec = recovery.ProbeSpec(mode=mode, p=p, M=16.0, n=n, rho=rho,
                              profile=profile)
    rng = np.random.default_rng(5)
    y_perp = rng.uniform(-1.1, 1.1, (40, n - 1))
    y_layer = np.sort(rng.uniform(0.0, 44.0 / spec.p, 30))
    x = recovery._scaled_points(spec, y_perp, y_layer)
    assert x.shape == (40, 30, n)

    def gamma_fn(pts):
        return 1.0 + pts[:, -1] / 2.0 + pts[:, 0] ** 2

    block = recovery._energy_density(spec, gamma_fn, x)
    flat = _flat_energy_density(spec, gamma_fn, x.reshape(-1, n)).reshape(40, 30)
    assert block.tobytes() == flat.tobytes()


# ---------------------------------------------------------------------------
# Remainder split and correction
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def solved_probe():
    spec = recovery.ProbeSpec(mode="complex", p=3.0, M=4.0)
    grid = recovery.probe_window_grid(spec)
    probe = recovery.build_probe(spec, grid)
    sol = pde.solve_dirichlet(grid, GAMMA_SLOPE, 3.0, probe.field,
                              initial=probe.field)
    return spec, grid, probe, sol


def test_remainder_split_sum_consistency(solved_probe):
    spec, grid, probe, sol = solved_probe
    pairing = dnmap.flux_pairing(grid, GAMMA_SLOPE, 3.0, sol.field, probe.field)
    lead, rem = recovery.remainder_split(grid, GAMMA_SLOPE, 3.0,
                                         probe.field, sol.field)
    assert abs(lead + rem - pairing) <= 1e-10 * abs(pairing)


def test_remainder_fraction_shrinks_with_m(wolff3):
    fracs = []
    for M in (4.0, 8.0):
        spec = recovery.ProbeSpec(mode="complex", p=3.0, M=M)
        grid = recovery.probe_window_grid(spec)
        probe = recovery.build_probe(spec, grid)
        sol = pde.solve_dirichlet(grid, GAMMA_ONE, 3.0, probe.field,
                                  initial=probe.field)
        lead, rem = recovery.remainder_split(grid, GAMMA_ONE, 3.0,
                                             probe.field, sol.field)
        fracs.append(abs(rem) / lead)
    assert fracs[1] < fracs[0]


def test_p2_remainder_linear_oracle():
    # at p = 2 the weak form gives remainder = -int gamma |grad(u - u_0)|^2
    spec = recovery.ProbeSpec(mode="real", p=2.0, M=4.0,
                              profile=special.solve_wolff_profile(2.0))
    grid = recovery.probe_window_grid(spec)
    probe = recovery.build_probe(spec, grid)
    sol = pde.solve_dirichlet(grid, GAMMA_SLOPE, 2.0, probe.field,
                              initial=probe.field)
    lead, rem = recovery.remainder_split(grid, GAMMA_SLOPE, 2.0,
                                         probe.field, sol.field)
    diff = pde.PField(sol.field.values - probe.field.values, "real")
    oracle = -pde.energy(grid, diff, GAMMA_SLOPE, 2.0)
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
    assert rep.rows[1].message.startswith("ValueError: grid would need ~")
    assert not rep.monotone_contract()


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
    sol = pde.solve_dirichlet(grid, GAMMA_ONE, 3.0, probe.field,
                              initial=probe.field)
    base = recovery._correction_indicator(grid, spec, probe, sol.field)
    # scale datum and solution together (solver homogeneity): indicator of
    # the scaled pair divided by the scale^p matches
    t = 4.0
    probe_t = recovery.ProbeFields(
        field=pde.PField(t * probe.field.values, "complex"),
        trace=t * probe.trace, scale=t * probe.scale)
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
        sol = pde.solve_dirichlet(grid, GAMMA_SLOPE, 3.0, probe.field,
                                  initial=probe.field)
        u1 = pde.PField(sol.field.values - probe.field.values, "complex")
        ratios.append(pde.hardy_ratio(grid, u1, 3.0))
    assert all(0.0 < r < 20.0 for r in ratios)
