import numpy as np
import pytest

from plprobe import pde, recovery


@pytest.fixture(scope="module")
def unit_rect():
    # [-0.5, 0.5] x [0, 1]: unit area, convenient for closed-form energies
    return pde.build_grid(pde.Rectangle(half_width=0.5, height=1.0), 16)


def harmonic_exp(pts):
    return np.exp(1j * pts[:, 0] - pts[:, 1])


def harmonic_exp_grad(pts):
    return harmonic_exp(pts)[:, None] * np.array([1j, -1.0])[None, :]


# ---------------------------------------------------------------------------
# Grid construction
# ---------------------------------------------------------------------------


def test_rectangle_grid_counts():
    g = pde.build_grid(pde.Rectangle(half_width=1.0, height=1.0), 64)
    assert (g.nx + 1, g.ny + 1) == (129, 65)
    assert g.tri.shape[0] == 2 * g.nx * g.ny
    assert np.all(g.area > 0.0)
    # bottom row is boundary
    assert np.all(g.boundary[g.bottom_idx])
    # total area
    assert g.area.sum() == pytest.approx(2.0, rel=1e-12)


def test_grid_delta_values():
    g = pde.build_grid(pde.Rectangle(half_width=1.0, height=1.0), 8)
    k = int(np.argmin(((g.pts - [0.0, 0.5]) ** 2).sum(axis=1)))
    assert g.delta[k] == pytest.approx(0.5, abs=1e-12)
    assert np.all(g.delta[g.boundary] == 0.0)
    assert np.all(g.delta >= 0.0)


@pytest.mark.parametrize("trailing", [(), (2,)])
def test_scatter_equals_sequential_add(trailing):
    # the element-to-node sum is exactly the in-order accumulation
    g = pde.build_grid(pde.HalfDisc(radius=1.0), 12)
    vals = np.random.default_rng(3).standard_normal(g.tri.shape + trailing)
    ref = np.zeros((g.npt,) + trailing)
    np.add.at(ref, g.tri.ravel(), vals.reshape((-1,) + trailing))
    assert np.array_equal(g.scatter(vals), ref)
    assert g.node_area.sum() == pytest.approx(g.area.sum(), rel=1e-13)


@pytest.mark.parametrize("ncomp", (1, 2))
@pytest.mark.parametrize("shape", ("window", "half disc"))
def test_gradient_kernels_equal_einsum(shape, ncomp):
    # the explicit vertex/component sums match einsum to the bit, signed
    # zeros included (a zero field gives only zero terms)
    if shape == "window":
        spec = recovery.ProbeSpec(mode="complex", p=3.0, M=4.0)
        g = recovery.probe_window_grid(spec, nodes_per_wavelength=8.0)
    else:
        g = pde.build_grid(pde.HalfDisc(radius=1.0), 12)
    rng = np.random.default_rng(7)
    for U in (rng.standard_normal((g.npt, ncomp)), np.zeros((g.npt, ncomp))):
        q = pde._element_gradients(g, U)
        ref = np.einsum("eiv,eic->evc", g.grad, U[g.tri])
        assert q.tobytes() == ref.tobytes()
        ref = np.einsum("eiv,evc->eic", g.grad, q)
        assert pde._hat_dots(g, q).tobytes() == ref.tobytes()


def test_grid_origin_is_node():
    g = pde.build_grid(pde.Rectangle(half_width=1.0, height=1.0), 9)
    d = ((g.pts - [0.0, 0.0]) ** 2).sum(axis=1)
    assert d.min() == 0.0


def test_half_disc_boundary_mask():
    g = pde.build_grid(pde.HalfDisc(radius=1.0), 16)
    b = g.pts[g.boundary_idx]
    on_diameter = np.abs(b[:, 1]) < 1e-12
    on_arc = np.abs(np.hypot(b[:, 0], b[:, 1]) - 1.0) < 1e-9
    assert np.all(on_diameter | on_arc)
    assert on_diameter.any() and on_arc.any()
    assert np.all(g.area > 0.0)


def test_curved_bottom_grid():
    g = pde.build_grid(
        pde.Rectangle(half_width=0.5, height=0.5,
                      bottom=lambda x: -0.1 * np.asarray(x) ** 2,
                      bottom_deriv=lambda x: -0.2 * np.asarray(x)), 32)
    bottom = g.pts[g.bottom_idx]
    assert np.allclose(bottom[:, 1], -0.1 * bottom[:, 0] ** 2, atol=1e-14)
    assert np.all(g.area > 0.0)


def test_build_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        pde.build_grid(pde.Rectangle(half_width=1.0), 4)  # resolution < 8
    with pytest.raises(ValueError):
        pde.build_grid(pde.Rectangle(half_width=-1.0), 16)
    with pytest.raises(ValueError):
        pde.build_grid(pde.HalfDisc(radius=0.0), 16)


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------


def test_pfield_real_mode_rejects_imaginary():
    with pytest.raises(ValueError):
        pde.PField(np.array([1.0 + 1e-12j, 0.0]), mode="real")
    f = pde.PField(np.array([1.0 + 0.0j, 2.0]), mode="real")
    assert f.ncomp == 1


def test_conductivity_validation(unit_rect):
    good = pde.ConductivityField(lambda x: 1.0 + x[:, 1])
    lo, hi = good.validate_on(unit_rect)
    assert 0.99 <= lo <= hi <= 2.01
    bad = pde.ConductivityField(lambda x: x[:, 1] - 0.5)
    with pytest.raises(ValueError, match="positive"):
        bad.validate_on(unit_rect)


# ---------------------------------------------------------------------------
# Energy
# ---------------------------------------------------------------------------


def test_energy_constant_is_zero(unit_rect):
    u = pde.PField.from_function(unit_rect, lambda x: np.full(x.shape[0], 3.3), "real")
    assert pde.energy(unit_rect, u, pde.ConductivityField.constant(1.0), 2.0) == 0.0


@pytest.mark.parametrize("p", (1.5, 2.0, 3.0, 5.0))
def test_energy_unit_gradient(unit_rect, p):
    u = pde.PField.from_function(unit_rect, lambda x: x[:, 1], "real")
    val = pde.energy(unit_rect, u, pde.ConductivityField.constant(1.0), p)
    assert val == pytest.approx(1.0, rel=1e-12)


def test_energy_weighted_closed_form(unit_rect):
    u = pde.PField.from_function(unit_rect, lambda x: x[:, 1], "real")
    gam = pde.ConductivityField(lambda x: 1.0 + x[:, 1])
    assert pde.energy(unit_rect, u, gam, 3.0) == pytest.approx(1.5, rel=1e-12)


def test_energy_regularization_floor(unit_rect):
    u = pde.PField.zeros(unit_rect, "real")
    val = pde.energy(unit_rect, u, pde.ConductivityField.constant(2.0), 3.0, eps=0.1)
    assert val == pytest.approx(2.0 * 0.1**3, rel=1e-12)


# ---------------------------------------------------------------------------
# Solver oracles
# ---------------------------------------------------------------------------


def test_p2_harmonic_oracle_convergence():
    errs = {}
    for res in (32, 64):
        g = pde.build_grid(pde.Rectangle(half_width=1.0, height=1.0), res)
        f = pde.PField.from_function(g, harmonic_exp, "complex")
        sol = pde.solve_dirichlet(g, pde.ConductivityField.constant(1.0), 2.0, f,
                                  initial=pde.PField.zeros(g))
        errs[res] = pde.h1_relative_error(g, sol.field, harmonic_exp_grad)
    assert errs[64] <= 3e-2
    assert 1.7 <= errs[32] / errs[64] <= 2.3


@pytest.mark.parametrize("p", (1.5, 3.0))
def test_affine_data_solved_exactly(p):
    g = pde.build_grid(pde.Rectangle(half_width=1.0, height=1.0), 16)
    aff = pde.PField.from_function(g, lambda x: 0.7 * x[:, 0] - 1.3 * x[:, 1] + 0.4,
                                   "real")
    sol = pde.solve_dirichlet(g, pde.ConductivityField.constant(2.0), p, aff)
    assert np.max(np.abs(sol.field.values - aff.values)) <= 1e-12
    # and from a cold start too
    sol2 = pde.solve_dirichlet(g, pde.ConductivityField.constant(2.0), p, aff,
                               pde.SolverSettings(init="zero"))
    assert np.max(np.abs(sol2.field.values - aff.values)) <= 1e-10


def probe_like(x):
    r = np.sqrt(x[:, 0] ** 2 + x[:, 1] ** 2)
    eta = np.clip(1.5 - 2.0 * r, 0.0, 1.0)
    return eta * np.cos(4.0 * x[:, 0]) * np.exp(-4.0 * x[:, 1])


@pytest.fixture(scope="module")
def nonlinear_setup():
    g = pde.build_grid(pde.Rectangle(half_width=1.0, height=1.0), 32)
    gam = pde.ConductivityField(lambda x: 1.0 + x[:, 1] / 2.0)
    f = pde.PField.from_function(g, probe_like, "real")
    return g, gam, f


def test_two_initialization_uniqueness(nonlinear_setup):
    g, gam, f = nonlinear_setup
    s1 = pde.solve_dirichlet(g, gam, 3.0, f, pde.SolverSettings(init="zero"))
    s2 = pde.solve_dirichlet(g, gam, 3.0, f, pde.SolverSettings(init="random", seed=99))
    assert abs(s1.energy - s2.energy) / s1.energy <= 1e-8
    h1 = np.sqrt(pde.energy(g, pde.PField(s1.field.values - s2.field.values, "real"),
                            pde.ConductivityField.constant(1.0), 2.0))
    ref = np.sqrt(pde.energy(g, s1.field, pde.ConductivityField.constant(1.0), 2.0))
    assert h1 / ref <= 1e-4


def test_energy_monotone_along_iterations(nonlinear_setup):
    g, gam, f = nonlinear_setup
    sol = pde.solve_dirichlet(g, gam, 3.0, f, pde.SolverSettings(init="zero"))
    energies = [e for (_, e, _) in sol.energy_history]
    # one eps for the whole solve: the accepted steps never increase E
    assert len(energies) > 1
    for k in range(1, len(energies)):
        assert energies[k] <= energies[k - 1] * (1.0 + 1e-14)


def test_maximum_principle(nonlinear_setup):
    g, gam, f = nonlinear_setup
    for p in (1.5, 3.0):
        sol = pde.solve_dirichlet(g, gam, p, f)
        u = sol.field.values.real
        fb = f.values.real[g.boundary]
        assert u.min() >= fb.min() - 1e-10
        assert u.max() <= fb.max() + 1e-10


def test_solve_homogeneity(nonlinear_setup):
    g, gam, f = nonlinear_setup
    base = pde.solve_dirichlet(g, gam, 3.0, f)
    t = 3.7
    ft = pde.PField(t * f.values, "real")
    scaled = pde.solve_dirichlet(g, gam, 3.0, ft)
    dev = np.max(np.abs(scaled.field.values - t * base.field.values))
    assert dev <= 1e-9 * np.max(np.abs(t * base.field.values))


def test_p2_matches_direct_linear_solve(nonlinear_setup):
    g, gam, f = nonlinear_setup
    # p = 2 energy is quadratic: any two solver paths agree to round-off
    s1 = pde.solve_dirichlet(g, gam, 2.0, f, pde.SolverSettings(init="zero"))
    s2 = pde.solve_dirichlet(g, gam, 2.0, f,
                             pde.SolverSettings(init="zero", eps_final=1e-9))
    assert np.max(np.abs(s1.field.values - s2.field.values)) <= 1e-10


def test_solver_reports_residuals(nonlinear_setup):
    g, gam, f = nonlinear_setup
    sol = pde.solve_dirichlet(g, gam, 3.0, f)
    assert sol.regularized_residual <= 1e-7
    assert sol.weak_residual <= 1e-5
    assert len(sol.energy_history) > 0


def test_weak_residual_small_at_minimizer_large_before(nonlinear_setup):
    g, gam, f = nonlinear_setup
    sol = pde.solve_dirichlet(g, gam, 3.0, f)
    assert pde.weak_residual(g, gam, 3.0, sol.field) <= 1e-6
    # the raw datum extension is far from solving the equation
    assert pde.weak_residual(g, gam, 3.0, f) >= 1e-3


def test_weak_residual_stable_under_refinement():
    gam = pde.ConductivityField(lambda x: 1.0 + x[:, 1] / 2.0)
    vals = []
    for res in (16, 32):
        g = pde.build_grid(pde.Rectangle(half_width=1.0, height=1.0), res)
        f = pde.PField.from_function(g, probe_like, "real")
        sol = pde.solve_dirichlet(g, gam, 3.0, f)
        vals.append(pde.weak_residual(g, gam, 3.0, sol.field))
    assert vals[1] <= 10.0 * max(vals[0], 1e-12)


def test_solver_error_carries_residual(nonlinear_setup):
    g, gam, f = nonlinear_setup
    with pytest.raises(pde.SolverConvergenceError) as err:
        pde.solve_dirichlet(g, gam, 3.0, f,
                            pde.SolverSettings(init="zero", max_iter=1))
    assert err.value.residual is None or err.value.residual >= 0.0


def test_solver_rejects_bad_p(nonlinear_setup):
    g, gam, f = nonlinear_setup
    with pytest.raises(ValueError):
        pde.solve_dirichlet(g, gam, 1.0, f)


def test_random_start_converges_below_p2(nonlinear_setup):
    # full Newton steps on |q|^1.5 map q -> -q; a weak sufficient-decrease
    # rule accepted them and this start ran out of iterations
    g, gam, f = nonlinear_setup
    s1 = pde.solve_dirichlet(g, gam, 1.5, f, pde.SolverSettings(init="zero"))
    s2 = pde.solve_dirichlet(g, gam, 1.5, f, pde.SolverSettings(init="random", seed=1))
    assert abs(s1.energy - s2.energy) / s1.energy <= 1e-8
    assert np.max(np.abs(s1.field.values - s2.field.values)) <= 1e-6


# ---------------------------------------------------------------------------
# Newton layer
# ---------------------------------------------------------------------------


def _newton_at_probe(g, mode, p):
    gam = pde.ConductivityField(lambda x: 1.0 + x[:, 1] / 2.0)
    tilt = 1.0 + 0.5j if mode == "complex" else 1.0
    u = pde.PField.from_function(g, lambda x: tilt * probe_like(x), mode)
    return pde._FreeDofNewton(g, gam(g.centroid), p, u.ncomp), u.components()


@pytest.mark.parametrize("mode,p", (("complex", 1.5), ("real", 3.0)))
def test_newton_matrix_symmetric_and_factored_accurately(nonlinear_setup, mode, p):
    g = nonlinear_setup[0]
    newton, U = _newton_at_probe(g, mode, p)
    _, grad, H = newton.linearize(U, 1e-6)
    assert H.shape == (int((~g.boundary).sum()) * U.shape[1],) * 2
    assert (H != H.T).nnz == 0
    # diagonal pivots without threshold are safe because H is SPD
    x = pde._factor(H).solve(grad)
    assert np.linalg.norm(H @ x - grad) <= 1e-10 * np.linalg.norm(grad)


@pytest.mark.parametrize("mode,p", (("complex", 1.5), ("real", 3.0)))
def test_newton_matrix_is_derivative_of_gradient(nonlinear_setup, mode, p):
    g = nonlinear_setup[0]
    newton, U = _newton_at_probe(g, mode, p)
    eps = 0.1
    _, grad, H = newton.linearize(U, eps)
    v = np.random.default_rng(0).standard_normal(newton.nfree)
    V = np.zeros_like(U)
    V.ravel()[newton.free] = v
    h = 1e-7  # central differences: error O(h^2 |grad v|^2), ~3e-9 here
    dg = (newton.linearize(U + h * V, eps)[1]
          - newton.linearize(U - h * V, eps)[1]) / (2.0 * h)
    assert np.linalg.norm(H @ v - dg) <= 1e-7 * np.linalg.norm(dg)


def test_warm_started_solve_runs_single_final_stage():
    from plprobe import recovery
    spec = recovery.ProbeSpec(mode="complex", p=3.0, M=4.0)
    grid = recovery.probe_window_grid(spec)
    probe = recovery.build_probe(spec, grid)
    gam = pde.ConductivityField(lambda x: 1.0 + x[:, 1] / 2.0)
    sol = pde.solve_dirichlet(grid, gam, 3.0, probe.field, initial=probe.field)
    assert len(sol.energy_history) > 0
    assert all(eps == sol.eps_final_abs for eps, _, _ in sol.energy_history)
    assert sol.regularized_residual <= 1e-7


def test_too_few_iterations_raise_with_residual(nonlinear_setup):
    g, gam, f = nonlinear_setup
    assert len(pde.solve_dirichlet(g, gam, 3.0, f).energy_history) > 6
    with pytest.raises(pde.SolverConvergenceError) as err:
        pde.solve_dirichlet(g, gam, 3.0, f, pde.SolverSettings(max_iter=6))
    assert "no convergence within 6 iterations" in str(err.value)
    assert np.isfinite(err.value.residual) and err.value.residual >= 0.0


@pytest.mark.parametrize("which", ["datum", "initial"])
def test_non_finite_input_rejected_before_assembly(nonlinear_setup, which):
    g, gam, f = nonlinear_setup
    bad = f.values.copy()
    k = int(np.flatnonzero(~g.boundary)[5]) if which == "initial" else 3
    bad[k] = np.nan
    fields = {"datum": f, "initial": f, which: pde.PField(bad, "real")}
    with pytest.raises(ValueError, match=rf"{which} is not finite at node {k}: .*nan"):
        pde.solve_dirichlet(g, gam, 3.0, fields["datum"], initial=fields["initial"])


# ---------------------------------------------------------------------------
# Hardy ratio
# ---------------------------------------------------------------------------


def test_hardy_ratio_tent(unit_rect):
    tent = pde.PField(np.asarray(unit_rect.delta, dtype=complex), "real")
    r = pde.hardy_ratio(unit_rect, tent, 2.0)
    assert 0.0 < r < 10.0


def test_hardy_ratio_scale_invariant(unit_rect):
    tent = pde.PField(np.asarray(unit_rect.delta, dtype=complex), "real")
    r1 = pde.hardy_ratio(unit_rect, tent, 2.0)
    r2 = pde.hardy_ratio(unit_rect, pde.PField(5.0 * tent.values, "real"), 2.0)
    assert r1 == pytest.approx(r2, rel=1e-12)


def test_hardy_ratio_rejects_nonvanishing_trace(unit_rect):
    ones = pde.PField.from_function(unit_rect, lambda x: np.ones(x.shape[0]), "real")
    with pytest.raises(ValueError):
        pde.hardy_ratio(unit_rect, ones, 2.0)
    zero = pde.PField.zeros(unit_rect, "real")
    with pytest.raises(ValueError):
        pde.hardy_ratio(unit_rect, zero, 2.0)
