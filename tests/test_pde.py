import tracemalloc

import numpy as np
import pytest
import scipy.linalg.lapack
import scipy.sparse as sp

import oracles
from plprobe import pde, recovery, special, vecp


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
    assert np.all(g.boundary[: g.nx + 1])
    # total area
    assert g.area.sum() == pytest.approx(2.0, rel=1e-12)


def test_grid_delta_values():
    g = pde.build_grid(pde.Rectangle(half_width=1.0, height=1.0), 8)
    delta = oracles.distance_to_boundary(g)
    k = int(np.argmin(((g.pts - [0.0, 0.5]) ** 2).sum(axis=1)))
    assert delta[k] == pytest.approx(0.5, abs=1e-12)
    assert np.all(delta[g.boundary] == 0.0)
    assert np.all(delta >= 0.0)


@pytest.mark.parametrize("ncomp", (1, 2))
@pytest.mark.parametrize("shape", ("window", "half disc"))
def test_gradient_kernels_equal_einsum(shape, ncomp):
    # the component-major kernels match einsum on the element-major arrays to
    # the bit, signed zeros included (a zero field gives only zero terms)
    if shape == "window":
        spec = recovery.ProbeSpec(mode="complex", p=3.0, M=4.0)
        g = recovery.probe_window_grid(spec, nodes_per_wavelength=8.0)
    else:
        g = pde.build_grid(pde.HalfDisc(radius=1.0), 12)
    G = np.ascontiguousarray(g.grad.transpose(2, 0, 1))   # (nel, 3, 2)
    rng = np.random.default_rng(7)
    for U in (rng.standard_normal((g.npt, ncomp)), np.zeros((g.npt, ncomp))):
        q = pde._element_gradients(g, U)
        ref = np.einsum("eiv,eic->evc", G, U[g.tri])
        assert q.shape == (2, ncomp, g.tri.shape[0])
        assert np.ascontiguousarray(q.transpose(2, 0, 1)).tobytes() == ref.tobytes()
        q2 = vecp._norm_sq(q.reshape(-1, q.shape[-1]), axis=0)
        assert q2.tobytes() == (ref**2).sum(axis=(1, 2)).tobytes()
        dots = np.einsum("eiv,evc->eic", G, ref)
        assert (np.ascontiguousarray(pde._hat_dots(g, q).transpose(2, 0, 1)).tobytes()
                == dots.tobytes())


def test_grid_origin_is_node():
    g = pde.build_grid(pde.Rectangle(half_width=1.0, height=1.0), 9)
    d = ((g.pts - [0.0, 0.0]) ** 2).sum(axis=1)
    assert d.min() == 0.0


def test_half_disc_boundary_mask():
    g = pde.build_grid(pde.HalfDisc(radius=1.0), 16)
    b = g.pts[g.boundary]
    on_diameter = np.abs(b[:, 1]) < 1e-12
    on_arc = np.abs(np.hypot(b[:, 0], b[:, 1]) - 1.0) < 1e-9
    assert np.all(on_diameter | on_arc)
    assert on_diameter.any() and on_arc.any()
    assert np.all(g.area > 0.0)


def test_curved_bottom_grid():
    rho = special.BoundaryDefiningFunction(lambda x: -0.1 * x[..., 0] ** 2,
                                           lambda x: -0.2 * x[..., 0])
    g = pde.build_grid(pde.Rectangle(half_width=0.5, height=0.5, bottom=rho), 32)
    bottom = g.pts[: g.nx + 1]
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
    one = pde.ConductivityField.constant(1.0)
    assert pde._energy(unit_rect, u.components(), one(unit_rect.centroid), 2.0, 0.0) == 0.0


@pytest.mark.parametrize("p", (1.5, 2.0, 3.0, 5.0))
def test_energy_unit_gradient(unit_rect, p):
    u = pde.PField.from_function(unit_rect, lambda x: x[:, 1], "real")
    one = pde.ConductivityField.constant(1.0)
    val = pde._energy(unit_rect, u.components(), one(unit_rect.centroid), p, 0.0)
    assert val == pytest.approx(1.0, rel=1e-12)


def test_energy_weighted_closed_form(unit_rect):
    u = pde.PField.from_function(unit_rect, lambda x: x[:, 1], "real")
    gam = pde.ConductivityField(lambda x: 1.0 + x[:, 1])
    val = pde._energy(unit_rect, u.components(), gam(unit_rect.centroid), 3.0, 0.0)
    assert val == pytest.approx(1.5, rel=1e-12)


def test_energy_regularization_floor(unit_rect):
    u = pde.PField(np.zeros(unit_rect.npt), "real")
    two = pde.ConductivityField.constant(2.0)
    val = pde._energy(unit_rect, u.components(), two(unit_rect.centroid), 3.0, 0.1)
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
                                  initial=pde.PField(np.zeros(g.npt), "complex"))
        errs[res] = oracles.h1_relative_error(g, sol.field, harmonic_exp_grad)
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
    one = pde.ConductivityField.constant(1.0)(g.centroid)
    diff = pde.PField(s1.field.values - s2.field.values, "real")
    h1 = np.sqrt(pde._energy(g, diff.components(), one, 2.0, 0.0))
    ref = np.sqrt(pde._energy(g, s1.field.components(), one, 2.0, 0.0))
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


# Newton steps and final energy of the cold solves of the exact exponential
# exp(N (i sqrt(p - 1) x1 - x2)), N = 3, at resolution 32, recorded before the
# element kernels moved to the component-major layout.
COLD_SOLVE_PINS = {
    ("rectangle", 1.5, "zero"): (9, 3.0968118119232484),
    ("rectangle", 1.5, "random"): (7, 3.096811811923249),
    ("rectangle", 3.0, "zero"): (7, 31.218364262980614),
    ("rectangle", 3.0, "random"): (7, 31.218364262980614),
    ("half disc", 1.5, "zero"): (11, 2.9518754165801435),
    ("half disc", 1.5, "random"): (11, 2.9518754165801435),
    ("half disc", 3.0, "zero"): (8, 30.823995581278375),
    ("half disc", 3.0, "random"): (8, 30.823995581278368),
}


@pytest.mark.parametrize("shape,p,init", sorted(COLD_SOLVE_PINS))
def test_cold_solve_pins_steps_and_energy(shape, p, init):
    steps, energy = COLD_SOLVE_PINS[shape, p, init]
    g = pde.build_grid(pde.Rectangle(1.0, 1.0) if shape == "rectangle"
                       else pde.HalfDisc(1.0), 32.0)
    beta = np.sqrt(p - 1.0)
    datum = pde.PField.from_function(
        g, lambda x: np.exp(3.0 * (1j * beta * x[:, 0] - x[:, 1])))
    sol = pde.solve_dirichlet(g, pde.ConductivityField.constant(1.0), p, datum,
                              pde.SolverSettings(init=init, seed=1))
    assert len(sol.energy_history) == steps
    assert sol.energy == pytest.approx(energy, rel=1e-12)


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


def _newton_grids():
    """The probe window, the half disc and a tall rectangle (nx < ny)."""
    spec = recovery.ProbeSpec(mode="complex", p=3.0, M=4.0)
    tall = pde.build_grid(pde.Rectangle(half_width=0.25, height=1.0), 32)
    assert tall.nx < tall.ny
    return (recovery.probe_window_grid(spec),
            pde.build_grid(pde.HalfDisc(radius=1.0), 16), tall)


def _band_lower(ab):
    """The lower triangle whose LAPACK lower band is ab, as a sparse matrix."""
    n = ab.shape[1]
    return sp.diags([ab[k, :n - k] for k in range(ab.shape[0])],
                    [-k for k in range(ab.shape[0])], format="csr")


def _band_matrix(ab):
    lower = _band_lower(ab)
    return lower + sp.triu(lower.T, 1)


def _oracle_newton(g, gamma_c, p, U, eps, newton):
    """E_eps, free gradient and free Newton matrix assembled by coo_matrix
    from element blocks formed here with einsum, from hat gradients
    computed from the vertices; local dofs interleave the components and
    free dofs are numbered by `newton.dofs`."""
    nel, ncomp = g.tri.shape[0], U.shape[1]
    P = g.pts[g.tri]                                    # (nel, 3, 2)
    e1, e2 = P[:, 1] - P[:, 0], P[:, 2] - P[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    G = np.empty((nel, 3, 2))
    for i in range(3):
        a, b = P[:, (i + 1) % 3], P[:, (i + 2) % 3]
        G[:, i] = np.column_stack([a[:, 1] - b[:, 1], b[:, 0] - a[:, 0]]) / det[:, None]
    q = np.einsum("eiv,eic->evc", G, U[g.tri])
    r2 = np.einsum("evc,evc->e", q, q) + eps**2
    coef = 0.5 * det * gamma_c * p * r2 ** ((p - 2.0) / 2.0)
    E = float((0.5 * det * gamma_c * r2 ** (p / 2.0)).sum())
    iq = np.einsum("eiv,evc->eic", G, q).reshape(nel, 3 * ncomp)
    H = (np.einsum("e,ea,eb->eab", coef * (p - 2.0) / r2, iq, iq)
         + np.einsum("e,eiv,ejv,cd->eicjd", coef, G, G,
                     np.eye(ncomp)).reshape(nel, 3 * ncomp, 3 * ncomp))
    number = np.full(g.npt * ncomp, newton.nfree)
    number[newton.dofs] = np.arange(newton.nfree)
    fdof = number[g.tri[:, :, None] * ncomp + np.arange(ncomp)].reshape(nel, 3 * ncomp)
    keep = fdof < newton.nfree
    grad = np.bincount(fdof[keep], weights=(iq * coef[:, None])[keep],
                       minlength=newton.nfree)
    rows = np.broadcast_to(fdof[:, :, None], H.shape)
    cols = np.broadcast_to(fdof[:, None, :], H.shape)
    keep = (rows < newton.nfree) & (cols < newton.nfree)
    mat = sp.coo_matrix((H[keep], (rows[keep], cols[keep])),
                        shape=(newton.nfree,) * 2).tocsr()
    return E, grad, mat


@pytest.mark.parametrize("mode,p", (("complex", 1.5), ("real", 3.0)))
def test_newton_matrix_symmetric_and_factored_accurately(mode, p):
    eps = 1e-6
    for g in _newton_grids():
        newton, U = _newton_at_probe(g, mode, p)
        ncomp = U.shape[1]
        # the free nodes are numbered across the lattice's short side
        assert newton.kd == ncomp * min(g.nx, g.ny) - 1
        assert np.array_equal(np.sort(newton.dofs),
                              np.flatnonzero(np.repeat(~g.boundary, ncomp)))
        assert len(newton.pairs) == 3 * ncomp * (3 * ncomp + 1) // 2
        E_ref, grad_ref, ref = _oracle_newton(g, newton.gamma_c, p, U, eps, newton)
        E, grad, ab = newton.linearize(U, eps)
        assert E == pytest.approx(E_ref, rel=1e-13)
        assert np.abs(grad - grad_ref).max() <= 1e-14 * np.abs(grad_ref).max()
        assert ab.shape == (newton.kd + 1, newton.nfree) and ab.flags.f_contiguous
        scale = abs(ref).max()
        assert abs(_band_lower(ab) - sp.tril(ref)).max() <= 1e-14 * scale
        assert abs(ref - ref.T).max() <= 1e-14 * scale
        x = pde._band_solve(pde._band_factor(ab), grad)
        assert np.linalg.norm(ref @ x - grad) <= 1e-10 * np.linalg.norm(grad)


@pytest.mark.parametrize("mode,p", (("complex", 1.5), ("real", 3.0)))
def test_newton_matrix_is_derivative_of_gradient(mode, p):
    eps = 0.1
    # central differences: truncation O(h^2) is largest on the half disc's
    # distorted cells (1.4e-8 relative), round-off about 3e-9
    h = 1e-8
    for g in _newton_grids():
        newton, U = _newton_at_probe(g, mode, p)
        _, grad, ab = newton.linearize(U, eps)
        v = np.random.default_rng(0).standard_normal(newton.nfree)
        V = np.zeros_like(U)
        V.ravel()[newton.dofs] = v
        dg = (newton.linearize(U + h * V, eps)[1]
              - newton.linearize(U - h * V, eps)[1]) / (2.0 * h)
        assert np.linalg.norm(_band_matrix(ab) @ v - dg) <= 1e-7 * np.linalg.norm(dg)


@pytest.mark.parametrize("ncomp", (1, 2))
def test_free_gradient_equals_sequential_add(ncomp):
    # the element-to-node sum of the gradient is exactly the in-order
    # accumulation: each free dof adds its element terms in element order
    g = pde.build_grid(pde.HalfDisc(radius=1.0), 12)
    rng = np.random.default_rng(3)
    U = rng.standard_normal((g.npt, ncomp))
    gamma_c = 1.0 + rng.uniform(size=g.tri.shape[0])
    p, eps = 3.0, 1e-3
    newton = pde._FreeDofNewton(g, gamma_c, p, ncomp)
    q = pde._element_gradients(g, U)
    q2 = vecp._norm_sq(q.reshape(-1, q.shape[-1]), axis=0)
    coef = g.area * gamma_c * p * vecp._pow_or_zero(q2 + eps * eps, (p - 2.0) / 2.0)
    terms = np.moveaxis(pde._hat_dots(g, q) * coef, -1, 0)    # (nel, 3, ncomp)
    number = np.full(g.npt * ncomp, newton.nfree)
    number[newton.dofs] = np.arange(newton.nfree)
    ref = np.zeros(newton.nfree + 1)
    np.add.at(ref, number[g.tri[:, :, None] * ncomp + np.arange(ncomp)].ravel(),
              terms.ravel())
    assert newton.linearize(U, eps, band=False)[1].tobytes() == ref[:-1].tobytes()


@pytest.mark.parametrize("ncomp", (1, 2))
@pytest.mark.parametrize("shape", ("rectangle", "half disc"))
def test_residual_equals_frozen_dual_residual(shape, ncomp):
    # the residual read from the Newton gradient agrees to round-off with
    # the dual residual summed by its own scatter, on random fields
    g = pde.build_grid(pde.Rectangle(1.0, 1.0) if shape == "rectangle"
                       else pde.HalfDisc(1.0), 16)
    rng = np.random.default_rng(11)
    U = rng.standard_normal((g.npt, ncomp))
    gamma_c = 1.0 + rng.uniform(size=g.tri.shape[0])
    for p in (1.5, 2.0, 3.0, 8.0):
        newton = pde._FreeDofNewton(g, gamma_c, p, ncomp)
        for eps in (0.0, 1e-3):
            ref = oracles.dual_residual(g, gamma_c, p, U, eps)
            assert abs(newton.residual(U, eps) - ref) <= 1e-14 * ref
        assert newton.residual(np.zeros_like(U), 0.0) == 0.0


def test_indefinite_band_raises_from_factor():
    ab = np.asfortranarray([[4.0, 4.0, -1.0, 4.0], [1.0, 1.0, 1.0, 0.0]])
    with pytest.raises(pde.SolverConvergenceError, match="not positive definite"):
        pde._band_factor(ab)


def _record_factor_threads(monkeypatch, lib, routine="dpbtrf"):
    """Wrap scipy.linalg.lapack.`routine` (dpbtrf or dpbtrs), which
    `pde._band_factor` and `pde._band_solve` import at each call, to record
    OpenBLAS's thread count during each call."""
    seen = []

    def recording(*args, **kwargs):
        seen.append(lib.scipy_openblas_get_num_threads())
        return original(*args, **kwargs)

    original = getattr(scipy.linalg.lapack, routine)
    monkeypatch.setattr(scipy.linalg.lapack, routine, recording)
    return seen


def _spd_band(n=200, kd=20):
    ab = np.asfortranarray(np.random.default_rng(n).uniform(-1.0, 1.0, (kd + 1, n)))
    ab[0] = 2.0 * (kd + 1)  # diagonally dominant, so SPD
    return ab


def test_factor_runs_on_one_openblas_thread(scipy_openblas, monkeypatch):
    seen = _record_factor_threads(monkeypatch, scipy_openblas)
    solves = _record_factor_threads(monkeypatch, scipy_openblas, "dpbtrs")
    b = np.ones(200)
    x = pde._band_solve(pde._band_factor(_spd_band()), b)
    assert np.isfinite(x).all()
    assert seen == [1] and solves == [1]
    assert scipy_openblas.scipy_openblas_get_num_threads() == 2
    ab = np.asfortranarray([[4.0, 4.0, -1.0, 4.0], [1.0, 1.0, 1.0, 0.0]])
    with pytest.raises(pde.SolverConvergenceError, match="not positive definite"):
        pde._band_factor(ab)
    assert seen == [1, 1]
    assert scipy_openblas.scipy_openblas_get_num_threads() == 2


def test_p2_solve_takes_three_steps_on_two_factorizations(
        nonlinear_setup, scipy_openblas, monkeypatch):
    # the quadratic energy is minimized by the first step, which falls by
    # exactly its model's prediction and so is never lengthened; the second
    # only confirms it, and the polish step reuses the second step's factor
    g, gam, f = nonlinear_setup
    factors = _record_factor_threads(monkeypatch, scipy_openblas)
    sol = pde.solve_dirichlet(g, gam, 2.0, f, pde.SolverSettings(init="zero"))
    assert len(sol.energy_history) == 3
    assert len(factors) == 2


def test_polish_step_makes_no_factorization(nonlinear_setup, scipy_openblas,
                                            monkeypatch):
    g, gam, f = nonlinear_setup
    factors = _record_factor_threads(monkeypatch, scipy_openblas)
    solves = _record_factor_threads(monkeypatch, scipy_openblas, "dpbtrs")
    sol = pde.solve_dirichlet(g, gam, 3.0, f, pde.SolverSettings(init="zero"))
    assert len(factors) == len(sol.energy_history) - 1
    assert len(solves) == len(sol.energy_history)


def test_final_energy_is_last_history_entry(nonlinear_setup):
    g, gam, f = nonlinear_setup
    sol = pde.solve_dirichlet(g, gam, 3.0, f, pde.SolverSettings(init="zero"))
    assert sol.energy == sol.energy_history[-1][1]
    assert sol.energy == pde._energy(g, sol.field.components(), gam(g.centroid), 3.0,
                                     sol.eps_final_abs)


def test_failed_line_search_raises(nonlinear_setup, monkeypatch):
    # with no trial step at all, the search fails before any expansion
    g, gam, f = nonlinear_setup
    monkeypatch.setattr(pde, "MAX_BACKTRACKS", 0)
    with pytest.raises(pde.SolverConvergenceError, match="line search failed") as err:
        pde.solve_dirichlet(g, gam, 3.0, f, pde.SolverSettings(init="zero"))
    assert err.value.residual > 0.0


def test_p3_random_start_lengthens_its_first_step(nonlinear_setup, monkeypatch):
    # far from the solution a full step only maps q -> q/2 at p = 3, so the
    # energy falls faster than its quadratic model and the step is doubled
    g, gam, f = nonlinear_setup
    iterates, directions = [], []
    linearize, band_solve = pde._FreeDofNewton.linearize, pde._band_solve

    def recording_linearize(self, U, eps, band=True):
        iterates.append(U.ravel()[self.dofs])
        return linearize(self, U, eps, band)

    def recording_solve(factor, b):
        directions.append(band_solve(factor, b))
        return directions[-1]

    monkeypatch.setattr(pde._FreeDofNewton, "linearize", recording_linearize)
    monkeypatch.setattr(pde, "_band_solve", recording_solve)
    sol = pde.solve_dirichlet(g, gam, 3.0, f, pde.SolverSettings(init="random", seed=1))
    d = directions[0]
    t = (iterates[1] - iterates[0]) @ d / (d @ d)
    assert t >= 2.0
    assert len(sol.energy_history) <= 8


def test_half_disc_p8_random_start_converges():
    # the unlengthened steps of this start reach a Newton matrix that is
    # not numerically positive definite
    g = pde.build_grid(pde.HalfDisc(1.0), 32.0)
    beta = np.sqrt(7.0)
    datum = pde.PField.from_function(
        g, lambda x: np.exp(3.0 * (1j * beta * x[:, 0] - x[:, 1])))
    gam = pde.ConductivityField.constant(1.0)
    cold = pde.solve_dirichlet(g, gam, 8.0, datum, pde.SolverSettings(init="random", seed=1))
    zero = pde.solve_dirichlet(g, gam, 8.0, datum, pde.SolverSettings(init="zero"))
    assert cold.energy == pytest.approx(zero.energy, rel=1e-10)


@pytest.mark.parametrize("key,value,message", (
    ("eps_final", 0.0, "eps_final: must be positive"),
    ("outer_tol", float("nan"), "outer_tol: must be positive"),
    ("residual_tol", -1.0, "residual_tol: must be positive"),
    ("max_iter", 0, "max_iter: must be at least 1 and an integer, got 0"),
    ("max_iter", -3, "max_iter: must be at least 1 and an integer, got -3"),
    ("max_iter", 1.5, "max_iter: must be at least 1 and an integer, got 1.5"),
    ("init", "bogus", "init: unknown initialization 'bogus'"),
    ("seed", -1, "seed: must be a non-negative integer, got -1")))
def test_solver_settings_reject_bad_values_at_construction(key, value, message):
    with pytest.raises(ValueError) as err:
        pde.SolverSettings(**{key: value})
    assert str(err.value) == message


def test_solver_settings_store_integral_counts_as_ints():
    settings = pde.SolverSettings(max_iter=7.0, seed=3.0)
    assert (settings.max_iter, settings.seed) == (7, 3)
    assert type(settings.max_iter) is int and type(settings.seed) is int


def test_newton_setup_memory_is_bounded():
    # the band slots are the set-up's one nel x 21 int64 array (2.2 MiB
    # here), filled one local pair at a time; the whole set-up peaks at
    # 4.2 MiB
    spec = recovery.ProbeSpec(mode="complex", p=3.0, M=8.0)
    g = recovery.probe_window_grid(spec)
    gamma_c = np.ones(g.tri.shape[0])
    tracemalloc.start()
    try:
        newton = pde._FreeDofNewton(g, gamma_c, 3.0, 2)
        newton.mat_slot
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert newton.mat_slot.nbytes == 21 * 8 * g.tri.shape[0]
    assert peak <= 5 * 2**20


def test_weak_residual_builds_no_band_slots(monkeypatch):
    # the residual reads the gradient alone; the band's layout is built on
    # the first band assembly
    spec = recovery.ProbeSpec(mode="complex", p=3.0, M=4.0)
    g = recovery.probe_window_grid(spec)
    built = []
    init = pde._FreeDofNewton.__init__

    def keep(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(pde._FreeDofNewton, "__init__", keep)
    u = recovery.build_probe(spec, g)
    gamma = pde.ConductivityField.constant(1.0)
    assert pde.weak_residual(g, gamma, 3.0, u) > 0.0
    newton, = built
    assert not {"kd", "mat_slot"} & set(vars(newton))
    E, grad, ab = newton.linearize(u.components(), 1e-3)
    assert {"kd", "mat_slot"} <= set(vars(newton))
    assert ab.shape == (newton.kd + 1, newton.nfree)


def test_warm_started_solve_runs_single_final_stage():
    from plprobe import recovery
    spec = recovery.ProbeSpec(mode="complex", p=3.0, M=4.0)
    grid = recovery.probe_window_grid(spec)
    probe = recovery.build_probe(spec, grid)
    gam = pde.ConductivityField(lambda x: 1.0 + x[:, 1] / 2.0)
    sol = pde.solve_dirichlet(grid, gam, 3.0, probe, initial=probe)
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
    tent = pde.PField(oracles.distance_to_boundary(unit_rect), "real")
    r = oracles.hardy_ratio(unit_rect, tent, 2.0)
    assert 0.0 < r < 10.0


def test_hardy_ratio_scale_invariant(unit_rect):
    tent = pde.PField(oracles.distance_to_boundary(unit_rect), "real")
    r1 = oracles.hardy_ratio(unit_rect, tent, 2.0)
    r2 = oracles.hardy_ratio(unit_rect, pde.PField(5.0 * tent.values, "real"), 2.0)
    assert r1 == pytest.approx(r2, rel=1e-12)


def test_hardy_ratio_rejects_nonvanishing_trace(unit_rect):
    ones = pde.PField.from_function(unit_rect, lambda x: np.ones(x.shape[0]), "real")
    with pytest.raises(ValueError):
        oracles.hardy_ratio(unit_rect, ones, 2.0)
    zero = pde.PField(np.zeros(unit_rect.npt), "real")
    with pytest.raises(ValueError):
        oracles.hardy_ratio(unit_rect, zero, 2.0)
