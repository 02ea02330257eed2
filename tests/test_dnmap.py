import numpy as np
import pytest

from plprobe import dnmap, pde


@pytest.fixture(scope="module")
def setup():
    grid = pde.build_grid(pde.Rectangle(half_width=1.0, height=1.0), 24)
    gamma = pde.ConductivityField(lambda x: 1.0 + x[:, 1] / 2.0)
    return grid, gamma


def probe_datum(grid, mode="complex"):
    def fn(x):
        r = np.sqrt(x[:, 0] ** 2 + x[:, 1] ** 2)
        eta = np.clip(1.5 - 2.0 * r, 0.0, 1.0)
        osc = np.exp(1j * 4.0 * x[:, 0]) if mode == "complex" else np.cos(4.0 * x[:, 0])
        return eta * osc * np.exp(-4.0 * x[:, 1])
    return pde.PField.from_function(grid, fn, mode)


@pytest.mark.parametrize("p", (1.5, 2.0, 3.0))
def test_affine_self_pairing_closed_form(setup, p):
    grid, _ = setup
    gam1 = pde.ConductivityField.constant(1.0)
    f = pde.PField.from_function(grid, lambda x: x[:, 1], "real")
    # u = x2, |grad u| = 1: pairing = |Omega| = 2
    val = dnmap.dn_pairing(grid, gam1, p, f)
    assert val.real == pytest.approx(2.0, rel=1e-10)
    assert abs(val.imag) <= 1e-12


def test_p2_pairing_equals_dirichlet_energy(setup):
    grid, _ = setup
    gam1 = pde.ConductivityField.constant(1.0)
    f = pde.PField.from_function(grid, lambda x: np.exp(1j * x[:, 0] - x[:, 1]),
                                 "complex")
    sol = pde.solve_dirichlet(grid, gam1, 2.0, f)
    val = dnmap.flux_pairing(grid, gam1, 2.0, sol.field, f)
    # closed-form quadrature oracle: int |grad h|^2 = 2 int e^(-2 x2)
    # over [-1,1]x[0,1]: 2 * 2 * (1 - e^(-2))/2 = 2 (1 - e^(-2))
    oracle = 2.0 * (1.0 - np.exp(-2.0))
    assert val.real == pytest.approx(oracle, rel=5e-3)  # discretization error
    assert abs(val.imag) / abs(val) <= 1e-10


def test_extension_invariance(setup):
    # an interior change of g's extension leaves <L(f), g> unchanged: the
    # discrete weak form annihilates interior test functions
    grid, gamma = setup
    f = probe_datum(grid)
    x = grid.pts
    bump = 0.5 * np.sin(3.0 * x[:, 0]) * x[:, 1] * (1.0 - x[:, 1])
    bump[grid.boundary] = 0.0
    moved = pde.PField(f.values + bump, f.mode)
    for p, tol in ((3.0, 1e-9), (1.5, 1e-8)):
        u = pde.solve_dirichlet(grid, gamma, p, f).field
        base = dnmap.flux_pairing(grid, gamma, p, u, f)
        change = abs(dnmap.flux_pairing(grid, gamma, p, u, moved) - base)
        assert change <= tol * abs(base), p


def test_homogeneity_t1_exact(setup):
    grid, gamma = setup
    f = probe_datum(grid)
    assert dnmap.homogeneity_check(grid, gamma, 2.0, f, 1.0) == pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize("p", (1.5, 3.0))
@pytest.mark.parametrize("t", (0.1, 2.0, 10.0))
def test_homogeneity_probe_datum(setup, p, t):
    grid, gamma = setup
    f = probe_datum(grid)
    assert dnmap.homogeneity_check(grid, gamma, p, f, t) <= 1e-4


def test_homogeneity_affine_machine_precision(setup):
    grid, _ = setup
    gam1 = pde.ConductivityField.constant(1.0)
    f = pde.PField.from_function(grid, lambda x: x[:, 1], "real")
    assert dnmap.homogeneity_check(grid, gam1, 3.0, f, 2.0) <= 1e-12


def test_constant_shift_affine(setup):
    grid, _ = setup
    gam1 = pde.ConductivityField.constant(1.0)
    f = pde.PField.from_function(grid, lambda x: x[:, 1], "real")
    assert dnmap.constant_shift_check(grid, gam1, 3.0, f, 5.0, 1.0) <= 1e-10


@pytest.mark.parametrize("p", (1.5, 3.0))
def test_constant_shift_probe(setup, p):
    grid, gamma = setup
    f = probe_datum(grid)
    assert dnmap.constant_shift_check(grid, gamma, p, f, 1.0 + 0.5j, 0.5) <= 1e-4


@pytest.mark.parametrize("p", (1.5, 2.0, 3.0))
def test_self_pairing_slope_is_p(setup, p):
    grid, gamma = setup
    f = probe_datum(grid)
    slope = dnmap.self_pairing_slope(grid, gamma, p, f, [1e-1, 1e-2, 1e-3])
    assert slope == pytest.approx(p, rel=0.01)


@pytest.mark.parametrize("p", (1.5, 2.0, 3.0))
def test_pairing_boundedness(setup, p):
    grid, gamma = setup
    f = probe_datum(grid)
    assert dnmap.pairing_bound_margin(grid, gamma, p, f) <= 1.0


def test_self_pairing_positive(setup):
    grid, gamma = setup
    f = probe_datum(grid)
    val = dnmap.dn_pairing(grid, gamma, 3.0, f)
    assert val.real > 0.0
    # constant datum: solution constant, pairing zero
    const = pde.PField.from_function(grid, lambda x: np.full(x.shape[0], 2.0), "real")
    val0 = dnmap.dn_pairing(grid, gamma, 3.0, const)
    assert abs(val0) <= 1e-13


def test_checks_reject_bad_t(setup):
    grid, gamma = setup
    f = probe_datum(grid)
    with pytest.raises(ValueError):
        dnmap.homogeneity_check(grid, gamma, 2.0, f, -1.0)
    with pytest.raises(ValueError):
        dnmap.self_pairing_slope(grid, gamma, 2.0, f, [0.1])
