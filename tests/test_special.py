import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

import oracles
from plprobe import special

# ---------------------------------------------------------------------------
# Cutoff
# ---------------------------------------------------------------------------


def test_cutoff_plateau_and_support():
    eta = special.CutoffField(4.0)
    assert eta.value(np.array([0.0, 0.0])) == 1.0
    assert eta.value(np.array([0.12, 0.0])) == 1.0  # inside plateau 1/(2M)
    assert eta.value(np.array([1.01 / 4.0, 0.0])) == 0.0


def test_cutoff_monotone_on_shoulder():
    eta = special.CutoffField(1.0)
    r = np.linspace(0.5, 1.0, 200)
    vals = eta.profile.radial(r)[0]
    assert np.all(np.diff(vals) <= 0.0)
    assert np.all((vals >= 0.0) & (vals <= 1.0))


@pytest.mark.parametrize("smoothness", ("c1", "c2", "c3"))
def test_cutoff_radial_equals_polynomial_formula(smoothness):
    # the smoothstep runs on the shoulder only; values elsewhere are exact
    prof = special.CutoffProfile(smoothness)
    c = special._SMOOTHSTEP_COEFFS[smoothness]
    dc = c[1:] * np.arange(1, len(c))
    polyval = np.polynomial.polynomial.polyval
    rs = [0.0, 0.5, np.nextafter(0.5, 1.0), 0.75, np.nextafter(1.0, 0.0), 1.0, 2.0]
    for r in rs:
        on = 0.5 < r < 1.0
        value = 1.0 - polyval(2.0 * r - 1.0, c) if on else float(r <= 0.5)
        deriv = -2.0 * polyval(2.0 * r - 1.0, dc) if on else 0.0
        got = prof.radial(r)
        assert all(isinstance(x, float) for x in got)
        assert got == (value, deriv)
    arr = np.array(rs)
    assert np.array_equal(prof.radial(arr)[0], [prof.radial(r)[0] for r in rs])
    # the value alone, without its slope, keeps its bits
    assert prof.radial(arr, slope=False).tobytes() == prof.radial(arr)[0].tobytes()
    assert [prof.radial(r, slope=False) for r in rs] == [prof.radial(r)[0] for r in rs]
    assert np.array_equal(prof.radial(arr.reshape(7, 1))[1].ravel(),
                          [prof.radial(r)[1] for r in rs])


@pytest.mark.parametrize("smoothness", ("c1", "c2", "c3"))
def test_cutoff_radial_is_clamped_at_zero(smoothness):
    # 1 - smoothstep cancels next to r = 1, where c2 and c3 round to
    # -1.8e-15 and -1.2e-14 unclamped; eta^p must stay defined
    r = 1.0 - np.geomspace(0.5, 1e-16, 200_001)
    value = special.CutoffProfile(smoothness).radial(r)[0]
    assert value.min() >= 0.0
    assert np.isfinite(value ** 1.5).all()


@pytest.mark.parametrize("smoothness", ("c1", "c2", "c3"))
def test_cutoff_radial_keeps_the_bits_of_polyval(smoothness):
    # the in-place Horner rule runs numpy's polyval operation for operation
    prof = special.CutoffProfile(smoothness)
    edges = [0.0, 0.5, 1.0, np.nan] + [np.nextafter(v, t) for v in (0.5, 1.0)
                                       for t in (0.0, 2.0)]
    r = np.concatenate([np.random.default_rng(29).uniform(0.0, 1.2, 10_000), edges])
    for arg in (r, r.reshape(-1, 8), 0.75, np.nextafter(1.0, 0.0), np.empty(0)):
        got = prof.radial(arg)
        want = oracles.polyval_radial(prof, arg)
        for g, w in zip(got + (prof.radial(arg, slope=False),),
                        want + (oracles.polyval_radial(prof, arg, slope=False),)):
            assert type(g) is type(w)
            assert np.shape(g) == np.shape(w)
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


def test_subdivide_keeps_the_bits_of_the_panel_loop():
    rng = np.random.default_rng(2907)
    cases = [(special.PLATEAU_RADIUS * np.array([-2.0, -1.0, 0.0, 1.0, 2.0]), 0.25 / 2**3),
             (np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 20.0]) / 1.1, (4.0 / 1.1) / 4)]
    for _ in range(300):
        gaps = rng.exponential(1.0, rng.integers(1, 25))
        gaps[rng.random(gaps.size) < 0.1] = 0.0  # repeated breaks
        breaks = rng.uniform(-5.0, 5.0) + np.concatenate([[0.0], np.cumsum(gaps)])
        cases.append((breaks, rng.uniform(0.003, 3.0)))
    for breaks, width in cases:
        got = special._subdivide(breaks, width)
        assert got.tobytes() == oracles.loop_subdivide(breaks, width).tobytes()


@pytest.mark.parametrize("smoothness", ("c1", "c2", "c3"))
def test_cutoff_value_and_gradient_equal_separate_calls(smoothness):
    # one radius per point gives the bits of value() and of the gradient
    # formula d(M r) * x / r, at r = 0, on the plateau, on the shoulder
    # (both edges included) and outside the support; the field takes and
    # returns component-major arrays, the formula runs on point lists
    M = 4.0
    eta = special.CutoffField(M, special.CutoffProfile(smoothness))
    radii = np.array([0.0, 0.1, 0.5, np.nextafter(0.5, 1.0), 0.6, 0.75,
                      np.nextafter(1.0, 0.0), 1.0, 1.3]) / M
    theta = np.linspace(0.1, 3.0, radii.size)
    pts2 = np.column_stack([radii * np.cos(theta), radii * np.sin(theta)])
    pts3 = np.stack([pts2[:, 0], 0.5 * pts2[:, 1], 0.75 * pts2[:, 1]], axis=-1)
    for pts in (pts2, pts3.reshape(3, 3, 3)):
        r = np.sqrt(special._norm_sq(pts))
        d = M * eta.profile.radial(M * r)[1]
        grad = d[..., None] * pts / np.where(r > 0, r, 1.0)[..., None]
        cm = np.moveaxis(pts, -1, 0)
        value, gradient = eta.value_and_gradient(cm)
        assert value.tobytes() == eta.value(cm).tobytes()
        assert np.moveaxis(gradient, 0, -1).tobytes() == grad.tobytes()
    value, gradient = eta.value_and_gradient(pts2.T)
    assert value[0] == 1.0 and np.all(gradient[:, 0] == 0.0)  # r = 0
    assert value[-1] == 0.0 and np.all(gradient[:, -1] == 0.0)  # outside
    assert np.all(gradient[:, 4:6] != 0.0)  # inside the shoulder


def test_cutoff_gradient_bound():
    M = 8.0
    eta = special.CutoffField(M)
    r = np.linspace(0.0, 1.2 / M, 400)
    pts = np.stack([r, np.zeros_like(r)])
    gn = np.sqrt((eta.value_and_gradient(pts)[1] ** 2).sum(axis=0))
    sup_profile = np.max(np.abs(eta.profile.radial(np.linspace(0, 1, 2001))[1]))
    assert np.max(gn) <= M * sup_profile * (1.0 + 1e-12)


def test_cutoff_gradient_matches_finite_difference():
    eta = special.CutoffField(2.0)
    pts = np.array([[0.31, 0.05], [0.2, 0.3], [0.42, -0.1]])
    step = 1e-6
    for x in pts:
        g = eta.value_and_gradient(x)[1]
        for j in range(2):
            e = np.zeros(2)
            e[j] = step
            fd = (eta.value(x + e) - eta.value(x - e)) / (2 * step)
            assert g[j] == pytest.approx(fd, abs=5e-6)


def test_cutoff_slice_integral_frozen():
    # Golden values from adaptive quadrature of the c3 smoothstep profile,
    # converged to 1e-12 (plateau part is exact).
    assert special.slice_integral("c3", 2.0) == pytest.approx(1.404817404817405,
                                                              abs=1e-10)
    assert special.slice_integral("c3", 4.0) == pytest.approx(1.32699247524188,
                                                              abs=1e-10)


def test_cutoff_slice_integral_once_per_profile(monkeypatch):
    # each (smoothness, p) is integrated once; c_p of any profile of that
    # smoothness reads the kept value
    special.slice_integral.cache_clear()
    first = special.slice_integral("c2", 3.0)

    def no_rule(p):
        raise AssertionError("slice integral recomputed")

    monkeypatch.setattr(special, "_shoulder_rule", no_rule)
    assert special.slice_integral("c2", 3.0) == first
    assert (special.c_p_complex(3.0, special.CutoffProfile("c2"))
            == 3.0 ** 0.5 * first)
    with pytest.raises(AssertionError):
        special.slice_integral("c2", 3.5)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("smoothness", ("c1", "c2", "c3"))
@pytest.mark.parametrize("p", (1.1, 1.5, 3.0, 8.0))
def test_cutoff_slice_rule_matches_adaptive_quadrature(smoothness, p):
    # the fixed Gauss rule against quad on the shoulder, split where eta^p
    # is a power of (1 - r); the plateau is exact in both
    cp = special.CutoffProfile(smoothness)
    points = 1.0 - 0.5 ** np.arange(2, 30)
    shoulder = quad(lambda r: max(cp.radial(r)[0], 0.0) ** p, 0.5, 1.0,
                    points=points, limit=500, epsabs=1e-16, epsrel=1e-14)[0]
    ref = 2.0 * (0.5 + shoulder)
    assert abs(special.slice_integral(smoothness, p) - ref) <= 1e-15 * ref


def test_cutoff_dilation_scaling():
    # Replacing eta by eta(./2) doubles the 1D slice integral.
    cp = special.CutoffProfile("c3")
    base = special.slice_integral("c3", 3.0)
    dilated = 2.0 * quad(lambda t: cp.radial(t / 2.0)[0] ** 3, 0.0, 2.0,
                         epsabs=1e-13, epsrel=1e-12)[0]
    assert dilated == pytest.approx(2.0 * base, rel=1e-10)


def test_cutoff_rejects_bad_smoothness_and_scale():
    with pytest.raises(ValueError):
        special.CutoffProfile("c9")
    with pytest.raises(ValueError):
        special.CutoffField(0.0)


# ---------------------------------------------------------------------------
# Complex exponential
# ---------------------------------------------------------------------------


def test_exponential_classical_p2():
    f = special.make_complex_exponential(2.0, N=1.0)
    x = np.array([[0.3, 0.7]])
    expected = np.exp((1j * x[0, 0] - x[0, 1]))
    assert f.value(x)[0] == pytest.approx(expected)


def test_exponential_beta_constraints():
    f = special.make_complex_exponential(5.0)
    assert f.beta @ f.beta == pytest.approx(4.0, abs=1e-14)
    assert abs(f.beta[-1]) == 0.0
    # |grad h(0)| = |i beta - e_n| = sqrt(p)
    g = f.gradient(np.zeros((1, 2)))[0]
    assert np.sqrt((abs(g) ** 2).sum()) == pytest.approx(math.sqrt(5.0), abs=1e-13)


def test_exponential_modulus_law():
    f = special.make_complex_exponential(3.0, N=7.0)
    pts = np.array([[0.2, 0.1], [-0.5, 0.4], [1.0, 0.03]])
    assert np.allclose(np.abs(f.value(pts)), np.exp(-7.0 * pts[:, 1]))


def test_exponential_algebraic_identity():
    # rho . ((p-1) alpha + i beta) = (p-1)|alpha|^2 - |beta|^2 + i p alpha.beta
    for p in (1.5, 2.0, 3.0, 7.0):
        f = make = special.make_complex_exponential(p)
        re, im = f.identity_residual()
        assert abs(re) <= 1e-13
        assert abs(im) == 0.0
        rho = f.exponent_vector
        alpha = np.array([0.0, -1.0])
        combo = (rho * ((p - 1) * alpha + 1j * f.beta)).sum()
        assert abs(combo) <= 1e-13


@pytest.mark.parametrize("p", (1.5, 2.0, 3.0))
def test_exponential_fd_divergence_residual(p):
    f = special.make_complex_exponential(p, N=3.0)
    rng = np.random.default_rng(11)
    pts = np.column_stack([rng.uniform(-1, 1, 10), rng.uniform(0.05, 1.0, 10)])
    for x in pts:
        assert special.p_laplace_residual(f.gradient, x, p, 1e-3 / f.N, f.N) <= 1e-5


def test_exponential_residual_second_order():
    f = special.make_complex_exponential(3.0, N=2.0)
    x = np.array([0.2, 0.4])
    r1 = special.p_laplace_residual(f.gradient, x, 3.0, 1e-2 / f.N, f.N)
    r2 = special.p_laplace_residual(f.gradient, x, 3.0, 5e-3 / f.N, f.N)
    assert math.log2(r1 / r2) >= 1.8


def test_residual_affine_field_exact_zero():
    def affine_gradient(pts):
        g = np.zeros(np.shape(pts), dtype=complex)
        g[..., 1] = 1.0
        return g

    assert special.p_laplace_residual(affine_gradient, [0.3, 0.4], 3.0, 1e-3, 1.0) == 0.0
    assert special.p_laplace_residual(affine_gradient, [0.3, 0.4], 1.5, 1e-3, 1.0) == 0.0


def test_residual_rejects_bad_step():
    f = special.make_complex_exponential(2.0)
    with pytest.raises(ValueError):
        special.p_laplace_residual(f.gradient, [0.0, 0.5], 2.0, 0.0, f.N)


# ---------------------------------------------------------------------------
# Wolff profile
# ---------------------------------------------------------------------------


def test_wolff_trivial_p2():
    prof = special.solve_wolff_profile(2.0)
    assert prof.lam == pytest.approx(2.0 * math.pi, abs=1e-9)
    assert prof.K == pytest.approx(1.0, abs=1e-9)
    assert abs(prof.a_mean) <= 1e-12
    # a = sin at p = 2
    taus = np.linspace(0.0, 2 * np.pi, 17)
    assert np.allclose(prof.values_at(taus)[0], np.sin(taus), atol=1e-9)


@pytest.mark.parametrize("p", (1.5, 3.0, 4.0))
def test_wolff_against_phase_plane_oracle(p):
    prof = special.solve_wolff_profile(p)
    assert prof.lam == pytest.approx(oracles.oracle_period(p), rel=1e-9)
    assert prof.K == pytest.approx(oracles.oracle_K(p), rel=1e-8)


def test_wolff_frozen_goldens():
    # Frozen after a tolerance-tightening study (1e-10 vs 1e-12 agree to
    # machine precision) and cross-checked against the phase-plane oracle.
    prof = special.solve_wolff_profile(1.5)
    assert prof.lam == pytest.approx(9.42477796076938, abs=1e-8)
    assert prof.K == pytest.approx(1.5991396534926376, abs=1e-8)
    prof4 = special.solve_wolff_profile(4.0)
    assert prof4.lam == pytest.approx(4.188790204786378, abs=1e-8)
    assert prof4.K == pytest.approx(0.6624800222267955, abs=1e-8)


CLOSED_FORM_P = (1.05, 1.1, 1.5, 2.0, 3.0, 4.0, 8.0, 20.0)


@pytest.mark.parametrize("p", CLOSED_FORM_P)
def test_wolff_residual_and_tolerance_stability(p):
    # the closed form solves the ODE, its period is pi p / (p - 1) and
    # agrees with the phase-plane oracle's, and so does K
    prof = special.solve_wolff_profile(p)
    assert oracles.ode_residual_max(prof) <= 10.0 * 1e-10
    assert abs(prof.lam - math.pi * p / (p - 1.0)) <= 2.0 * math.ulp(prof.lam)
    assert abs(prof.lam - oracles.oracle_period(p)) / prof.lam <= 1e-8
    assert abs(prof.K - oracles.oracle_K(p)) / prof.K <= 1e-11


def test_wolff_periodicity_and_mean_drift():
    prof = special.solve_wolff_profile(3.0)
    taus = np.linspace(0.0, prof.lam, 50)
    assert np.allclose(prof.values_at(taus + prof.lam)[0], prof.values_at(taus)[0],
                       atol=1e-10)
    assert oracles.running_mean_drift(prof) <= 1e-10
    # the phase closes the period: (a, a') returns to (0, 1) as t -> lam
    a, ap = prof.values_at(np.nextafter(prof.lam, 0.0))
    assert math.hypot(a, ap - 1.0) <= 1e-8
    assert prof.K > 0.0


@pytest.mark.parametrize("p", (1.002, 1.05, 20.0, 1000.0))
def test_wolff_values_at_invert_the_closed_form(p):
    # the phase psi = atan2(a, a') of every value returns its tau through
    # t(psi), and |(a, a')| is r(psi), also where |e| = |p - 2| / p is so
    # close to 1 (0.996, 0.998) that Newton's method from u = M diverges
    prof = special.solve_wolff_profile(p)
    tau = np.linspace(0.0, prof.lam, 20_001)[:-1]
    a, ap = prof.values_at(tau)
    psi = np.mod(np.arctan2(a, ap), 2.0 * np.pi)
    t = (p * psi / 2.0 + (p - 2.0) * np.sin(2.0 * psi) / 4.0) / (p - 1.0)
    gap = np.abs(np.mod(t - tau + prof.lam / 2.0, prof.lam) - prof.lam / 2.0)
    assert gap.max() <= 1e-14 * prof.lam
    r = np.exp(-(p - 2.0) * np.sin(psi) ** 2 / (2.0 * (p - 1.0)))
    assert np.abs(np.hypot(a, ap) / r - 1.0).max() <= 1e-12


def test_wolff_profile_overflow_near_p1_raises():
    # the amplitude grows like exp(1 / (2 (p - 1))): at p = 1.001 K
    # overflows, at p = 1.0007 the samples do; p = 1.0015 still builds
    for p in (1.0007, 1.001, 1.0014):
        with pytest.raises(ValueError, match=rf"overflows at p = {p}\b"):
            special.solve_wolff_profile(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prof = special.solve_wolff_profile(1.0015)
    assert math.isfinite(prof.K) and np.isfinite(prof.a).all()


@pytest.mark.parametrize("p", CLOSED_FORM_P)
def test_wolff_values_at_is_pointwise(p):
    # one phase solve per point: a tau gives the same bits alone as inside
    # a block of 10^4 points of every sign and size
    prof = special.solve_wolff_profile(p)
    rng = np.random.default_rng(5)
    taus = np.concatenate([[0.0, prof.lam, -prof.lam / 2.0], prof.t[::9],
                           rng.uniform(-3.0, 3.0, 10_000) * prof.lam])[:10_000]
    a, ap = prof.values_at(taus)
    for k in range(0, taus.size, 97):
        one = prof.values_at(taus[k])
        assert (one[0].tobytes(), one[1].tobytes()) == (a[k].tobytes(), ap[k].tobytes())
    block = prof.values_at(taus.reshape(100, 100))
    assert block[0].tobytes() == a.tobytes() and block[1].tobytes() == ap.tobytes()


# ---------------------------------------------------------------------------
# Wolff field
# ---------------------------------------------------------------------------


def test_wolff_field_flat_p2_is_damped_sine():
    prof = special.solve_wolff_profile(2.0)
    fld = special.WolffField(prof, N=3.0)
    pts = np.array([[0.2, 0.1], [0.7, 0.4], [-0.3, 0.2]])
    expected = np.exp(-3.0 * pts[:, 1]) * np.sin(3.0 * pts[:, 0])
    assert np.allclose(fld.value(pts), expected, atol=1e-9)


def test_wolff_field_modulus_law():
    prof = special.solve_wolff_profile(3.0)
    rho = special.BoundaryDefiningFunction(lambda x1: -0.1 * x1[..., 0] ** 2,
                                           lambda x1: -0.2 * x1[..., 0])
    fld = special.WolffField(prof, N=5.0, rho=rho)
    pts = np.array([[0.2, 0.15], [0.4, 0.3]])
    rv = pts[:, 1] + 0.1 * pts[:, 0] ** 2
    assert np.allclose(np.abs(fld.value(pts)),
                       np.exp(-5.0 * rv) * np.abs(prof.values_at(5.0 * pts[:, 0])[0]),
                       rtol=1e-10)


def test_wolff_field_gradient_matches_fd():
    prof = special.solve_wolff_profile(1.5)
    fld = special.WolffField(prof, N=2.0)
    x = np.array([0.37, 0.21])
    g = fld.gradient(x[None, :])[0]
    step = 1e-6
    for j in range(2):
        e = np.zeros(2)
        e[j] = step
        fd = (fld.value((x + e)[None, :])[0] - fld.value((x - e)[None, :])[0]) / (2 * step)
        assert g[j] == pytest.approx(fd, rel=2e-8, abs=1e-9)


@pytest.mark.parametrize("p", (1.5, 3.0, 4.0))
def test_wolff_field_flat_residual_order(p):
    prof = special.solve_wolff_profile(p)
    fld = special.WolffField(prof, N=2.0)
    rng = np.random.default_rng(3)
    pts = np.column_stack([rng.uniform(-1, 1, 6), rng.uniform(0.05, 0.8, 6)])
    steps = (2e-2 / fld.N, 1e-2 / fld.N, 5e-3 / fld.N)
    worst = [max(special.p_laplace_residual(fld.gradient, x, p, s, fld.N) for x in pts)
             for s in steps]
    orders = [math.log2(worst[i] / worst[i + 1]) for i in range(len(worst) - 1)]
    assert min(orders) >= 1.8
    if p == 3.0:
        fine = max(special.p_laplace_residual(fld.gradient, x, p, 1e-4 / fld.N, fld.N)
                   for x in pts)
        assert fine <= 1e-4


def test_wolff_field_curved_residual_decays_toward_base_point():
    # The field is p-harmonic after boundary flattening, not in physical
    # coordinates; the residual decays toward 0 down to an O(1/N) curvature
    # floor.  Max over phases per ring; recorded decay factor ~19 at N=40.
    prof = special.solve_wolff_profile(3.0)
    rho = special.BoundaryDefiningFunction(lambda x1: -0.1 * x1[..., 0] ** 2,
                                           lambda x1: -0.2 * x1[..., 0])
    fld = special.WolffField(prof, N=40.0, rho=rho)
    ring_max = []
    for scale in (0.4, 0.1, 0.025):
        rs = [special.p_laplace_residual(fld.gradient, np.array([scale * f1, scale * f2]),
                                         3.0, 1e-3 / 40.0, fld.N)
              for f1 in np.linspace(0.5, 1.0, 7) for f2 in (0.25, 0.5, 1.0)]
        ring_max.append(max(rs))
    assert ring_max[0] > ring_max[1] > ring_max[2]
    assert ring_max[0] / ring_max[2] >= 10.0


def test_graph_boundary_normalization():
    rho = special.BoundaryDefiningFunction(lambda x1: -0.1 * x1[..., 0] ** 2,
                                           lambda x1: -0.2 * x1[..., 0])
    zero = np.zeros((1, 2))
    assert rho.value(zero)[0] == 0.0
    assert np.allclose(rho.gradient(zero)[0], [0.0, 1.0])
    # interior side is positive
    assert rho.value(np.array([[0.3, 0.5]]))[0] > 0.0
    with pytest.raises(ValueError):
        special.BoundaryDefiningFunction(lambda x1: 0.3 * x1[..., 0],
                                         lambda x1: 0.3 * np.ones_like(x1[..., 0]))


# ---------------------------------------------------------------------------
# Normalization constants
# ---------------------------------------------------------------------------


def test_c_p_complex_values():
    eta = special.CutoffProfile()
    slice2 = special.slice_integral("c3", 2.0)
    assert special.c_p_complex(2.0, eta) == pytest.approx(slice2, rel=1e-12)
    slice4 = special.slice_integral("c3", 4.0)
    assert special.c_p_complex(4.0, eta) == pytest.approx(4.0 * slice4, rel=1e-12)


def test_c_p_real_values():
    eta = special.CutoffProfile()
    prof2 = special.solve_wolff_profile(2.0)
    slice2 = special.slice_integral("c3", 2.0)
    assert special.c_p_real(2.0, eta, prof2) == pytest.approx(0.5 * slice2, rel=1e-9)
    prof = special.solve_wolff_profile(1.5)
    val = special.c_p_real(1.5, eta, prof)
    assert val > 0.0
    assert val == pytest.approx((prof.K / 1.5)
                                * special.slice_integral("c3", 1.5),
                                rel=1e-12)
