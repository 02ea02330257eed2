import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plprobe import vecp

P_VALUES = (1.1, 1.5, 2.0, 3.0, 10.0)


def test_p_flux_identity_at_p2():
    assert np.allclose(vecp.p_flux([1.0, 0.0], 2.0), [1.0, 0.0])


def test_p_flux_direct_evaluation():
    # |z| = 5, p = 3: |z|^(p-2) z = 5 z
    out = vecp.p_flux([3.0, 4.0], 3.0)
    assert np.allclose(out, [15.0, 20.0])


def test_p_flux_zero_vector_continuous_extension():
    out = vecp.p_flux([0.0, 0.0], 1.5)
    assert np.all(out == 0.0)


def test_p_flux_rejects_bad_exponent():
    with pytest.raises(ValueError):
        vecp.p_flux([1.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        vecp.p_flux([1.0, 0.0], 0.5)


def test_vectors_must_be_dim_2_or_3():
    with pytest.raises(ValueError):
        vecp.p_flux([1.0, 0.0, 0.0, 0.0], 2.0)


@pytest.mark.parametrize("dim", (2, 3))
@pytest.mark.parametrize("dtype", (float, complex))
def test_norm_sq_equals_numpy_sum(dim, dtype):
    rng = np.random.default_rng(11)
    shape = (500, 7, dim)
    z = rng.standard_normal(shape) * np.exp(rng.uniform(-20.0, 20.0, shape))
    if dtype is complex:
        z = z + 1j * rng.standard_normal(shape) * np.exp(rng.uniform(-20.0, 20.0, shape))
    ref = (z.real**2 + z.imag**2).sum(-1)
    assert vecp._norm_sq(z).tobytes() == ref.tobytes()
    assert vecp._norm_sq(z[:, 0]).tobytes() == ref[:, 0].tobytes()


def test_convexity_gap_equality_case():
    z = np.array([0.3 + 1j, -2.0 + 0.5j])
    assert vecp.convexity_gap(z, z, 3.0) == pytest.approx(0.0, abs=1e-14)


def test_convexity_gap_hand_value():
    # z=(1,0), w=0, p=2: 0 - 1 - 2*(-1) = 1
    assert vecp.convexity_gap([1.0, 0.0], [0.0, 0.0], 2.0) == pytest.approx(1.0)


def test_p_power_difference_gap_hand_values():
    assert vecp.p_power_difference_gap([1.0, 0.0], [0.0, 0.0], 3.0) == pytest.approx(2.0)
    z = np.array([2.0, 1.0])
    assert vecp.p_power_difference_gap(z, z, 2.5) == pytest.approx(0.0, abs=1e-14)


def test_difference_ratio_linear_flux_at_p2():
    assert vecp.difference_ratio([2.0, 0.0], [1.0, 0.0], 2.0) == pytest.approx(1.0)


def test_difference_ratio_frozen_golden():
    # flux difference (1,0)-(-1,0) has norm 2; denominator (1+1)^1 * 2 = 4.
    assert vecp.difference_ratio([1.0, 0.0], [-1.0, 0.0], 3.0) == pytest.approx(0.5)


def test_difference_ratio_rejects_equal_inputs():
    with pytest.raises(ValueError):
        vecp.difference_ratio([1.0, 2.0], [1.0, 2.0], 3.0)


def test_monotonicity_ratio_collapses_at_p2():
    rng = np.random.default_rng(7)
    z = vecp.sample_vectors(rng, 500, 2, "complex")
    w = vecp.sample_vectors(rng, 500, 2, "complex")
    r = vecp.monotonicity_ratio(z, w, 2.0)
    assert np.max(np.abs(r - 1.0)) <= 1e-13


def test_monotonicity_ratio_one_sided_zero():
    assert vecp.monotonicity_ratio([1.0, 0.0], [0.0, 0.0], 4.0) == pytest.approx(1.0)


def test_monotonicity_ratio_rejects_equal_inputs():
    with pytest.raises(ValueError):
        vecp.monotonicity_ratio([0.0, 0.0], [0.0, 0.0], 3.0)


@pytest.mark.parametrize("p", P_VALUES)
def test_randomized_gap_batteries(p):
    rng = np.random.default_rng(vecp.PROPERTY_SEED)
    for kind in ("complex", "real"):
        z = vecp.sample_vectors(rng, 20_000, 2, kind)
        w = vecp.sample_vectors(rng, 20_000, 2, kind)
        gap = vecp.convexity_gap(z, w, p)
        scale = vecp.convexity_gap_scale(z, w, p)
        assert np.min(gap / scale) >= -1e-12
        gap2 = vecp.p_power_difference_gap(z, w, p)
        scale2 = vecp.p_power_difference_scale(z, w, p)
        assert np.min(gap2 / scale2) >= -1e-12


@pytest.mark.parametrize("p", (1.1, 1.5, 3.0, 10.0))
def test_monotonicity_ratio_positive_and_deterministic(p):
    def bracket():
        rng = np.random.default_rng(vecp.PROPERTY_SEED)
        z = vecp.sample_vectors(rng, 50_000, 2, "complex")
        w = vecp.sample_vectors(rng, 50_000, 2, "complex")
        r = vecp.monotonicity_ratio(z, w, p)
        return float(r.min()), float(r.max())

    lo1, hi1 = bracket()
    lo2, hi2 = bracket()
    assert lo1 > 0.0 and np.isfinite(hi1)
    # identical seed, identical bracket: determinism of the suite
    assert (lo1, hi1) == (lo2, hi2)


@pytest.mark.parametrize("p", P_VALUES)
def test_difference_ratio_bounded(p):
    rng = np.random.default_rng(vecp.PROPERTY_SEED)
    z = vecp.sample_vectors(rng, 50_000, 2, "complex")
    w = vecp.sample_vectors(rng, 50_000, 2, "complex")
    sup = float(vecp.difference_ratio(z, w, p).max())
    assert np.isfinite(sup)


# Component window mirrors the suites' magnitude range; |z|^2 must stay
# clear of the subnormal zone or the norm itself loses digits.
comp = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False).filter(
    lambda v: v == 0.0 or abs(v) >= 1e-6
)
vec2 = st.tuples(comp, comp, comp, comp).map(
    lambda t: np.array([t[0] + 1j * t[1], t[2] + 1j * t[3]])
)


@settings(max_examples=200, deadline=None)
@given(z=vec2, w=vec2, p=st.sampled_from([1.1, 1.5, 2.0, 3.0, 10.0]))
def test_convexity_gap_nonnegative_property(z, w, p):
    gap = vecp.convexity_gap(z, w, p)
    scale = vecp.convexity_gap_scale(z, w, p)
    assert gap >= -1e-12 * max(scale, 1e-300)


@settings(max_examples=200, deadline=None)
@given(z=vec2, t=st.floats(1e-3, 1e3, allow_nan=False),
       p=st.sampled_from([1.1, 1.5, 2.0, 3.0, 10.0]))
def test_flux_homogeneity_property(z, t, p):
    lhs = vecp.p_flux(t * z, p)
    rhs = t ** (p - 1.0) * vecp.p_flux(z, p)
    denom = max(float(vecp.vec_norm(rhs)), 1e-300)
    assert float(vecp.vec_norm(lhs - rhs)) <= 1e-13 * denom + 1e-300


@settings(max_examples=200, deadline=None)
@given(z=vec2, p=st.sampled_from([1.5, 2.0, 3.0]))
def test_flux_power_identity_property(z, p):
    power = np.real(vecp.vec_dot(vecp.p_flux(z, p), np.conj(z)))
    expected = float(vecp.vec_norm(z)) ** p
    assert abs(power - expected) <= 1e-13 * max(expected, 1e-300)


def test_suites_pass():
    for check in vecp.all_suites(pairs=20_000):
        assert check.passed, f"{check.name}: {check.detail}"
