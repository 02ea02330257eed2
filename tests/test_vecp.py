import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from plprobe import vecp

P_VALUES = (1.1, 1.5, 2.0, 3.0, 10.0)
DIMS_KINDS = [(dim, kind) for dim in (2, 3) for kind in ("complex", "real")]


def sample_pairs(count, dim, kind):
    """Seeded pairs (z, w) with coinciding pairs dropped."""
    rng = np.random.default_rng(oracles.PROPERTY_SEED)
    z = oracles.sample_vectors(rng, count, dim, kind)
    w = oracles.sample_vectors(rng, count, dim, kind)
    keep = ~(z == w).all(axis=-1)
    return z[keep], w[keep]


def test_p_flux_identity_at_p2():
    assert np.allclose(oracles.p_flux([1.0, 0.0], 2.0), [1.0, 0.0])


def test_p_flux_direct_evaluation():
    # |z| = 5, p = 3: |z|^(p-2) z = 5 z
    out = oracles.p_flux([3.0, 4.0], 3.0)
    assert np.allclose(out, [15.0, 20.0])


def test_p_flux_zero_vector_continuous_extension():
    out = oracles.p_flux([0.0, 0.0], 1.5)
    assert np.all(out == 0.0)


def test_p_flux_rejects_bad_exponent():
    with pytest.raises(ValueError):
        oracles.p_flux([1.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        oracles.p_flux([1.0, 0.0], 0.5)


def test_vectors_must_be_dim_2_or_3():
    with pytest.raises(ValueError):
        oracles.p_flux([1.0, 0.0, 0.0, 0.0], 2.0)


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
    # component-major blocks sum over the leading axis to the same bits
    zc = np.ascontiguousarray(np.moveaxis(z, -1, 0))
    assert vecp._norm_sq(zc, axis=0).tobytes() == ref.tobytes()


def test_convexity_gap_equality_case():
    z = np.array([0.3 + 1j, -2.0 + 0.5j])
    assert oracles.convexity_gap(z, z, 3.0) == pytest.approx(0.0, abs=1e-14)


def test_convexity_gap_hand_value():
    # z=(1,0), w=0, p=2: 0 - 1 - 2*(-1) = 1
    assert oracles.convexity_gap([1.0, 0.0], [0.0, 0.0], 2.0) == pytest.approx(1.0)


def test_p_power_difference_gap_hand_values():
    assert oracles.p_power_difference_gap([1.0, 0.0], [0.0, 0.0], 3.0) == pytest.approx(2.0)
    z = np.array([2.0, 1.0])
    assert oracles.p_power_difference_gap(z, z, 2.5) == pytest.approx(0.0, abs=1e-14)


def test_difference_ratio_linear_flux_at_p2():
    assert oracles.difference_ratio([2.0, 0.0], [1.0, 0.0], 2.0) == pytest.approx(1.0)


def test_difference_ratio_frozen_golden():
    # flux difference (1,0)-(-1,0) has norm 2; denominator (1+1)^1 * 2 = 4.
    assert oracles.difference_ratio([1.0, 0.0], [-1.0, 0.0], 3.0) == pytest.approx(0.5)


def test_difference_ratio_rejects_equal_inputs():
    with pytest.raises(ValueError):
        oracles.difference_ratio([1.0, 2.0], [1.0, 2.0], 3.0)


def test_monotonicity_ratio_collapses_at_p2():
    rng = np.random.default_rng(7)
    z = oracles.sample_vectors(rng, 500, 2, "complex")
    w = oracles.sample_vectors(rng, 500, 2, "complex")
    r = oracles.monotonicity_ratio(z, w, 2.0)
    assert np.max(np.abs(r - 1.0)) <= 1e-13


def test_monotonicity_ratio_one_sided_zero():
    assert oracles.monotonicity_ratio([1.0, 0.0], [0.0, 0.0], 4.0) == pytest.approx(1.0)


def test_monotonicity_ratio_rejects_equal_inputs():
    with pytest.raises(ValueError):
        oracles.monotonicity_ratio([0.0, 0.0], [0.0, 0.0], 3.0)


@pytest.mark.parametrize("p", P_VALUES)
def test_randomized_gap_batteries(p):
    for dim, kind in DIMS_KINDS:
        z, w = sample_pairs(20_000, dim, kind)
        gap = oracles.convexity_gap(z, w, p)
        scale = oracles.convexity_gap_scale(z, w, p)
        assert np.min(gap / scale) >= -1e-12, (dim, kind)
        gap2 = oracles.p_power_difference_gap(z, w, p)
        scale2 = oracles.p_power_difference_scale(z, w, p)
        assert np.min(gap2 / scale2) >= -1e-12, (dim, kind)


@pytest.mark.parametrize("p", P_VALUES)
def test_monotonicity_ratio_positive_and_deterministic(p):
    for dim, kind in DIMS_KINDS:
        def bracket():
            r = oracles.monotonicity_ratio(*sample_pairs(50_000, dim, kind), p)
            return float(r.min()), float(r.max())

        lo1, hi1 = bracket()
        lo2, hi2 = bracket()
        assert lo1 > 0.0 and np.isfinite(hi1), (dim, kind)
        if p == 2.0:
            assert max(abs(lo1 - 1.0), abs(hi1 - 1.0)) <= 1e-13, (dim, kind)
        # identical seed, identical bracket: determinism of the sampler
        assert (lo1, hi1) == (lo2, hi2)


@pytest.mark.parametrize("p", P_VALUES)
def test_difference_ratio_bounded(p):
    for dim, kind in DIMS_KINDS:
        sup = float(oracles.difference_ratio(*sample_pairs(50_000, dim, kind), p).max())
        assert np.isfinite(sup) and sup > 0.0, (dim, kind)


@pytest.mark.parametrize("p", (1.5, 2.0, 3.0))
def test_flux_identities(p):
    # homogeneity flux(t z) = t^(p-1) flux(z) and Re[flux(z).conj z] = |z|^p
    for dim, kind in DIMS_KINDS:
        rng = np.random.default_rng(oracles.PROPERTY_SEED)
        z = oracles.sample_vectors(rng, 20_000, dim, kind)
        t = 10.0 ** rng.uniform(-3, 3, z.shape[0])
        lhs = oracles.p_flux(z * t[:, None], p)
        rhs = t[:, None] ** (p - 1.0) * oracles.p_flux(z, p)
        hom = np.max(oracles.vec_norm(lhs - rhs) / oracles.vec_norm(rhs))
        assert hom <= 1e-13, (dim, kind)
        power = np.real(oracles.vec_dot(oracles.p_flux(z, p), np.conj(z)))
        norm_p = oracles.vec_norm(z) ** p
        assert np.max(np.abs(power - norm_p) / norm_p) <= 1e-13, (dim, kind)


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
    gap = oracles.convexity_gap(z, w, p)
    scale = oracles.convexity_gap_scale(z, w, p)
    assert gap >= -1e-12 * max(scale, 1e-300)


@settings(max_examples=200, deadline=None)
@given(z=vec2, t=st.floats(1e-3, 1e3, allow_nan=False),
       p=st.sampled_from([1.1, 1.5, 2.0, 3.0, 10.0]))
def test_flux_homogeneity_property(z, t, p):
    lhs = oracles.p_flux(t * z, p)
    rhs = t ** (p - 1.0) * oracles.p_flux(z, p)
    denom = max(float(oracles.vec_norm(rhs)), 1e-300)
    assert float(oracles.vec_norm(lhs - rhs)) <= 1e-13 * denom + 1e-300


@settings(max_examples=200, deadline=None)
@given(z=vec2, p=st.sampled_from([1.5, 2.0, 3.0]))
def test_flux_power_identity_property(z, p):
    power = np.real(oracles.vec_dot(oracles.p_flux(z, p), np.conj(z)))
    expected = float(oracles.vec_norm(z)) ** p
    assert abs(power - expected) <= 1e-13 * max(expected, 1e-300)
