import math
import tracemalloc

import numpy as np
import pytest

import oracles
from plprobe import cli, dnmap, pde, recovery, special
from plprobe.vecp import _norm_sq


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


def _family(mode, p, profile=None):
    """The default probe family (mode, p) at M = 4; real mode builds its
    Wolff profile unless one is given."""
    if mode == "real" and profile is None:
        profile = special.solve_wolff_profile(p)
    return recovery.ProbeSpec(mode=mode, p=p, M=4.0, profile=profile)


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
        raw = eta * special.make_complex_exponential(3.0, N=spec.N).value(grid.pts)
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


CURVED = special.BoundaryDefiningFunction(lambda x: -0.1 * x[..., 0] ** 2,
                                          lambda x: -0.2 * x[..., 0])


@pytest.mark.parametrize("call,error,message", (
    (lambda w: recovery.recover_boundary_value(GAMMA_ONE, _family("complex", 3.0),
                                               [8, 4]),
     ValueError, "M list must be strictly increasing"),
    (lambda w: recovery.recover_boundary_value(GAMMA_ONE, _family("complex", 3.0),
                                               [4, 4]),
     ValueError, "M list must be strictly increasing"),
    (lambda w: recovery.ProbeSpec(mode="real", p=3.0, M=4.0),
     ValueError, "real mode requires a Wolff profile"),
    (lambda w: recovery.ProbeSpec(mode="real", p=2.5, M=4.0, profile=w),
     ValueError, "profile exponent does not match the probe exponent"),
    (lambda w: recovery.build_probe(
        _family("complex", 3.0),
        pde.build_grid(pde.Rectangle(0.5, 0.5, bottom=CURVED), 16)),
     ValueError, "complex-mode probes require a flat bottom boundary"),
    (lambda w: pde.build_grid(pde.Rectangle(half_width=1.0, height=0.0), 16),
     ValueError, "degenerate rectangle"),
    (lambda w: pde.build_grid(pde.HalfDisc(radius=-1.0), 16),
     ValueError, "degenerate half disc"),
    (lambda w: pde.build_grid("square", 16), TypeError, "unknown shape 'square'"),
), ids=("decreasing-M", "repeated-M", "real-without-profile",
        "profile-of-another-p", "complex-above-curved-bottom",
        "degenerate-rectangle", "degenerate-half-disc", "unknown-shape"))
def test_recovery_inputs_are_rejected_with_their_message(call, error, message,
                                                         wolff3):
    with pytest.raises(error, match=f"^{message}$"):
        call(wolff3)


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


def test_curved_boundary_quadrature_limit(wolff3):
    rho = special.BoundaryDefiningFunction(lambda x: -0.1 * x[..., 0] ** 2,
                                           lambda x: -0.2 * x[..., 0])
    spec = recovery.ProbeSpec(mode="real", p=3.0, M=32.0, profile=wolff3, rho=rho)
    est = recovery.quadrature_limit(GAMMA_SLOPE, spec)
    assert est == pytest.approx(1.0, abs=2e-2)


def _flat_energy_density(spec, gamma_fn, x):
    """Reference: every factor evaluated at every point of a flat row-major
    (m, 2) array, with numpy's own sum for the squared norm."""
    M, N, p = spec.M, spec.N, spec.p
    eta_field = special.CutoffField(M=M, profile=spec.cutoff)
    eta = eta_field.value(x.T)
    geta = eta_field.value_and_gradient(x.T)[1].T / M
    if spec.mode == "complex":
        vec = (M / N) * geta
        vec[:, 1] -= eta
        mag2 = (vec**2).sum(axis=1) + eta**2 * (p - 1.0)
    else:
        tau = N * x[:, 0]
        a, ap = spec.profile.values_at(tau)
        grad_rho = spec.rho.gradient(x)
        vec = (M / N) * geta * a[:, None] - eta[:, None] * a[:, None] * grad_rho
        vec[:, 0] += eta * ap
        mag2 = (vec**2).sum(axis=1)
    return np.asarray(gamma_fn(x), dtype=float) * mag2 ** (p / 2.0)


# n, the dimension, is 2 in every case; the column keeps the cases' ids.
@pytest.mark.parametrize("mode, p, n, curved", [
    ("complex", 3.0, 2, False), ("real", 1.5, 2, False),
    ("real", 3.0, 2, True)])
def test_energy_density_block_equals_flat(mode, p, n, curved, wolff15, wolff3):
    # x'-only factors evaluated once per level and sliced per block change no bit
    rho = special.BoundaryDefiningFunction()
    if curved:
        rho = special.BoundaryDefiningFunction(lambda x: -x[..., 0] ** 2 / 10.0,
                                               lambda x: -x[..., 0] / 5.0)
    profile = {1.5: wolff15, 3.0: wolff3}[p] if mode == "real" else None
    spec = recovery.ProbeSpec(mode=mode, p=p, M=16.0, rho=rho, profile=profile)
    rng = np.random.default_rng(5)
    y_perp = rng.uniform(-1.1, 1.1, 60)
    y_layer = np.sort(rng.uniform(0.0, 44.0 / spec.p, 30))
    # a block of rows 10 to 49 of a level of 60 perpendicular nodes
    x = recovery._scaled_points(spec, y_perp[10:50], y_layer)
    assert x.shape == (n, 40, 30)
    rows = np.ascontiguousarray(np.moveaxis(x, 0, -1)).reshape(-1, n)

    def gamma_fn(pts):
        return 1.0 + pts[:, -1] / 2.0 + pts[:, 0] ** 2

    level = recovery._energy_density(spec, pde.ConductivityField(gamma_fn),
                                     y_perp / spec.M)
    block = level(x, slice(10, 50))
    flat = _flat_energy_density(spec, gamma_fn, rows).reshape(40, 30)
    assert block.tobytes() == flat.tobytes()


# At M = 256 the layer is the 20-node Gauss-Laguerre rule; at M = 32 the
# panel rule, 160 layer nodes.
@pytest.mark.parametrize("mode, p, n, curved, M, levels", [
    ("complex", 3.0, 2, False, 256.0, (0, 1, 2)),
    ("real", 1.5, 2, False, 256.0, (0, 1)),
    # level 1: 4,360 perpendicular nodes, two chunks, 1,638-row blocks, so
    # blocks end inside a chunk
    ("real", 3.0, 2, True, 256.0, (1,)),  # n as in the test above
    ("real", 3.0, 2, False, 256.0, (1,)),
    # level 4: 4,360 perpendicular nodes, two chunks, 204-row blocks
    ("real", 3.0, 2, False, 32.0, (4,))])
def test_tensor_quad_block_size_changes_no_bit(mode, p, n, curved, M, levels,
                                               monkeypatch, wolff15, wolff3):
    rho = special.BoundaryDefiningFunction()
    if curved:
        rho = special.BoundaryDefiningFunction(lambda x: -x[..., 0] ** 2 / 10.0,
                                               lambda x: -x[..., 0] / 5.0)
    profile = {1.5: wolff15, 3.0: wolff3}[p] if mode == "real" else None
    spec = recovery.ProbeSpec(mode=mode, p=p, M=M, rho=rho, profile=profile)

    def integrand(x1):
        return recovery._energy_density(spec, GAMMA_SLOPE, x1)

    def sums():
        return [recovery._tensor_quad(spec, integrand, level) for level in levels]

    def row_major(x, rows):
        points = np.ascontiguousarray(np.moveaxis(x, 0, -1)).reshape(-1, n)
        return _flat_energy_density(spec, GAMMA_SLOPE, points).reshape(x.shape[1:])

    blocked = sums()
    # the component-major blocks, with the factors of x_1 alone taken per
    # level and sliced per block, sum to the bits of the row-major oracle
    assert [recovery._tensor_quad(spec, lambda x1: row_major, level)
            for level in levels] == blocked
    # one block per summation chunk: the whole chunk evaluated at once
    monkeypatch.setattr(recovery, "_EVAL_POINTS", recovery._CHUNK * 10**6)
    assert sums() == blocked
    # blocks of a few rows, which end off the chunk boundaries
    monkeypatch.setattr(recovery, "_EVAL_POINTS", 4999)
    assert sums() == blocked


@pytest.mark.parametrize("M", (4.0, 16.0, 256.0))
@pytest.mark.parametrize("p", (1.1, 1.5, 3.0, 8.0))
@pytest.mark.parametrize("mode, curved", [("complex", False), ("real", False),
                                          ("real", True)])
def test_energy_density_keeps_the_bits_of_the_pointwise_integrand(mode, curved, p, M):
    # factors of x_1 alone taken once per level, |G/N|^p of the rows on the
    # cutoff's plateau among them, the flat squared radius as a row plus a
    # column term and the Horner cutoff move no bit of any block of a level
    # against the frozen integrand
    rho = special.BoundaryDefiningFunction()
    if curved:
        rho = special.BoundaryDefiningFunction(lambda x: -x[..., 0] ** 2 / 10.0,
                                               lambda x: -x[..., 0] / 5.0)
    profile = special.solve_wolff_profile(p) if mode == "real" else None
    spec = recovery.ProbeSpec(mode=mode, p=p, M=M, rho=rho, profile=profile)
    gamma = pde.ConductivityField(lambda x: 1.0 + x[:, 0] ** 2 + x[:, -1] / 2.0)
    layer_nodes = recovery._layer_rule(spec, 1)[0]
    y_perp = special._gauss_panels(recovery._perp_breaks(spec, 1))[0]
    level = recovery._energy_density(spec, gamma, y_perp / spec.M)

    def plateau_rows(y):
        # a row's largest radius is at its first or its last layer node
        ends = recovery._scaled_points(spec, y, layer_nodes[[0, -1]])
        return special.CutoffField(M=M).on_plateau(_norm_sq(ends, axis=0).max(axis=1))

    # blocks of 17 rows at y_1 = -1, across the first row on the plateau
    # throughout, and at y_1 = 0
    kinds = set()
    for row in (0, int(np.argmax(plateau_rows(y_perp))), y_perp.size // 2):
        b = max(0, row - 8)
        e = min(y_perp.size, b + 17)
        x = recovery._scaled_points(spec, y_perp[b:e], layer_nodes)
        want = oracles.pointwise_energy_density(spec, gamma, x)
        assert level(x, slice(b, e)).tobytes() == want.tobytes()
        inner = plateau_rows(y_perp[b:e])
        kinds.add((bool(inner.any()), bool(inner.all())))
    if M == 256.0:
        # a block off the plateau, one across its edge, one on it throughout
        assert kinds == {(False, False), (True, False), (True, True)}


def test_wolff_profile_is_evaluated_once_per_level(monkeypatch, wolff3):
    spec = recovery.ProbeSpec(mode="real", p=3.0, M=256.0, profile=wolff3)
    calls = {"values_at": 0, "levels": 0}
    values_at, tensor_quad = special.WolffProfile.values_at, recovery._tensor_quad

    def counting_values_at(self, tau):
        calls["values_at"] += 1
        return values_at(self, tau)

    def counting_tensor_quad(*args):
        calls["levels"] += 1
        return tensor_quad(*args)

    monkeypatch.setattr(special.WolffProfile, "values_at", counting_values_at)
    monkeypatch.setattr(recovery, "_tensor_quad", counting_tensor_quad)
    recovery.quadrature_limit(GAMMA_SLOPE, spec)
    assert calls["levels"] >= 2
    assert calls["values_at"] == calls["levels"]


def _quadrature_peak(spec):
    """Peak traced allocation of `quadrature_limit` on `spec`."""
    tracemalloc.start()
    try:
        recovery.quadrature_limit(GAMMA_SLOPE, spec)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_quadrature_limit_working_set_is_bounded(wolff3):
    # the 20-node Gauss-Laguerre layer: about 4 MiB, and about 5 MiB
    # evaluating a whole 4,096-row chunk at once
    spec = recovery.ProbeSpec(mode="real", p=3.0, M=256.0, profile=wolff3)
    assert _quadrature_peak(spec) <= 16 * 2**20


def test_quadrature_limit_working_set_is_bounded_on_panels():
    # the head-refining panels, 1,280 perpendicular nodes and 870 layer
    # nodes at level 4: about 12 MiB, 8.9 MiB of it the level's values;
    # evaluating a whole chunk at once peaks at about 95 MiB
    spec = recovery.ProbeSpec(mode="real", p=1.1, M=32.0,
                              profile=special.solve_wolff_profile(1.1))
    assert _quadrature_peak(spec) <= 16 * 2**20


@pytest.mark.parametrize("p", (1.1, 3.0, 8.0))
def test_layer_rule_refines_only_the_head(p):
    # the nodes beyond 20/p are the base panels' at every level; at M = 4,
    # s = 2 the head reaches past the cutoff's plateau and refines
    spec = recovery.ProbeSpec(mode="complex", p=p, M=4.0)
    rules = [recovery._layer_rule(spec, level) for level in range(5)]
    tail = [(nodes[nodes > 20.0 / p], w[nodes > 20.0 / p]) for nodes, w in rules]
    assert all(t[0].size == 30 for t in tail)
    for nodes, w in tail[1:]:
        assert nodes.tobytes() == tail[0][0].tobytes()
        assert w.tobytes() == tail[0][1].tobytes()
    # the head is the parent rule's head, bit for bit
    for level, (nodes, w) in enumerate(rules):
        old_nodes, old_w = oracles.parent_layer_rule(p, level)
        head = old_nodes < 20.0 / p
        assert nodes[:head.sum()].tobytes() == old_nodes[head].tobytes()
        assert w[:head.sum()].tobytes() == old_w[head].tobytes()
    if p == 3.0:
        assert [nodes.size for nodes, _ in rules[:3]] == [160, 200, 290]


def _layer_ratio(spec):
    """(M/N)(20/p): the depth of the layer's head, 20/p in y_2, in units of
    1/M, against the cutoff's plateau radius 1/2."""
    return (spec.M / spec.N) * (20.0 / spec.p)


def _head_within_plateau(spec):
    """Whether the layer's head, 20/p deep in y_2, lies within the cutoff's
    plateau radius 1/(2M) in x_2 = y_2/N."""
    return _layer_ratio(spec) <= 0.5


@pytest.mark.parametrize("p, M, s, within", [
    (3.0, 16.0, 2.0, True),      # (M/N)(20/p) = 0.42
    (5.0, 8.0, 2.0, True),       # 0.5, on the threshold
    (8.0, 1024.0, 1.25, True),   # 0.44
    (3.0, 8.0, 2.0, False),      # 0.83
    (2.5, 8.0, 2.0, False),      # 1: keeping the head here moves values
    (1.1, 32.0, 2.0, False)])    # 0.57
def test_layer_rule_keeps_the_head_within_the_cutoff_plateau(p, M, s, within):
    spec = recovery.ProbeSpec(mode="complex", p=p, M=M, s=s)
    assert _head_within_plateau(spec) == within
    rules = [recovery._layer_rule(spec, level) for level in range(4)]
    if within:
        # the level-0 layer at every level
        for nodes, w in rules[1:]:
            assert nodes.tobytes() == rules[0][0].tobytes()
            assert w.tobytes() == rules[0][1].tobytes()
    else:
        sizes = [nodes.size for nodes, _ in rules]
        assert all(b > a for a, b in zip(sizes[:-1], sizes[1:]))
    # level 0 is the head-refining rule's either way
    assert rules[0][0].tobytes() == oracles.head_refining_layer_rule(spec, 0)[0].tobytes()


GAMMA_TILT = pde.ConductivityField(lambda x: 1.0 + x[:, 0] ** 2 + x[:, -1] / 2.0)
CURVED = special.BoundaryDefiningFunction(lambda x: -0.1 * x[..., 0] ** 2,
                                          lambda x: -0.2 * x[..., 0])


def _tilt_spec(mode, p, M, s, curved, wolff3):
    profile = None
    if mode == "real":
        profile = wolff3 if p == 3.0 else special.solve_wolff_profile(p)
    return recovery.ProbeSpec(mode=mode, p=p, M=M, s=s, profile=profile,
                              rho=CURVED if curved else special.BoundaryDefiningFunction())


# n, the dimension, is 2 in every case, as in the block tests above.
@pytest.mark.parametrize("mode, p, s, n, curved, M", [
    ("complex", 1.1, 1.25, 2, False, 16.0),
    ("complex", 3.0, 2.0, 2, False, 16.0),
    ("real", 1.1, 2.0, 2, False, 16.0),
    ("real", 3.0, 1.25, 2, True, 32.0),
    ("real", 8.0, 2.0, 2, True, 16.0)])
def test_quadrature_limit_matches_the_frozen_layer_rule(monkeypatch, mode, p, s,
                                                        n, curved, M, wolff3):
    # freezing the tail moves nothing: the parent rule, at the level whose
    # head the rule uses (level 0 where the head lies within the plateau)
    spec = _tilt_spec(mode, p, M, s, curved, wolff3)
    new = recovery.quadrature_limit(GAMMA_TILT, spec)

    def parent_rule(spec, level):
        return oracles.parent_layer_rule(
            spec.p, 0 if _head_within_plateau(spec) else level)

    monkeypatch.setattr(recovery, "_layer_rule", parent_rule)
    old = recovery.quadrature_limit(GAMMA_TILT, spec)
    assert abs(new - old) <= 1e-14 * abs(old)


# (M/N)(20/p) <= 1/2 in every case
@pytest.mark.parametrize("mode, p, s, curved, M", [
    ("complex", 1.1, 2.0, False, 64.0),
    ("real", 1.1, 2.0, False, 64.0),
    ("complex", 1.5, 2.0, False, 32.0),
    ("real", 1.5, 2.0, True, 32.0),
    ("complex", 2.0, 2.0, False, 32.0),
    ("complex", 3.0, 1.5, False, 256.0),
    ("real", 3.0, 2.0, True, 16.0),
    ("real", 3.0, 1.25, False, 32768.0),
    ("complex", 5.0, 2.0, False, 8.0),
    ("complex", 8.0, 1.25, False, 1024.0),
    ("real", 8.0, 1.25, True, 1024.0),
    ("real", 8.0, 2.0, True, 16.0)])
def test_quadrature_within_the_plateau_matches_the_head_refining_rule(
        monkeypatch, mode, p, s, curved, M, wolff3):
    spec = _tilt_spec(mode, p, M, s, curved, wolff3)
    assert _head_within_plateau(spec)
    new = recovery.quadrature_limit(GAMMA_TILT, spec)
    monkeypatch.setattr(recovery, "_layer_rule", oracles.head_refining_layer_rule)
    old = recovery.quadrature_limit(GAMMA_TILT, spec)
    assert abs(new - old) <= 1e-12 * abs(old)


# (M/N)(20/p) <= 1/8 in every case
@pytest.mark.parametrize("mode, p, s, curved, M", [
    ("complex", 1.1, 2.0, False, 256.0),     # 0.071
    ("real", 1.1, 2.0, False, 256.0),        # 0.071
    ("complex", 1.5, 2.0, False, 128.0),     # 0.10
    ("real", 1.5, 2.0, True, 128.0),         # 0.10
    ("complex", 3.0, 2.0, False, 64.0),      # 0.10
    ("real", 3.0, 2.0, True, 64.0),          # 0.10
    ("complex", 3.0, 1.5, False, 4096.0),    # 0.10
    ("real", 3.0, 1.5, False, 4096.0),       # 0.10
    ("complex", 5.0, 2.0, False, 64.0),      # 0.063
    ("real", 5.0, 2.0, False, 32.0),         # 0.125, on the threshold
    ("real", 5.0, 1.5, True, 1024.0),        # 0.125, on the threshold
    ("complex", 8.0, 1.5, False, 1024.0),    # 0.078
    ("real", 8.0, 2.0, True, 32.0),          # 0.078
    ("real", 8.0, 1.5, False, 1024.0)])      # 0.078
def test_quadrature_below_a_quarter_plateau_matches_the_refined_layer(
        monkeypatch, mode, p, s, curved, M, wolff3):
    # the 20-node Gauss-Laguerre layer against the panel rule refined to
    # width (4/p)/8 in the head and 2/p in the tail at every level
    spec = _tilt_spec(mode, p, M, s, curved, wolff3)
    assert _layer_ratio(spec) <= 0.125
    new = recovery.quadrature_limit(GAMMA_TILT, spec)
    monkeypatch.setattr(recovery, "_layer_rule", oracles.refined_layer_rule)
    ref = recovery.quadrature_limit(GAMMA_TILT, spec)
    assert abs(new - ref) <= 1e-14 * abs(ref)


@pytest.mark.parametrize("p, M, s", [
    (1.1, 256.0, 2.0),    # (M/N)(20/p) = 0.071
    (3.0, 64.0, 2.0),     # 0.10
    (5.0, 32.0, 2.0),     # 0.125, on the threshold
    (3.0, 4096.0, 1.5),   # 0.10
    (1.1, 128.0, 2.0),    # 0.14
    (3.0, 32.0, 2.0),     # 0.21
    (5.0, 16.0, 2.0),     # 0.25
    (3.0, 8.0, 2.0),      # 0.83
    (1.1, 32.0, 2.0)])    # 0.57
def test_layer_rule_regimes(p, M, s):
    # at or below 1/8 the Gauss-Laguerre rule at every level; above it the
    # panel rule's bits, its head at level 0 up to 1/2 and refined beyond
    spec = recovery.ProbeSpec(mode="complex", p=p, M=M, s=s)
    ratio = _layer_ratio(spec)
    rules = [recovery._layer_rule(spec, level) for level in range(4)]
    if ratio <= 0.125:
        x, w = np.polynomial.laguerre.laggauss(20)
        want = (x / p, (w * np.exp(x)) / p)
    for level, (nodes, weights) in enumerate(rules):
        if ratio > 0.125:
            want = oracles.head_refining_layer_rule(spec, 0 if ratio <= 0.5 else level)
        assert nodes.tobytes() == want[0].tobytes()
        assert weights.tobytes() == want[1].tobytes()


def test_laguerre_rule_is_built_once_per_process(monkeypatch):
    calls = []
    laggauss = np.polynomial.laguerre.laggauss

    def counting_laggauss(n):
        calls.append(n)
        return laggauss(n)

    monkeypatch.setattr(np.polynomial.laguerre, "laggauss", counting_laggauss)
    recovery._laguerre_rule.cache_clear()
    try:
        for M in (64.0, 128.0):
            spec = recovery.ProbeSpec(mode="complex", p=3.0, M=M)
            assert _layer_ratio(spec) <= 0.125
            recovery.quadrature_limit(GAMMA_SLOPE, spec)
        # two quadratures of at least two levels each, one build
        assert calls == [recovery._LAGUERRE_ORDER]
        assert recovery._laguerre_rule.cache_info().hits >= 3
    finally:
        recovery._laguerre_rule.cache_clear()


def test_quadrature_sums_run_on_one_numpy_openblas_thread(monkeypatch):
    lib = pde._bundled_openblas("numpy")
    if lib is None:
        pytest.skip("numpy's OpenBLAS not found")
    get = lib.scipy_openblas_get_num_threads64_
    put = lib.scipy_openblas_set_num_threads64_
    before = get()
    put(2)
    seen = []
    scaled_points = recovery._scaled_points

    def recording(*args):
        seen.append(get())
        return scaled_points(*args)

    monkeypatch.setattr(recovery, "_scaled_points", recording)
    try:
        spec = recovery.ProbeSpec(mode="complex", p=3.0, M=8.0)
        recovery.quadrature_limit(GAMMA_SLOPE, spec)
        # pinned inside every level, and the caller's count given back
        assert seen and set(seen) == {1}
        assert get() == 2
    finally:
        put(before)


def test_refined_quad_needs_a_level_to_compare():
    spec = recovery.ProbeSpec(mode="complex", p=3.0, M=4.0)
    with pytest.raises(recovery.QuadratureError, match="at least 1 level"):
        recovery._refined_quad(spec, lambda x1: lambda x, rows: np.ones(x.shape[1:]),
                               1e-7, 0)


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
    rep = recovery.recover_boundary_value(gam, _family("complex", 2.0), [4, 8])
    assert rep.gamma0 == c0
    errs = [abs(r.estimate - c0) / c0 for r in rep.rows]
    assert all(r.ok for r in rep.rows)
    # cutoff error O((M/N)^2) remains even for constants; it halves and
    # more per doubling of M
    assert errs[0] <= 0.10 and errs[1] <= 0.03
    assert errs[1] < errs[0] / 2.0


def test_recover_monotone_trajectory_small():
    rep = recovery.recover_boundary_value(GAMMA_SLOPE, _family("real", 3.0), [4, 8])
    assert rep.monotone_contract()
    assert all(r.ok for r in rep.rows)
    errs = rep.errors()
    assert errs[1] < errs[0]
    corr = [r.correction for r in rep.rows]
    assert corr[1] < corr[0]


def test_recover_mode_independence():
    # both constructions estimate the same boundary value
    rc = recovery.recover_boundary_value(GAMMA_SLOPE, _family("complex", 1.5), [4, 8])
    rr = recovery.recover_boundary_value(GAMMA_SLOPE, _family("real", 1.5), [4, 8])
    assert abs(rc.rows[-1].estimate - rr.rows[-1].estimate) <= 0.1
    assert abs(rc.rows[-1].estimate - 1.0) <= 0.1
    assert abs(rr.rows[-1].estimate - 1.0) <= 0.1


def test_recover_rows_carry_diagnostics():
    rep = recovery.recover_boundary_value(GAMMA_SLOPE, _family("complex", 3.0), [4])
    row = rep.rows[0]
    assert row.ok
    assert row.newton_iterations > 0
    assert row.weak_residual <= 1e-5
    assert row.pairing_imag <= 1e-12
    assert math.isfinite(row.quad_estimate)
    assert abs(row.leading + row.remainder.real - row.estimate) <= 1e-9


def test_recover_failure_rows_recorded():
    # the window grids need ~1,750 nodes at M = 4 and ~6,800 at M = 8
    rep = recovery.recover_boundary_value(GAMMA_SLOPE, _family("complex", 3.0),
                                          [4, 8], max_nodes=3000)
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
    # stand-ins that build nothing: the coarse level is the second window
    # asked for, at half of the 16 nodes per wavelength
    def window(spec, nodes_per_wavelength, max_nodes):
        if nodes_per_wavelength != 16.0:
            assert nodes_per_wavelength == 8.0
            raise _CoarseLevel
        return "grid"

    starts = []

    def solve(grid, gamma, p, probe, settings, initial):
        starts.append(initial)
        return "solve"

    monkeypatch.setattr(recovery, "probe_window_grid", window)
    monkeypatch.setattr(recovery, "build_probe", lambda spec, grid: "probe")
    monkeypatch.setattr(recovery, "solve_dirichlet", solve)
    coarse = set()
    for mode in ("complex", "real"):
        for p, profile in ((1.5, wolff15), (3.0, wolff3)):
            for M in (4.0, 8.0, 16.0):
                spec = recovery.ProbeSpec(mode=mode, p=p, M=M, profile=(
                    profile if mode == "real" else None))
                try:
                    assert recovery._window_solve(
                        spec, None, None, 16.0, 1_500_000) == ("grid", "probe", "solve")
                    assert starts.pop() == "probe"
                except _CoarseLevel:
                    coarse.add((mode, p, M))
    assert coarse == {("complex", 3.0, 8.0), ("complex", 3.0, 16.0),
                      ("complex", 1.5, 16.0), ("real", 3.0, 8.0),
                      ("real", 3.0, 16.0), ("real", 1.5, 16.0)}
    assert starts == []


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
    row = recovery.recover_boundary_value(GAMMA_SLOPE, spec, [8]).rows[0]
    assert grids == [grid.nx // 2, grid.nx]
    assert row.ok, row.message
    assert row.estimate == pytest.approx(expected, rel=1e-12)
    # the same row of the recover demo's golden, written before the
    # two-level start existed
    assert row.estimate == pytest.approx(1.0039390498376664, rel=1e-12)
    assert row.newton_iterations == len(direct.energy_history) == 9


def test_reference_solve_from_the_conductivity_solution_factors_once():
    # the gamma = 1 solve of the same window, started from u_gamma, as a
    # calibrated estimator would run it: one factored step at full length,
    # its chord step and the polish
    spec = recovery.ProbeSpec(mode="complex", p=3.0, M=8.0)
    grid, probe, sol = recovery._window_solve(spec, GAMMA_SLOPE, None, 16.0, 1_500_000)
    ref = pde.solve_dirichlet(grid, GAMMA_ONE, 3.0, probe, initial=sol.field)
    assert (len(ref.energy_history), ref.factorizations) == (3, 1)
    assert ref.regularized_residual <= 1e-7


def test_recover_requires_increasing_m():
    with pytest.raises(ValueError):
        recovery.recover_boundary_value(GAMMA_SLOPE, _family("complex", 3.0), [8, 4])


def test_extrapolation_one_geometric_step():
    rep = recovery.recover_boundary_value(GAMMA_SLOPE, _family("complex", 3.0), [4, 8])
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
    rep = recovery.recover_boundary_value(GAMMA_SLOPE, _family(mode, p, prof),
                                          [4, 8], nodes_per_wavelength=32.0)
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
