"""Acceptance suite: one test per release criterion, stated tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion (criterion 8 is the long one; the full suite stays within
its stated runtime budgets on a laptop).
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from plprobe import cli, dnmap, pde, recovery, special

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"


def _report(num, name, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed <= budget else "FAIL"
    print(f"ACCEPTANCE {num} [{name}]: {status} ({detail}; {elapsed:.1f}s "
          f"of {budget:.0f}s budget)")
    assert ok, f"criterion {num} ({name}): {detail}"
    assert elapsed <= budget, f"criterion {num} exceeded {budget:.0f}s ({elapsed:.1f}s)"


def test_criterion_1_wolff_trivial_case():
    t0 = time.time()
    prof = special.solve_wolff_profile(2.0)
    e_lam = abs(prof.lam - 2.0 * math.pi)
    e_K = abs(prof.K - 1.0)
    e_mean = abs(prof.a_mean)
    ok = e_lam <= 1e-8 and e_K <= 1e-8 and e_mean <= 1e-10
    _report(1, "wolff-trivial-case", ok,
            f"|lam-2pi|={e_lam:.2e}, |K-1|={e_K:.2e}, |a_mean|={e_mean:.2e}",
            time.time() - t0, 1.0)


def test_criterion_2_wolff_self_consistency():
    t0 = time.time()
    details = []
    ok = True
    for p in (1.5, 3.0, 4.0):
        prof = special.solve_wolff_profile(p)
        res = oracles.ode_residual_max(prof)
        ok &= res <= 10.0 * 1e-10
        d_lam = abs(prof.lam - oracles.oracle_period(p)) / prof.lam
        d_K = abs(prof.K - oracles.oracle_K(p)) / prof.K
        ok &= d_lam <= 1e-8 and d_K <= 1e-8
        fld = special.WolffField(prof, N=2.0)
        rng = np.random.default_rng(3)
        pts = np.column_stack([rng.uniform(-1, 1, 5), rng.uniform(0.05, 0.8, 5)])
        steps = (2e-2 / fld.N, 1e-2 / fld.N, 5e-3 / fld.N)
        worst = [max(special.p_laplace_residual(fld.gradient, x, p, s, fld.N)
                     for x in pts) for s in steps]
        order = min(math.log2(worst[i] / worst[i + 1]) for i in range(2))
        ok &= order >= 1.8
        details.append(f"p={p:g}: res={res:.1e}, dlam={d_lam:.1e}, "
                       f"dK={d_K:.1e}, order={order:.2f}")
    _report(2, "wolff-self-consistency", ok, "; ".join(details),
            time.time() - t0, 10.0)


def test_criterion_3_complex_exponential():
    t0 = time.time()
    ok = True
    details = []
    for p in (1.5, 2.0, 3.0):
        fld = special.make_complex_exponential(p, N=3.0)
        re_id, im_id = fld.identity_residual()
        ok &= abs(re_id) <= 1e-13 and abs(im_id) <= 1e-13
        rng = np.random.default_rng(11)
        pts = np.column_stack([rng.uniform(-1, 1, 10), rng.uniform(0.05, 1.0, 10)])
        worst = max(special.p_laplace_residual(fld.gradient, x, p, 1e-3 / fld.N, fld.N)
                    for x in pts)
        ok &= worst <= 1e-5
        details.append(f"p={p:g}: identity={max(abs(re_id), abs(im_id)):.1e}, "
                       f"residual={worst:.1e}")
    _report(3, "complex-exponential-p-harmonicity", ok, "; ".join(details),
            time.time() - t0, 1.0)


def test_criterion_4_inequality_suite():
    # 1e5 seeded pairs, a quarter in each of dims (2, 3) x kinds (complex, real)
    t0 = time.time()
    rng = np.random.default_rng(oracles.PROPERTY_SEED)
    batches = []
    for dim in (2, 3):
        for kind in ("complex", "real"):
            z = oracles.sample_vectors(rng, 25_000, dim, kind)
            w = oracles.sample_vectors(rng, 25_000, dim, kind)
            keep = ~(z == w).all(axis=-1)
            batches.append((z[keep], w[keep]))
    ok = True
    worst = math.inf
    for p in (1.1, 1.5, 2.0, 3.0, 10.0):
        for z, w in batches:
            gaps = (oracles.convexity_gap(z, w, p) / oracles.convexity_gap_scale(z, w, p),
                    oracles.p_power_difference_gap(z, w, p)
                    / oracles.p_power_difference_scale(z, w, p))
            worst = min(worst, *(float(g.min()) for g in gaps))
            ratio = oracles.monotonicity_ratio(z, w, p)
            ok &= ratio.min() > 0.0 and np.isfinite(ratio.max())
            if p == 2.0:
                ok &= np.max(np.abs(ratio - 1.0)) <= 1e-13
    ok &= worst >= -1e-12
    _report(4, "p-power-inequality-suite", ok,
            f"gaps and monotonicity over 1e5 pairs per p, worst gap/scale {worst:.2e}",
            time.time() - t0, 30.0)


def test_criterion_5_solver_oracles():
    t0 = time.time()
    gam1 = pde.ConductivityField.constant(1.0)

    errs = {}
    for res in (32, 64):
        g = pde.build_grid(pde.Rectangle(half_width=1.0, height=1.0), res)
        f = pde.PField.from_function(g, lambda x: np.exp(1j * x[:, 0] - x[:, 1]),
                                     "complex")
        sol = pde.solve_dirichlet(g, gam1, 2.0, f,
                                  initial=pde.PField(np.zeros(g.npt), "complex"))
        errs[res] = oracles.h1_relative_error(
            g, sol.field,
            lambda c: np.exp(1j * c[:, 0] - c[:, 1])[:, None]
            * np.array([1j, -1.0])[None, :])
    ratio = errs[32] / errs[64]
    ok_a = errs[64] <= 3e-2 and 1.7 <= ratio <= 2.3

    ok_b = True
    g = pde.build_grid(pde.Rectangle(half_width=1.0, height=1.0), 16)
    aff = pde.PField.from_function(g, lambda x: 0.7 * x[:, 0] - 1.3 * x[:, 1] + 0.4,
                                   "real")
    for p in (1.5, 3.0):
        sol = pde.solve_dirichlet(g, gam1, p, aff)
        ok_b &= np.max(np.abs(sol.field.values - aff.values)) <= 1e-12

    g32 = pde.build_grid(pde.Rectangle(half_width=1.0, height=1.0), 32)
    gam = pde.ConductivityField(lambda x: 1.0 + x[:, 1] / 2.0)

    def probe_fn(x):
        r = np.sqrt(x[:, 0] ** 2 + x[:, 1] ** 2)
        return (np.clip(1.5 - 2.0 * r, 0.0, 1.0)
                * np.cos(4.0 * x[:, 0]) * np.exp(-4.0 * x[:, 1]))

    f = pde.PField.from_function(g32, probe_fn, "real")
    s1 = pde.solve_dirichlet(g32, gam, 3.0, f, pde.SolverSettings(init="zero"))
    s2 = pde.solve_dirichlet(g32, gam, 3.0, f,
                             pde.SolverSettings(init="random", seed=99))
    uniq = abs(s1.energy - s2.energy) / s1.energy
    ok_c = uniq <= 1e-6

    _report(5, "solver-oracles", ok_a and ok_b and ok_c,
            f"H1 err(64)={errs[64]:.3e}, ratio={ratio:.2f}, affine exact, "
            f"two-init energy dev={uniq:.1e}", time.time() - t0, 120.0)


def test_criterion_6_dn_structure():
    t0 = time.time()
    grid = pde.build_grid(pde.Rectangle(half_width=1.0, height=1.0), 24)
    gam = pde.ConductivityField(lambda x: 1.0 + x[:, 1] / 2.0)

    def fn(x):
        r = np.sqrt(x[:, 0] ** 2 + x[:, 1] ** 2)
        return (np.clip(1.5 - 2.0 * r, 0.0, 1.0)
                * np.exp(1j * 4.0 * x[:, 0]) * np.exp(-4.0 * x[:, 1]))

    f = pde.PField.from_function(grid, fn, "complex")
    ok = True
    details = []
    for p in (1.5, 2.0, 3.0):
        homs = [dnmap.homogeneity_check(grid, gam, p, f, t) for t in (0.1, 2.0, 10.0)]
        shift = dnmap.constant_shift_check(grid, gam, p, f, 1.0 + 0.5j, 0.5)
        slope = dnmap.self_pairing_slope(grid, gam, p, f, [1e-1, 1e-2, 1e-3])
        ok &= max(homs) <= 1e-4 and shift <= 1e-4 and abs(slope - p) / p <= 0.01
        details.append(f"p={p:g}: hom={max(homs):.1e}, shift={shift:.1e}, "
                       f"slope={slope:.4f}")
    _report(6, "dn-structure", ok, "; ".join(details), time.time() - t0, 120.0)


def test_criterion_7_quadrature_limit():
    t0 = time.time()
    gam = pde.ConductivityField(lambda x: 1.0 + x[:, 1])
    ok = True
    details = []
    profiles = {p: special.solve_wolff_profile(p) for p in (1.5, 3.0)}
    for mode in ("complex", "real"):
        for p in (1.5, 3.0):
            errs = []
            for M in (8.0, 16.0, 32.0, 64.0):
                spec = recovery.ProbeSpec(
                    mode=mode, p=p, M=M,
                    profile=profiles[p] if mode == "real" else None)
                est = recovery.quadrature_limit(gam, spec)
                errs.append(abs(est - 1.0))
            strict = all(b < a for a, b in zip(errs[:-1], errs[1:]))
            ok &= strict and errs[-1] <= 0.02
            details.append(f"{mode}/p={p:g}: final={errs[-1]:.1e} "
                           f"{'dec' if strict else 'NONMONO'}")
    for p in (1.5, 3.0):
        spec = recovery.ProbeSpec(mode="real", p=p, M=64.0, profile=profiles[p])
        osc = oracles.oscillatory_average_check(spec)
        ok &= osc["rel_diff"] <= 5e-3
        details.append(f"osc p={p:g}: {osc['rel_diff']:.1e}")
    _report(7, "quadrature-level-limit", ok, "; ".join(details),
            time.time() - t0, 30.0)


# Full-resolution Newton steps of the criterion-8 rows at M = 4, 8, 16, chord
# steps included; a change to the solver's kernels that keeps its
# arithmetic keeps these counts.  The rows whose probe is resolved at half
# the resolution (complex p = 3 at M = 8, 16; complex p = 1.5 at M = 16;
# real p = 3 at M = 8, 16; real p = 1.5 at M = 16) start from the
# half-resolution solution and take fewer steps than the rows that start
# from the probe.
CRITERION_8_NEWTON_STEPS = {
    ("complex", 1.5): [9, 9, 5],
    ("complex", 3.0): [8, 5, 5],
    ("real", 1.5): [9, 10, 8],
    ("real", 3.0): [10, 7, 5],
}
# Band factorizations over the three rows, coarse solves included.
CRITERION_8_FACTORIZATIONS = {
    ("complex", 1.5): 16,
    ("complex", 3.0): 18,
    ("real", 1.5): 19,
    ("real", 3.0): 22,
}
# Line-search energy evaluations over the three rows, coarse solves
# included: one per Armijo trial, plus one per doubling tried after a full
# factored step that beat its quadratic model.  A chord step whose
# decrement exceeds its factored step's is dropped before any trial; the
# p = 3 solves from the probe start drop the one after their first factored
# step, whose stale Newton matrix took 18-20 halvings to pass the Armijo
# test.  A change to the backtracking, expansion or chord rule shows here,
# and so can a change in the last bits of the probe.
CRITERION_8_ENERGY_CALLS = {
    ("complex", 1.5): 38,
    ("complex", 3.0): 43,
    ("real", 1.5): 47,
    ("real", 3.0): 63,
}


def test_criterion_8_headline_recovery(monkeypatch):
    t0 = time.time()
    gam = pde.ConductivityField(lambda x: 1.0 + x[:, 1] / 2.0)
    calls = []
    energy = pde._FreeDofNewton.energy

    def counting_energy(self, U, eps):
        calls.append(eps)
        return energy(self, U, eps)

    monkeypatch.setattr(pde._FreeDofNewton, "energy", counting_energy)
    factorizations = []
    solve = recovery.solve_dirichlet

    def counting_solve(*args, **kwargs):
        result = solve(*args, **kwargs)
        factorizations.append(result.factorizations)
        return result

    monkeypatch.setattr(recovery, "solve_dirichlet", counting_solve)
    ok = True
    details = []
    for mode in ("complex", "real"):
        for p in (1.5, 3.0):
            calls.clear()
            factorizations.clear()
            family = recovery.ProbeSpec(mode=mode, p=p, M=4.0, s=2.0, profile=(
                special.solve_wolff_profile(p) if mode == "real" else None))
            rep = recovery.recover_boundary_value(gam, family, [4, 8, 16])
            steps = [r.newton_iterations for r in rep.rows]
            assert steps == CRITERION_8_NEWTON_STEPS[mode, p], (mode, p, steps)
            assert len(calls) == CRITERION_8_ENERGY_CALLS[mode, p], (mode, p, len(calls))
            assert sum(factorizations) == CRITERION_8_FACTORIZATIONS[mode, p], (
                mode, p, factorizations)
            rows_ok = all(r.ok for r in rep.rows)
            mono = rep.monotone_contract()
            final = rep.final_relative_error()
            sums = [abs(r.leading + r.remainder.real - r.estimate)
                    / abs(r.estimate) for r in rep.rows if r.ok]
            corr = [r.correction for r in rep.rows if r.ok]
            corr_dec = all(b < a for a, b in zip(corr[:-1], corr[1:]))
            good = (rows_ok and mono and final <= 0.10
                    and max(sums) <= 1e-10 and corr_dec)
            ok &= good
            details.append(f"{mode}/p={p:g}: final={final:.3f}, "
                           f"mono={mono}, corr_dec={corr_dec}")
    _report(8, "headline-recovery", ok, "; ".join(details),
            time.time() - t0, 900.0)


def test_criterion_9_determinism_and_cli(tmp_path, golden_mismatches,
                                        recover_demo_run):
    t0 = time.time()
    demo = REPO / "configs" / "recover_demo.cfg"
    probe_demo = REPO / "configs" / "probe_check_demo.cfg"
    code, a = recover_demo_run
    b = tmp_path / "b"
    ok = code == 0
    ok &= cli.main(["recover", "--config", str(demo), "--out", str(b)]) == 0
    identical = all((a / n).read_bytes() == (b / n).read_bytes()
                    for n in ("report.csv", "config_echo.cfg", "summary.txt"))
    golden_ok = not golden_mismatches(a / "report.csv",
                                      GOLDEN / "recover_demo" / "report.csv")
    ok &= cli.main(["probe-check", "--config", str(probe_demo),
                    "--out", str(tmp_path / "pc")]) == 0
    golden_ok &= not golden_mismatches(
        tmp_path / "pc" / "probe_check.csv",
        GOLDEN / "probe_check_demo" / "probe_check.csv")

    # exit-code semantics: 1 = execution/config error, 2 = contract violation
    bad = tmp_path / "bad.cfg"
    bad.write_text("[physics]\ngamma = -1\n")
    code_error = cli.main(["recover", "--config", str(bad),
                           "--out", str(tmp_path / "e1")])
    tiny = tmp_path / "tiny.cfg"
    tiny.write_text("[physics]\np = 3\ngamma = 1 + x2/2\n"
                    "[probe]\nm_list = 4, 8\n[domain]\nmax_nodes = 10\n")
    code_contract = cli.main(["recover", "--config", str(tiny),
                              "--out", str(tmp_path / "e2")])
    codes_ok = code_error == 1 and code_contract == 2

    _report(9, "determinism-and-cli-contract",
            bool(ok and identical and golden_ok and codes_ok),
            f"byte-identical={identical}, golden={golden_ok}, "
            f"exit codes=({code_error},{code_contract})",
            time.time() - t0, 60.0)
