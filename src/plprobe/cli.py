"""Batch command-line front end.

Commands: wolff, probe-check, solve, recover, verify, sweep.  Every run
reads a config (defaults apply when none is given), echoes the validated
config into the output directory, and writes each table in every format
of `output.formats`, CSV and JSON as {"meta", "rows"}, with bytes that are
a pure function of config + seed on one machine and library stack.
Across machines only the last bits of floats may differ (BLAS kernel,
which also runs the banded Cholesky; numpy SIMD loops).  Exit codes: 0 all
contracts met, 1 execution/config error, 2 a run contract was violated.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__, dnmap, pde, recovery, special
from .config import (ConfigError, ExperimentConfig, bottom_curve, domain_shape,
                     format_value, parse_config, parse_expression)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONTRACT = 2


def write_table(cfg: ExperimentConfig, out: Path, name: str, header, rows,
                meta: dict) -> None:
    """Write the table `name` in each format of `output.formats`: CSV with
    the tool version and the meta as `#` lines, and JSON as {"meta": {key:
    value}, "rows": [{column: cell}]}.  The meta opens with the config's
    sha256, and every value and cell is printed by `format_value`."""
    meta = {key: format_value(val)
            for key, val in {"config-sha256": cfg.sha256(), **meta}.items()}
    cells = [list(map(format_value, row)) for row in rows]
    if "csv" in cfg.output.formats:
        lines = [f"# plprobe {__version__}", *(f"# {key}: {val}" for key, val in meta.items()),
                 ",".join(header), *map(",".join, cells)]
        (out / f"{name}.csv").write_text("\n".join(lines) + "\n")
    if "json" in cfg.output.formats:
        payload = {"meta": meta, "rows": [dict(zip(header, row)) for row in cells]}
        (out / f"{name}.json").write_text(
            json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _out_dir(cfg: ExperimentConfig, override: str | None) -> Path:
    directory = override or os.environ.get("PLPROBE_OUT") or cfg.output.directory
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _echo_config(cfg: ExperimentConfig, out: Path) -> None:
    (out / "config_echo.cfg").write_text(cfg.echo())


def _gamma_field(expr_text: str) -> pde.ConductivityField:
    expr = parse_expression(expr_text)
    return pde.ConductivityField(expr)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_wolff(cfg: ExperimentConfig, out: Path) -> int:
    p = cfg.physics.p
    prof = special.solve_wolff_profile(p)
    rows = list(zip(prof.t, prof.a, prof.aprime))
    write_table(cfg, out, "wolff", ("t", "a", "a_prime"), rows,
                {"p": p, "lambda": prof.lam, "K": prof.K, "a_mean": prof.a_mean})
    print(f"wolff: p = {p:g}, lambda = {prof.lam:.9g}, K = {prof.K:.9g}, "
          f"|a_mean| = {abs(prof.a_mean):.2e}")
    return EXIT_OK


def _probe_family(cfg: ExperimentConfig, mode, p) -> recovery.ProbeSpec:
    """The config's probe family (mode, p) at M = m_list[0]; the Wolff
    profile is built in real mode only."""
    return recovery.ProbeSpec(
        mode=mode, p=p, M=float(cfg.probe.m_list[0]), s=cfg.probe.s,
        cutoff=special.CutoffProfile(cfg.probe.cutoff),
        profile=special.solve_wolff_profile(p) if mode == "real" else None,
        rho=bottom_curve(cfg.domain))


def cmd_probe_check(cfg: ExperimentConfig, out: Path) -> int:
    mode, p = cfg.probe.mode, cfg.physics.p
    gamma = _gamma_field(cfg.physics.gamma)
    family = _probe_family(cfg, mode, p)
    gamma0 = float(gamma(np.zeros((1, 2)))[0])
    rows = []
    errs = []
    for M in cfg.probe.m_list:
        spec = replace(family, M=float(M))
        # an unconverged quadrature fails its row, as in `recover`
        try:
            est = recovery.quadrature_limit(gamma, spec)
        except recovery.QuadratureError as exc:
            rows.append((M, spec.N, False, math.nan, math.nan,
                         f"{type(exc).__name__}: {exc}"))
            continue
        errs.append(abs(est - gamma0))
        rows.append((M, spec.N, True, est, errs[-1], ""))
    ok = len(errs) == len(rows) and recovery.monotone_errors(errs)
    write_table(cfg, out, "probe_check",
                ("M", "N", "ok", "estimate", "abs_error", "message"), rows,
                {"mode": mode, "p": p, "gamma0-target": gamma0,
                 "contract": "pass" if ok else "fail"})
    final = f"{errs[-1]:.3e}" if errs else "nan"
    print(f"probe-check: {len(rows)} rows, final error {final}, "
          f"contract {'pass' if ok else 'FAIL'}")
    for M, _, row_ok, _, _, message in rows:
        if not row_ok:
            print(f"  M = {M:5g}: FAILED ({message})")
    return EXIT_OK if ok else EXIT_CONTRACT


def cmd_solve(cfg: ExperimentConfig, out: Path) -> int:
    mode, p = cfg.probe.mode, cfg.physics.p
    gamma = _gamma_field(cfg.physics.gamma)
    d = cfg.domain

    if cfg.physics.boundary_data == "probe":
        spec = _probe_family(cfg, mode, p)
        grid = recovery.probe_window_grid(
            spec, nodes_per_wavelength=d.nodes_per_wavelength,
            max_nodes=int(d.max_nodes))
        datum = recovery.build_probe(spec, grid)
    else:
        expr = parse_expression(cfg.physics.boundary_data)
        grid = pde.build_grid(domain_shape(d), d.resolution)
        vals = expr(grid.pts).astype(np.complex128)
        datum = pde.PField(vals if mode == "complex" else vals.real.astype(complex),
                           mode)

    sol = pde.solve_dirichlet(grid, gamma, p, datum, cfg.solver)
    steps = len(sol.energy_history)
    meta = {"mode": mode, "p": p, "energy": sol.energy, "iterations": steps,
            "factorizations": sol.factorizations,
            "weak_residual": sol.weak_residual,
            "regularized_residual": sol.regularized_residual}
    rows = [(x, y, v.real, v.imag) for (x, y), v in zip(grid.pts, sol.field.values)]
    write_table(cfg, out, "solution", ("x", "y", "re", "im"), rows, meta)
    conv = [(k, eps, E, dec) for k, (eps, E, dec) in enumerate(sol.energy_history)]
    write_table(cfg, out, "convergence", ("iteration", "eps", "energy", "decrement"),
                conv, {})
    print(f"solve: {grid.npt} nodes, {steps} Newton steps on "
          f"{sol.factorizations} factorizations, energy {sol.energy:.9g}, "
          f"residual {sol.weak_residual:.2e}")
    return EXIT_OK


def _recover_one(cfg: ExperimentConfig, mode, p, gamma_text):
    d = cfg.domain
    return recovery.recover_boundary_value(
        _gamma_field(gamma_text), _probe_family(cfg, mode, p),
        cfg.probe.m_list, settings=cfg.solver,
        nodes_per_wavelength=d.nodes_per_wavelength, max_nodes=int(d.max_nodes))


def _report_rows(report: recovery.RecoveryReport):
    rows = []
    for r in report.rows:
        rows.append((r.M, r.N, r.ok, r.estimate, r.quad_estimate,
                     abs(r.estimate - report.gamma0), r.correction, r.leading,
                     r.remainder.real, r.remainder.imag, r.pairing_imag,
                     r.newton_iterations, r.weak_residual, r.message))
    return rows


_REPORT_HEADER = ("M", "N", "ok", "estimate", "quad_estimate", "abs_error",
                  "correction", "leading", "remainder_re", "remainder_im",
                  "pairing_imag", "newton_iterations", "weak_residual", "message")


def cmd_recover(cfg: ExperimentConfig, out: Path) -> int:
    report = _recover_one(cfg, cfg.probe.mode, cfg.physics.p, cfg.physics.gamma)
    ok = report.monotone_contract()
    meta = {"mode": report.mode, "p": report.p, "s": report.s,
            "gamma0-target": report.gamma0, "extrapolated": report.extrapolated,
            "final_relative_error": report.final_relative_error(),
            "contract": "pass" if ok else "fail"}
    write_table(cfg, out, "report", _REPORT_HEADER, _report_rows(report), meta)
    lines = [f"recovery of gamma at the base boundary point (target {report.gamma0:.9g})",
             f"mode {report.mode}, p = {report.p:g}, N = M^{report.s:g}"]
    for r in report.rows:
        if r.ok:
            lines.append(f"  M = {r.M:5g}: estimate {r.estimate:.6f}  "
                         f"|error| {abs(r.estimate - report.gamma0):.2e}  "
                         f"correction {r.correction:.2e}")
        else:
            lines.append(f"  M = {r.M:5g}: FAILED ({r.message})")
    lines.append(f"extrapolated: {report.extrapolated:.6f}")
    lines.append(f"monotone-error contract: {'pass' if ok else 'FAIL'}")
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_OK if ok else EXIT_CONTRACT


def cmd_sweep(cfg: ExperimentConfig, out: Path) -> int:
    p_list = cfg.sweep.p_list or (cfg.physics.p,)
    mode_list = cfg.sweep.mode_list or (cfg.probe.mode,)
    gamma_list = cfg.sweep.gamma_list or (cfg.physics.gamma,)
    combos = [(p, mode, gtxt) for p in p_list for mode in mode_list
              for gtxt in gamma_list]
    rows = []
    any_contract_fail = False
    for p, mode, gtxt in combos:
        # per-M failures are recorded in the report rows; anything else
        # raised here is an execution error and ends the sweep
        rep = _recover_one(cfg, mode, p, gtxt)
        ok = rep.monotone_contract()
        any_contract_fail = any_contract_fail or not ok
        est = rep.rows[-1].estimate if rep.rows else math.nan
        message = "; ".join(f"M={r.M:g}: {r.message}" for r in rep.rows if not r.ok)
        rows.append((p, mode, gtxt, all(r.ok for r in rep.rows), est,
                     rep.gamma0, rep.final_relative_error(),
                     "pass" if ok else "fail", message))
    write_table(cfg, out, "sweep_summary",
                ("p", "mode", "gamma", "all_rows_ok", "final_estimate",
                 "gamma0_target", "final_relative_error", "contract", "message"),
                rows, {"combos": len(combos)})
    print(f"sweep: {len(combos)} combos, contract "
          f"{'pass' if not any_contract_fail else 'FAIL'}")
    return EXIT_OK if not any_contract_fail else EXIT_CONTRACT


@dataclass
class SuiteCheck:
    """One property-suite verdict: passes iff margin >= 0 (NaN fails)."""

    suite: str
    name: str
    margin: float
    detail: str

    @property
    def passed(self) -> bool:
        return self.margin >= 0.0


def _dn_suite(cfg: ExperimentConfig):
    checks = []
    grid = pde.build_grid(pde.Rectangle(half_width=1.0, height=1.0), 24)
    gamma = _gamma_field(cfg.physics.gamma)
    gamma.validate_on(grid)

    def datum(mode):
        def fn(x):
            r = np.sqrt(x[:, 0] ** 2 + x[:, 1] ** 2)
            eta = np.clip(1.5 - 2.0 * r, 0.0, 1.0)
            osc = np.exp(1j * 4.0 * x[:, 0]) if mode == "complex" else np.cos(4.0 * x[:, 0])
            return eta * osc * np.exp(-4.0 * x[:, 1])
        return pde.PField.from_function(grid, fn, mode)

    f = datum(cfg.probe.mode)
    for p in (1.5, 2.0, 3.0):
        for t in (0.1, 2.0, 10.0):
            dev = dnmap.homogeneity_check(grid, gamma, p, f, t)
            checks.append(SuiteCheck("dn", f"homogeneity[p={p:g},t={t:g}]",
                                     1e-4 - dev, f"rel dev = {dev:.3e}"))
        dev = dnmap.constant_shift_check(grid, gamma, p, f,
                                         1.0 if f.mode == "real" else 1.0 + 0.5j, 0.5)
        checks.append(SuiteCheck("dn", f"constant_shift[p={p:g}]",
                                 1e-4 - dev, f"rel dev = {dev:.3e}"))
        slope = dnmap.self_pairing_slope(grid, gamma, p, f, [1e-1, 1e-2, 1e-3])
        dev = abs(slope - p) / p
        checks.append(SuiteCheck("dn", f"pairing_slope[p={p:g}]",
                                 0.01 - dev, f"slope = {slope:.6f}"))
        margin = dnmap.pairing_bound_margin(grid, gamma, p, f)
        checks.append(SuiteCheck("dn", f"boundedness[p={p:g}]",
                                 1.0 - margin, f"|pairing|/bound = {margin:.4f}"))
    return checks


def _special_suite():
    checks = []
    for p in (1.5, 2.0, 3.0):
        fld = special.make_complex_exponential(p, N=3.0)
        re_id, im_id = fld.identity_residual()
        dev = max(abs(re_id), abs(im_id))
        checks.append(SuiteCheck("special", f"exponential_identity[p={p:g}]",
                                 1e-13 - dev, f"dev = {dev:.2e}"))
        rng = np.random.default_rng(11)
        pts = np.column_stack([rng.uniform(-1, 1, 10), rng.uniform(0.05, 1.0, 10)])
        worst = max(special.p_laplace_residual(fld.gradient, x, p, 1e-3 / fld.N, fld.N)
                    for x in pts)
        checks.append(SuiteCheck("special", f"exponential_residual[p={p:g}]",
                                 1e-5 - worst, f"max residual = {worst:.2e}"))
    prof = special.solve_wolff_profile(2.0)
    dev = abs(prof.lam - 2.0 * math.pi)
    checks.append(SuiteCheck("special", "wolff_p2_period",
                             1e-8 - dev, f"|lam - 2pi| = {dev:.2e}"))
    devK = abs(prof.K - 1.0)
    checks.append(SuiteCheck("special", "wolff_p2_K",
                             1e-8 - devK, f"|K - 1| = {devK:.2e}"))
    return checks


def cmd_verify(cfg: ExperimentConfig, out: Path, suite: str) -> int:
    checks = []
    if suite in ("all", "special"):
        checks.extend(_special_suite())
    if suite in ("all", "dn"):
        checks.extend(_dn_suite(cfg))
    rows = [(c.suite, c.name, c.passed, c.margin, c.detail) for c in checks]
    ok = all(c.passed for c in checks)
    write_table(cfg, out, "verify", ("suite", "check", "passed", "margin", "detail"),
                rows, {"contract": "pass" if ok else "fail"})
    for c in checks:
        print(f"{'PASS' if c.passed else 'FAIL'}  {c.suite:8s} {c.name}  ({c.detail})")
    print(f"verify: {len(checks)} checks, "
          f"{sum(1 for c in checks if not c.passed)} failures")
    return EXIT_OK if ok else EXIT_CONTRACT


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="plprobe",
        description="Boundary conductivity recovery for the weighted p-Laplace "
                    "equation via localized oscillatory probes.")
    ap.add_argument("--version", action="version", version=f"plprobe {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", type=str, default=None,
                        help="config file (defaults apply when omitted)")
        sp.add_argument("--out", type=str, default=None,
                        help="output directory (overrides config and PLPROBE_OUT)")
        return sp

    wol = add("wolff", "solve the oscillatory profile and emit one period as CSV")
    wol.add_argument("--p", type=float, default=None, help="exponent p > 1")
    add("probe-check", "grid-free quadrature estimates of gamma(0) (no PDE)")
    add("solve", "solve one Dirichlet problem and write the solution field")
    add("recover", "probe sequence, PDE solves, recovery report")
    ver = add("verify", "run property suites and emit a pass/fail report")
    ver.add_argument("--suite", choices=("all", "special", "dn"),
                     default=None, help="run one suite, or all (default: special)")
    add("sweep", "cartesian product of (p, mode, gamma) recoveries")
    return ap


def run_command(name: str, cfg: ExperimentConfig, out_dir: Path,
                suite: str | None = None) -> int:
    _echo_config(cfg, out_dir)
    if name == "wolff":
        return cmd_wolff(cfg, out_dir)
    if name == "probe-check":
        return cmd_probe_check(cfg, out_dir)
    if name == "solve":
        return cmd_solve(cfg, out_dir)
    if name == "recover":
        return cmd_recover(cfg, out_dir)
    if name == "verify":
        return cmd_verify(cfg, out_dir, suite or "special")
    if name == "sweep":
        return cmd_sweep(cfg, out_dir)
    raise ValueError(f"unknown command {name!r}")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage or the message
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        text = Path(args.config).read_text() if args.config else ""
        cfg = parse_config(text)
        if args.command == "wolff" and args.p is not None:
            cfg.physics.p = args.p
            if not cfg.physics.p > 1.0:
                raise ConfigError("--p must exceed 1")
        out = _out_dir(cfg, args.out)
        return run_command(args.command, cfg, out,
                           suite=getattr(args, "suite", None))
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # execution failure, not a contract violation
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
