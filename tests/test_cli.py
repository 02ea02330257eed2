import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from plprobe import cli, pde, recovery, special
from plprobe.config import parse_config

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

RECOVER_DEMO = REPO / "configs" / "recover_demo.cfg"
PROBE_CHECK_DEMO = REPO / "configs" / "probe_check_demo.cfg"


def run(args):
    return cli.main([str(a) for a in args])


def test_wolff_command_emits_period_csv(tmp_path):
    code = run(["wolff", "--p", "2", "--out", tmp_path])
    assert code == 0
    text = (tmp_path / "wolff.csv").read_text()
    assert text.startswith("# plprobe")
    lam_line = next(l for l in text.splitlines() if l.startswith("# lambda:"))
    lam = float(lam_line.split(":")[1])
    assert lam == pytest.approx(2.0 * math.pi, abs=1e-8)
    header = next(l for l in text.splitlines() if not l.startswith("#"))
    assert header == "t,a,a_prime"


def test_wolff_rejects_bad_p(tmp_path):
    assert run(["wolff", "--p", "1", "--out", tmp_path]) == 1


def test_missing_config_is_an_error(tmp_path):
    assert run(["recover", "--config", tmp_path / "nope.cfg",
                "--out", tmp_path]) == 1


def test_invalid_gamma_exits_1(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[physics]\ngamma = -1\n")
    assert run(["recover", "--config", cfg, "--out", tmp_path]) == 1


def test_invalid_max_nodes_exits_1_before_any_work(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[domain]\nmax_nodes = -5\n[probe]\nm_list = 4\n")
    assert run(["recover", "--config", cfg, "--out", tmp_path]) == 1
    assert "domain.max_nodes" in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()


def test_usage_errors_exit_1(tmp_path, capsys):
    # argparse would exit 2, which is reserved for a violated run contract
    assert run(["verify", "--dn", "--out", tmp_path]) == 1
    assert run(["verify", "--suite", "vecp", "--out", tmp_path]) == 1
    assert run(["nosuch"]) == 1
    assert run(["recover", "--config"]) == 1
    assert run(["--version"]) == 0
    for key in ("rule = fixed", "window_margin = 2"):
        cfg = tmp_path / "removed.cfg"
        cfg.write_text(f"[domain]\n{key}\n")
        assert run(["recover", "--config", cfg, "--out", tmp_path]) == 1
        assert f"unknown key '{key.split()[0]}'" in capsys.readouterr().err


def test_verify_command(tmp_path):
    code = run(["verify", "--suite", "special", "--out", tmp_path])
    assert code == 0
    text = (tmp_path / "verify.csv").read_text()
    assert "# contract: pass" in text
    body = [l for l in text.splitlines() if not l.startswith("#")]
    assert body[0] == "suite,check,passed,margin,detail"
    assert len(body) > 1 and all(l.startswith("special,") for l in body[1:])
    assert all(",true," in l for l in body[1:])


def test_verify_dn_suite(tmp_path):
    code = run(["verify", "--suite", "dn", "--out", tmp_path])
    assert code == 0
    text = (tmp_path / "verify.csv").read_text()
    assert "homogeneity" in text and "pairing_slope" in text


def test_solve_command_writes_solution_and_log(tmp_path):
    cfg = tmp_path / "solve.cfg"
    cfg.write_text("[physics]\np = 3\ngamma = 1 + x2/2\n"
                   "[probe]\nmode = complex\nm_list = 4\n")
    assert run(["solve", "--config", cfg, "--out", tmp_path]) == 0
    sol = (tmp_path / "solution.csv").read_text().splitlines()
    header = next(l for l in sol if not l.startswith("#"))
    assert header == "x,y,re,im"
    conv = (tmp_path / "convergence.csv").read_text()
    assert "iteration,eps,energy,decrement" in conv


def test_solve_rejects_non_finite_datum(tmp_path, capsys):
    cfg = tmp_path / "solve.cfg"
    cfg.write_text("[physics]\np = 3\nboundary_data = 1/x2\n"
                   "[probe]\nmode = real\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["solve", "--config", cfg, "--out", tmp_path]) == 1
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert re.search(r"datum is not finite at node \d+: datum\(.*\) = \(inf", err)
    assert "singular" not in err


def _csv_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, l.split(","))) for l in lines[1:]]


def test_recover_curved_bottom_pins_report(tmp_path):
    # real mode, p = 3, g = -x1^2/10, M = 4, 8; values recorded before the
    # bottom boundary became one type
    assert run(["recover", "--config", REPO / "configs" / "recover_curved.cfg",
                "--out", tmp_path]) == 0
    rows = _csv_rows(tmp_path / "report.csv")
    expected = {
        "estimate": (0.93608783485624036, 1.0105398095008438),
        "quad_estimate": (1.0136253589714497, 1.0148767628948479),
        "leading": (1.0311932505594532, 1.0388869177875859),
        "remainder_re": (-0.095105415703212834, -0.028347108286742063),
        "correction": (0.0084217272572666268, 0.0025297707215101838),
    }
    assert [r["M"] for r in rows] == ["4", "8"]
    for column, values in expected.items():
        for row, value in zip(rows, values):
            assert float(row[column]) == pytest.approx(value, rel=1e-12), column
    # M = 8 starts from its half-resolution solution, M = 4 from the probe
    assert [r["newton_iterations"] for r in rows] == ["8", "5"]


def test_recover_curved_bottom_beyond_solve_rectangle(tmp_path):
    # the probe window of M = 4 reaches |x| = 0.707; the bottom graph is
    # defined there whatever the keys of the solve rectangle say
    cfg = tmp_path / "curved.cfg"
    cfg.write_text("[domain]\nbottom = -x1^2/10\nhalf_width = 0.1\nheight = 0.1\n"
                   "[physics]\np = 3\ngamma = 1 + x2/2\n"
                   "[probe]\nmode = real\nm_list = 4\n")
    assert run(["recover", "--config", cfg, "--out", tmp_path]) == 0
    assert _csv_rows(tmp_path / "report.csv")[0]["ok"] == "true"


def test_solve_curved_bottom_row_lies_on_graph(tmp_path):
    cfg = tmp_path / "solve.cfg"
    cfg.write_text("[domain]\nbottom = -x1^2/10\nresolution = 16\n"
                   "[physics]\np = 3\nboundary_data = x1 + x2^2\n"
                   "[probe]\nmode = real\n")
    assert run(["solve", "--config", cfg, "--out", tmp_path]) == 0
    rows = _csv_rows(tmp_path / "solution.csv")
    x = np.array([float(r["x"]) for r in rows])
    y = np.array([float(r["y"]) for r in rows])
    bottom = slice(0, np.unique(x).size)  # x runs fastest, bottom row first
    assert x[bottom][0] == -1.0 and x[bottom][-1] == 1.0
    assert np.array_equal(y[bottom], -x[bottom] ** 2 / 10.0)


def test_solve_half_disc_with_curved_bottom_exits_1(tmp_path, capsys):
    # the half disc is meshed with a flat diameter, so a bottom curve would
    # be dropped without a word
    cfg = tmp_path / "solve.cfg"
    cfg.write_text("[domain]\nshape = half_disc\nbottom = -x1^2/10\nresolution = 16\n"
                   "[physics]\np = 3\nboundary_data = x1 + x2^2\n"
                   "[probe]\nmode = real\n")
    assert run(["solve", "--config", cfg, "--out", tmp_path]) == 1
    err = capsys.readouterr().err
    assert "domain.bottom" in err and "domain.shape" in err
    assert not (tmp_path / "solution.csv").exists()


SOLVE_EXPRESSION = ("[domain]\nshape = half_disc\nresolution = 16\n"
                    "[physics]\np = 3\nboundary_data = x1 + x2^2\n"
                    "[probe]\nmode = real\n")


def test_solve_expression_datum_builds_no_wolff_profile(tmp_path, monkeypatch):
    # only the probe datum needs the real-mode Wolff profile; building it
    # anyway leaves every output byte as it is
    cfg = tmp_path / "solve.cfg"
    cfg.write_text(SOLVE_EXPRESSION)
    calls = []
    build = special.solve_wolff_profile

    def counting(p, *args, **kwargs):
        calls.append(p)
        return build(p, *args, **kwargs)

    monkeypatch.setattr(special, "solve_wolff_profile", counting)
    assert run(["solve", "--config", cfg, "--out", tmp_path / "lazy"]) == 0
    assert calls == []
    ingredients = cli._recovery_ingredients
    monkeypatch.setattr(cli, "_recovery_ingredients", lambda cfg, _, *args:
                        ingredients(cfg, special.solve_wolff_profile, *args))
    assert run(["solve", "--config", cfg, "--out", tmp_path / "eager"]) == 0
    assert calls == [3.0]
    for name in ("config_echo.cfg", "solution.csv", "convergence.csv"):
        assert ((tmp_path / "lazy" / name).read_bytes()
                == (tmp_path / "eager" / name).read_bytes())


# scipy subpackages that no command loads: the Wolff profile is in closed
# form and c_p's slice integral is a fixed Gauss rule
DEFERRED_SCIPY = {"scipy.integrate", "scipy.interpolate", "scipy.optimize"}


def _fresh_imports(args, cwd):
    """Modules that `python -X importtime *args` imports in a fresh
    interpreter, which must exit 0."""
    path = [str(REPO / "src"), *os.environ.get("PYTHONPATH", "").split(os.pathsep)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run([sys.executable, "-X", "importtime", *map(str, args)],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def test_cli_import_loads_no_scipy(tmp_path):
    loaded = _fresh_imports(["-c", "import plprobe.cli"], tmp_path)
    assert "plprobe.cli" in loaded
    assert not {m for m in loaded if m == "scipy" or m.startswith("scipy.")}
    # nor a thread pool: every command runs in the calling thread
    assert "concurrent.futures" not in loaded


def test_solve_expression_datum_loads_no_deferred_scipy(tmp_path):
    # the band factorization loads scipy.linalg; nothing needs the rest
    cfg = tmp_path / "solve.cfg"
    cfg.write_text(SOLVE_EXPRESSION)
    loaded = _fresh_imports(["-m", "plprobe", "solve", "--config", cfg,
                             "--out", tmp_path], tmp_path)
    assert "plprobe.pde" in loaded and (tmp_path / "solution.csv").exists()
    assert not loaded & DEFERRED_SCIPY


@pytest.mark.parametrize("command", (
    ["probe-check", "--config", PROBE_CHECK_DEMO],  # real mode
    ["recover", "--config", RECOVER_DEMO],  # complex mode
    ["wolff", "--p", "3"]), ids=("probe-check", "recover", "wolff"))
def test_probe_commands_load_no_deferred_scipy(tmp_path, command):
    loaded = _fresh_imports(["-m", "plprobe", *command, "--out", tmp_path], tmp_path)
    assert "plprobe.special" in loaded and any(tmp_path.glob("*.csv"))
    assert not loaded & DEFERRED_SCIPY


def test_recover_nonpositive_gamma_in_window_exits_1(tmp_path, capsys):
    # the dip passes the config's 41 x 41 sampling of gamma, so it is first
    # seen on the M = 4 probe window; that is an input error, not a row
    cfg = tmp_path / "dip.cfg"
    cfg.write_text("[physics]\np = 3\n"
                   "gamma = 1 - 2*exp(-1500*((x1-0.025)^2 + (x2-0.0125)^2))\n"
                   "[probe]\nm_list = 4\n")
    assert run(["recover", "--config", cfg, "--out", tmp_path]) == 1
    assert "ValueError: conductivity must be positive" in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()


def test_probe_check_exit_code_contract(tmp_path):
    assert run(["probe-check", "--config", PROBE_CHECK_DEMO,
                "--out", tmp_path]) == 0
    text = (tmp_path / "probe_check.csv").read_text()
    assert "# contract: pass" in text


def test_recover_byte_determinism(tmp_path, recover_demo_run):
    code, a = recover_demo_run
    b = tmp_path / "b"
    assert code == 0
    assert run(["recover", "--config", RECOVER_DEMO, "--out", b]) == 0
    for name in ("report.csv", "summary.txt", "config_echo.cfg"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_recover_matches_golden(recover_demo_run, golden_mismatches):
    code, out = recover_demo_run
    assert code == 0
    for name in ("report.csv", "summary.txt", "config_echo.cfg"):
        assert golden_mismatches(out / name,
                                 GOLDEN / "recover_demo" / name) == []


def test_probe_check_matches_golden(tmp_path, golden_mismatches):
    assert run(["probe-check", "--config", PROBE_CHECK_DEMO,
                "--out", tmp_path]) == 0
    for name in ("probe_check.csv", "config_echo.cfg"):
        assert golden_mismatches(tmp_path / name,
                                 GOLDEN / "probe_check_demo" / name) == []


def _edit_first_row(text, column, edit):
    lines = text.splitlines(keepends=True)
    header, row = [i for i, l in enumerate(lines) if not l.startswith("#")][:2]
    col = lines[header].rstrip("\n").split(",").index(column)
    fields = lines[row].split(",")
    fields[col] = edit(fields[col])
    lines[row] = ",".join(fields)
    return "".join(lines)


PERTURBATIONS = {
    "estimate-1e-12": lambda t: _edit_first_row(
        t, "estimate", lambda v: format(float(v) * (1 + 1e-12), ".17g")),
    "header-name": lambda t: t.replace(",abs_error", ",abs_err", 1),
    "dropped-row": lambda t: "".join(t.splitlines(keepends=True)[:-1]),
    "newton-iterations": lambda t: _edit_first_row(
        t, "newton_iterations", lambda v: str(int(v) + 1)),
    "config-sha256": lambda t: re.sub(
        r"(# config-sha256: \w{63})(\w)",
        lambda m: m[1] + ("1" if m[2] == "0" else "0"), t),
}
PERTURBED_GOLDENS = [("recover_demo/report.csv", p) for p in PERTURBATIONS] + [
    ("probe_check_demo/probe_check.csv", p)
    for p in PERTURBATIONS if p != "newton-iterations"]


@pytest.mark.parametrize("golden,perturbation", PERTURBED_GOLDENS)
def test_golden_comparator_rejects_perturbed_golden(
        tmp_path, golden_mismatches, golden, perturbation):
    gold = GOLDEN / golden
    changed = PERTURBATIONS[perturbation](gold.read_text())
    assert changed != gold.read_text()
    copy = tmp_path / gold.name
    copy.write_text(changed)
    assert golden_mismatches(gold, gold) == []
    assert golden_mismatches(copy, gold) != []


def test_golden_comparator_accepts_measured_drift(tmp_path, golden_mismatches):
    # probe_check.csv rows as written with NPY_DISABLE_CPU_FEATURES set: the
    # largest drift from the golden measured across kernel settings.
    gold = GOLDEN / "probe_check_demo" / "probe_check.csv"
    drifted = gold.read_text().replace(
        "0.97969566546402886,0.020304334535971136",
        "0.97969566546402853,0.020304334535971469").replace(
        "1.0115864452355641,0.011586445235564069",
        "1.0115864452355636,0.011586445235563625").replace(
        "1.0037468273872694,0.0037468273872693914",
        "1.0037468273872687,0.0037468273872687252")
    copy = tmp_path / gold.name
    copy.write_text(drifted)
    assert copy.read_bytes() != gold.read_bytes()
    assert golden_mismatches(copy, gold) == []


def test_config_echo_round_trip(recover_demo_run):
    code, out = recover_demo_run
    assert code == 0
    echo_text = (out / "config_echo.cfg").read_text()
    cfg = parse_config(RECOVER_DEMO.read_text())
    assert parse_config(echo_text) == cfg
    assert f"# config-sha256: {cfg.sha256()}" in (out / "report.csv").read_text()


def test_output_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("PLPROBE_OUT", str(tmp_path / "env_dir"))
    assert run(["wolff", "--p", "2"]) == 0
    assert (tmp_path / "env_dir" / "wolff.csv").exists()


def test_sweep_summary(tmp_path):
    # the Newton factorizations pin scipy's process-wide OpenBLAS thread
    # count; the sweep must leave the count as it found it
    lib = pde._scipy_openblas()

    def openblas_threads():
        return None if lib is None else lib.scipy_openblas_get_num_threads()

    threads = openblas_threads()
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("[physics]\ngamma = 1 + x2/2\n"
                   "[probe]\nm_list = 4, 8\n"
                   "[sweep]\np_list = 3\nmode_list = complex, real\n")
    assert run(["sweep", "--config", cfg, "--out", tmp_path]) == 0
    assert openblas_threads() == threads
    body = [l for l in (tmp_path / "sweep_summary.csv").read_text().splitlines()
            if not l.startswith("#")]
    assert len(body) == 3  # header + 2 combos
    assert all(",pass," in l for l in body[1:])


def test_sweep_reports_failed_row_messages(tmp_path):
    # M = 4 needs ~1,800 nodes and M = 8 ~6,900: only the M = 8 row fails
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("[domain]\nmax_nodes = 3000\n"
                   "[probe]\nm_list = 4, 8\n[sweep]\np_list = 3\n")
    assert run(["sweep", "--config", cfg, "--out", tmp_path]) == 2
    rows = [l for l in (tmp_path / "sweep_summary.csv").read_text().splitlines()
            if not l.startswith("#")]
    assert len(rows) == 2
    message = rows[1].split(",", 8)[8]
    assert message.startswith("M=8: GridBudgetError: grid would need ~")
    assert "M=4" not in message


def test_recover_line_search_failure_is_a_failed_row(tmp_path, monkeypatch):
    monkeypatch.setattr(pde, "MAX_BACKTRACKS", 0)
    cfg = tmp_path / "recover.cfg"
    cfg.write_text("[probe]\nm_list = 4\n")
    assert run(["recover", "--config", cfg, "--out", tmp_path]) == 2
    summary = (tmp_path / "summary.txt").read_text()
    assert "M =     4: FAILED (SolverConvergenceError: line search failed" in summary


def test_recover_programming_error_exits_1(tmp_path, monkeypatch, capsys):
    # only the solver, resolution, quadrature and grid-budget failures are
    # per-M rows; a bare ValueError is an execution error
    def broken(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(recovery, "build_probe", broken)
    cfg = tmp_path / "recover.cfg"
    cfg.write_text("[probe]\nm_list = 4\n")
    assert run(["recover", "--config", cfg, "--out", tmp_path]) == 1
    assert "ValueError: boom" in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()


def test_sweep_programming_error_exits_1(tmp_path, monkeypatch):
    # per-M failures are recorded in the report; anything else escaping a
    # combo is an execution error, not a violated contract
    def broken(*args, **kwargs):
        raise TypeError("programming error")

    monkeypatch.setattr(cli, "_recover_one", broken)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("[probe]\nm_list = 4, 8\n[sweep]\np_list = 3\n")
    assert run(["sweep", "--config", cfg, "--out", tmp_path]) == 1
    assert not (tmp_path / "sweep_summary.csv").exists()
