import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from plprobe import cli
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


def test_usage_errors_exit_1(tmp_path, capsys):
    # argparse would exit 2, which is reserved for a violated run contract
    assert run(["verify", "--dn", "--out", tmp_path]) == 1
    assert run(["nosuch"]) == 1
    assert run(["recover", "--config"]) == 1
    assert run(["--version"]) == 0
    cfg = tmp_path / "rule.cfg"
    cfg.write_text("[domain]\nrule = fixed\n")
    assert run(["recover", "--config", cfg, "--out", tmp_path]) == 1
    assert "unknown key 'rule'" in capsys.readouterr().err


def test_verify_command(tmp_path):
    code = run(["verify", "--suite", "vecp", "--out", tmp_path])
    assert code == 0
    text = (tmp_path / "verify.csv").read_text()
    assert "# contract: pass" in text
    body = [l for l in text.splitlines() if not l.startswith("#")]
    assert body[0] == "suite,check,passed,margin,detail"
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
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("[physics]\ngamma = 1 + x2/2\n"
                   "[probe]\nm_list = 4, 8\n"
                   "[sweep]\np_list = 3\nmode_list = complex, real\n"
                   "max_workers = 2\n")
    assert run(["sweep", "--config", cfg, "--out", tmp_path]) == 0
    text = (tmp_path / "sweep_summary.csv").read_text()
    body = [l for l in text.splitlines() if not l.startswith("#")]
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
    assert message.startswith("M=8: ValueError: grid would need ~")
    assert "M=4" not in message


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
