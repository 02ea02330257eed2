import dataclasses
import random
import re
from pathlib import Path

import numpy as np
import pytest

import oracles
from plprobe import config, pde, special
from plprobe.config import (ConfigError, ExperimentConfig, parse_config,
                            parse_expression)

README = Path(__file__).resolve().parent.parent / "README.md"


# ---------------------------------------------------------------------------
# Expression language
# ---------------------------------------------------------------------------


def test_expression_arithmetic():
    e = parse_expression("1 + x2/2")
    pts = np.array([[0.0, 0.0], [1.0, 2.0]])
    assert np.allclose(e(pts), [1.0, 2.0])


def test_expression_power_right_associative():
    e = parse_expression("2^3^2")  # 2^(3^2) = 512
    assert e(np.zeros((1, 2)))[0] == pytest.approx(512.0)


def test_expression_functions_and_unary():
    e = parse_expression("exp(-x2) * cos(x1) + abs(-2)")
    pts = np.array([[0.5, 1.0]])
    assert e(pts)[0] == pytest.approx(np.exp(-1.0) * np.cos(0.5) + 2.0)


def test_expression_derivative():
    e = parse_expression("x1^2/4 + sin(2*x1)")
    d = e.derivative("x1")
    pts = np.array([[0.3, 0.0]])
    assert d(pts)[0] == pytest.approx(0.3 / 2.0 + 2.0 * np.cos(0.6), rel=1e-12)


def test_expression_errors_carry_position():
    with pytest.raises(ConfigError, match="column 5"):
        parse_expression("1 + $")
    with pytest.raises(ConfigError, match="unknown name"):
        parse_expression("foo(x1)")
    with pytest.raises(ConfigError):
        parse_expression("1 +")


def _tree(text):
    expr = parse_expression(text)
    return expr._node, expr.variables


def _error_column(parse, text):
    with pytest.raises(ConfigError) as info:
        parse(text)
    return re.search(r"column \d+", str(info.value)).group()


def _random_expression(rng, depth):
    """Text of one expression of the grammar: nested operators with random
    spacing, unary signs, calls, parentheses and right-nested powers."""
    def sp():
        return rng.choice(("", "", " ", "  "))

    def atom():
        k = rng.randrange(6)
        if k < 2:
            return rng.choice(("x1", "x2"))
        if k == 2:
            return str(rng.randrange(100))
        if k == 3:
            return f"{rng.uniform(0.0, 10.0):.{rng.randrange(1, 13)}f}"
        if k == 4:
            return rng.choice(("1e-3", "2.5E2", ".5", "5.", "1.e1", "3e+0"))
        return f"{rng.uniform(0.5, 2.0):.12f} * (1 + {rng.uniform(-0.25, 0.0):.12f}" \
               f" * x1 + {rng.uniform(0.5, 1.0):.12f} * x2)"

    if depth == 0 or rng.random() < 0.2:
        return atom()
    sub = _random_expression(rng, depth - 1)
    k = rng.randrange(6)
    if k < 2:
        op = rng.choice("+-*/^")
        return sub + sp() + op + sp() + _random_expression(rng, depth - 1)
    if k == 2:
        return rng.choice("-+") + sp() + sub
    if k == 3:
        return "(" + sp() + sub + sp() + ")"
    if k == 4:
        return rng.choice(("exp", "sin", "cos", "abs")) + sp() + "(" + sub + ")"
    return sp().join((atom(), "^", rng.choice(("", "-")) + atom(), "^", sub))


def test_expression_trees_match_the_reference_parser():
    rng = random.Random(20111016)
    for _ in range(10_000):
        text = _random_expression(rng, 5)
        assert _tree(text) == oracles.reference_expression_tree(text), text


@pytest.mark.parametrize("text", ("2^3^2", "-x1^2/10", "2^-1", "--x1", "+x1",
                                  "9" * 401, "1.5 * (1 + -0.125 * x1 + 0.5 * x2)",
                                  "exp (x1)", "(1\n+ 2)"))
def test_expression_fixed_trees_match_the_reference_parser(text):
    assert _tree(text) == oracles.reference_expression_tree(text)


def test_expression_long_integer_literal_reads_as_inf():
    # float() of the 401 digits; the int that Python parses overflows float()
    assert _tree("9" * 401) == (("num", float("inf")), frozenset())


@pytest.mark.parametrize("text", ("1_000", "0x10", "1j", "x1**2", "True",
                                  "x1 if x2 else 1", "x1 // 2", "x1.real", "not x1",
                                  "(exp)(x1)", "exp()", "exp(*x1)", "1 # note"))
def test_expression_outside_the_grammar_rejected(text):
    with pytest.raises(ConfigError, match="column"):
        parse_expression(text)
    with pytest.raises(ConfigError):
        oracles.reference_expression_tree(text)


@pytest.mark.parametrize("text", ("x1^2 + $", "x1^2 + )", "x1**2", "2^3^2 +",
                                  "x1^2 x2", "x1^2 * (2 +)", "2^^3", "x1^2 + foo"))
def test_expression_error_columns_count_in_the_given_text(text):
    # each ^ is two characters to Python's parser and one in the message
    assert (_error_column(parse_expression, text)
            == _error_column(oracles.reference_expression_tree, text))


# ---------------------------------------------------------------------------
# Config parsing and validation
# ---------------------------------------------------------------------------


def test_empty_config_gets_defaults():
    cfg = parse_config("")
    assert cfg.physics.p == 2.0
    assert cfg.probe.m_list == (4.0, 8.0)


def test_minimal_config_round_trip():
    cfg = parse_config("[physics]\np = 2\ngamma = 1\n[probe]\nm_list = 4, 8\n")
    echo = cfg.echo()
    cfg2 = parse_config(echo)
    assert cfg2 == cfg
    assert cfg2.echo() == echo  # canonical form is a fixed point
    assert cfg.sha256() == cfg2.sha256()


def test_unknown_section_and_key_errors():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("[nonsense]\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[physics]\nquux = 3\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[domain]\nrule = fixed\n")
    with pytest.raises(ConfigError, match="outside"):
        parse_config("p = 3\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("[physics]\nthis is not a pair\n")


def test_gamma_positivity_names_the_point():
    with pytest.raises(ConfigError, match=r"gamma\(x1="):
        parse_config("[physics]\ngamma = -1\n")
    with pytest.raises(ConfigError, match="positive"):
        parse_config("[physics]\ngamma = x2 - 0.5\n")


def test_gamma_positivity_is_checked_on_the_domain():
    # a half disc: the corners of its box lie outside it
    cfg = parse_config("[domain]\nshape = half_disc\n"
                       "[physics]\ngamma = 1.5 - x1^2 - x2^2\n")
    assert cfg.physics.gamma == "1.5 - x1^2 - x2^2"
    with pytest.raises(ConfigError, match=r"gamma\(x1=0, x2=0\) = -0\.1"):
        parse_config("[domain]\nshape = half_disc\n"
                     "[physics]\ngamma = x1^2 + x2^2 - 0.1\n")
    # a curved bottom: the domain reaches down to x2 = g(x1) = -1/2
    bottom = "[domain]\nbottom = -x1^2/2\n[probe]\nmode = real\n"
    parse_config(bottom + "[physics]\ngamma = 1 + x2\n")
    with pytest.raises(ConfigError, match=r"gamma\(x1=-1, x2=-0\.5\) = -0\.25"):
        parse_config(bottom + "[physics]\ngamma = 1 + 2.5*x2\n")


def _gamma_samples(monkeypatch, text, gamma):
    """The points at which parsing `text` evaluates the conductivity `gamma`."""
    samples, evaluate = [], config.Expression.__call__

    def recording(expr, pts):
        if expr.text == gamma:
            samples.append(np.asarray(pts))
        return evaluate(expr, pts)

    monkeypatch.setattr(config.Expression, "__call__", recording)
    parse_config(text + f"[physics]\ngamma = {gamma}\n")
    (points,) = samples
    return points


@pytest.mark.parametrize("half_width, height, bottom", (
    (0.75, 0.5, ""), (1.0, 1.0, "-x1^2/2")), ids=("flat", "curved"))
def test_rectangle_positivity_samples_are_the_earlier_lattice(monkeypatch, half_width,
                                                              height, bottom):
    text = (f"[domain]\nhalf_width = {half_width}\nheight = {height}\nbottom = {bottom}\n"
            "[probe]\nmode = real\n")
    samples = _gamma_samples(monkeypatch, text, "1 + x2")
    assert np.array_equal(samples, oracles.positivity_lattice(half_width, height, bottom))


def test_half_disc_positivity_samples_are_points_of_the_disc(monkeypatch):
    # the mesh's node placement on 40 x 40 cells, through the concentric map
    samples = _gamma_samples(monkeypatch, "[domain]\nshape = half_disc\nradius = 2\n",
                             "1 + x2")
    assert np.array_equal(samples, pde.lattice_points(pde.HalfDisc(radius=2.0), 40, 40))
    assert samples.shape == (41 * 41, 2) and np.all(samples[:, 1] >= 0.0)
    assert np.hypot(samples[:, 0], samples[:, 1]).max() <= 2.0 * (1 + 1e-15)


def test_probe_invariant_s_rejected():
    with pytest.raises(ConfigError, match="M/N"):
        parse_config("[probe]\ns = 1\n")


def test_m_list_must_increase():
    with pytest.raises(ConfigError, match="increasing"):
        parse_config("[probe]\nm_list = 8, 4\n")


def test_bottom_curve_validation():
    cfg = parse_config("[domain]\nbottom = -x1^2/10\n[probe]\nmode = real\n")
    assert cfg.domain.bottom == "-x1^2/10"
    with pytest.raises(ConfigError, match="g'"):
        parse_config("[domain]\nbottom = x1/2\n[probe]\nmode = real\n")
    with pytest.raises(ConfigError, match="complex"):
        parse_config("[domain]\nbottom = -x1^2/10\n[probe]\nmode = complex\n")
    with pytest.raises(ConfigError, match=r"domain\.bottom: .*domain\.shape = rectangle"):
        parse_config("[domain]\nshape = half_disc\nbottom = -x1^2/10\n"
                     "[probe]\nmode = real\n")


def test_sweep_complex_mode_rejected_above_a_curved_bottom():
    curved = "[domain]\nbottom = -x1^2/10\n[probe]\nmode = real\n"
    assert parse_config(curved + "[sweep]\nmode_list = real\n").sweep.mode_list == ("real",)
    with pytest.raises(ConfigError, match=r"^sweep\.mode_list: complex probes require "
                                          r"a flat bottom"):
        parse_config(curved + "[sweep]\nmode_list = real, complex\n")
    # a flat bottom takes both modes
    parse_config("[sweep]\nmode_list = real, complex\n")


@pytest.mark.parametrize("curve, valid", (("5e-11*x1 - x1^2/10", True),
                                          ("2e-10*x1 - x1^2/10", False),
                                          ("5e-13 - x1^2/10", True),
                                          ("2e-12 - x1^2/10", False),
                                          ("x1*x1/x1 - x1^2/10", False)))
def test_bottom_curve_verdict_is_the_boundary_functions(curve, valid):
    # config and BoundaryDefiningFunction give one verdict: |g(0)| <= 1e-12
    # and |g'(0)| <= 1e-10; x1*x1/x1 is NaN at 0
    g = parse_expression(curve)
    text = f"[domain]\nbottom = {curve}\n[probe]\nmode = real\n"
    if valid:
        special.BoundaryDefiningFunction(g, g.derivative("x1"))
        assert parse_config(text).domain.bottom == curve
    else:
        with pytest.raises(ValueError) as exc:
            special.BoundaryDefiningFunction(g, g.derivative("x1"))
        with pytest.raises(ConfigError) as cfg_exc:
            parse_config(text)
        assert str(cfg_exc.value) == f"domain.bottom: {exc.value}"


@pytest.mark.parametrize("key,value", (("init", "bogus"), ("seed", "-1")))
def test_solver_verdict_is_the_solver_settings(key, value):
    # one check: the config message is SolverSettings' behind "solver."
    with pytest.raises(ValueError) as exc:
        pde.SolverSettings(**{key: value if key == "init" else float(value)})
    with pytest.raises(ConfigError) as cfg_exc:
        parse_config(f"[solver]\n{key} = {value}\n")
    assert str(cfg_exc.value) == f"solver.{exc.value}"


@pytest.mark.parametrize("value", ("-5", "0", "0.5", "nan"))
def test_max_nodes_validation(value):
    with pytest.raises(ConfigError, match="domain.max_nodes: must be at least 1"):
        parse_config(f"[domain]\nmax_nodes = {value}\n")
    assert parse_config("[domain]\nmax_nodes = 1\n").domain.max_nodes == 1


def test_solver_section_is_the_solver_settings():
    assert parse_config("").solver == pde.SolverSettings()
    cfg = parse_config("[solver]\ninit = random\nseed = 3\n")
    assert cfg.solver == pde.SolverSettings(init="random", seed=3)
    assert type(cfg.solver) is pde.SolverSettings
    assert not hasattr(config, "SolverConfig")
    solver_keys = {f.name for f in dataclasses.fields(pde.SolverSettings)}
    for f in dataclasses.fields(cfg):
        if f.name != "solver":
            section = type(getattr(cfg, f.name))
            assert not solver_keys & {g.name for g in dataclasses.fields(section)}, f.name


def test_solver_errors_come_before_domain_and_probe_errors():
    with pytest.raises(ConfigError, match=r"^solver\.init"):
        parse_config("[domain]\nradius = -1\n[probe]\ns = 1\n[solver]\ninit = magic\n")


def test_output_formats_required():
    with pytest.raises(ConfigError, match="output.formats: csv, json or both required"):
        parse_config("[output]\nformats =\n")
    with pytest.raises(ConfigError, match="unknown format 'xml'"):
        parse_config("[output]\nformats = csv, xml\n")


def test_solver_validation():
    with pytest.raises(ConfigError, match="init"):
        parse_config("[solver]\ninit = magic\n")
    # the regularization and the stopping rule are constants of `pde`
    for key in ("eps_start", "eps_stages", "eps_final", "outer_tol",
                "residual_tol", "max_iter"):
        with pytest.raises(ConfigError, match=f"unknown key '{key}' in \\[solver\\]"):
            parse_config(f"[solver]\n{key} = 3\n")


def test_comments_and_blanks_ignored():
    cfg = parse_config("# heading\n\n[physics]\n; note\np = 3\n")
    assert cfg.physics.p == 3.0


def test_sweep_gamma_list_positivity_names_the_key_and_point():
    with pytest.raises(ConfigError, match=r"sweep\.gamma_list entry '1 - 2\*x2': "
                                          r"must be positive .*gamma\(x1=-1, x2=1\) = -1"):
        parse_config("[sweep]\ngamma_list = 1 + x2/2, 1 - 2*x2\n")


@pytest.mark.parametrize("value", ("-1", "1.5", "nan", "inf"))
def test_seed_must_be_a_non_negative_integer(value):
    with pytest.raises(ConfigError, match="solver.seed: must be a non-negative integer"):
        parse_config(f"[solver]\ninit = random\nseed = {value}\n")
    assert parse_config("[solver]\ninit = random\nseed = 0\n").solver.seed == 0


@pytest.mark.parametrize("section,key,value", (
    ("domain", "max_nodes", "1.5"), ("domain", "max_nodes", "inf")))
def test_counts_must_be_integers_of_at_least_1(section, key, value):
    with pytest.raises(ConfigError, match=rf"{section}\.{key}: must be at least 1 "
                                          rf"and an integer, got {value}$"):
        parse_config(f"[{section}]\n{key} = {value}\n")
    cfg = parse_config(f"[{section}]\n{key} = 2\n")
    assert getattr(getattr(cfg, section), key) == 2


def test_readme_reference_config_parses():
    block = README.read_text().split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(block)
    assert cfg.probe.m_list == (4.0, 8.0, 16.0)
    assert cfg.sweep.gamma_list == ("1 + x2/2",)
    # the block lists every key of every section, as the section's type
    # names them
    listed, section = {}, None
    for line in block.splitlines():
        if line.startswith("["):
            section = listed.setdefault(line.strip("[]"), set())
        elif "=" in line and not line.startswith("#"):
            section.add(line.partition("=")[0].strip())
    assert listed == {f.name: {g.name for g in dataclasses.fields(getattr(cfg, f.name))}
                      for f in dataclasses.fields(cfg)}
    assert listed["solver"] == {"init", "seed"}
