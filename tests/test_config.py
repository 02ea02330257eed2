import numpy as np
import pytest

from plprobe.config import (ConfigError, ExperimentConfig, parse_config,
                            parse_expression)


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


@pytest.mark.parametrize("value", ("-5", "0", "0.5", "nan"))
def test_max_nodes_validation(value):
    with pytest.raises(ConfigError, match="domain.max_nodes: must be at least 1"):
        parse_config(f"[domain]\nmax_nodes = {value}\n")
    assert parse_config("[domain]\nmax_nodes = 1\n").domain.max_nodes == 1


def test_solver_validation():
    with pytest.raises(ConfigError, match="eps"):
        parse_config("[solver]\neps_final = 0\n")
    with pytest.raises(ConfigError, match="init"):
        parse_config("[solver]\ninit = magic\n")
    # eps_final is the solver's only eps key
    for key in ("eps_start", "eps_stages"):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(f"[solver]\n{key} = 3\n")


def test_comments_and_blanks_ignored():
    cfg = parse_config("# heading\n\n[physics]\n; note\np = 3\n")
    assert cfg.physics.p == 3.0
