"""Experiment configuration: INI-style sections and a tiny expression language.

Grammar of a config file::

    # comment (also ';')
    [section]
    key = value

Sections: domain, physics, probe, solver, output, sweep; every key has a
default, so the empty file is a valid config.  Values are numbers, words,
comma lists, or arithmetic expressions over the variables x1, x2 with
+  -  *  /  ^  exp  sin  cos  abs and numeric literals (conductivities and
bottom curves are expressions).  ^ is right-associative power.

Parsing returns an ExperimentConfig with every default materialized; its
canonical echo re-parses to an equal config and its sha256 stamps every
output file.  Validation failures name the offending key; a non-positive
conductivity is reported with a violating sample point.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "ConfigError",
    "Expression",
    "parse_expression",
    "ExperimentConfig",
    "parse_config",
]


class ConfigError(ValueError):
    """Parse or validation failure; message carries location or key."""


# ---------------------------------------------------------------------------
# Expression language
# ---------------------------------------------------------------------------

_FUNCTIONS = {"exp": np.exp, "sin": np.sin, "cos": np.cos, "abs": np.abs}


class _Tok:
    def __init__(self, kind, text, pos):
        self.kind, self.text, self.pos = kind, text, pos


def _tokenize(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^()":
            toks.append(_Tok(c, c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] in ".eE"
                             or (text[j] in "+-" and j > i and text[j - 1] in "eE")):
                j += 1
            try:
                float(text[i:j])
            except ValueError:
                raise ConfigError(f"bad numeric literal {text[i:j]!r} at column {i + 1}")
            toks.append(_Tok("num", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("name", text[i:j], i))
            i = j
            continue
        raise ConfigError(f"unexpected character {c!r} at column {i + 1}")
    toks.append(_Tok("end", "", n))
    return toks


class Expression:
    """Parsed arithmetic expression; evaluates vectorized over points."""

    def __init__(self, text: str, node, variables: frozenset):
        self.text = text
        self._node = node
        self.variables = variables

    def __call__(self, pts) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        x1 = pts[..., 0]
        x2 = pts[..., 1] if pts.shape[-1] > 1 else np.zeros_like(x1)
        # a value like 1/0 becomes inf or nan without a numpy warning; the
        # checks on gamma and on the Dirichlet datum report it
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            val = _eval(self._node, x1, x2)
        return np.broadcast_to(val, x1.shape).astype(float)

    def derivative(self, var: str) -> "Expression":
        node = _diff(self._node, var)
        return Expression(f"d/d{var}({self.text})", node, self.variables)

    def __repr__(self):
        return f"Expression({self.text!r})"


def _eval(node, x1, x2):
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "var":
        return x1 if node[1] == "x1" else x2
    if kind == "neg":
        return -_eval(node[1], x1, x2)
    if kind == "call":
        return _FUNCTIONS[node[1]](_eval(node[2], x1, x2))
    a, b = _eval(node[1], x1, x2), _eval(node[2], x1, x2)
    if kind == "+":
        return a + b
    if kind == "-":
        return a - b
    if kind == "*":
        return a * b
    if kind == "/":
        return a / b
    if kind == "^":
        return a**b
    raise AssertionError(kind)


def _diff(node, var):
    kind = node[0]
    if kind == "num":
        return ("num", 0.0)
    if kind == "var":
        return ("num", 1.0 if node[1] == var else 0.0)
    if kind == "neg":
        return ("neg", _diff(node[1], var))
    if kind == "call":
        fn, arg = node[1], node[2]
        da = _diff(arg, var)
        if fn == "exp":
            return ("*", node, da)
        if fn == "sin":
            return ("*", ("call", "cos", arg), da)
        if fn == "cos":
            return ("neg", ("*", ("call", "sin", arg), da))
        raise ConfigError(f"cannot differentiate {fn}() in a bottom curve")
    a, b = node[1], node[2]
    da, db = _diff(a, var), _diff(b, var)
    if kind == "+":
        return ("+", da, db)
    if kind == "-":
        return ("-", da, db)
    if kind == "*":
        return ("+", ("*", da, b), ("*", a, db))
    if kind == "/":
        return ("/", ("-", ("*", da, b), ("*", a, db)), ("*", b, b))
    if kind == "^":
        if b[0] != "num":
            raise ConfigError("can only differentiate constant powers")
        return ("*", ("*", ("num", b[1]), ("^", a, ("num", b[1] - 1.0))), da)
    raise AssertionError(kind)


class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = _tokenize(text)
        self.k = 0
        self.vars = set()

    def peek(self):
        return self.toks[self.k]

    def take(self, kind=None):
        t = self.toks[self.k]
        if kind and t.kind != kind:
            raise ConfigError(
                f"expected {kind!r} at column {t.pos + 1}, found {t.text or 'end'!r}")
        self.k += 1
        return t

    def parse(self):
        node = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ConfigError(f"unexpected {t.text!r} at column {t.pos + 1}")
        return node

    def expr(self):
        node = self.term()
        while self.peek().kind in "+-":
            op = self.take().kind
            node = (op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek().kind in "*/":
            op = self.take().kind
            node = (op, node, self.unary())
        return node

    def unary(self):
        if self.peek().kind == "-":
            self.take()
            return ("neg", self.unary())
        if self.peek().kind == "+":
            self.take()
            return self.unary()
        return self.power()

    def power(self):
        base = self.primary()
        if self.peek().kind == "^":
            self.take()
            return ("^", base, self.unary())  # right-associative
        return base

    def primary(self):
        t = self.peek()
        if t.kind == "num":
            self.take()
            return ("num", float(t.text))
        if t.kind == "(":
            self.take()
            node = self.expr()
            self.take(")")
            return node
        if t.kind == "name":
            self.take()
            if t.text in ("x1", "x2"):
                self.vars.add(t.text)
                return ("var", t.text)
            if t.text in _FUNCTIONS:
                self.take("(")
                arg = self.expr()
                self.take(")")
                return ("call", t.text, arg)
            raise ConfigError(
                f"unknown name {t.text!r} at column {t.pos + 1} "
                f"(variables x1, x2; functions exp, sin, cos, abs)")
        raise ConfigError(f"unexpected {t.text or 'end'!r} at column {t.pos + 1}")


def parse_expression(text: str) -> Expression:
    text = text.strip()
    if not text:
        raise ConfigError("empty expression")
    p = _Parser(text)
    node = p.parse()
    return Expression(text, node, frozenset(p.vars))


# ---------------------------------------------------------------------------
# Config sections
# ---------------------------------------------------------------------------


@dataclass
class DomainConfig:
    shape: str = "rectangle"            # rectangle | half_disc
    half_width: float = 1.0
    height: float = 1.0
    radius: float = 1.0
    bottom: str = ""                    # expression in x1; empty = flat
    resolution: float = 32.0            # used by the solve command
    nodes_per_wavelength: float = 16.0
    window_margin: float = 2.0
    max_nodes: float = 1_500_000.0


@dataclass
class PhysicsConfig:
    p: float = 2.0
    gamma: str = "1"
    boundary_data: str = "probe"        # probe | expression for `solve`


@dataclass
class ProbeConfig:
    mode: str = "complex"               # complex | real
    m_list: tuple = (4.0, 8.0)
    s: float = 2.0
    cutoff: str = "c3"


@dataclass
class SolverConfig:
    eps_final: float = 1e-6
    outer_tol: float = 1e-11
    residual_tol: float = 1e-7
    max_iter: float = 60.0
    init: str = "datum"
    seed: float = 12345.0


@dataclass
class OutputConfig:
    directory: str = "out"
    formats: tuple = ("csv",)           # csv and/or json


@dataclass
class SweepConfig:
    p_list: tuple = ()
    mode_list: tuple = ()
    gamma_list: tuple = ()
    max_workers: float = 2.0


_SECTIONS = {
    "domain": DomainConfig,
    "physics": PhysicsConfig,
    "probe": ProbeConfig,
    "solver": SolverConfig,
    "output": OutputConfig,
    "sweep": SweepConfig,
}

_LIST_KEYS = {("probe", "m_list"), ("sweep", "p_list"), ("sweep", "mode_list"),
              ("sweep", "gamma_list"), ("output", "formats")}
_STR_KEYS = {("domain", "shape"), ("domain", "bottom"), ("physics", "gamma"),
             ("physics", "boundary_data"), ("probe", "mode"), ("probe", "cutoff"),
             ("solver", "init"), ("output", "directory")}


@dataclass
class ExperimentConfig:
    domain: DomainConfig = field(default_factory=DomainConfig)
    physics: PhysicsConfig = field(default_factory=PhysicsConfig)
    probe: ProbeConfig = field(default_factory=ProbeConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    output: OutputConfig = field(default_factory=OutputConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)

    def echo(self) -> str:
        """Canonical text: fixed section/key order, 17 significant digits."""
        lines = []
        for sname in ("domain", "physics", "probe", "solver", "output", "sweep"):
            sec = getattr(self, sname)
            lines.append(f"[{sname}]")
            for f in fields(sec):
                val = getattr(sec, f.name)
                if isinstance(val, tuple):
                    txt = ",".join(_fmt_value(v) for v in val)
                elif isinstance(val, float):
                    txt = _fmt_value(val)
                else:
                    txt = str(val)
                lines.append(f"{f.name} = {txt}")
            lines.append("")
        return "\n".join(lines)

    def sha256(self) -> str:
        return hashlib.sha256(self.echo().encode()).hexdigest()


def _fmt_value(v) -> str:
    if isinstance(v, str):
        return v
    return format(float(v), ".17g")


def _parse_scalar(section, key, raw, default):
    if (section, key) in _LIST_KEYS:
        items = [s.strip() for s in raw.split(",") if s.strip()]
        if not items:
            return ()  # explicitly empty (sweep lists fall back to [physics]/[probe])
        if key in ("mode_list", "gamma_list", "formats"):
            return tuple(items)
        try:
            return tuple(float(s) for s in items)
        except ValueError:
            raise ConfigError(f"[{section}] {key}: expected a numeric list, got {raw!r}")
    if (section, key) in _STR_KEYS:
        return raw.strip()
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected a number, got {raw!r}")


def parse_config(text: str) -> ExperimentConfig:
    cfg = ExperimentConfig()
    section = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {lineno}: malformed section header {line!r}")
            name = line[1:-1].strip().lower()
            if name not in _SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section [{name}]")
            section = name
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}, column 1: expected 'key = value', got {line!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside of any [section]")
        key, _, raw = line.partition("=")
        key = key.strip().lower()
        sec = getattr(cfg, section)
        if not any(f.name == key for f in fields(sec)):
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
        default = getattr(sec, key)
        try:
            setattr(sec, key, _parse_scalar(section, key, raw.strip(), default))
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    d, ph, pr, so, out = cfg.domain, cfg.physics, cfg.probe, cfg.solver, cfg.output

    if d.shape not in ("rectangle", "half_disc"):
        raise ConfigError(f"domain.shape: unknown shape {d.shape!r}")
    for key in ("half_width", "height", "radius"):
        if getattr(d, key) <= 0:
            raise ConfigError(f"domain.{key}: must be positive")
    if d.resolution < 8:
        raise ConfigError("domain.resolution: at least 8 cells per unit required")
    if d.nodes_per_wavelength < 8:
        raise ConfigError("domain.nodes_per_wavelength: at least 8 required")
    if d.window_margin < 1.0:
        raise ConfigError("domain.window_margin: must be at least 1 "
                          "(probe support has radius 1/M)")

    if not ph.p > 1.0:
        raise ConfigError("physics.p: must exceed 1")
    gamma_expr = parse_expression(ph.gamma)

    if pr.mode not in ("complex", "real"):
        raise ConfigError(f"probe.mode: unknown mode {pr.mode!r}")
    if not pr.s > 1.0:
        raise ConfigError("probe.s: must exceed 1 so that M/N -> 0")
    if not pr.m_list or any(m <= 0 for m in pr.m_list):
        raise ConfigError("probe.m_list: positive entries required")
    if any(b <= a for a, b in zip(pr.m_list[:-1], pr.m_list[1:])):
        raise ConfigError("probe.m_list: must be strictly increasing")
    if pr.cutoff not in ("c1", "c2", "c3"):
        raise ConfigError(f"probe.cutoff: unknown smoothness {pr.cutoff!r}")

    if not so.eps_final > 0:
        raise ConfigError("solver.eps_final: must be positive")
    if so.outer_tol <= 0 or so.residual_tol <= 0 or so.max_iter < 1:
        raise ConfigError("solver: tolerances/max_iter must be positive")
    if so.init not in ("datum", "zero", "random"):
        raise ConfigError(f"solver.init: unknown initialization {so.init!r}")

    for fmt in out.formats:
        if fmt not in ("csv", "json"):
            raise ConfigError(f"output.formats: unknown format {fmt!r}")

    if d.bottom:
        bexpr = parse_expression(d.bottom)
        if "x2" in bexpr.variables:
            raise ConfigError("domain.bottom: a bottom curve depends on x1 only")
        g0 = float(bexpr(np.array([[0.0, 0.0]]))[0])
        dg0 = float(bexpr.derivative("x1")(np.array([[0.0, 0.0]]))[0])
        if abs(g0) > 1e-12 or abs(dg0) > 1e-12:
            raise ConfigError(
                "domain.bottom: curve must satisfy g(0) = 0 and g'(0) = 0 "
                f"(got g(0) = {g0:.3g}, g'(0) = {dg0:.3g})")
        if pr.mode == "complex":
            raise ConfigError("probe.mode: complex probes require a flat bottom "
                              "(use real mode on curved boundaries)")

    # sample the conductivity over the domain bounding box
    if d.shape == "rectangle":
        xs = np.linspace(-d.half_width, d.half_width, 41)
        ys = np.linspace(0.0, d.height, 41)
    else:
        xs = np.linspace(-d.radius, d.radius, 41)
        ys = np.linspace(0.0, d.radius, 41)
    X, Y = np.meshgrid(xs, ys)
    samples = np.column_stack([X.ravel(), Y.ravel()])
    vals = gamma_expr(samples)
    if not np.all(np.isfinite(vals)) or np.min(vals) <= 0.0:
        k = int(np.argmin(np.where(np.isfinite(vals), vals, -np.inf)))
        raise ConfigError(
            f"physics.gamma: must be positive on the domain; gamma(x1={samples[k, 0]:.6g}, "
            f"x2={samples[k, 1]:.6g}) = {vals[k]:.6g}")

    for pv in cfg.sweep.p_list:
        if not pv > 1.0:
            raise ConfigError("sweep.p_list: entries must exceed 1")
    for mv in cfg.sweep.mode_list:
        if mv not in ("complex", "real"):
            raise ConfigError(f"sweep.mode_list: unknown mode {mv!r}")
    for gexpr in cfg.sweep.gamma_list:
        parse_expression(gexpr)
    if cfg.sweep.max_workers < 1:
        raise ConfigError("sweep.max_workers: must be at least 1")
