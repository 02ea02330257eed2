"""Experiment configuration: INI-style sections and a tiny expression language.

Grammar of a config file::

    # whole-line comment (also ';')
    [section]
    key = value

Sections: domain, physics, probe, solver, output, sweep; every key has a
default, so the empty file is a valid config.  Values are numbers, words,
comma lists, or arithmetic expressions (conductivities and bottom curves).
An expression is a Python expression once ^ is read as ** (so ^ is
right-associative power and binds tighter than unary minus), restricted to
the variables x1, x2, the operators + - * / ^, unary + and -, parentheses,
one-argument calls of exp, sin, cos, abs, and decimal literals, each read
with float() from its text.  ** itself, literals with _ or a base prefix,
and every other Python construct are errors that give a column.

Parsing returns an ExperimentConfig with every default materialized; its
[solver] section is `pde.SolverSettings`.  Its canonical echo re-parses to
an equal config and its sha256 stamps every output file.  Validation
failures name the offending key; a non-positive conductivity is reported
with a violating sample point.
"""

from __future__ import annotations

import ast
import hashlib
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .pde import HalfDisc, Rectangle, SolverSettings, lattice_points
from .special import BoundaryDefiningFunction

__all__ = [
    "ConfigError",
    "Expression",
    "parse_expression",
    "ExperimentConfig",
    "parse_config",
    "format_value",
    "bottom_curve",
    "domain_shape",
]


class ConfigError(ValueError):
    """Parse or validation failure; message carries location or key."""


# ---------------------------------------------------------------------------
# Expression language
# ---------------------------------------------------------------------------

_FUNCTIONS = {"exp": np.exp, "sin": np.sin, "cos": np.cos, "abs": np.abs}


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


_BINARY = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "^"}


def parse_expression(text: str) -> Expression:
    """Parse with Python's own parser, `^` read as `**`, and keep only the
    grammar's nodes.  Python also reads `#` comments, line continuations,
    strings and `x1**2`, so characters outside the grammar, and `**`, are
    rejected first."""
    text = text.strip()
    if not text:
        raise ConfigError("empty expression")
    for k, c in enumerate(text):
        if not (c.isascii() and (c.isalnum() or c.isspace() or c in "+-*/^()._")):
            raise ConfigError(f"unexpected character {c!r} at column {k + 1}")
    if "**" in text:
        raise ConfigError(f"unexpected '*' at column {text.index('**') + 2}")
    # one line for Python (a line break is whitespace here), ^ as **; and the
    # column in `text` of each index of `src`, and of its end
    pieces = ["**" if c == "^" else " " if c.isspace() else c for c in text]
    src = "".join(pieces)
    column = [k + 1 for k, piece in enumerate(pieces) for _ in piece] + [len(text) + 1]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # e.g. "invalid decimal literal" on 1if
            body = ast.parse(src, mode="eval").body
    except SyntaxError as exc:
        # offset 0 means the end of the text, which the last entry holds
        raise ConfigError(f"{exc.msg} at column {column[(exc.offset or 0) - 1]}") from None
    variables = set()

    def walk(node):
        at = column[node.col_offset]
        seen = text[at - 1:column[node.end_col_offset] - 1]
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            return (_BINARY[type(node.op)], walk(node.left), walk(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return ("neg", walk(node.operand))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.UAdd):
            return walk(node.operand)
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            # float() of the digits, not of the parsed int, which would
            # overflow: a 400-digit integer reads as inf
            try:
                if "_" not in seen:
                    return ("num", float(seen))
            except ValueError:  # 0x10, 0o7, 0b1
                pass
            raise ConfigError(f"bad numeric literal {seen!r} at column {at}")
        if isinstance(node, ast.Name) and node.id in ("x1", "x2"):
            variables.add(node.id)
            return ("var", node.id)
        if isinstance(node, ast.Name) and node.id not in _FUNCTIONS:
            raise ConfigError(f"unknown name {node.id!r} at column {at} "
                              f"(variables x1, x2; functions exp, sin, cos, abs)")
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id not in _FUNCTIONS:
                walk(node.func)  # raises on an unknown name
            # one argument, and the name not parenthesized as in (exp)(x1)
            elif len(node.args) == 1 and node.func.col_offset == node.col_offset:
                return ("call", node.func.id, walk(node.args[0]))
        raise ConfigError(f"unexpected {seen!r} at column {at}")

    node = walk(body)
    return Expression(text, node, frozenset(variables))


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
class OutputConfig:
    directory: str = "out"
    formats: tuple = ("csv",)           # csv and/or json


@dataclass
class SweepConfig:
    p_list: tuple = ()
    mode_list: tuple = ()
    gamma_list: tuple = ()


_SECTIONS = {
    "domain": DomainConfig,
    "physics": PhysicsConfig,
    "probe": ProbeConfig,
    "solver": SolverSettings,
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
    solver: SolverSettings = field(default_factory=SolverSettings)
    output: OutputConfig = field(default_factory=OutputConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)

    def echo(self) -> str:
        """Canonical text: fixed section/key order, 17 significant digits."""
        lines = []
        for sname in _SECTIONS:
            sec = getattr(self, sname)
            lines.append(f"[{sname}]")
            for f in fields(sec):
                val = getattr(sec, f.name)
                if isinstance(val, tuple):
                    txt = ",".join(format_value(v) for v in val)
                else:
                    txt = format_value(val)
                lines.append(f"{f.name} = {txt}")
            lines.append("")
        return "\n".join(lines)

    def sha256(self) -> str:
        return hashlib.sha256(self.echo().encode()).hexdigest()


def format_value(v) -> str:
    """The text of a config value or an output cell: true or false for a
    bool, 17 significant digits for a number (an integer below 1e17 prints
    as itself), the text of anything else."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, float, np.integer, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def _parse_scalar(section, key, raw):
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
    values = {name: {} for name in _SECTIONS}
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
        if not any(f.name == key for f in fields(_SECTIONS[section])):
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
        try:
            values[section][key] = _parse_scalar(section, key, raw.strip())
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    try:
        # SolverSettings checks its own values
        cfg = ExperimentConfig(**{name: cls(**values[name])
                                  for name, cls in _SECTIONS.items()})
    except ValueError as exc:
        raise ConfigError(f"solver.{exc}") from None
    _validate(cfg)
    return cfg


def _validate(cfg: ExperimentConfig) -> None:
    d, ph, pr, out = cfg.domain, cfg.physics, cfg.probe, cfg.output

    if d.shape not in ("rectangle", "half_disc"):
        raise ConfigError(f"domain.shape: unknown shape {d.shape!r}")
    for key in ("half_width", "height", "radius"):
        if getattr(d, key) <= 0:
            raise ConfigError(f"domain.{key}: must be positive")
    if d.resolution < 8:
        raise ConfigError("domain.resolution: at least 8 cells per unit required")
    if d.nodes_per_wavelength < 8:
        raise ConfigError("domain.nodes_per_wavelength: at least 8 required")
    if not (d.max_nodes >= 1 and float(d.max_nodes).is_integer()):
        raise ConfigError("domain.max_nodes: must be at least 1 and an integer, "
                          f"got {d.max_nodes:g}")

    if not ph.p > 1.0:
        raise ConfigError("physics.p: must exceed 1")

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

    if not out.formats:
        raise ConfigError("output.formats: csv, json or both required")
    for fmt in out.formats:
        if fmt not in ("csv", "json"):
            raise ConfigError(f"output.formats: unknown format {fmt!r}")

    if d.bottom and d.shape == "half_disc":
        raise ConfigError("domain.bottom: a curved bottom needs domain.shape = "
                          "rectangle (a half_disc is meshed with a flat diameter)")
    shape = domain_shape(d)
    for key, modes in (("probe.mode", (pr.mode,)),
                       ("sweep.mode_list", cfg.sweep.mode_list)):
        if d.bottom and "complex" in modes:
            raise ConfigError(f"{key}: complex probes require a flat bottom "
                              "(use real mode on curved boundaries)")

    _check_positive("physics.gamma", ph.gamma, shape)
    for pv in cfg.sweep.p_list:
        if not pv > 1.0:
            raise ConfigError("sweep.p_list: entries must exceed 1")
    for mv in cfg.sweep.mode_list:
        if mv not in ("complex", "real"):
            raise ConfigError(f"sweep.mode_list: unknown mode {mv!r}")
    for gtxt in cfg.sweep.gamma_list:
        _check_positive(f"sweep.gamma_list entry {gtxt!r}", gtxt, shape)


def bottom_curve(d: DomainConfig) -> BoundaryDefiningFunction:
    """The boundary function of the [domain] bottom curve; flat when
    `bottom` is empty."""
    if not d.bottom:
        return BoundaryDefiningFunction()
    g = parse_expression(d.bottom)  # on points of one coordinate, x2 = 0
    if "x2" in g.variables:
        raise ConfigError("domain.bottom: a bottom curve depends on x1 only")
    try:
        return BoundaryDefiningFunction(g, g.derivative("x1"))
    except ValueError as exc:
        raise ConfigError(f"domain.bottom: {exc}") from None


def domain_shape(d: DomainConfig):
    """The [domain] shape: a half disc, or a rectangle above the bottom curve."""
    if d.shape == "half_disc":
        return HalfDisc(radius=d.radius)
    return Rectangle(half_width=d.half_width, height=d.height, bottom=bottom_curve(d))


def _check_positive(key: str, gamma_text: str, shape) -> None:
    """Sample the conductivity at the nodes that `lattice_points` places on
    40 x 40 cells of the shape.  The error names `key` and the least
    sampled value."""
    samples = lattice_points(shape, 40, 40)
    vals = parse_expression(gamma_text)(samples)
    if not np.all(np.isfinite(vals)) or np.min(vals) <= 0.0:
        k = int(np.argmin(np.where(np.isfinite(vals), vals, -np.inf)))
        raise ConfigError(
            f"{key}: must be positive on the domain; gamma(x1={samples[k, 0]:.6g}, "
            f"x2={samples[k, 1]:.6g}) = {vals[k]:.6g}")
