"""Shared fixtures: the golden-output comparator and one run of the
recovery demo.

Golden files pin text and structure exactly and floats to a tolerance.
Output bytes are deterministic within one machine and library stack, but
the last bits of a float move with the BLAS kernel, numpy's SIMD loops and
SuperLU, so golden floats are compared with `math.isclose`.  The tolerance
sits about 15x above the drift measured across OpenBLAS core types and numpy
CPU-feature settings (CHANGES.md), and 7 orders below the default `tol`
of `recovery.quadrature_limit`.
"""

import math
import re
from pathlib import Path

import pytest

from plprobe import cli

RECOVER_DEMO = Path(__file__).resolve().parent.parent / "configs" / "recover_demo.cfg"

FLOAT_REL_TOL = 1e-14
# `abs_error` and `final_relative_error` are |estimate - gamma0| with
# gamma0 = 1 in both demos, so they inherit the absolute drift of `estimate`
# (measured up to 6.7e-16); the absolute floor matches what FLOAT_REL_TOL
# allows `estimate` itself.  It also covers the ~1e-17 noise columns.
FLOAT_ABS_TOL = 1e-14

# Fields are split on `,` and `:`; the separator with its trailing blanks is
# kept as a field of its own so that it too compares exactly.
_SEPARATOR = re.compile(r"([,:]\s*)")
_INTEGER = re.compile(r"-?\d+")
# A float as `format(x, ".17g")` prints it.  A hex digest has no `.` and no
# signed exponent, so it never matches unless it is all digits, and then it
# is an integer, which compares exactly.
_FLOAT = re.compile(r"-?\d+(\.\d+)?(e[+-]\d+)?")


def _golden_mismatches(out_path: Path, gold_path: Path) -> list[str]:
    """Every way the file `out_path` breaks the contract of its golden.

    Line count, field count and every non-float field must match exactly;
    a pair of numeric fields, not both integers, must satisfy
    `math.isclose(out, gold, rel_tol=FLOAT_REL_TOL, abs_tol=FLOAT_ABS_TOL)`.
    An empty list means the output matches.
    """
    out_lines = Path(out_path).read_text().splitlines()
    gold_lines = Path(gold_path).read_text().splitlines()
    if len(out_lines) != len(gold_lines):
        return [f"{len(out_lines)} lines, golden has {len(gold_lines)}"]
    problems = []
    for num, (out_line, gold_line) in enumerate(zip(out_lines, gold_lines), 1):
        out_fields = _SEPARATOR.split(out_line)
        gold_fields = _SEPARATOR.split(gold_line)
        if len(out_fields) != len(gold_fields):
            problems.append(f"line {num}: {out_line!r} != {gold_line!r}")
            continue
        for out, gold in zip(out_fields, gold_fields):
            if out == gold:
                continue
            numbers = _FLOAT.fullmatch(out) and _FLOAT.fullmatch(gold)
            integers = _INTEGER.fullmatch(out) and _INTEGER.fullmatch(gold)
            if numbers and not integers and math.isclose(
                    float(out), float(gold),
                    rel_tol=FLOAT_REL_TOL, abs_tol=FLOAT_ABS_TOL):
                continue
            problems.append(f"line {num}: {out!r} != golden {gold!r}")
    return problems


@pytest.fixture
def golden_mismatches():
    """`golden_mismatches(out_path, gold_path)`: see `_golden_mismatches`."""
    return _golden_mismatches


@pytest.fixture(scope="session")
def recover_demo_run(tmp_path_factory):
    """(exit code, output directory) of one `plprobe recover` run of
    configs/recover_demo.cfg, shared by the session; tests only read it."""
    out = tmp_path_factory.mktemp("recover_demo")
    return cli.main(["recover", "--config", str(RECOVER_DEMO), "--out", str(out)]), out
