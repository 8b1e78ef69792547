"""No tolerance of the package is a bare literal: a float literal of size
below 1e-3 or above 1e3 in ``src/qmaxent`` is the value of a
module-level constant, which README's tolerance table lists
(``tests/test_tolerances.py``). The one exception is the CSV formatter's
range [1e11, 1e12) of an 11-digit mantissa in ``cli._float_words``.
"""

import ast
from pathlib import Path

import pytest
from conftest import tolerance_literal

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qmaxent"

# (module, top-level function) -> the literals allowed in it.
ALLOWED = {("cli.py", "_float_words"): {1e11, 1e12}}


def bare_literals(module: str, source: str) -> list[str]:
    """The float literals of ``source`` of size below 1e-3 or above 1e3,
    zero aside, that are not in the value of a module-level assignment
    nor allowed in their top-level function by ``ALLOWED``."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        allowed = ALLOWED.get((module, getattr(node, "name", None)), set())
        found += [
            f"{module} line {c.lineno}: {c.value!r}"
            for c in ast.walk(node) if tolerance_literal(c) and c.value not in allowed
        ]
    return found


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_tolerance_is_a_bare_literal(module):
    assert bare_literals(module, (PACKAGE / module).read_text()) == []


def test_a_bare_tolerance_is_found():
    source = (
        "_TOL = 1e-9\n\n"
        "def f(x):\n    return abs(x) < 1e-12 or x > 0.5 or x == 0.0\n\n"
        "def _float_words(m):\n    return m < 1e11 or m > 1e15\n"
    )
    assert bare_literals("cli.py", source) == ["cli.py line 4: 1e-12", "cli.py line 7: 1000000000000000.0"]
    assert bare_literals("other.py", "def _float_words(m):\n    return m < 1e11\n") == [
        "other.py line 2: 100000000000.0"
    ]
