"""No module of the package calls a numpy helper whose Python wrapper
costs more than its work on a command's small columns.

A command runs once, its code and data cold in the caches, and there
such a helper costs several times its warm time. Timed one call at a time
right after the benchmark's reference loop (``bench/workloads.py``),
median of 40, Python 3.11, numpy 2.4, 2 cores; each has a plain
replacement that gives the same bits.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qmaxent"

COLD_COST = {
    "median": "np.median of 63 values: 104 us cold; one np.sort and the middle value(s): 21 us",
    "unique": "np.unique(return_inverse=True) of a 63-row K column and its text cells: "
              "116 us cold; the rows of the digit table cli._DIGITS: 44 us",
    "tile": "np.tile of 3 K targets over 21 thetas: 47 us cold; np.array(k_targets * T): 14 us",
    "flatnonzero": "np.flatnonzero of a 63-row mask: 16 us cold; mask.nonzero()[0]: 5 us",
    "stack": "np.stack of 4 (21, 4) slots on axis 1: 44 us cold; "
             "np.array(slots).transpose(1, 0, 2): 16 us",
    "repeat": "np.repeat of a 21-row column 3 times: 14 us cold; column.repeat(3): 6 us",
    "broadcast_to": "np.broadcast_to of a 4-amplitude state to 21 rows: 42 us cold; "
                    "state[None].repeat(21, axis=0): 11 us",
}


def wrapped_calls(source: str) -> list[str]:
    """The ``np.<name>(...)`` calls of ``source`` to a helper of ``COLD_COST``."""
    return [
        f"line {node.lineno}: np.{node.func.attr} ({COLD_COST[node.func.attr]})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "np"
        and node.func.attr in COLD_COST
    ]


@pytest.mark.parametrize("module", sorted(str(p.relative_to(PACKAGE)) for p in PACKAGE.rglob("*.py")))
def test_no_cold_wrapped_helper(module):
    assert wrapped_calls((PACKAGE / module).read_text()) == []


def test_a_wrapped_helper_is_found():
    source = "import numpy as np\n\ndef f(x):\n    return np.median(np.sort(x)), np.tile(x, 2)\n"
    found = wrapped_calls(source)
    assert [line.split(" (")[0] for line in found] == ["line 4: np.median", "line 4: np.tile"]
    assert "104 us cold" in found[0]
