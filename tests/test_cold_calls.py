"""No module of the package calls a numpy helper whose Python wrapper
costs more than its work on a command's small columns, nor reads or
writes a file through Python's buffered text stack, nor copies an array
into bytes with ``tobytes``.

A command runs once, its code and data cold in the caches, and there
such a helper costs several times its warm time. Timed one call at a time
right after the benchmark's reference loop (``bench/workloads.py``),
median of 40, Python 3.11, numpy 2.4, 2 cores; each has a plain
replacement that gives the same bits.

The package reads its input files with ``cli._read_text`` and writes its
output files with ``cli._write``, through the ``os`` calls. The one
buffered read left is ``circuits.load``, the fallback for a bundled
model that is not a file on disk (a package in a zip).
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
    "linspace": "np.linspace(...).tolist() of 201 thetas: 70 us cold, of 21: 45 us; "
                "cli._grid, numpy's formula on Python floats: 47 and 15 us",
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


# Timed as above, median of 120.
FILE_COST = (
    "Path.read_text of a 233-byte config: 179 us cold, os.open + os.read + os.close: 84 us; "
    "open(path, 'wb') and two writes of a fresh 92 KB CSV: 294 us cold, "
    "os.open + os.write + os.close: 246 us (use cli._read_text and cli._write)"
)
FILE_METHODS = ("read_text", "read_bytes", "write_text", "write_bytes")
# The bundled-model fallback for a package that is not on disk.
FILE_CALLS_ALLOWED = {"circuits/__init__.py": ["read_text"]}


def file_calls(source: str, allowed=()) -> list[str]:
    """The calls of ``source`` to builtin ``open`` or to a path's
    ``read_text``, ``read_bytes``, ``write_text`` or ``write_bytes``,
    other than those named in ``allowed``."""
    calls = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            name = "open"
        elif isinstance(node.func, ast.Attribute) and node.func.attr in FILE_METHODS:
            name = node.func.attr
        else:
            continue
        if name not in allowed:
            calls.append((node.lineno, name))
    return [f"line {line}: {name} ({FILE_COST})" for line, name in sorted(calls)]


# Timed as above, median and upper quartile of 40.
COPY_COST = (
    "ndarray.tobytes of the 295 KB byte matrix of a 1407-row CSV: 36 us cold, 212 us when "
    "its 72 pages fault in; fill a bytearray in place instead (cli._write_csv)"
)


def copy_calls(source: str) -> list[str]:
    """The ``.tobytes()`` calls of ``source``."""
    return [
        f"line {node.lineno}: .tobytes() ({COPY_COST})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "tobytes"
    ]


MODULES = sorted(p.relative_to(PACKAGE).as_posix() for p in PACKAGE.rglob("*.py"))


@pytest.mark.parametrize("module", MODULES)
def test_no_cold_wrapped_helper(module):
    assert wrapped_calls((PACKAGE / module).read_text()) == []


@pytest.mark.parametrize("module", MODULES)
def test_no_buffered_file_call(module):
    source = (PACKAGE / module).read_text()
    assert file_calls(source, FILE_CALLS_ALLOWED.get(module, ())) == []


@pytest.mark.parametrize("module", MODULES)
def test_no_tobytes_copy(module):
    assert copy_calls((PACKAGE / module).read_text()) == []


def test_a_wrapped_helper_is_found():
    source = "import numpy as np\n\ndef f(x):\n    return np.median(np.sort(x)), np.tile(x, 2)\n"
    found = wrapped_calls(source)
    assert [line.split(" (")[0] for line in found] == ["line 4: np.median", "line 4: np.tile"]
    assert "104 us cold" in found[0]


def test_a_buffered_file_call_is_found():
    source = (
        "from pathlib import Path\n\ndef f(p):\n"
        "    with open(p) as f:\n        f.read()\n"
        "    return Path(p).read_text(), Path(p).write_bytes(b'')\n"
    )
    found = file_calls(source)
    assert [line.split(" (")[0] for line in found] == [
        "line 4: open", "line 6: read_text", "line 6: write_bytes",
    ]
    assert "179 us cold" in found[0]
    assert file_calls(source, ["open", "write_bytes"]) == found[1:2]


def test_a_tobytes_copy_is_found():
    found = copy_calls("def f(matrix):\n    return matrix.tobytes().translate(None, b'\\0')\n")
    assert [line.split(" (")[0] for line in found] == ["line 2: .tobytes()"]
    assert "212 us" in found[0]
