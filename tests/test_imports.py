"""No module of the package imports a name it never uses.

The package's own ``__init__.py`` is left out: its imports are the
public surface. A name counts as used when it is read anywhere in the
module, in an annotation too; a deletion that leaves its import behind
fails here.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qmaxent"


def unused_imports(source: str) -> list[str]:
    """The names ``source`` binds by import and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize(
    "module",
    sorted(str(p.relative_to(PACKAGE)) for p in PACKAGE.rglob("*.py") if p != PACKAGE / "__init__.py"),
)
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_a_left_over_import_is_found():
    source = "import bisect\nfrom typing import Mapping, Iterable\n\ndef f(x: Iterable):\n    return x\n"
    assert unused_imports(source) == ["line 1: bisect", "line 2: Mapping"]
