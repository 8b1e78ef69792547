"""No module of the package imports a name it never uses, and no
module-level name of the package or of the tests' ``conftest.py`` goes
unread.

The package's own ``__init__.py`` is left out: its imports are the
public surface. A name counts as used when it is read anywhere in the
module, in an annotation too; a deletion that leaves its import behind
fails here. The import graph between the package's own modules is
pinned too, and so are the private names ``cli`` reads.
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


def module_level_names(source: str) -> dict[str, int]:
    """The names ``source`` binds at module level by ``def``, ``class`` or
    assignment, with their lines."""
    names = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in ast.walk(ast.Tuple(targets)):
                if isinstance(target, ast.Name):
                    names[target.id] = node.lineno
    return names


def unread_names(sources: dict[str, str], exported: set[str]) -> list[str]:
    """The module-level names of ``sources`` (module name to source) that
    are not in ``exported`` and that no source reads, as a ``Name`` or an
    ``Attribute`` load: a mention in a docstring or comment is no read."""
    read = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [
        f"{module} line {line}: {name}"
        for module, source in sources.items()
        for name, line in module_level_names(source).items()
        if name not in exported and name not in read and not name.startswith("__")
    ]


def test_every_module_level_name_is_read():
    # The names ``__init__.py`` imports are the public surface; every other
    # name a module defines is read somewhere in the package, so a deletion
    # that leaves a helper behind fails here.
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {
        alias.asname or alias.name
        for node in ast.walk(init)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    sources = {str(p.relative_to(PACKAGE)): p.read_text() for p in sorted(PACKAGE.rglob("*.py"))}
    assert unread_names(sources, exported) == []


def test_every_conftest_name_is_read():
    # Each module-level name of the tests' ``conftest.py`` is read by it or
    # by a test module, so a helper left behind by a rewrite fails here.
    tests = Path(__file__).resolve().parent
    sources = {p.name: p.read_text() for p in sorted(tests.glob("*.py"))}
    unread = unread_names(sources, set())
    assert [name for name in unread if name.startswith("conftest.py ")] == []


def test_a_left_over_helper_is_found():
    sources = {
        "a.py": '"""g is a helper."""\n\nX, Y = 1, 2\n\ndef f():\n    return Y\n\ndef g():\n    pass\n',
        "b.py": "from a import f\n\nclass C:\n    z = f()\n",
    }
    assert unread_names(sources, {"C"}) == ["a.py line 3: X", "a.py line 8: g"]


def private_imports(source: str) -> dict[str, set[str]]:
    """The private names ``source`` imports from each module of the
    package, by module name."""
    names: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if alias.name.startswith("_"):
                    names.setdefault(node.module, set()).add(alias.name)
    return names


# A sweep is one array entry per layer, called in order; ``cli`` keeps
# its config, grid and columns, and reads the package's argument tests.
CLI_PRIVATE_IMPORTS = {
    "circuit": {"_sweep_states"},
    "sampler": {"_MAX_SHOTS", "_Readout", "_draw_rows", "_sweep_values"},
    "maxent": {"_reconstruct_points"},
    "linalg": {
        "_ENTRY_BYTES", "_INTEGERS", "_POINT_BYTES", "_check_size", "_integer", "_number",
        "_require", "_shown",
    },
}


def test_cli_imports_one_entry_per_layer():
    assert private_imports((PACKAGE / "cli.py").read_text()) == CLI_PRIVATE_IMPORTS


def package_imports(source: str) -> set[str]:
    """The modules of the package that ``source`` imports from."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            modules.update([node.module] if node.module else (a.name for a in node.names))
    return modules


# Which of the package's modules each module imports. Every argument check
# goes through ``linalg``'s helpers, so ``pauli`` reads nothing of
# ``circuit``, and a check moved back into ``circuit`` (or any new edge)
# fails here.
PACKAGE_IMPORTS = {
    "__init__.py": {"circuit", "errors", "maxent", "pauli", "sampler"},
    "circuit.py": {"errors", "linalg"},
    "circuits/__init__.py": set(),
    "cli.py": {"circuit", "circuits", "errors", "linalg", "maxent", "pauli", "sampler"},
    "errors.py": set(),
    "linalg.py": {"errors"},
    "maxent.py": {"errors", "linalg"},
    "pauli.py": {"errors", "linalg"},
    "sampler.py": {"circuit", "errors", "linalg", "pauli"},
}


def test_the_import_graph_is_pinned():
    graph = {
        str(p.relative_to(PACKAGE)): package_imports(p.read_text())
        for p in sorted(PACKAGE.rglob("*.py"))
    }
    assert graph == PACKAGE_IMPORTS


def test_a_new_import_edge_is_found():
    source = "from . import circuits as bundled\nfrom .circuit import _check\nimport numpy\n"
    assert package_imports(source) == {"circuits", "circuit"}
