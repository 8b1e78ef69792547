"""``tools/mutants.py``'s enumeration, on a tiny module: each kind of
mutant appears once per place it applies, a comment or another name is
not touched, and every mutant compiles. No test run starts here."""

import importlib.util
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"
spec = importlib.util.spec_from_file_location("mutants", TOOL)
mutants = sys.modules["mutants"] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)

MODULE = '''import numpy as np

SHARE = 1.0 - 2.0**-4


def _kernel(a, b=None):
    # a comment with + and <= is not an operator
    if b is None:
        b = a * 0.0
    return np.where(a < 0.5, -a, (a + b) / 2)


def _other(a):
    return a + 1
'''


def test_every_kind_of_mutant_of_a_tiny_kernel_appears_and_compiles(tmp_path):
    path = tmp_path / "tiny.py"
    path.write_text(MODULE)
    source = path.read_bytes()
    found = mutants.enumerate_mutants(source, ("_kernel", "SHARE"))
    edits = [(m.id, m.line, m.original, m.replacement) for m in found]
    assert edits == [
        ("SHARE/0", 3, "1.0", "0.1"),
        ("SHARE/1", 3, "1.0", "10.0"),
        ("SHARE/2", 3, "-", "+"),
        ("SHARE/3", 3, "2.0", "0.2"),
        ("SHARE/4", 3, "2.0", "20.0"),
        ("SHARE/5", 3, "-4", "4"),
        ("SHARE/6", 3, "4", "0.4"),
        ("SHARE/7", 3, "4", "40"),
        ("_kernel/0", 8, "is", "is not"),
        ("_kernel/1", 9, "*", "/"),  # 0.0 has no mutant: ten times it is itself
        ("_kernel/2", 10, "<", "<="),
        ("_kernel/3", 10, "0.5", "0.05"),
        ("_kernel/4", 10, "0.5", "5.0"),
        ("_kernel/5", 10, "-a", "a"),
        ("_kernel/6", 10, "-a, (a + b) / 2", "(a + b) / 2, -a"),
        ("_kernel/7", 10, "+", "-"),
        ("_kernel/8", 10, "/", "*"),
        ("_kernel/9", 10, "2", "0.2"),
        ("_kernel/10", 10, "2", "20"),
    ]
    for m in found:
        mutated = m.apply(source)
        assert mutated != source
        compile(mutated, str(path), "exec")
