"""Mutation score of ``maxent``'s array kernels.

Each mutant changes one thing in one of the kernels and module constants
named in ``SCOPE``: a comparison operator, a numeric literal times or over
ten, a ``+``/``-`` or ``*``/``/`` swap, a dropped unary minus, or the two
branches of an ``np.where`` swapped. Every mutant is run on a temporary
copy of the tree, never on the tree itself: Tier-1 with ``-x``, the kernel
test files first, less any ``--hold-out`` file, and then the held-out
files on the mutants that survive it. The results go to a JSON file.

    python tools/mutants.py --list --function _rescale
    python tools/mutants.py --function _rescale --out rescale.json

A run writes each mutant's outcome under ``rest`` and, for the survivors,
the held-out files' outcome under ``held_out``. ``--baseline FILE``
reruns only the mutants that survived the ``rest`` run of an earlier
output, less those a rerun already killed, and adds this tree's outcome
under ``rerun``. Each mutant named in ``EQUIVALENT`` gets its reason.
One worker runs per CPU. The standard library only.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = Path("src/qmaxent/maxent.py")
SCOPE = (
    "_modulus", "_where", "_record_suspects", "_check_records", "_exp_sum",
    "_exponent_spectrum", "_expectations", "_predict_population", "_project", "_rescale",
    "_deviation", "_deviation_suspects", "_check_reproduction", "_solve",
    "_complete_and_solve",
    "_SQUARE_SHARE", "_SQUARE_FLOOR", "_REPRODUCTION_SQUARE",
)
KERNEL_TESTS = (
    "tests/test_kernel_edges.py", "tests/test_maxent_inverse.py", "tests/test_maxent_forward.py",
    "tests/test_sweep_kernel.py", "tests/test_block_kernel.py", "tests/test_tolerances.py",
)

TIMEOUT = 600  # seconds of one pytest run

# Mutants that no test can kill, by id, with the reason.
_SUPERSET = (
    "the screen marks a superset of its points; the scalar check decides each suspect, "
    "so only the number of scalar checks changes"
)
_MARGIN = (
    "loosens the screen's minor bound by at most 2^-1021, far inside the tol/2 by which that "
    "bound lies within the check's"
)
EQUIVALENT = {
    **dict.fromkeys([
        "_SQUARE_SHARE/0", "_SQUARE_SHARE/3", "_SQUARE_SHARE/5", "_SQUARE_SHARE/6",
        "_SQUARE_FLOOR/2", "_SQUARE_FLOOR/3", "_REPRODUCTION_SQUARE/1",
        *(f"_record_suspects/{k}" for k in (
            0, 1, 2, 3, 5, 6, 7, 9, 10, 11, 13, 16, 17, 18, 19, 21, 23, 24, 26, 27, 29, 30,
        )),
        *(f"_deviation_suspects/{k}" for k in (1, 3, 5)),
    ], _SUPERSET),
    **dict.fromkeys([
        "_SQUARE_FLOOR/1", "_SQUARE_FLOOR/4", "_record_suspects/34",
    ], _MARGIN),
    **dict.fromkeys(["_solve/39", "_solve/41"], (
        "where z w equals the floor both branches give the same value"
    )),
    "_solve/35": "w+ = mid + r is zero only as +0.0, which both branches give",
    **dict.fromkeys(["_deviation/4", "_deviation/6"], (
        "where the two terms are equal either one is the value, and a NaN compares false "
        "both ways"
    )),
    **dict.fromkeys(["_exponent_spectrum/22", "_exponent_spectrum/23"], (
        "this default of expm1(2r)/(2r) applies only at r = 0, where c, t and |h| are 0, "
        "so every block entry multiplies s by zero"
    )),
    **dict.fromkeys(["_rescale/7", "_rescale/8"], (
        "the projection leaves x11 + xKK <= 1, so where it is >= 1 - 1e-12, c is within "
        "1e-9 below 1: never 0.1, 10 or 1, and the (c != 1.0) term never changes the mask"
    )),
    "_exponent_spectrum/15": (
        "equivalent to rounding: at 2r = 1 exactly both forms of s, lo expm1(2r)/(2r) and "
        "(hi - lo)/(2r), hold to a few ulps"
    ),
    "_exponent_spectrum/31": (
        "at h = 0 the two diagonal entries lo + (s c) q and lo + s (r + |h|) are the same "
        "float, since r = c and q = 1 (or c = q = 0)"
    ),
    "_predict_population/5": "the ceiling 1 - x11 is zero only as +0.0, which both branches give",
    "_predict_population/7": (
        "where the prediction equals its ceiling both branches give the same value, and a "
        "NaN compares false both ways"
    ),
    "_project/2": (
        "at |x1K| = 1 the unit scaling multiplies by 1.0, and the modulus taken again is "
        "the same"
    ),
}

COMPARE = {
    ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="), ast.Is: ("is", "is not"),
    ast.IsNot: ("is not", "is"),
}
BINARY = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"), ast.Div: ("/", "*")}


@dataclass(frozen=True)
class Mutant:
    id: str  # the scoped name and the mutant's place among that name's mutants
    name: str
    line: int
    start: int  # byte offsets of the replaced text in the source
    end: int
    original: str
    replacement: str

    def apply(self, source: bytes) -> bytes:
        return source[: self.start] + self.replacement.encode() + source[self.end :]


def _offsets(source: bytes):
    """A function of an ast (lineno, col_offset) to a byte offset."""
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return lambda line, col: starts[line - 1] + col


def _operator(source: bytes, start: int, end: int, symbol: str) -> int:
    """The offset of ``symbol`` in source[start:end], the text between two
    operands, which holds it once among brackets, blanks and comments."""
    gap = re.sub(rb"#[^\n]*", lambda m: b" " * len(m.group()), source[start:end]).decode()
    match = re.fullmatch(rf"[\s()\\]*({re.escape(symbol)})[\s()\\]*", gap)
    if match is None:
        raise ValueError(f"no lone {symbol!r} in {gap!r}")
    return start + match.start(1)


def _edits(node, source: bytes, at):
    """The (start, end, replacement) edits of one ast node's mutants."""
    def span(n):
        return at(n.lineno, n.col_offset), at(n.end_lineno, n.end_col_offset)

    def text(n):
        start, end = span(n)
        return source[start:end].decode()

    if isinstance(node, ast.Compare):
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if type(op) in COMPARE:
                symbol, swap = COMPARE[type(op)]
                i = _operator(source, span(left)[1], span(right)[0], symbol)
                yield i, i + len(symbol), swap
    elif isinstance(node, ast.BinOp) and type(node.op) in BINARY:
        symbol, swap = BINARY[type(node.op)]
        i = _operator(source, span(node.left)[1], span(node.right)[0], symbol)
        yield i, i + 1, swap
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        start, end = span(node)
        yield start, end, text(node)[1:].lstrip()
    elif (
        isinstance(node, ast.Constant) and type(node.value) in (int, float)
        and node.value * 10 != node.value
    ):
        start, end = span(node)
        for value in (node.value * 10, node.value / 10):
            yield start, end, repr(value)
    elif (
        isinstance(node, ast.Call) and ast.unparse(node.func) == "np.where"
        and len(node.args) == 3
    ):
        (start, mid), (mid2, end) = span(node.args[1]), span(node.args[2])
        between = source[mid:mid2].decode()
        yield start, end, text(node.args[2]) + between + text(node.args[1])


def enumerate_mutants(source: bytes, names=SCOPE) -> list[Mutant]:
    """Every mutant of the top-level functions and constants ``names`` of
    ``source``, in source order within each name."""
    at = _offsets(source)
    tree = ast.parse(source)
    found = []
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            name, body = top.name, top.body
        elif isinstance(top, ast.Assign) and isinstance(top.targets[0], ast.Name):
            name, body = top.targets[0].id, [top.value]
        else:
            continue
        if name not in names:
            continue
        edits = sorted({
            edit for stmt in body for node in ast.walk(stmt)
            for edit in _edits(node, source, at)
        })
        for k, (start, end, replacement) in enumerate(edits):
            line = source.count(b"\n", 0, start) + 1
            found.append(Mutant(
                f"{name}/{k}", name, line, start, end, source[start:end].decode(), replacement,
            ))
    return found


def _copy(root: Path, dest: Path) -> None:
    shutil.copytree(root, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", "out", "*.csv",
    ))


def _pytest(tree: Path, files) -> dict:
    """One ``pytest -x`` run of ``files`` in ``tree``: killed, with the file
    of the first failure, survived or timed out."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *files]
    began = time.perf_counter()
    try:
        proc = subprocess.run(
            command, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return {"outcome": "timed out", "seconds": TIMEOUT}
    seconds = round(time.perf_counter() - began, 1)
    if proc.returncode == 0:
        return {"outcome": "survived", "seconds": seconds}
    # The first failing file, or the conftest that failed to import.
    failed = re.search(
        r"^(?:FAILED|ERROR) (tests/[\w.]+)|while loading conftest '.*?(tests/conftest\.py)'",
        proc.stdout + proc.stderr, re.MULTILINE,
    )
    first = failed and (failed.group(1) or failed.group(2))
    return {"outcome": "killed", "file": first, "seconds": seconds}


def _test_files(tree: Path, held_out) -> list[str]:
    rest = sorted(
        f"tests/{p.name}" for p in (tree / "tests").glob("test_*.py")
        if f"tests/{p.name}" not in KERNEL_TESTS
    )
    return [f for f in (*KERNEL_TESTS, *rest) if f not in held_out and (tree / f).exists()]


def run(mutants, root: Path, held_out, key, entries, save) -> None:
    """Run each mutant on its own worker's copy of ``root``, store its
    outcome under ``key`` of its entry and call ``save`` after each."""
    source = (root / SOURCE).read_bytes()
    lock = threading.Lock()
    pending = list(mutants)
    with tempfile.TemporaryDirectory() as scratch:
        def worker(w):
            tree = Path(scratch) / f"tree{w}"
            _copy(root, tree)
            files = _test_files(tree, held_out)
            while True:
                with lock:
                    if not pending:
                        return
                    mutant = pending.pop(0)
                (tree / SOURCE).write_bytes(mutant.apply(source))
                result = {key: _pytest(tree, files)}
                if held_out and result[key]["outcome"] == "survived":
                    result["held_out"] = _pytest(tree, held_out)
                (tree / SOURCE).write_bytes(source)
                with lock:
                    entries[mutant.id].update(result)
                    save()
                    print(mutant.id, result, flush=True)

        jobs = os.cpu_count() or 1
        with ThreadPoolExecutor(jobs) as pool:
            for future in [pool.submit(worker, w) for w in range(jobs)]:
                future.result()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=ROOT, help="the tree to mutate")
    parser.add_argument("--function", action="append", help="mutate only these names")
    parser.add_argument("--list", action="store_true", help="print the mutants and stop")
    parser.add_argument("--hold-out", action="append", default=[], help="a test file")
    parser.add_argument("--out", type=Path, default=ROOT / "MUTANTS.json")
    parser.add_argument("--baseline", type=Path, help="an earlier output to rerun")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    source = (root / SOURCE).read_bytes()
    mutants = enumerate_mutants(source, args.function or SCOPE)
    for m in mutants:
        compile(m.apply(source), str(SOURCE), "exec")
    if args.list:
        for m in mutants:
            print(f"{m.id}\tline {m.line}\t{m.original!r} -> {m.replacement!r}")
        print(f"{len(mutants)} mutants")
        return

    if args.baseline:
        key, report = "rerun", json.loads(args.baseline.read_text())
        entries = {e["id"]: e for e in report["mutants"]}
        for m in mutants:
            if (entries[m.id]["original"], entries[m.id]["replacement"]) != (
                m.original, m.replacement
            ):
                raise SystemExit(f"{m.id} differs from the baseline's")
            entries[m.id]["line"] = m.line
        mutants = [
            m for m in mutants if entries[m.id]["rest"]["outcome"] == "survived"
            and entries[m.id].get(key, {}).get("outcome") != "killed"
        ]
    else:
        key, report = "rest", {"source": str(SOURCE)}
        entries = {m.id: {
            "id": m.id, "function": m.name, "line": m.line,
            "original": m.original, "replacement": m.replacement,
        } for m in mutants}
    report.setdefault("runs", {})[key] = {
        "tests": "Tier-1 with -x, kernel test files first", "held_out": args.hold_out,
        "timeout_s": TIMEOUT,
    }
    report["mutants"] = list(entries.values())

    def save():
        for e in report["mutants"]:
            if e["id"] in EQUIVALENT:
                e["equivalent"] = EQUIVALENT[e["id"]]
        args.out.write_text(json.dumps(report, indent=1) + "\n")

    save()
    run(mutants, root, args.hold_out, key, entries, save)


if __name__ == "__main__":
    main()
