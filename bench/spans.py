"""Outside-in tracing of the qmaxent modules.

A ``Tracer`` replaces public functions with wrappers that record one span
per call (name, start, end, parent span, run id) and a few counts derived
from the call's arguments and return value. Nothing inside the library
changes: a wrapper is bound to every module attribute that holds the
original function, so ``qmaxent.cli.simulate`` and
``qmaxent.sampler.simulate`` both report as ``circuit.simulate``. The
originals are put back by ``restore`` (or on leaving the ``with`` block).

Spans are kept in flat arrays while the traced code runs and are written
out by ``write_spans`` once the benchmark is done.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import os
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable


def _arg(args, kwargs, index: int, name: str, default=None):
    """Argument ``name`` of a call, passed by position ``index`` or keyword."""
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _emit_counts(args, kwargs, result):
    yield "cli.emit.bytes", os.path.getsize(_arg(args, kwargs, 1, "path"))


def _simulate_counts(args, kwargs, result):
    circuit = _arg(args, kwargs, 0, "c")
    gates = len(circuit.gates)
    yield "circuit.simulate.gates", gates
    # Bytes of complex128 amplitudes each gate sweeps over, not a measured
    # memory traffic figure.
    yield "circuit.simulate.amp_bytes", gates * 2**circuit.num_qubits * 16


def _sample_counts(args, kwargs, result):
    yield "sampler.sample.shots", _arg(args, kwargs, 1, "shots")


def _pauli_counts(args, kwargs, result):
    if _arg(args, kwargs, 5, "calibration") is not None:
        yield "sampler.mitigation.solves", 1


def _mitigate_counts(args, kwargs, result):
    yield "sampler.mitigation.solves", 1


def _predict_counts(args, kwargs, result):
    x_11 = _arg(args, kwargs, 0, "x_11")
    if result == max(0.0, 1.0 - x_11):
        yield "maxent.predict.clamped", 1


def _feasible_counts(args, kwargs, result):
    x_11 = float(_arg(args, kwargs, 2, "x_11"))
    x_1k = complex(_arg(args, kwargs, 3, "x_1k"))
    x_kk = _arg(args, kwargs, 4, "x_kk")
    x_kk = None if x_kk is None else float(x_kk)
    if (result.x_11, result.x_1k, result.x_kk) != (x_11, x_1k, x_kk):
        yield "maxent.feasible.projected", 1


def _rescale_counts(args, kwargs, result):
    if result != _arg(args, kwargs, 0, "mr"):
        yield "maxent.rescale.fired", 1


def _solve_counts(args, kwargs, result):
    if result.near_singular:
        yield "maxent.solve.near_singular", 1


@dataclass(frozen=True)
class SpanSpec:
    """One span name and the functions, as ``module:attr``, reported under it."""

    name: str
    targets: tuple[str, ...]
    counts: Callable | None = None


SPECS = (
    SpanSpec("cli.main", ("qmaxent.cli:main",)),
    SpanSpec("cli.load_config", ("qmaxent.cli:load_config",)),
    SpanSpec("cli.run", ("qmaxent.cli:run_sweep", "qmaxent.cli:run_case_ab")),
    SpanSpec(
        "cli.emit",
        ("qmaxent.cli:emit_csv", "qmaxent.cli:emit_caseab_csv"),
        _emit_counts,
    ),
    SpanSpec("circuit.parse", ("qmaxent.circuit:parse_circuit",)),
    SpanSpec("circuit.simulate", ("qmaxent.circuit:simulate",), _simulate_counts),
    SpanSpec("pauli.decompose", ("qmaxent.pauli:decompose_ketbra",)),
    SpanSpec("pauli.settings", ("qmaxent.pauli:measurement_settings",)),
    SpanSpec("pauli.recombine", ("qmaxent.pauli:expectation_from_paulis",)),
    SpanSpec("sampler.sample", ("qmaxent.sampler:sample_counts",), _sample_counts),
    SpanSpec("sampler.populations", ("qmaxent.sampler:estimate_populations",)),
    SpanSpec("sampler.pauli", ("qmaxent.sampler:estimate_pauli",), _pauli_counts),
    SpanSpec("sampler.coherence", ("qmaxent.sampler:estimate_coherence",)),
    SpanSpec("sampler.calibration", ("qmaxent.sampler:build_calibration",)),
    SpanSpec("sampler.mitigate", ("qmaxent.sampler:mitigate",), _mitigate_counts),
    SpanSpec("sampler.mitigation.slsqp", ("scipy.optimize:minimize",)),
    SpanSpec("sampler.mitigation.nnls", ("scipy.optimize:nnls",)),
    SpanSpec("maxent.predict", ("qmaxent.maxent:predict_population",), _predict_counts),
    SpanSpec("maxent.feasible", ("qmaxent.maxent:feasible_record",), _feasible_counts),
    SpanSpec("maxent.rescale", ("qmaxent.maxent:saturation_rescale",), _rescale_counts),
    SpanSpec("maxent.solve", ("qmaxent.maxent:solve_lagrange",), _solve_counts),
    SpanSpec("maxent.forward", ("qmaxent.maxent:forward_expectations",)),
    SpanSpec("maxent.density", ("qmaxent.maxent:density_from_lagrange",)),
    SpanSpec("maxent.fidelity", ("qmaxent.maxent:fidelity",)),
    SpanSpec("linalg.eig", ("qmaxent.linalg:hermitian_eig",)),
    SpanSpec("linalg.require_hermitian", ("qmaxent.linalg:require_hermitian",)),
)

# Counts reported per span besides calls and self time, with their units.
EXTRA_COUNTS = {
    "cli.emit.bytes": "B",
    "circuit.simulate.gates": "count",
    "circuit.simulate.amp_bytes": "B-computed",
    "sampler.sample.shots": "count",
    "sampler.mitigation.solves": "count",
    "maxent.predict.clamped": "count",
    "maxent.feasible.projected": "count",
    "maxent.rescale.fired": "count",
    "maxent.solve.near_singular": "count",
}

# The scipy spans are reported under the mitigation-path names.
_RENAMES = {
    "sampler.mitigation.slsqp.calls": "sampler.mitigation.slsqp_calls",
    "sampler.mitigation.slsqp.self_s": "sampler.mitigation.slsqp_s",
    "sampler.mitigation.nnls.calls": "sampler.mitigation.nnls_calls",
    "sampler.mitigation.nnls.self_s": "sampler.mitigation.nnls_s",
}


def span_metric(span: str, kind: str) -> str:
    """Name of the ``calls`` or ``self_s`` metric of a span."""
    name = f"{span}.{kind}"
    return _RENAMES.get(name, name)


def loaded_modules(prefix: str = "qmaxent") -> list:
    """Every imported module of the package, the package itself included."""
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == prefix or name.startswith(prefix + "."))
    ]


def self_times(parents: Iterable[int], starts: Iterable[int], ends: Iterable[int]) -> list[int]:
    """Each span's duration minus the durations of its direct children.

    Spans nest strictly (one thread), so the children of a span cover
    disjoint parts of it and their durations add up.
    """
    durations = [end - start for start, end in zip(starts, ends)]
    covered = [0] * len(durations)
    for index, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += durations[index]
    return [d - c for d, c in zip(durations, covered)]


class Tracer:
    """Span recorder installed over module attributes.

    ``run_id`` is stamped on every span recorded while it is set; the
    harness sets it to the index of the command invocation.
    """

    def __init__(self, specs=SPECS, clock=time.perf_counter_ns):
        self.specs = tuple(specs)
        self.clock = clock
        self.run_id = 0
        self.names = [spec.name for spec in self.specs]
        self.name_ids = array("i")
        self.parents = array("i")
        self.runs = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.counts: Counter = Counter()
        self.count_errors: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self, modules) -> None:
        """Wrap each target wherever ``modules`` bind it."""
        for name_id, spec in enumerate(self.specs):
            for target in spec.targets:
                module_name, attr = target.split(":")
                try:
                    original = getattr(importlib.import_module(module_name), attr)
                except (ImportError, AttributeError):
                    self.missing.append(target)
                    continue
                wrapper = self._wrap(original, name_id, spec)
                bound = False
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, key, original))
                            setattr(module, key, wrapper)
                            bound = True
                if not bound:
                    self.missing.append(target)

    def restore(self) -> None:
        """Put every wrapped attribute back to its original function."""
        while self._saved:
            module, key, original = self._saved.pop()
            setattr(module, key, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    def _wrap(self, original, name_id: int, spec: SpanSpec):
        stack = self._stack
        clock = self.clock

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = len(self.ends)
            self.name_ids.append(name_id)
            self.parents.append(stack[-1] if stack else -1)
            self.runs.append(self.run_id)
            self.ends.append(0)
            stack.append(span)
            self.starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                self.ends[span] = clock()
                stack.pop()
            if spec.counts is not None:
                try:
                    for key, amount in spec.counts(args, kwargs, result):
                        self.counts[key] += amount
                except Exception:
                    # A changed signature must not break the traced program;
                    # the harness reports the count as unreliable instead.
                    self.count_errors[spec.name] += 1
            return result

        return wrapper

    def layer_totals(self) -> dict[str, float]:
        """Calls, summed self time (s) and counts of every span name."""
        totals: dict[str, float] = {}
        for name in self.names:
            totals[span_metric(name, "calls")] = 0
            totals[span_metric(name, "self_s")] = 0.0
        for name_id, own in zip(
            self.name_ids, self_times(self.parents, self.starts, self.ends)
        ):
            name = self.names[name_id]
            totals[span_metric(name, "calls")] += 1
            totals[span_metric(name, "self_s")] += own / 1e9
        for key in EXTRA_COUNTS:
            totals[key] = self.counts[key]
        return totals

    def root_seconds(self) -> float:
        """Summed duration of the spans that have no parent."""
        return sum(
            end - start
            for parent, start, end in zip(self.parents, self.starts, self.ends)
            if parent < 0
        ) / 1e9


def direct_share(totals: dict[str, float]) -> float:
    """Share of mitigation solves that needed no constrained fallback."""
    solves = totals["sampler.mitigation.solves"]
    if solves == 0:
        return 0.0
    return (solves - totals["sampler.mitigation.slsqp_calls"]) / solves


def write_spans(path, tracers: Iterable[Tracer]) -> int:
    """Write the spans of every tracer as gzipped CSV; returns the row count."""
    rows = 0
    with gzip.open(path, "wt", newline="") as handle:
        out = csv.writer(handle)
        out.writerow(("pass", "run", "span", "parent", "name", "start_ns", "end_ns"))
        for pass_index, tracer in enumerate(tracers):
            for span, (name_id, parent, run, start, end) in enumerate(
                zip(tracer.name_ids, tracer.parents, tracer.runs, tracer.starts, tracer.ends)
            ):
                out.writerow(
                    (pass_index, run, span, parent, tracer.names[name_id], start, end)
                )
                rows += 1
    return rows
