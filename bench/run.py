"""Benchmark of the qmaxent command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.
With ``--trace 0`` the end-to-end metrics are measured: set-up time and
peak memory in fresh interpreters, then passes over the workload's
configs back to back for ``S`` seconds in this process, untraced. With
``--trace 1`` untraced and traced passes alternate for ``S`` seconds and
the per-layer metrics come from the traced ones. Every pass is checked
against its CSVs. End-to-end times are rescaled to the nominal speed of a
reference loop timed beside them (see ``workloads.REFERENCE_NOMINAL_S``);
the raw figures are printed too. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines above it give every metric with its unit, the machine and the CSV
hashes. Details go to ``bench/out/``.
"""

import os

# One BLAS thread, here and in every probe started from here, so the
# measured process is the only computing thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import spans
import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PROBES = 7
MIN_PASSES = 3
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "points_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "min_fidelity": "ratio",
}


class ProbeError(RuntimeError):
    pass


def _probe(args: list[str]) -> tuple[int, str]:
    """Run probe.py in a fresh interpreter; returns (start ns, its output)."""
    start = time.monotonic_ns()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), *args],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise ProbeError(f"probe {args[0]} exited {proc.returncode}: {proc.stderr[-400:]}")
    return start, proc.stdout.split()[-1]


def setup_seconds(jobs) -> float:
    """Interpreter start, ``import qmaxent.cli`` and ``load_config`` of every job."""
    start, ready = _probe(["setup", *(str(j.config) for j in jobs)])
    return (int(ready) - start) / 1e9


def peak_rss_mib(jobs) -> float:
    """Peak resident memory of a fresh process running one pass."""
    _, kib = _probe(["rss", jobs[0].command, *(str(j.config) for j in jobs)])
    return int(kib) / 1024


def machine_facts(numpy, scipy) -> dict:
    def blas_version(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (TypeError, KeyError):
            return "unknown"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy),
        "openblas_scipy": blas_version(scipy),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{q1:.6g}..{q3:.6g}"


def timed_run(cli, jobs, budget: float) -> dict:
    setups, raw_setups = [], []
    for _ in range(SETUP_PROBES):
        before = wl.reference_seconds()
        raw_setups.append(setup_seconds(jobs))
        reference_s = (before + wl.reference_seconds()) / 2
        setups.append(wl.rescale(raw_setups[-1], reference_s))
    rss = peak_rss_mib(jobs)
    reference = wl.run_pass(cli, jobs)
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < budget:
        outcomes = wl.run_pass(cli, jobs)
        wl.mark_changed(reference, outcomes)
        passes.append(outcomes)
    points = wl.points(reference)
    # Each config's median over the passes, so one disturbed config run
    # does not spoil a whole pass.
    job_medians = [
        statistics.median(p[i].rescaled_seconds for p in passes) for i in range(len(jobs))
    ]
    raw_rates = [wl.points(p) / wl.seconds(p) for p in passes]
    fids = [f for o in reference for f in o.fidelities if not math.isnan(f)]
    metrics = {
        "points_per_s": points / sum(job_medians),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        "min_fidelity": min(fids) if fids else math.nan,
    }
    notes = {
        "points_per_s": f"{points} points per pass over the summed median rescaled "
        f"time of each config in {len(passes)} passes; raw per-pass median "
        f"{statistics.median(raw_rates):.6g}, quartiles {quartiles(raw_rates)}",
        "setup_s": f"median of {len(setups)} fresh processes, rescaled; raw median "
        f"{statistics.median(raw_setups):.6g}, quartiles {quartiles(raw_setups)}",
        "peak_rss_mb": "fresh process running one pass",
        "min_fidelity": f"over {len(fids)} rows of one pass",
    }
    return _result([reference, *passes], reference, metrics, END_TO_END_UNITS, notes)


def traced_run(cli, jobs, budget: float, spans_path: Path) -> dict:
    reference = wl.run_pass(cli, jobs)
    untraced, traced, tracers = [], [], []
    start = time.perf_counter()
    while len(traced) < MIN_PASSES or time.perf_counter() - start < budget:
        outcomes = wl.run_pass(cli, jobs)
        wl.mark_changed(reference, outcomes)
        untraced.append(outcomes)
        tracer = spans.Tracer()
        with tracer:
            tracer.install(spans.loaded_modules())
            outcomes = wl.run_pass(cli, jobs, tracer)
        wl.mark_changed(reference, outcomes)
        traced.append(outcomes)
        tracers.append(tracer)
    totals = [t.layer_totals() for t in tracers]
    metrics, units, notes = {}, {}, {}
    counts_repeat = True
    for key in totals[0]:
        values = [t[key] for t in totals]
        if key.endswith("_s"):
            metrics[key], units[key] = statistics.median(values), "s"
        else:
            counts_repeat &= len(set(values)) == 1
            metrics[key] = values[0]
            units[key] = spans.EXTRA_COUNTS.get(key, "count")
    metrics["sampler.mitigation.direct_share"] = spans.direct_share(totals[0])
    units["sampler.mitigation.direct_share"] = "ratio"
    metrics["trace.overhead_share"] = (
        statistics.median(wl.rescaled_seconds(p) for p in traced)
        / statistics.median(wl.rescaled_seconds(p) for p in untraced)
        - 1
    )
    traced_walls = [wl.seconds(p) for p in traced]
    metrics["trace.unaccounted_share"] = statistics.median(
        (wall - t.root_seconds()) / wall for wall, t in zip(traced_walls, tracers)
    )
    units["trace.overhead_share"] = units["trace.unaccounted_share"] = "ratio"
    notes["trace.overhead_share"] = (
        f"median traced pass / median untraced pass - 1 over {len(traced)} pairs, "
        "both rescaled"
    )
    self_sum = sum(v for k, v in metrics.items() if k.endswith("_s"))
    notes["trace.unaccounted_share"] = (
        f"named spans' self times sum to {self_sum:.6g} s of a median traced "
        f"pass of {statistics.median(traced_walls):.6g} s"
    )
    rows = spans.write_spans(spans_path, tracers)
    print(f"spans: {rows} written to {spans_path.relative_to(ROOT)}")
    if tracers[0].missing:
        print(f"trace: not found, so not wrapped: {', '.join(tracers[0].missing)}")
    errors = sum((t.count_errors for t in tracers), Counter())
    if errors:
        print(f"trace: count extraction failed for {dict(errors)}")
    result = _result([reference, *untraced, *traced], reference, metrics, units, notes)
    if not counts_repeat:
        print("check: counts differ between traced passes of the same inputs")
        result["correct"] = False
    return result


def _result(all_passes, reference, metrics, units, notes) -> dict:
    attempted = sum(wl.points(p) for p in all_passes)
    failed = sum(wl.failed(p) for p in all_passes)
    diffs = [d for o in reference for d in o.abs_diffs if not math.isnan(d)]
    for outcomes in all_passes:
        for o in outcomes:
            if o.problem:
                print(f"check: {o.job.model}: {o.problem}")
    for o in reference:
        print(f"csv {o.job.model}: {o.job.points} points sha256 {o.sha256 or '-'}")
    print(
        f"output: median_abs_diff {statistics.median(diffs) if diffs else math.nan:.6g} "
        f"over {len(diffs)} rows; failed_share {failed / attempted:.6g} "
        f"({failed} of {attempted} points)"
    )
    for key, value in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"metric {key} = {value:.6g} {units[key]}{note}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "csv_sha256": {o.job.model: o.sha256 for o in reference},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qmaxent" / "cli.py").is_file():
        print(f"error: no qmaxent sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import qmaxent.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "qmaxent":
        print(f"error: imported qmaxent from {cli.__file__}", file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        print(f"error: workloads are {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]

    facts = machine_facts(numpy, scipy)
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"workload {workload.name} seed {args.seed}: {workload.why}")
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        jobs = wl.make_jobs(workload, args.seed, workdir)
        if args.trace:
            result = traced_run(cli, jobs, args.seconds, OUT / f"{stem}.spans.csv.gz")
        else:
            result = timed_run(cli, jobs, args.seconds)
    except ProbeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    hashes = result.pop("csv_sha256")
    (OUT / f"{stem}.json").write_text(
        json.dumps({"machine": facts, "csv_sha256": hashes, **result}, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
