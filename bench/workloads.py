"""Workload configs, the command-line passes over them, and output checks.

A workload is four config files, one per bundled sweep model, each run
through ``qmaxent.cli.main`` as a user would run ``qmaxent sweep`` or
``qmaxent caseab``. One pass runs the four configs back to back. The
benchmark seed is the only source of variation: it becomes the config
``seed`` on the sampling workloads and picks the theta window on the exact
one, so the program sees nothing but the generated files.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import random
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Bundled sweep models and their qubit counts; every K target 2..2^n runs.
MODELS = {"twoq_a": 2, "twoq_b": 2, "twoq_c": 2, "threeq_a": 3}

# Prediction-accuracy bound of the paper on exact data.
EXACT_ABS_DIFF_BOUND = 1e-8

# On a shared host, neighbours' load moves the speed of a whole run by
# 20-40% from minute to minute. A fixed reference loop is timed next to
# every measured piece of work, and times are rescaled to the loop's
# nominal speed: t * REFERENCE_NOMINAL_S / t_reference. Rescaled figures
# spread about a third as much between runs as raw ones.
REFERENCE_NOMINAL_S = 0.04
REFERENCE_ITERATIONS = 1500
REFERENCE_DRAW_EVERY = 25


def reference_seconds() -> float:
    """Time of a fixed loop of interpreter work, small numpy calls and
    vectorised sampling.

    It mixes the kinds of work the program does per point, and it never
    changes with the program. Interpreter-bound and vectorised code slow
    down differently under the neighbours' load, so it holds both.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    probs = np.arange(1.0, 9.0) / 36.0
    block = np.eye(4, dtype=complex)
    total = 0.0
    for i in range(REFERENCE_ITERATIONS):
        row = {j: j * 0.5 + i for j in range(16)}
        total += sum(row.values())
        total += float(np.linalg.eigvalsh(block * (i % 7 + 1))[-1])
        if i % REFERENCE_DRAW_EVERY == 0:
            draws = rng.choice(8, size=8192, p=probs)
            total += float(np.unique(draws, return_counts=True)[1][0])
    return time.perf_counter() - start


def rescale(seconds: float, reference_s: float) -> float:
    """``seconds`` measured beside a reference loop that took ``reference_s``."""
    return seconds * REFERENCE_NOMINAL_S / reference_s


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    theta_steps: int
    settings: tuple[tuple[str, str], ...]
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exact_sweep",
            "sweep",
            201,
            (("backend", "exact"),),
            "exact backend on a dense theta grid: parse, simulate and the "
            "maxent reconstruct path; the sampler is bypassed",
        ),
        Workload(
            "mitigated_sweep",
            "sweep",
            21,
            (
                ("backend", "noisy"),
                ("shots", "8192"),
                ("p01", "0.02"),
                ("p10", "0.04"),
                ("mitigate", "true"),
            ),
            "noisy backend with readout mitigation: sampling, per-setting "
            "simulation, calibration and the mitigation solve",
        ),
        Workload(
            "shots_caseab",
            "caseab",
            21,
            (("backend", "shots"), ("shots", "8192")),
            "shot sampling without noise or mitigation through the case A/B "
            "loop; a mitigation change must not show here",
        ),
    )
}


@dataclass(frozen=True)
class Job:
    """One config file run through one command."""

    model: str
    command: str
    config: Path
    out: Path
    points: int
    exact: bool


def make_jobs(workload: Workload, seed: int, workdir: Path) -> list[Job]:
    """Write the workload's config files for ``seed`` into ``workdir``."""
    exact = dict(workload.settings)["backend"] == "exact"
    if exact:
        start = random.Random(seed).uniform(0.0, 2 * math.pi)
        window = (("theta_start", repr(start)), ("theta_stop", repr(start + 2 * math.pi)))
    else:
        window = (("seed", str(seed)),)
    jobs = []
    for model, qubits in MODELS.items():
        config = workdir / f"{workload.name}_{model}.txt"
        out = workdir / f"{workload.name}_{model}.csv"
        lines = [
            ("circuit", model),
            ("theta_steps", str(workload.theta_steps)),
            *window,
            *workload.settings,
            ("out", str(out)),
        ]
        config.write_text("".join(f"{key} {value}\n" for key, value in lines))
        points = workload.theta_steps * (2**qubits - 1)
        jobs.append(Job(model, workload.command, config, out, points, exact))
    return jobs


@dataclass
class Outcome:
    """Result of one job in one pass, read back from its CSV."""

    job: Job
    seconds: float
    failed: int
    sha256: str = ""
    problem: str = ""
    abs_diffs: tuple[float, ...] = ()
    fidelities: tuple[float, ...] = ()
    reference_s: float = REFERENCE_NOMINAL_S  # reference loop time beside the run

    @property
    def rescaled_seconds(self) -> float:
        return rescale(self.seconds, self.reference_s)


def check_output(job: Job, seconds: float) -> Outcome:
    """Read the job's CSV back and count the points that fail the checks.

    The row count must equal the points attempted. Exact rows need
    ``abs_diff <= 1e-8`` wherever it is not NaN; sampled rows need a
    finite fidelity in [0, 1].
    """
    try:
        data = job.out.read_bytes()
    except OSError as exc:
        return Outcome(job, seconds, job.points, problem=f"no output: {exc}")
    digest = hashlib.sha256(data).hexdigest()
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    if len(rows) != job.points:
        return Outcome(
            job, seconds, job.points, digest,
            f"{len(rows)} rows for {job.points} points",
        )
    fid_key = "fidelity" if job.command == "sweep" else "fidelity_ab"
    diffs = tuple(float(r["abs_diff"]) for r in rows)
    fids = tuple(float(r[fid_key]) for r in rows)
    if job.exact:
        bad = sum(d > EXACT_ABS_DIFF_BOUND for d in diffs)
    else:
        bad = sum(not 0.0 <= f <= 1.0 for f in fids)
    problem = f"{bad} rows fail the output check" if bad else ""
    return Outcome(job, seconds, bad, digest, problem, diffs, fids)


def run_job(cli, job: Job) -> Outcome:
    """Run one config through ``cli.main`` and check what it wrote.

    Only the ``main`` call is timed. A run that raises or exits non-zero
    fails every one of its points.
    """
    job.out.unlink(missing_ok=True)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            code = cli.main([job.command, str(job.config)])
        except Exception:
            code = "raised " + traceback.format_exc().strip().splitlines()[-1]
        seconds = time.perf_counter() - start
    if code != 0:
        return Outcome(
            job, seconds, job.points,
            problem=f"exit {code}: {sink.getvalue().strip()[-400:]}",
        )
    return check_output(job, seconds)


def run_pass(cli, jobs: list[Job], tracer=None) -> list[Outcome]:
    """Run every job once, stamping each job's index on the tracer's spans.

    The reference loop runs before each job and after the last; a job's
    ``reference_s`` is the mean of the two runs beside it.
    """
    outcomes = []
    before = reference_seconds()
    for run_id, job in enumerate(jobs):
        if tracer is not None:
            tracer.run_id = run_id
        outcome = run_job(cli, job)
        after = reference_seconds()
        outcome.reference_s = (before + after) / 2
        outcomes.append(outcome)
        before = after
    return outcomes


def points(outcomes: list[Outcome]) -> int:
    return sum(o.job.points for o in outcomes)


def failed(outcomes: list[Outcome]) -> int:
    return sum(o.failed for o in outcomes)


def seconds(outcomes: list[Outcome]) -> float:
    return sum(o.seconds for o in outcomes)


def rescaled_seconds(outcomes: list[Outcome]) -> float:
    return sum(o.rescaled_seconds for o in outcomes)


def mark_changed(reference: list[Outcome], outcomes: list[Outcome]) -> None:
    """Fail every point of a job whose CSV differs from the reference pass.

    Output bytes are a pure function of config and seed, so a repeated
    pass must write the same files.
    """
    for ref, outcome in zip(reference, outcomes):
        if outcome.sha256 and ref.sha256 and outcome.sha256 != ref.sha256:
            outcome.failed = outcome.job.points
            outcome.problem = "CSV differs from the first pass"
