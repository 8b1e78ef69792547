"""Experiment harness and command-line entry point.

Sweeps a rotation angle through a circuit model, measures (x11, x1K) with
one of three backends (exact statevector, shot sampling, shot sampling
with readout noise and optional mitigation), predicts the unknown
population, reconstructs the density matrix both with and without the
true xKK, and emits the comparison as CSV.

Config files are flat "key value" lines; see ``load_config`` for the keys.
All randomness derives from the config seed: sweep point p uses sub-seed
``seed + 10007 * p``, and the coherence estimator consumes a further
sub-seed per measurement basis.

``_sweep_points`` is the one per-point loop and ``SweepPoint`` the one
result type: ``run_sweep`` returns every point and ``run_case_ab`` the
solved ones, and the ``sweep`` and ``caseab`` CSVs are two views of them.
The loop does each piece of work once: the circuit text is tokenized once
and bound per theta, the gates before the first theta-dependent one are
simulated once per sweep, the exact backend reads its populations once
per theta, and the clamp-warning filter is entered once.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import circuits as bundled
from .circuit import Circuit, coherence, parse_circuit, simulate, theta_free_prefix
from .errors import InfeasibleRecordError, TomographyError, ValidationError
from .linalg import POLICY
from .maxent import (
    LagrangeSet,
    MeasurementRecord,
    block_fidelity,
    density_from_lagrange,
    dump_record,
    heatmap_scan,
    load_record,
    parse_keyvals,
    read_number,
    solve_record,
)
from .pauli import decompose_ketbra
from .sampler import (
    ReadoutNoise,
    build_calibration,
    estimate_coherence,
    estimate_populations,
)

_POINT_SEED_STRIDE = 10007
_COHERENCE_SEED_OFFSET = 101
_BACKENDS = ("exact", "shots", "noisy")

# Illustrative readout-flip rates used when a noisy config omits its own.
DEFAULT_P01 = 0.02
DEFAULT_P10 = 0.04


@dataclass(frozen=True)
class ExperimentConfig:
    circuit_path: str
    theta_start: float = 0.0
    theta_stop: float = 2 * math.pi
    theta_steps: int = 21
    k_targets: tuple[int, ...] = ()  # empty: every K in 2..2^n
    backend: str = "exact"
    shots: int | None = None
    noise: ReadoutNoise | None = None
    mitigate: bool = False
    seed: int = 0
    output_path: str | None = None

    def __post_init__(self):
        if self.backend not in _BACKENDS:
            raise ValidationError(f"backend must be one of {_BACKENDS}")
        if self.theta_steps < 1:
            raise ValidationError("theta_steps must be >= 1")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.backend != "exact" and (self.shots is None or self.shots < 1):
            raise ValidationError(f"backend {self.backend!r} requires shots >= 1")
        if self.backend == "noisy" and self.noise is None:
            raise ValidationError("noisy backend requires a noise model")
        if self.backend != "noisy" and self.noise is not None:
            raise ValidationError(f"backend {self.backend!r} reads no noise model")
        if self.backend != "noisy" and self.mitigate:
            raise ValidationError(f"backend {self.backend!r} cannot mitigate")


@dataclass(frozen=True)
class SweepPoint:
    """One (theta, K) sweep point: the measured (x11, x1K), the backend's
    true xKK, and the reconstructions from the predicted xKK (case A,
    ``lagrange_a``) and from the true one (case B, ``lagrange_b``) with
    their fidelity. A point whose x11 sits at the degeneracy floor has no
    prediction: NaN ``xkk_pred`` and ``fidelity``, and no multipliers."""

    theta: float
    k: int
    x11: float
    x1k: complex
    xkk_true: float
    xkk_pred: float = math.nan
    fidelity: float = math.nan
    lagrange_a: LagrangeSet | None = None
    lagrange_b: LagrangeSet | None = None

    @property
    def abs_diff(self) -> float:
        return abs(self.xkk_true - self.xkk_pred)

    @property
    def near_singular(self) -> bool:
        return (
            self.lagrange_a is None
            or self.lagrange_a.near_singular
            or self.lagrange_b.near_singular
        )


def resolve_circuit(spec_value: str) -> str:
    """Circuit text for a config value: a bundled name or a file path,
    read relative to the working directory unless absolute."""
    if spec_value in bundled.names():
        return bundled.load(spec_value)
    try:
        return Path(spec_value).read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read circuit {spec_value!r}: {exc}") from None


def _parse_bool(value: str, key: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValidationError(f"bad boolean for {key!r}: {value!r}")


def _k_targets(k_targets: tuple[int, ...], dim_n: int) -> tuple[int, ...]:
    """The K targets of a sweep: every K in 2..dim_n when none are given,
    else the given ones, each in range and named once."""
    if not k_targets:
        return tuple(range(2, dim_n + 1))
    for k in k_targets:
        if k < 2:
            raise ValidationError(f"k target {k} must be >= 2")
        if k > dim_n:
            raise ValidationError(f"k target {k} exceeds dimension {dim_n}")
    if len(set(k_targets)) != len(k_targets):
        raise ValidationError(f"k targets {k_targets} name a target twice")
    return tuple(k_targets)


_CONFIG_KEYS = (
    "circuit", "theta_start", "theta_stop", "theta_steps", "k_targets",
    "backend", "shots", "p01", "p10", "mitigate", "seed", "out",
)


def load_config(path: str | Path) -> ExperimentConfig:
    """Read a sweep config. Keys:

    circuit (bundled name or path), theta_start, theta_stop, theta_steps,
    k_targets (comma separated), backend (exact|shots|noisy), shots,
    p01, p10, mitigate (true|false), seed, out. p01, p10 and mitigate are
    read by the noisy backend only; any other backend rejects them.

    A circuit path is stored joined to the config's directory (an
    absolute one stays as it is), so the config runs from any working
    directory; a bundled name is stored as it is.
    """
    path = Path(path)
    values = parse_keyvals(path.read_text(), _CONFIG_KEYS, "config")
    if "circuit" not in values:
        raise ValidationError("config is missing the 'circuit' key")

    circuit_path = values["circuit"]
    if circuit_path not in bundled.names():
        circuit_path = str(path.parent / circuit_path)
    # The theta-free prefix knows the qubit count without binding a theta.
    num_qubits = theta_free_prefix(resolve_circuit(circuit_path)).num_qubits

    backend = values.get("backend", "exact")
    noise = None
    if backend == "noisy":
        p01 = read_number(values, "p01", DEFAULT_P01)
        p10 = read_number(values, "p10", DEFAULT_P10)
        noise = ReadoutNoise.uniform(p01, p10, num_qubits)
    else:
        for key in ("p01", "p10"):
            if key in values:
                raise ValidationError(
                    f"{key} is read by the noisy backend only, not {backend!r}"
                )
    # Each token is read as a k_targets value, so a bad one names the key.
    k_targets = tuple(
        read_number({"k_targets": tok}, "k_targets", None, int)
        for tok in values.get("k_targets", "").split(",")
        if tok.strip()
    )
    return ExperimentConfig(
        circuit_path=circuit_path,
        theta_start=read_number(values, "theta_start", 0.0),
        theta_stop=read_number(values, "theta_stop", 2 * math.pi),
        theta_steps=read_number(values, "theta_steps", 21, int),
        k_targets=_k_targets(k_targets, 2**num_qubits),
        backend=backend,
        shots=read_number(values, "shots", None, int),
        noise=noise,
        mitigate=_parse_bool(values.get("mitigate", "false"), "mitigate"),
        seed=read_number(values, "seed", 0, int),
        output_path=values.get("out"),
    )


def _sweep_points(cfg: ExperimentConfig) -> list[SweepPoint]:
    """Measure and reconstruct every (theta, K) point, theta outer, K inner.

    Point p draws from sub-seed seed + 10007 * p, floor points included.
    Clamp warnings from the case A prediction are suppressed; a clamped
    point is recognizable by xkk_pred = 1 - x11.
    """
    circuit_text = resolve_circuit(cfg.circuit_path)
    # Gates apply one at a time, so the state after the theta-free prefix
    # is the same bytes whether it is simulated once or at every theta.
    prefix = theta_free_prefix(circuit_text)
    num_qubits = prefix.num_qubits
    if num_qubits < 2:
        raise ValidationError(
            "reconstruction needs at least 2 qubits (no unconstrained "
            "states remain in a 1-qubit system)"
        )
    dim_n = 2**num_qubits
    k_targets = _k_targets(cfg.k_targets, dim_n)
    if cfg.theta_steps == 1:
        thetas = [cfg.theta_start]
    else:
        thetas = np.linspace(cfg.theta_start, cfg.theta_stop, cfg.theta_steps)
    # The exact backend reads exact probabilities whatever the config's shots.
    shots = None if cfg.backend == "exact" else cfg.shots
    calibration = build_calibration(cfg.noise, num_qubits) if cfg.mitigate else None
    prefix_state = simulate(prefix)
    skip = len(prefix.gates)
    points: list[SweepPoint] = []
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "predicted population", RuntimeWarning)
        for theta in thetas:
            theta = float(theta)
            # One simulation per theta serves every K target and Pauli setting.
            rest = parse_circuit(circuit_text, theta=theta).gates[skip:]
            sv = simulate(Circuit(num_qubits, rest), prefix_state)
            if shots is None:
                exact_pops = estimate_populations(sv)
            for k in k_targets:
                seed = cfg.seed + _POINT_SEED_STRIDE * len(points)
                # x1K is rho[1, K], the mean of |K><1|: a_0 * conj(a_{K-1}).
                if shots is None:
                    pops = exact_pops
                    x1k = coherence(sv, k, 1)
                else:
                    pops = estimate_populations(sv, shots, cfg.noise, seed, calibration)
                    x1k = estimate_coherence(
                        sv, k, 1, shots, cfg.noise,
                        seed + _COHERENCE_SEED_OFFSET, calibration,
                    )
                x11, xkk_true = float(pops[0]), float(pops[k - 1])
                solved = ()
                if x11 > POLICY.population_floor:
                    # Case A completes the record with the predicted xKK,
                    # case B with the backend's true one.
                    measured = MeasurementRecord(dim_n, k, x11, x1k)
                    completed, ls_a = solve_record(measured)
                    _, ls_b = solve_record(measured, xkk_true)
                    solved = (completed.x_kk, block_fidelity(ls_a, ls_b), ls_a, ls_b)
                points.append(SweepPoint(theta, k, x11, x1k, xkk_true, *solved))
    return points


def run_sweep(cfg: ExperimentConfig) -> list[SweepPoint]:
    """Every (theta, K) point, theta outer, K inner. A point whose x11 sits
    at the degeneracy floor is kept, flagged near_singular, not raised."""
    return _sweep_points(cfg)


def run_case_ab(cfg: ExperimentConfig) -> list[SweepPoint]:
    """The points of ``run_sweep`` that have a case A and a case B
    reconstruction to compare, in the same order: the floor points are
    left out."""
    return [p for p in _sweep_points(cfg) if p.lagrange_a is not None]


def _fmt(value: float) -> str:
    return f"{value:.11e}"


def _row_format(*fields: str) -> str:
    """One format string for a CSV row: "e" is a 12-significant-digit
    value as ``_fmt`` writes it, "s" a field written as it is."""
    return ",".join("{:.11e}" if f == "e" else "{}" for f in fields)


def _write_lines(lines: list[str], path: str | Path | None) -> None:
    """Write a header and its rows as LF-terminated lines to ``path``, or
    to stdout when ``path`` is None. No timestamps: the bytes are a pure
    function of the lines."""
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, newline="\n")


def _write_csv(header: str, rows: list[str], path: str | Path) -> None:
    if not rows:
        raise ValidationError("no rows to emit")
    _write_lines([header, *rows], path)


SWEEP_HEADER = "theta,k,x11,re_x1k,im_x1k,xkk_true,xkk_pred,abs_diff,fidelity,near_singular"
_SWEEP_ROW = _row_format("e", "s", "e", "e", "e", "e", "e", "e", "e", "s")


def emit_csv(points: list[SweepPoint], path: str | Path) -> None:
    """Write sweep points as CSV with 12-significant-digit values."""
    lines = [
        _SWEEP_ROW.format(
            p.theta, p.k, p.x11, p.x1k.real, p.x1k.imag, p.xkk_true, p.xkk_pred,
            p.abs_diff, p.fidelity, "true" if p.near_singular else "false",
        )
        for p in points
    ]
    _write_csv(SWEEP_HEADER, lines, path)


CASEAB_HEADER = (
    "theta,k,xkk_true,xkk_pred,abs_diff,fidelity_ab,"
    "lam11_a,re_lam1k_a,im_lam1k_a,lamkk_a,"
    "lam11_b,re_lam1k_b,im_lam1k_b,lamkk_b"
)
_CASEAB_ROW = _row_format("e", "s", *"e" * 12)


def emit_caseab_csv(points: list[SweepPoint], path: str | Path) -> None:
    """Write solved sweep points with both multiplier sets as CSV."""
    lines = []
    for p in points:
        a, b = p.lagrange_a, p.lagrange_b
        lines.append(
            _CASEAB_ROW.format(
                p.theta, p.k, p.xkk_true, p.xkk_pred, p.abs_diff, p.fidelity,
                a.lam_11, a.lam_1k.real, a.lam_1k.imag, a.lam_kk,
                b.lam_11, b.lam_1k.real, b.lam_1k.imag, b.lam_kk,
            )
        )
    _write_csv(CASEAB_HEADER, lines, path)


HEATMAP_HEADER = "lam11,re_lam1k,im_lam1k,x11,re_x1k,im_x1k"

_HEATMAP_KEYS = (
    "n", "k", "lam11_start", "lam11_stop", "lam11_steps",
    "re_lam1k_start", "re_lam1k_stop", "re_lam1k_steps",
    "lam_kk", "im_lam1k", "out",
)


def load_heatmap_config(path: str | Path) -> dict:
    """Read a heatmap config. Keys: n, k, lam11_start/stop/steps,
    re_lam1k_start/stop/steps, lam_kk, im_lam1k, out."""
    values = parse_keyvals(Path(path).read_text(), _HEATMAP_KEYS, "heatmap")
    params = {
        "dim_n": read_number(values, "n", 4, int),
        "index_k": read_number(values, "k", 2, int),
        "lam_kk": read_number(values, "lam_kk", 0.0),
        "im_lam1k": read_number(values, "im_lam1k", 0.0),
        "out": values.get("out"),
    }
    for axis in ("lam11", "re_lam1k"):
        steps = read_number(values, f"{axis}_steps", 21, int)
        if steps < 1:
            raise ValidationError(f"{axis}_steps = {steps} is below 1")
        params[axis] = np.linspace(
            read_number(values, f"{axis}_start", -3.0),
            read_number(values, f"{axis}_stop", 3.0),
            steps,
        )
    return params


_HEATMAP_ROW = _row_format(*"e" * 6)


def emit_heatmap_csv(rows, path: str | Path) -> None:
    lines = [
        _HEATMAP_ROW.format(lam11, lam1k.real, lam1k.imag, x11, x1k.real, x1k.imag)
        for lam11, lam1k, x11, x1k in rows
    ]
    _write_csv(HEATMAP_HEADER, lines, path)


def _cmd_reconstruct(args) -> int:
    completed, ls = solve_record(load_record(Path(args.record).read_text()))
    rho = density_from_lagrange(ls)
    if args.format == "csv":
        lines = [
            "key,value",
            f"n,{completed.dim_n}",
            f"k,{completed.index_k}",
            f"x11,{_fmt(completed.x_11)}",
            f"re_x1k,{_fmt(completed.x_1k.real)}",
            f"im_x1k,{_fmt(completed.x_1k.imag)}",
            f"xkk,{_fmt(completed.x_kk)}",
            f"xkk_source,{completed.source}",
            f"lam11,{_fmt(ls.lam_11)}",
            f"re_lam1k,{_fmt(ls.lam_1k.real)}",
            f"im_lam1k,{_fmt(ls.lam_1k.imag)}",
            f"lamkk,{_fmt(ls.lam_kk)}",
            f"near_singular,{'true' if ls.near_singular else 'false'}",
        ]
        for i in range(rho.shape[0]):
            for j in range(rho.shape[1]):
                lines.append(f"rho_{i + 1}_{j + 1},{float(rho[i, j].real)!r}{rho[i, j].imag:+}j")
    else:
        lines = [
            "completed record (xkk " + completed.source + "):",
            dump_record(completed).rstrip(),
            "",
            "lagrange multipliers:",
            f"  lam11 = {ls.lam_11:.12g}",
            f"  lam1k = {ls.lam_1k.real:.12g}{ls.lam_1k.imag:+.12g}j",
            f"  lamkk = {ls.lam_kk:.12g}",
            f"  near_singular = {ls.near_singular}",
            "",
            "density matrix:",
            *("  " + "  ".join(f"{v.real:+.6f}{v.imag:+.6f}j" for v in row) for row in rho),
        ]
    _write_lines(lines, args.out or None)
    return 0


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    return dataclasses.replace(
        cfg,
        seed=cfg.seed if args.seed is None else args.seed,
        output_path=cfg.output_path if args.out is None else args.out,
    )


def _cmd_sweep(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    points = run_sweep(cfg)
    out = cfg.output_path or "sweep.csv"
    emit_csv(points, out)
    diffs = [p.abs_diff for p in points if not math.isnan(p.abs_diff)]
    median = float(np.median(diffs)) if diffs else math.nan
    print(f"wrote {len(points)} rows to {out} (median abs_diff {median:.3e})")
    return 0


def _cmd_caseab(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    points = run_case_ab(cfg)
    out = cfg.output_path or "caseab.csv"
    emit_caseab_csv(points, out)
    median = float(np.median([p.abs_diff for p in points]))
    print(
        f"wrote {len(points)} rows to {out} (median abs_diff {median:.3e}, "
        f"min fidelity {min(p.fidelity for p in points):.6f})"
    )
    return 0


def _cmd_heatmap(args) -> int:
    params = load_heatmap_config(args.config)
    rows = heatmap_scan(
        params["lam11"],
        params["re_lam1k"],
        lam_kk=params["lam_kk"],
        im_lam1k=params["im_lam1k"],
        dim_n=params["dim_n"],
        index_k=params["index_k"],
    )
    out = args.out or params["out"] or "heatmap.csv"
    emit_heatmap_csv(rows, out)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def _cmd_decompose(args) -> int:
    d = decompose_ketbra(args.i, args.j, args.n)
    if args.format == "csv":
        lines = ["string,re_coeff,im_coeff"]
        for ps, coeff in d.terms.items():
            lines.append(f"{ps},{coeff.real!r},{coeff.imag!r}")
    else:
        width = max(len(str(ps)) for ps in d.terms)
        lines = [f"|{args.i}><{args.j}| on {args.n} qubit(s):"]
        for ps, coeff in d.terms.items():
            lines.append(f"  {str(ps):<{width}}  {coeff.real:+.6f}{coeff.imag:+.6f}j")
    _write_lines(lines, args.out or None)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmaxent",
        description="Maximal-entropy density-matrix reconstruction toolkit",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="override the output path")
    parser.add_argument(
        "--format", choices=("text", "csv"), default=None,
        help="output format for printing commands (default text)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reconstruct", help="complete a record and reconstruct rho")
    p.add_argument("record", help="record file (keys n, k, x11, re_x1k, im_x1k[, xkk])")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("sweep", help="run a theta sweep and write CSV")
    p.add_argument("config")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("caseab", help="compare predicted-xKK vs true-xKK reconstructions")
    p.add_argument("config")
    p.set_defaults(func=_cmd_caseab)

    p = sub.add_parser("heatmap", help="forward-map grid over (lam11, Re lam1K)")
    p.add_argument("config")
    p.set_defaults(func=_cmd_heatmap)

    p = sub.add_parser("decompose", help="print the Pauli expansion of |i><j|")
    p.add_argument("i", type=int)
    p.add_argument("j", type=int)
    p.add_argument("n", type=int, help="number of qubits")
    p.set_defaults(func=_cmd_decompose)
    return parser


# The commands that read each global flag; any other command rejects it,
# as a backend rejects the settings it does not read.
_FLAG_READERS = {"seed": ("sweep", "caseab"), "format": ("reconstruct", "decompose")}


def main(argv=None) -> int:
    """Entry point. Exit codes: 0 success, 2 validation error, 3 infeasible."""
    args = _build_parser().parse_args(argv)
    try:
        for flag, readers in _FLAG_READERS.items():
            if getattr(args, flag) is not None and args.command not in readers:
                raise ValidationError(
                    f"--{flag} is read by {' and '.join(readers)} only, "
                    f"not {args.command!r}"
                )
        return args.func(args)
    except InfeasibleRecordError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (TomographyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
