"""Experiment harness and command-line entry point.

Sweeps a rotation angle through a circuit model, measures (x11, x1K) with
one of three backends (exact statevector, shot sampling, shot sampling
with readout noise and optional mitigation), predicts the unknown
population, reconstructs the density matrix both with and without the
true xKK, and emits the comparison as CSV.

Config files are flat "key value" lines; see ``load_config`` for the keys.
All randomness derives from the config seed: sweep point p uses sub-seed
``seed + 10007 * p``, and the coherence estimator consumes a further
sub-seed per measurement setting.
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
from .circuit import coherence, parse_circuit, simulate
from .errors import InfeasibleRecordError, TomographyError, ValidationError
from .linalg import POLICY
from .maxent import (
    LagrangeSet,
    MeasurementRecord,
    density_from_lagrange,
    dump_record,
    fidelity,
    heatmap_scan,
    load_record,
    parse_keyvals,
    solve_record,
)
from .pauli import decompose_ketbra
from .sampler import (
    CalibrationMatrix,
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


@dataclass(frozen=True)
class SweepRow:
    theta: float
    k: int
    x11: float
    re_x1k: float
    im_x1k: float
    xkk_true: float
    xkk_pred: float
    abs_diff: float
    fidelity: float
    near_singular: bool


@dataclass(frozen=True)
class CaseABRow:
    """One sweep point compared with (case A) and without (case B) the
    predicted population replaced by the backend's true value."""

    theta: float
    k: int
    xkk_true: float
    xkk_pred: float
    fidelity_ab: float
    lagrange_a: LagrangeSet
    lagrange_b: LagrangeSet


@dataclass(frozen=True)
class CaseABReport:
    rows: tuple[CaseABRow, ...]

    @property
    def median_abs_diff(self) -> float:
        return float(np.median([abs(r.xkk_true - r.xkk_pred) for r in self.rows]))

    @property
    def min_fidelity(self) -> float:
        return float(min(r.fidelity_ab for r in self.rows))


def resolve_circuit(spec_value: str, base_dir: Path | None = None) -> str:
    """Circuit text for a config value: a bundled name or a file path."""
    if spec_value in bundled.names():
        return bundled.load(spec_value)
    path = Path(spec_value)
    if base_dir is not None and not path.is_absolute():
        path = base_dir / path
    try:
        return path.read_text()
    except OSError as exc:
        raise ValidationError(f"cannot read circuit {spec_value!r}: {exc}") from None


def _parse_bool(value: str, key: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValidationError(f"bad boolean for {key!r}: {value!r}")


def _read_float(values: dict[str, str], key: str, default: float) -> float:
    """The finite float value of ``key``, or ``default`` when it is absent."""
    if key not in values:
        return default
    try:
        value = float(values[key])
    except ValueError:
        raise ValidationError(f"{key} = {values[key]!r} is not a number") from None
    if not math.isfinite(value):
        raise ValidationError(f"{key} = {values[key]} is not finite")
    return value


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
    p01, p10, mitigate (true|false), seed, out.
    """
    path = Path(path)
    values = parse_keyvals(path.read_text(), _CONFIG_KEYS, "config")
    if "circuit" not in values:
        raise ValidationError("config is missing the 'circuit' key")

    circuit_text = resolve_circuit(values["circuit"], path.parent)
    num_qubits = parse_circuit(circuit_text, theta=0.0).num_qubits

    backend = values.get("backend", "exact")
    noise = None
    if backend == "noisy":
        p01 = _read_float(values, "p01", DEFAULT_P01)
        p10 = _read_float(values, "p10", DEFAULT_P10)
        noise = ReadoutNoise.uniform(p01, p10, num_qubits)
    try:
        k_targets = tuple(
            int(tok) for tok in values.get("k_targets", "").split(",") if tok.strip()
        )
        return ExperimentConfig(
            circuit_path=values["circuit"],
            theta_start=_read_float(values, "theta_start", 0.0),
            theta_stop=_read_float(values, "theta_stop", 2 * math.pi),
            theta_steps=int(values.get("theta_steps", 21)),
            k_targets=_k_targets(k_targets, 2**num_qubits),
            backend=backend,
            shots=int(values["shots"]) if "shots" in values else None,
            noise=noise,
            mitigate=_parse_bool(values.get("mitigate", "false"), "mitigate"),
            seed=int(values.get("seed", 0)),
            output_path=values.get("out"),
        )
    except ValueError as exc:
        raise ValidationError(f"bad config value: {exc}") from None


def _measure_point(
    cfg: ExperimentConfig,
    sv: np.ndarray,
    k: int,
    point_seed: int,
    calibration: CalibrationMatrix | None,
) -> tuple[float, complex, float]:
    """Backend measurement of (x11, x1K, true xKK) on the state ``sv``.

    x1K is reported in the density-matrix convention rho[1, K]; for a pure
    state that is a_0 * conj(a_{K-1}).
    """
    # The exact backend reads exact probabilities whatever the config's shots.
    shots = None if cfg.backend == "exact" else cfg.shots
    noise = cfg.noise if cfg.backend == "noisy" else None
    pops = estimate_populations(sv, shots, noise, point_seed, calibration)
    if shots is None:
        x1k = coherence(sv, k, 1)  # rho[1, K] is the mean of |K><1|
    else:
        seed = point_seed + _COHERENCE_SEED_OFFSET
        x1k = complex(estimate_coherence(sv, 1, k, shots, noise, seed, calibration))
        x1k = x1k.conjugate()
    return float(pops[0]), x1k, float(pops[k - 1])


def _solve_point(
    theta: float, k: int, dim_n: int, x11: float, x1k: complex, xkk_true: float
) -> CaseABRow:
    """Case A (predicted xKK) and case B (true xKK) of one measured point."""
    measured = MeasurementRecord(dim_n, k, x11, x1k)
    with warnings.catch_warnings():
        # A clamped prediction shows in the row as xkk_pred = 1 - x11.
        warnings.filterwarnings("ignore", "predicted population", RuntimeWarning)
        completed_a, ls_a = solve_record(measured)
    _, ls_b = solve_record(measured, xkk_true)
    fid = fidelity(density_from_lagrange(ls_a), density_from_lagrange(ls_b))
    return CaseABRow(theta, k, xkk_true, completed_a.x_kk, fid, ls_a, ls_b)


def _sweep_points(cfg: ExperimentConfig, base_dir: Path | None = None):
    """Measure and reconstruct every (theta, K) point, theta outer, K inner.

    Yields (theta, k, x11, x1k, xkk_true, case_ab), where case_ab is the
    point's CaseABRow, or None when x11 sits at the degeneracy floor and
    no prediction exists. Point p draws from sub-seed seed + 10007 * p,
    floor points included.
    """
    circuit_text = resolve_circuit(cfg.circuit_path, base_dir)
    num_qubits = parse_circuit(circuit_text, theta=0.0).num_qubits
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
    calibration = None
    if cfg.backend == "noisy" and cfg.mitigate:
        calibration = build_calibration(cfg.noise, num_qubits)
    point = 0
    for theta in thetas:
        theta = float(theta)
        # One simulation per theta serves every K target and Pauli setting.
        sv = simulate(parse_circuit(circuit_text, theta=theta))
        for k in k_targets:
            seed = cfg.seed + _POINT_SEED_STRIDE * point
            point += 1
            x11, x1k, xkk_true = _measure_point(cfg, sv, k, seed, calibration)
            case_ab = None
            if x11 > POLICY.population_floor:
                case_ab = _solve_point(theta, k, dim_n, x11, x1k, xkk_true)
            yield theta, k, x11, x1k, xkk_true, case_ab


def run_sweep(cfg: ExperimentConfig, base_dir: Path | None = None) -> list[SweepRow]:
    """Measure, predict and reconstruct at every (theta, K) sweep point.

    Rows are ordered theta-outer, K-inner. Points where the measured x11
    sits at the degeneracy floor are emitted with NaN prediction fields and
    the near_singular flag instead of aborting the sweep. Clamp warnings
    from the predictor are suppressed; a clamped row is recognizable by
    xkk_pred = 1 - x11.
    """
    rows: list[SweepRow] = []
    for theta, k, x11, x1k, xkk_true, ab in _sweep_points(cfg, base_dir):
        pred = ab.xkk_pred if ab else math.nan
        rows.append(
            SweepRow(
                theta, k, x11, x1k.real, x1k.imag, xkk_true, pred,
                abs(xkk_true - pred), ab.fidelity_ab if ab else math.nan,
                ab is None or ab.lagrange_a.near_singular or ab.lagrange_b.near_singular,
            )
        )
    return rows


def run_case_ab(cfg: ExperimentConfig, base_dir: Path | None = None) -> CaseABReport:
    """Compare reconstructions with predicted versus true xKK; points at
    the degeneracy floor are left out."""
    points = _sweep_points(cfg, base_dir)
    return CaseABReport(tuple(ab for *_, ab in points if ab is not None))


def _fmt(value: float) -> str:
    return f"{value:.11e}"


def _write_lines(lines: list[str], path: str | Path | None) -> None:
    """Write a header and its rows as LF-terminated lines to ``path``, or
    to stdout when ``path`` is None. No timestamps: the bytes are a pure
    function of the lines."""
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, newline="\n")


def _write_csv(header: str, rows: list[tuple[str, ...]], path: str | Path) -> None:
    if not rows:
        raise ValidationError("no rows to emit")
    _write_lines([header, *(",".join(fields) for fields in rows)], path)


SWEEP_HEADER = "theta,k,x11,re_x1k,im_x1k,xkk_true,xkk_pred,abs_diff,fidelity,near_singular"


def emit_csv(rows: list[SweepRow], path: str | Path) -> None:
    """Write sweep rows as CSV with 12-significant-digit values."""
    fields = [
        (
            _fmt(r.theta), str(r.k), _fmt(r.x11), _fmt(r.re_x1k),
            _fmt(r.im_x1k), _fmt(r.xkk_true), _fmt(r.xkk_pred),
            _fmt(r.abs_diff), _fmt(r.fidelity),
            "true" if r.near_singular else "false",
        )
        for r in rows
    ]
    _write_csv(SWEEP_HEADER, fields, path)


CASEAB_HEADER = (
    "theta,k,xkk_true,xkk_pred,abs_diff,fidelity_ab,"
    "lam11_a,re_lam1k_a,im_lam1k_a,lamkk_a,"
    "lam11_b,re_lam1k_b,im_lam1k_b,lamkk_b"
)


def emit_caseab_csv(report: CaseABReport, path: str | Path) -> None:
    fields = []
    for r in report.rows:
        a, b = r.lagrange_a, r.lagrange_b
        fields.append(
            (
                _fmt(r.theta), str(r.k), _fmt(r.xkk_true), _fmt(r.xkk_pred),
                _fmt(abs(r.xkk_true - r.xkk_pred)), _fmt(r.fidelity_ab),
                _fmt(a.lam_11), _fmt(a.lam_1k.real), _fmt(a.lam_1k.imag),
                _fmt(a.lam_kk),
                _fmt(b.lam_11), _fmt(b.lam_1k.real), _fmt(b.lam_1k.imag),
                _fmt(b.lam_kk),
            )
        )
    _write_csv(CASEAB_HEADER, fields, path)


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
    try:
        return {
            "dim_n": int(values.get("n", 4)),
            "index_k": int(values.get("k", 2)),
            **{
                axis: np.linspace(
                    _read_float(values, f"{axis}_start", -3.0),
                    _read_float(values, f"{axis}_stop", 3.0),
                    int(values.get(f"{axis}_steps", 21)),
                )
                for axis in ("lam11", "re_lam1k")
            },
            "lam_kk": _read_float(values, "lam_kk", 0.0),
            "im_lam1k": _read_float(values, "im_lam1k", 0.0),
            "out": values.get("out"),
        }
    except ValueError as exc:
        raise ValidationError(f"bad heatmap value: {exc}") from None


def emit_heatmap_csv(rows, path: str | Path) -> None:
    fields = [
        tuple(_fmt(v) for v in (lam11, lam1k.real, lam1k.imag, x11, x1k.real, x1k.imag))
        for lam11, lam1k, x11, x1k in rows
    ]
    _write_csv(HEATMAP_HEADER, fields, path)


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
    rows = run_sweep(cfg, Path(args.config).parent)
    out = cfg.output_path or "sweep.csv"
    emit_csv(rows, out)
    diffs = [r.abs_diff for r in rows if not math.isnan(r.abs_diff)]
    median = float(np.median(diffs)) if diffs else math.nan
    print(f"wrote {len(rows)} rows to {out} (median abs_diff {median:.3e})")
    return 0


def _cmd_caseab(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    report = run_case_ab(cfg, Path(args.config).parent)
    out = cfg.output_path or "caseab.csv"
    emit_caseab_csv(report, out)
    print(
        f"wrote {len(report.rows)} rows to {out} "
        f"(median abs_diff {report.median_abs_diff:.3e}, "
        f"min fidelity {report.min_fidelity:.6f})"
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
        "--format", choices=("text", "csv"), default="text",
        help="output format for printing commands",
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


def main(argv=None) -> int:
    """Entry point. Exit codes: 0 success, 2 validation error, 3 infeasible."""
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InfeasibleRecordError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (TomographyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
