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
import math
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import circuits as bundled
from .circuit import parse_circuit, populations, simulate
from .errors import (
    InfeasibleRecordError,
    ParseError,
    TomographyError,
    ValidationError,
)
from .linalg import POLICY
from .maxent import (
    LagrangeSet,
    density_from_lagrange,
    dump_record,
    feasible_record,
    fidelity,
    heatmap_scan,
    load_record,
    predict_population,
    saturation_rescale,
    solve_lagrange,
)
from .pauli import decompose_ketbra
from .sampler import (
    CalibrationMatrix,
    ReadoutNoise,
    build_calibration,
    estimate_coherence,
    estimate_populations,
    mitigate,
    sample_counts,
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
    k_targets: tuple[int, ...] = ()
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
        if self.backend != "exact" and (self.shots is None or self.shots < 1):
            raise ValidationError(f"backend {self.backend!r} requires shots >= 1")
        if self.backend == "noisy" and self.noise is None:
            raise ValidationError("noisy backend requires a noise model")
        for k in self.k_targets:
            if k < 2:
                raise ValidationError(f"k target {k} must be >= 2")


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


def _parse_keyvals(text: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(maxsplit=1)
        if len(parts) != 2:
            raise ParseError(f"expected 'key value', got {raw!r}", lineno)
        if parts[0] in values:
            raise ParseError(f"duplicate key {parts[0]!r}", lineno)
        values[parts[0]] = parts[1]
    return values


def _parse_bool(value: str, key: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValidationError(f"bad boolean for {key!r}: {value!r}")


def load_config(path: str | Path) -> ExperimentConfig:
    """Read a sweep config. Keys:

    circuit (bundled name or path), theta_start, theta_stop, theta_steps,
    k_targets (comma separated), backend (exact|shots|noisy), shots,
    p01, p10, mitigate (true|false), seed, out.
    """
    path = Path(path)
    values = _parse_keyvals(path.read_text())
    known = {
        "circuit", "theta_start", "theta_stop", "theta_steps", "k_targets",
        "backend", "shots", "p01", "p10", "mitigate", "seed", "out",
    }
    unknown = sorted(set(values) - known)
    if unknown:
        raise ValidationError(f"unknown config keys: {', '.join(unknown)}")
    if "circuit" not in values:
        raise ValidationError("config is missing the 'circuit' key")

    circuit_text = resolve_circuit(values["circuit"], path.parent)
    num_qubits = parse_circuit(circuit_text, theta=0.0).num_qubits

    backend = values.get("backend", "exact")
    noise = None
    if backend == "noisy":
        p01 = float(values.get("p01", DEFAULT_P01))
        p10 = float(values.get("p10", DEFAULT_P10))
        noise = ReadoutNoise.uniform(p01, p10, num_qubits)
    try:
        k_targets = tuple(
            int(tok) for tok in values.get("k_targets", "").split(",") if tok.strip()
        )
        config = ExperimentConfig(
            circuit_path=values["circuit"],
            theta_start=float(values.get("theta_start", 0.0)),
            theta_stop=float(values.get("theta_stop", 2 * math.pi)),
            theta_steps=int(values.get("theta_steps", 21)),
            k_targets=k_targets or tuple(range(2, 2**num_qubits + 1)),
            backend=backend,
            shots=int(values["shots"]) if "shots" in values else None,
            noise=noise,
            mitigate=_parse_bool(values.get("mitigate", "false"), "mitigate"),
            seed=int(values.get("seed", 0)),
            output_path=values.get("out"),
        )
    except ValueError as exc:
        raise ValidationError(f"bad config value: {exc}") from None
    for k in config.k_targets:
        if k > 2**num_qubits:
            raise ValidationError(
                f"k target {k} exceeds dimension {2 ** num_qubits}"
            )
    return config


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
    if cfg.backend == "exact":
        pops = populations(sv)
        x1k = complex(sv[0] * np.conj(sv[k - 1]))
        return float(pops[0]), x1k, float(pops[k - 1])

    noise = cfg.noise if cfg.backend == "noisy" else None
    table = sample_counts(sv, cfg.shots, noise, point_seed)
    if calibration is not None:
        pops = mitigate(table, calibration)
    else:
        pops = estimate_populations(table)
    coherence_mean = estimate_coherence(
        sv,
        1,
        k,
        shots_per_setting=cfg.shots,
        noise=noise,
        seed=point_seed + _COHERENCE_SEED_OFFSET,
        calibration=calibration,
    )
    return float(pops[0]), complex(coherence_mean).conjugate(), float(pops[k - 1])


def _reconstruct_pair(
    dim_n: int, k: int, x11: float, x1k: complex, xkk_pred: float, xkk_true: float
):
    """Solve case A (predicted xKK) and case B (true xKK) for one point."""
    rec_a = feasible_record(dim_n, k, x11, x1k, xkk_pred, source="predicted")
    rec_b = feasible_record(dim_n, k, x11, x1k, xkk_true, source="measured")
    ls_a = solve_lagrange(saturation_rescale(rec_a))
    ls_b = solve_lagrange(saturation_rescale(rec_b))
    rho_a = density_from_lagrange(ls_a)
    rho_b = density_from_lagrange(ls_b)
    return ls_a, ls_b, fidelity(rho_a, rho_b)


def _sweep_points(cfg: ExperimentConfig, base_dir: Path | None = None):
    circuit_text = resolve_circuit(cfg.circuit_path, base_dir)
    num_qubits = parse_circuit(circuit_text, theta=0.0).num_qubits
    if num_qubits < 2:
        raise ValidationError(
            "reconstruction needs at least 2 qubits (no unconstrained "
            "states remain in a 1-qubit system)"
        )
    dim_n = 2**num_qubits
    k_targets = cfg.k_targets or tuple(range(2, dim_n + 1))
    for k in k_targets:
        if k > dim_n:
            raise ValidationError(f"k target {k} exceeds dimension {dim_n}")
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
            yield theta, k, dim_n, x11, x1k, xkk_true


def run_sweep(cfg: ExperimentConfig, base_dir: Path | None = None) -> list[SweepRow]:
    """Measure, predict and reconstruct at every (theta, K) sweep point.

    Rows are ordered theta-outer, K-inner. Points where the measured x11
    sits at the degeneracy floor are emitted with NaN prediction fields and
    the near_singular flag instead of aborting the sweep. Clamp warnings
    from the predictor are suppressed here; a clamped row is recognizable
    by xkk_pred = 1 - x11.
    """
    rows: list[SweepRow] = []
    for theta, k, dim_n, x11, x1k, xkk_true in _sweep_points(cfg, base_dir):
        if x11 <= POLICY.population_floor:
            rows.append(
                SweepRow(
                    theta, k, x11, x1k.real, x1k.imag, xkk_true,
                    math.nan, math.nan, math.nan, True,
                )
            )
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            xkk_pred = predict_population(x11, x1k)
        ls_a, ls_b, fid = _reconstruct_pair(dim_n, k, x11, x1k, xkk_pred, xkk_true)
        rows.append(
            SweepRow(
                theta=theta,
                k=k,
                x11=x11,
                re_x1k=x1k.real,
                im_x1k=x1k.imag,
                xkk_true=xkk_true,
                xkk_pred=xkk_pred,
                abs_diff=abs(xkk_true - xkk_pred),
                fidelity=fid,
                near_singular=ls_a.near_singular or ls_b.near_singular,
            )
        )
    return rows


def run_case_ab(cfg: ExperimentConfig, base_dir: Path | None = None) -> CaseABReport:
    """Compare reconstructions with predicted versus true xKK."""
    rows: list[CaseABRow] = []
    for theta, k, dim_n, x11, x1k, xkk_true in _sweep_points(cfg, base_dir):
        if x11 <= POLICY.population_floor:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            xkk_pred = predict_population(x11, x1k)
        ls_a, ls_b, fid = _reconstruct_pair(dim_n, k, x11, x1k, xkk_pred, xkk_true)
        rows.append(CaseABRow(theta, k, xkk_true, xkk_pred, fid, ls_a, ls_b))
    return CaseABReport(tuple(rows))


def _fmt(value: float) -> str:
    return f"{value:.11e}"


SWEEP_HEADER = "theta,k,x11,re_x1k,im_x1k,xkk_true,xkk_pred,abs_diff,fidelity,near_singular"


def emit_csv(rows: list[SweepRow], path: str | Path) -> None:
    """Write sweep rows as CSV with 12-significant-digit values.

    Output bytes are a pure function of the rows: LF line endings, fixed
    header, no timestamps.
    """
    if not rows:
        raise ValidationError("no rows to emit")
    lines = [SWEEP_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                (
                    _fmt(r.theta), str(r.k), _fmt(r.x11), _fmt(r.re_x1k),
                    _fmt(r.im_x1k), _fmt(r.xkk_true), _fmt(r.xkk_pred),
                    _fmt(r.abs_diff), _fmt(r.fidelity),
                    "true" if r.near_singular else "false",
                )
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


CASEAB_HEADER = (
    "theta,k,xkk_true,xkk_pred,abs_diff,fidelity_ab,"
    "lam11_a,re_lam1k_a,im_lam1k_a,lamkk_a,"
    "lam11_b,re_lam1k_b,im_lam1k_b,lamkk_b"
)


def emit_caseab_csv(report: CaseABReport, path: str | Path) -> None:
    if not report.rows:
        raise ValidationError("no rows to emit")
    lines = [CASEAB_HEADER]
    for r in report.rows:
        a, b = r.lagrange_a, r.lagrange_b
        lines.append(
            ",".join(
                (
                    _fmt(r.theta), str(r.k), _fmt(r.xkk_true), _fmt(r.xkk_pred),
                    _fmt(abs(r.xkk_true - r.xkk_pred)), _fmt(r.fidelity_ab),
                    _fmt(a.lam_11), _fmt(a.lam_1k.real), _fmt(a.lam_1k.imag),
                    _fmt(a.lam_kk),
                    _fmt(b.lam_11), _fmt(b.lam_1k.real), _fmt(b.lam_1k.imag),
                    _fmt(b.lam_kk),
                )
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


HEATMAP_HEADER = "lam11,re_lam1k,im_lam1k,x11,re_x1k,im_x1k"


def load_heatmap_config(path: str | Path) -> dict:
    """Read a heatmap config. Keys: n, k, lam11_start/stop/steps,
    re_lam1k_start/stop/steps, lam_kk, im_lam1k, out."""
    values = _parse_keyvals(Path(path).read_text())
    known = {
        "n", "k", "lam11_start", "lam11_stop", "lam11_steps",
        "re_lam1k_start", "re_lam1k_stop", "re_lam1k_steps",
        "lam_kk", "im_lam1k", "out",
    }
    unknown = sorted(set(values) - known)
    if unknown:
        raise ValidationError(f"unknown heatmap keys: {', '.join(unknown)}")
    try:
        return {
            "dim_n": int(values.get("n", 4)),
            "index_k": int(values.get("k", 2)),
            "lam11": np.linspace(
                float(values.get("lam11_start", -3.0)),
                float(values.get("lam11_stop", 3.0)),
                int(values.get("lam11_steps", 21)),
            ),
            "re_lam1k": np.linspace(
                float(values.get("re_lam1k_start", -3.0)),
                float(values.get("re_lam1k_stop", 3.0)),
                int(values.get("re_lam1k_steps", 21)),
            ),
            "lam_kk": float(values.get("lam_kk", 0.0)),
            "im_lam1k": float(values.get("im_lam1k", 0.0)),
            "out": values.get("out"),
        }
    except ValueError as exc:
        raise ValidationError(f"bad heatmap value: {exc}") from None


def emit_heatmap_csv(rows, path: str | Path) -> None:
    if not rows:
        raise ValidationError("no rows to emit")
    lines = [HEATMAP_HEADER]
    for lam11, lam1k, x11, x1k in rows:
        lines.append(
            ",".join(
                (
                    _fmt(lam11), _fmt(lam1k.real), _fmt(lam1k.imag),
                    _fmt(x11), _fmt(x1k.real), _fmt(x1k.imag),
                )
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def _format_matrix(rho: np.ndarray) -> str:
    rows = []
    for row in rho:
        rows.append("  " + "  ".join(f"{v.real:+.6f}{v.imag:+.6f}j" for v in row))
    return "\n".join(rows)


def _cmd_reconstruct(args) -> int:
    record = load_record(Path(args.record).read_text())
    if record.complete:
        # A measured record that saturates x11 + xkk = 1 is reported as
        # infeasible; only predicted completions (pure-state boundary data)
        # are rescued by the saturation rescale.
        completed = record
        ls = solve_lagrange(completed)
    else:
        xkk = predict_population(record.x_11, record.x_1k)
        completed = feasible_record(
            record.dim_n, record.index_k, record.x_11, record.x_1k, xkk,
            source="predicted",
        )
        ls = solve_lagrange(saturation_rescale(completed))
    rho = density_from_lagrange(ls)
    if args.format == "csv":
        lines = ["key,value"]
        lines.append(f"n,{completed.dim_n}")
        lines.append(f"k,{completed.index_k}")
        lines.append(f"x11,{_fmt(completed.x_11)}")
        lines.append(f"re_x1k,{_fmt(completed.x_1k.real)}")
        lines.append(f"im_x1k,{_fmt(completed.x_1k.imag)}")
        lines.append(f"xkk,{_fmt(completed.x_kk)}")
        lines.append(f"xkk_source,{completed.source}")
        lines.append(f"lam11,{_fmt(ls.lam_11)}")
        lines.append(f"re_lam1k,{_fmt(ls.lam_1k.real)}")
        lines.append(f"im_lam1k,{_fmt(ls.lam_1k.imag)}")
        lines.append(f"lamkk,{_fmt(ls.lam_kk)}")
        lines.append(f"near_singular,{'true' if ls.near_singular else 'false'}")
        for i in range(rho.shape[0]):
            for j in range(rho.shape[1]):
                lines.append(f"rho_{i + 1}_{j + 1},{rho[i, j].real!r}{rho[i, j].imag:+}j")
        text = "\n".join(lines) + "\n"
    else:
        parts = [
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
            _format_matrix(rho),
        ]
        text = "\n".join(parts) + "\n"
    if args.out:
        Path(args.out).write_text(text, newline="\n")
    else:
        sys.stdout.write(text)
    return 0


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    import dataclasses

    updates = {}
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.out is not None:
        updates["output_path"] = args.out
    return dataclasses.replace(cfg, **updates) if updates else cfg


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
        text = "\n".join(lines) + "\n"
    else:
        width = max(len(str(ps)) for ps in d.terms)
        lines = [f"|{args.i}><{args.j}| on {args.n} qubit(s):"]
        for ps, coeff in d.terms.items():
            lines.append(f"  {str(ps):<{width}}  {coeff.real:+.6f}{coeff.imag:+.6f}j")
        text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, newline="\n")
    else:
        sys.stdout.write(text)
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
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TomographyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
