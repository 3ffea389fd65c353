"""Experiment orchestration: configs, capture-file ingestion, metric and
plot-table emission, and parameter sweeps.

The measurement source owns the grid: a synthetic source by its period and
sample count, a capture by its time column. Recovery returns zero-mean
estimates; when the source knows the truth, the written reconstructions
are shifted to its mean."""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import folding, recovery, signal_model
from .exceptions import CaptureFormatError, ModsampleError

_GRID_UNIFORMITY_RTOL = 1e-6


@dataclass(frozen=True)
class SyntheticSource:
    """Synthetic signal + fold-model description. One period tau is sampled
    at K points, which fixes the grid."""

    P: int
    tau: float
    K: int
    amplitude: float
    seed: int
    threshold: float
    nonideality: Optional[folding.NonIdealityConfig] = None
    bits: Optional[int] = None  # quantize modulo samples when set

    def __post_init__(self):
        if self.K <= 0:
            raise ValueError(f"K must be positive, got {self.K}")

    @property
    def grid(self) -> signal_model.UniformGrid:
        return signal_model.UniformGrid(T=self.tau / self.K, K=self.K)


@dataclass(frozen=True)
class ExperimentConfig:
    """Description of one experiment run; the source, a synthetic one or a
    capture file, fixes the grid. Recovery uses the bandwidth index
    ceil(P_used * (1 + p_inflation)), with P_used defaulting to the
    source's P, and M defaults to the source's fold count. A lambda grid
    searches the baseline's threshold against the truth, so it needs
    method 'usf' or 'both' and a source that knows the truth."""

    method: str = "fp"  # fp | usf | both
    source: Optional[SyntheticSource] = None
    capture_path: Optional[str] = None
    P_used: Optional[int] = None
    p_inflation: float = 0.0
    M: Optional[int] = None
    threshold: Optional[float] = None  # baseline folding threshold
    lambda_grid: Optional[tuple] = None  # (lo, hi, step)
    output_dir: Optional[str] = None

    def __post_init__(self):
        if (self.source is None) == (self.capture_path is None):
            raise ValueError("exactly one of source and capture_path is required")
        if self.method not in ("fp", "usf", "both"):
            raise ValueError(f"unknown method {self.method!r}")
        if not self.p_inflation >= 0:
            raise ValueError(f"p_inflation must be nonnegative, got {self.p_inflation!r}")
        if self.lambda_grid is not None and self.method == "fp":
            raise ValueError(
                "the lambda grid tunes the baseline's threshold, so it needs "
                "method 'usf' or 'both', not 'fp'"
            )


@dataclass(frozen=True)
class CaptureFile:
    """Validated oscilloscope-style capture: uniform time base, modulo
    channel and optional ground truth."""

    time: np.ndarray
    modulo: np.ndarray
    ground_truth: Optional[np.ndarray]
    metadata: dict

    @property
    def T(self) -> float:
        return float(self.metadata["T"])

    @property
    def K(self) -> int:
        return len(self.time)


# metadata keys that recovery reads: (parse, valid, what the value must be)
_METADATA_RULES = {
    "tau": (float, lambda v: math.isfinite(v) and v > 0, "a finite positive number"),
    "dc_offset": (float, math.isfinite, "a finite number"),
    "folds": (int, lambda v: v >= 0, "a nonnegative integer"),
}


def load_capture(path) -> CaptureFile:
    """Parse a capture CSV.

    Format: optional '#'-prefixed comment lines (``# key = value`` pairs are
    kept as metadata), then a ``time,truth,modulo`` or ``time,modulo`` header
    and rows of finite numbers. Timestamps must be uniformly spaced to
    within 1e-6 relative, and a ``tau`` header must equal K*T to within
    the same tolerance. A ``dc_offset`` metadata value is subtracted from
    the modulo column. Malformed ``tau``, ``dc_offset`` or ``folds`` values
    and bytes that are not UTF-8 raise :class:`CaptureFormatError` naming
    their line.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        # the file is decoded in one call, so exc.object holds all its bytes
        raise CaptureFormatError(
            f"byte {exc.object[exc.start]:#04x} is not UTF-8 text",
            line=exc.object.count(b"\n", 0, exc.start) + 1,
        ) from exc
    lines = text.split("\n")
    entries: dict = {}  # key -> (value, line number)
    for start, line in enumerate(lines):
        line = line.strip()
        if line and not _read_comment(line, start + 1, entries):
            break
    else:
        raise CaptureFormatError("capture needs a header and at least two rows")
    header = [c.strip().lower() for c in line.split(",")]
    if header not in (["time", "truth", "modulo"], ["time", "modulo"]):
        raise CaptureFormatError(f"unsupported header {header!r}", line=start + 1)
    body = lines[start + 1:]
    data = _bulk_rows(body, len(header))
    if data is None:
        data = _row_loop(body, start + 2, len(header), entries)
    time = data[:, 0]
    steps = np.diff(time)
    T = float(np.median(steps))
    if T <= 0 or np.max(np.abs(steps - T)) > _GRID_UNIFORMITY_RTOL * abs(T):
        raise CaptureFormatError("timestamps are not on a uniform grid")
    metadata = {key: value for key, (value, _) in entries.items()}
    if "tau" in entries:
        tau, tau_line = entries["tau"]
        span = len(time) * T
        if abs(float(tau) - span) > _GRID_UNIFORMITY_RTOL * float(tau):
            raise CaptureFormatError(
                f"tau = {tau} does not match the time column's K*T = {span!r}",
                line=tau_line,
            )
    modulo = data[:, header.index("modulo")]
    if "dc_offset" in metadata:
        modulo = modulo - float(metadata["dc_offset"])
    truth = data[:, 1] if "truth" in header else None
    metadata.setdefault("tau", repr(len(time) * T))
    metadata["T"] = T
    return CaptureFile(time=time, modulo=modulo, ground_truth=truth, metadata=metadata)


def _read_comment(line: str, lineno: int, entries: dict) -> bool:
    """Whether the stripped `line` is a comment. A ``key = value`` comment
    is kept in `entries` as key -> (value, lineno); a malformed ``tau``,
    ``dc_offset`` or ``folds`` value raises naming its line."""
    if not line.startswith("#"):
        return False
    body = line.lstrip("#").strip()
    if "=" in body:
        key, _, value = body.partition("=")
        key, value = key.strip(), value.strip()
        if key in _METADATA_RULES:
            parse, valid, what = _METADATA_RULES[key]
            try:
                ok = valid(parse(value))
            except ValueError:
                ok = False
            if not ok:
                raise CaptureFormatError(f"{key} must be {what}, got {value!r}", line=lineno)
        entries[key] = (value, lineno)
    return True


def _bulk_rows(body: list, ncols: int):
    """The (rows, ncols) array of the lines after the header, parsed in one
    C pass; None when the row loop has to decide. np.loadtxt reads a cell
    with the same correctly rounded parser as float(), and rejects every
    cell float() rejects, but also some float() accepts (``1_0``, non-ASCII
    digits) and every comment line; it skips empty lines, as the loop does.
    A rejection, a column-count mismatch, a non-finite cell or fewer than
    two rows all go to the loop, which names the line or accepts the file."""
    if not any(body):  # loadtxt warns on an input with no data
        return None
    try:
        data = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if data.shape[1] != ncols or len(data) < 2 or not np.isfinite(data).all():
        return None
    return data


def _row_loop(body: list, first_lineno: int, ncols: int, entries: dict) -> np.ndarray:
    """The rows of the lines after the header, one cell at a time: the
    diagnostic path, which raises naming the line of a bad row. Comment
    lines are read into `entries`; blank lines are skipped."""
    rows = []
    for lineno, line in enumerate(body, start=first_lineno):
        line = line.strip()
        if not line or _read_comment(line, lineno, entries):
            continue
        cells = line.split(",")
        if len(cells) != ncols:
            raise CaptureFormatError(f"expected {ncols} columns, got {len(cells)}", line=lineno)
        try:
            row = [float(c) for c in cells]
        except ValueError as exc:
            raise CaptureFormatError(str(exc), line=lineno) from exc
        if not all(math.isfinite(v) for v in row):
            raise CaptureFormatError("non-finite sample", line=lineno)
        rows.append(row)
    if len(rows) < 2:
        raise CaptureFormatError("capture needs a header and at least two rows")
    return np.asarray(rows, dtype=float)


def write_capture(path, time, modulo, truth=None, metadata=None):
    """Emit a capture CSV readable by :func:`load_capture`."""
    columns = {"time": time, "truth": truth, "modulo": modulo}
    if truth is None:
        del columns["truth"]
    _write_table(path, columns, metadata)


def _write_table(path, columns: dict, metadata=None):
    """Write ``# key = value`` comments, a header of the column names, then
    one row per sample. Integer columns are written as integers and the
    rest with 17 significant digits, which round-trips every float64; a
    column given as None is left empty. The text is that of np.savetxt
    with the same row format, built from whole columns in one write."""
    lines = [f"# {key} = {_fmt(value)}" for key, value in (metadata or {}).items()]
    lines.append(",".join(columns))
    arrays = [None if col is None else np.asarray(col) for col in columns.values()]
    row = ",".join(
        "" if a is None else "%d" if a.dtype.kind in "iu" else "%.17g" for a in arrays
    ) + "\n"
    cells = zip(*(a.tolist() for a in arrays if a is not None))
    with Path(path).open("w") as fh:
        fh.write("\n".join(lines) + "\n" + "".join([row % r for r in cells]))


def synthesize_measurement(src: SyntheticSource):
    """Generate (gamma, y, residue_spec) on the grid of a synthetic source.

    Folds ideally at the threshold, optionally perturbs the folds with the
    non-ideality model, and optionally quantizes the modulo samples.
    """
    g = signal_model.synthesize_random(src.P, src.tau, src.amplitude, src.seed)
    gamma = signal_model.sample(g, src.grid)
    _, residue = folding.fold_ideal(gamma, src.threshold)
    spec = folding.residue_spec_from_samples(residue, src.tau)
    if src.nonideality is not None:
        spec = folding.perturb_folds(spec, src.nonideality, seed=src.seed + 1)
    y = folding.apply_residue(gamma, spec)
    if src.bits is not None:
        y = signal_model.quantize(y, src.bits, src.threshold)
    return gamma, y, spec


def realized_fold_count(spec: folding.ResidueSpec, grid: signal_model.UniformGrid) -> int:
    """Number of spikes in the circularly differenced residue, counting the
    wrap spike when the jumps do not cancel."""
    if spec.K != grid.K:
        raise ValueError(f"fold spec has K={spec.K}, the grid K={grid.K}")
    spikes = abs(folding.finite_difference(spec.values(), 1, circular=True))
    return int((spikes > 1e-12 * max(spikes.max(initial=0.0), 1.0)).sum())


def _fmt(value) -> str:
    """Text of one written value: floats round-trip, None is empty."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _flatten(prefix: str, value) -> dict:
    """{'prefix.a.b': leaf} for the leaves of nested dicts."""
    if not isinstance(value, dict):
        return {prefix: value}
    flat = {}
    for key, item in value.items():
        flat.update(_flatten(f"{prefix}.{key}", item))
    return flat


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run one experiment and write metrics / reconstruction / spectrum files.

    The metrics echo the config as given, plus the T, K and M the run
    resolved. Returns the metrics dict with unformatted values. Partial
    outputs are removed on failure.
    """
    out_dir = Path(cfg.output_dir) if cfg.output_dir else None
    try:
        return _run_experiment_inner(cfg, out_dir)
    except Exception:
        if out_dir is not None:
            for name in ("metrics.txt", "reconstruction.csv", "spectrum.csv"):
                target = out_dir / name
                if target.exists():
                    target.unlink()
        raise


def _measure(cfg: ExperimentConfig):
    """(grid, y, truth, tau, P, folds) of the configured source. A capture
    may lack the truth column and the ``folds`` header (None), and its P is
    the configured P_used."""
    if cfg.source is not None:
        src = cfg.source
        gamma, y, spec = synthesize_measurement(src)
        P = src.P if cfg.P_used is None else cfg.P_used
        return src.grid, y, gamma.values, src.tau, P, realized_fold_count(spec, src.grid)
    capture = load_capture(cfg.capture_path)
    if cfg.P_used is None:
        raise ValueError("P_used is required for capture sources")
    grid = signal_model.UniformGrid(T=capture.T, K=capture.K)
    folds = capture.metadata.get("folds")
    return (
        grid,
        signal_model.SampleVector(values=capture.modulo, grid=grid),
        capture.ground_truth,
        float(capture.metadata["tau"]),
        cfg.P_used,
        None if folds is None else int(folds),
    )


def _run_experiment_inner(cfg: ExperimentConfig, out_dir) -> dict:
    grid, y, gamma_values, tau, P, folds = _measure(cfg)
    if cfg.lambda_grid is not None and gamma_values is None:
        raise ValueError(
            "the lambda grid scores each threshold against the truth, and the "
            "capture has no truth column"
        )
    P_used = int(math.ceil(P * (1.0 + cfg.p_inflation)))
    M = cfg.M if cfg.M is not None else folds
    if M is None:
        raise ValueError("M is required for capture sources")

    Omega = 2.0 * np.pi * P_used / tau if P_used > 0 else 0.0
    T_fd, T_us, K_min = recovery.sampling_bounds(tau, P_used, M, Omega=Omega or None)

    metrics = _flatten("config", asdict(cfg))
    dr_y = signal_model.dynamic_range(y)
    metrics.update(
        tau=tau, T=grid.T, K=grid.K, P_used=P_used, M=M,
        T_FD=T_fd, T_US=T_us, K_min=K_min, DR_y=dr_y,
    )
    if gamma_values is not None:
        gamma_sv = signal_model.SampleVector(values=gamma_values, grid=grid)
        metrics["DR_gamma"] = signal_model.dynamic_range(gamma_sv)
        metrics["DR_ratio"] = metrics["DR_gamma"] / dr_y

    fp_report = None
    us_report = None
    if cfg.method in ("fp", "both"):
        fp_report = recovery.fourier_prony_recover(y, P_used, M)
        if gamma_values is not None:
            metrics["MSE_FD"] = recovery.calibrated_mse(
                fp_report.gamma_hat.values, gamma_values
            )
    if cfg.method in ("usf", "both"):
        if cfg.threshold is None:
            raise ValueError("baseline recovery requires a folding threshold")
        # the max-norm bound comes from the truth, or else from the Fourier
        # estimate; the folded samples cannot give it, as |y| <= threshold.
        # The estimate is zero-mean, and the baseline shifts its own by
        # multiples of 2*threshold until the midrange is within threshold of
        # 0, so half the estimate's range plus the threshold bounds it
        if gamma_values is not None:
            gamma_inf = float(np.max(np.abs(gamma_values)))
        elif fp_report is not None:
            gamma_inf = float(np.ptp(fp_report.gamma_hat.values)) / 2 + cfg.threshold
        else:
            raise ValueError(
                "baseline recovery needs the max-norm bound beta of the signal, "
                "and the capture has no truth column; use --method both to take "
                "it from the Fourier estimate"
            )
        beta = folding.round_beta(gamma_inf, cfg.threshold)
        try:
            us_report = recovery.usf_recover(y, cfg.threshold, Omega, beta)
            if gamma_values is not None:
                metrics["MSE_US"] = recovery.calibrated_mse(
                    us_report.gamma_hat.values, gamma_values
                )
        except ModsampleError as exc:
            metrics["MSE_US"] = None
            metrics["US_error"] = str(exc)
        if cfg.lambda_grid is not None:
            lo, hi, step = cfg.lambda_grid
            try:
                lam_opt, opt_report = recovery.optimize_lambda(
                    y,
                    signal_model.SampleVector(values=gamma_values, grid=grid),
                    Omega,
                    lo,
                    hi,
                    step,
                )
                metrics["lambda_opt"] = lam_opt
                metrics["MSE_USopt"] = recovery.calibrated_mse(
                    opt_report.gamma_hat.values, gamma_values
                )
            except ModsampleError as exc:
                metrics["USopt_error"] = str(exc)

    if out_dir is not None:
        # recovery is zero-mean; shift the written estimates to the truth's mean
        mean = 0.0 if gamma_values is None else float(np.mean(gamma_values))
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_metrics(out_dir / "metrics.txt", metrics)
        k = np.arange(grid.K)
        _write_table(
            out_dir / "reconstruction.csv",
            {
                "k": k,
                "t": k * grid.T,
                "y": y.values,
                "gamma_true": gamma_values,
                "gamma_fd": fp_report.gamma_hat.values + mean if fp_report else None,
                "gamma_us": us_report.gamma_hat.values + mean if us_report else None,
                "residue_fd": fp_report.residue_hat.values if fp_report else None,
                "residue_us": us_report.residue_hat.values if us_report else None,
            },
        )
        _write_spectrum(out_dir / "spectrum.csv", y, fp_report)
    return metrics


def _write_metrics(path: Path, metrics: dict):
    with path.open("w") as fh:
        for key in sorted(metrics):
            fh.write(f"{key} = {_fmt(metrics[key])}\n")


def _write_spectrum(path, y, fp_report):
    bins = np.fft.fft(folding.finite_difference(y.values, 1, circular=True))
    spikes = np.zeros(len(bins))
    if fp_report is not None:
        spikes[fp_report.support] = fp_report.amplitudes
    model_bins = np.fft.fft(spikes)
    # hypot matches abs() of each bin; np.abs on a complex array may differ
    # in the last bit
    _write_table(
        path,
        {
            "n": np.arange(len(bins)),
            "abs_ybar_dft": np.hypot(bins.real, bins.imag),
            "abs_residue_model_dft": np.hypot(model_bins.real, model_bins.imag),
        },
    )


def sweep(cfg: ExperimentConfig, axis: str, values, output_dir=None) -> list[dict]:
    """Run `cfg` once per value of the named numeric field; failures are
    recorded in-row and the sweep continues. Rows come back sorted by the
    axis value."""
    rows = []
    base_out = Path(output_dir) if output_dir else None
    for value in values:
        run_cfg = _set_axis(cfg, axis, value)
        if base_out is not None:
            run_cfg = replace(run_cfg, output_dir=str(base_out / f"{axis}_{value}"))
        row = {"axis": axis, "value": float(value)}
        try:
            row.update(run_experiment(run_cfg))
            row["error"] = ""
        except Exception as exc:
            row["error"] = str(exc)
        rows.append(row)
    rows.sort(key=lambda r: r["value"])
    if base_out is not None:
        keys = sorted({k for row in rows for k in row})
        keys = ["axis", "value", "error"] + [
            k for k in keys if k not in ("axis", "value", "error")
        ]
        with (base_out / "sweep.csv").open("w") as fh:
            writer = csv.writer(fh)
            writer.writerow(keys)
            for row in rows:
                writer.writerow([_fmt(row.get(k, "")) for k in keys])
    return rows


_SOURCE_FIELDS = {"P", "tau", "K", "amplitude", "seed", "threshold", "bits"}
_INT_FIELDS = {"P", "K", "seed", "bits", "M", "P_used"}


def _set_axis(cfg: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    cast = int if axis in _INT_FIELDS else float
    if axis in _SOURCE_FIELDS:
        if cfg.source is None:
            raise ValueError(f"axis {axis!r} requires a synthetic source")
        return replace(cfg, source=replace(cfg.source, **{axis: cast(value)}))
    if not hasattr(cfg, axis):
        raise ValueError(f"unknown config field {axis!r}")
    return replace(cfg, **{axis: cast(value)})
