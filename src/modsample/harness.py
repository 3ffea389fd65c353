"""Experiment orchestration: configs, capture-file ingestion, metric and
plot-table emission, and parameter sweeps.

The measurement source owns the grid: a synthetic source by its period and
sample count, a capture by its time column. Recovery returns zero-mean
estimates; when the source knows the truth, the written reconstructions
are shifted to its mean."""

from __future__ import annotations

import csv
import math
import os
import stat
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
    at K >= 2 points, which fixes the grid. The folds are ideal unless the
    `nonideality` config perturbs them; `bits` in [1, 53] quantizes the
    modulo samples. The bandwidth index P and the seed of the signal draw
    are nonnegative ints."""

    P: int
    tau: float
    K: int
    amplitude: float
    seed: int
    threshold: float
    nonideality: folding.NonIdealityConfig = folding.NonIdealityConfig()
    bits: Optional[int] = None

    def __post_init__(self):
        if self.K <= 0:
            raise ValueError(f"K must be positive, got {self.K}")
        if self.K == 1:
            raise ValueError("K must be at least 2, got 1")
        if self.P < 0:
            raise ValueError(f"P must be nonnegative, got {self.P!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed!r}")
        if self.bits is not None and not 1 <= self.bits <= 53:
            raise ValueError(f"bits must lie in [1, 53], got {self.bits!r}")
        for name in ("tau", "threshold", "amplitude"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value!r}")

    @property
    def grid(self) -> signal_model.UniformGrid:
        return signal_model.UniformGrid(T=self.tau / self.K, K=self.K)


@dataclass(frozen=True)
class ExperimentConfig:
    """Description of one experiment run; the source, a synthetic one or a
    capture file, fixes the grid. Recovery uses the bandwidth index P_used,
    M jumps and the baseline threshold `threshold`; for a synthetic source
    each defaults to the source's own (its P, its fold count and its
    threshold). P_used and M, when set, are nonnegative. A lambda grid
    searches the baseline's threshold against the truth, so it needs method
    'usf' or 'both' and a source that knows the truth."""

    method: str = "fp"  # fp | usf | both
    source: Optional[SyntheticSource] = None
    capture_path: Optional[str] = None
    P_used: Optional[int] = None
    M: Optional[int] = None
    threshold: Optional[float] = None  # baseline folding threshold
    lambda_grid: Optional[tuple] = None  # (lo, hi, step)
    output_dir: Optional[str] = None

    def __post_init__(self):
        if (self.source is None) == (self.capture_path is None):
            raise ValueError("exactly one of source and capture_path is required")
        if self.method not in ("fp", "usf", "both"):
            raise ValueError(f"unknown method {self.method!r}")
        for name in ("P_used", "M"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be nonnegative, got {value!r}")
        if self.threshold is not None and not 0 < self.threshold < math.inf:
            raise ValueError(f"threshold must be finite and positive, got {self.threshold!r}")
        if self.lambda_grid is not None:
            if self.method == "fp":
                raise ValueError(
                    "the lambda grid tunes the baseline's threshold, so it needs "
                    "method 'usf' or 'both', not 'fp'"
                )
            lo, hi, step = self.lambda_grid
            if not (all(map(math.isfinite, self.lambda_grid)) and 0 < lo <= hi and step > 0):
                raise ValueError(
                    f"lambda_grid must be finite (lo, hi, step) with 0 < lo <= hi "
                    f"and step > 0, got {self.lambda_grid!r}"
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
    one row per sample. Integer columns are written as ``'%d'`` and the rest
    as ``'%.17g'``, 17 significant digits, which round-trips every float64;
    a column given as None is left empty. The bytes are those np.savetxt
    writes with the same row format: :func:`tabletext.table_text` renders
    the rows from whole columns, and formats with ``'%.17g'`` only the rare
    cells its exact digit kernel cannot decide. The text is UTF-8."""
    # imported here: building its tables takes about 1 ms, which runs that
    # write no table skip
    from . import tabletext

    lines = [f"# {key} = {_fmt(value)}" for key, value in (metadata or {}).items()]
    lines.append(",".join(columns))
    with _open_new(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode())
        fh.writelines(tabletext.table_text(list(columns.values())))


def _open_new(path, mode: str):
    """Open `path` for writing as a new file. An existing regular file is
    unlinked rather than truncated: on ext4 with auto_da_alloc, closing a
    truncated and rewritten file starts its write-back, and rewriting a
    170 KB table that way took 160 us against 35 us for a new file. A
    symlink stays and is written through."""
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    except OSError:  # missing, or not ours to unlink: open creates or truncates it
        pass
    return open(path, mode)


def synthesize_measurement(src: SyntheticSource):
    """Generate (gamma, y, residue_spec) on the grid of a synthetic source.

    Folds ideally at the threshold, perturbs the folds with the source's
    non-ideality model, and optionally quantizes the modulo samples.
    """
    g = signal_model.synthesize_random(src.P, src.tau, src.amplitude, src.seed)
    gamma = signal_model.sample(g, src.grid)
    _, residue = folding.fold_ideal(gamma, src.threshold)
    spec = folding.residue_spec_from_samples(residue, src.tau)
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


def _measure(cfg: ExperimentConfig):
    """(y, truth, tau, P, folds, threshold) of the configured source; truth
    is a SampleVector on the grid of y, or None. A synthetic source's P and
    threshold stand in for unset config ones. A capture may lack the truth
    column and the ``folds`` header (None), and its P and threshold are the
    configured ones."""
    if cfg.source is not None:
        src = cfg.source
        gamma, y, spec = synthesize_measurement(src)
        P = src.P if cfg.P_used is None else cfg.P_used
        threshold = src.threshold if cfg.threshold is None else cfg.threshold
        folds = realized_fold_count(spec, src.grid)
        return y, gamma, src.tau, P, folds, threshold
    capture = load_capture(cfg.capture_path)
    if cfg.P_used is None:
        raise ValueError("P_used is required for capture sources")
    y = signal_model.SampleVector(
        values=capture.modulo, grid=signal_model.UniformGrid(T=capture.T, K=capture.K)
    )
    truth = None if capture.ground_truth is None else y.with_values(capture.ground_truth)
    folds = capture.metadata.get("folds")
    return (
        y,
        truth,
        float(capture.metadata["tau"]),
        cfg.P_used,
        None if folds is None else int(folds),
        cfg.threshold,
    )


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run one experiment and write metrics / reconstruction / spectrum files.

    The metrics echo the config as given, plus the T, K and M the run
    resolved; fp and both runs add the report's two diagnostics, the spike
    fit's fit_residual and support_estimator (None when M = 0, where the
    residual is that of no spikes). DR_ratio is None when the modulo
    samples are constant (DR_y = 0). Returns the metrics dict with
    unformatted values. Files are written only after every metric is
    computed, to `cfg.output_dir` when it is set, each one replacing any
    file of its name (see :func:`_open_new`); if a write fails, the files
    this run began to write are removed, and those an earlier run left in
    the output directory stay.
    """
    y, truth, tau, P_used, folds, threshold = _measure(cfg)
    if cfg.lambda_grid is not None and truth is None:
        raise ValueError(
            "the lambda grid scores each threshold against the truth, and the "
            "capture has no truth column"
        )
    M = cfg.M if cfg.M is not None else folds
    if M is None:
        raise ValueError("M is required for capture sources")

    T_fd, T_us, K_min = recovery.sampling_bounds(tau, P_used, M)
    Omega = 2.0 * np.pi * P_used / tau

    metrics = _flatten("config", asdict(cfg))
    dr_y = signal_model.dynamic_range(y)
    metrics.update(
        tau=tau, T=y.grid.T, K=y.grid.K, P_used=P_used, M=M,
        T_FD=T_fd, T_US=T_us, K_min=K_min, DR_y=dr_y,
    )
    if truth is not None:
        metrics["DR_gamma"] = signal_model.dynamic_range(truth)
        # constant samples have no dynamic range, and their ratio is empty
        metrics["DR_ratio"] = metrics["DR_gamma"] / dr_y if dr_y else None

    fp_report = None
    us_report = None
    if cfg.method in ("fp", "both"):
        fp_report = recovery.fourier_prony_recover(y, P_used, M)
        metrics.update(fp_report.diagnostics)  # fit_residual, support_estimator
        if truth is not None:
            metrics["MSE_FD"] = recovery.calibrated_mse(fp_report.gamma_hat.values, truth.values)
    if cfg.method in ("usf", "both"):
        if threshold is None:
            raise ValueError("baseline recovery requires a folding threshold")
        # the max-norm bound comes from the truth, or else from the Fourier
        # estimate; the folded samples cannot give it, as |y| <= threshold.
        # The estimate is zero-mean, and the baseline shifts its own by
        # multiples of 2*threshold until the midrange is within threshold of
        # 0, so half the estimate's range plus the threshold bounds it
        if truth is not None:
            gamma_inf = float(np.max(np.abs(truth.values)))
        elif fp_report is not None:
            gamma_inf = float(np.ptp(fp_report.gamma_hat.values)) / 2 + threshold
        else:
            raise ValueError(
                "baseline recovery needs the max-norm bound beta of the signal, "
                "and the capture has no truth column; use --method both to take "
                "it from the Fourier estimate"
            )
        beta = folding.round_beta(gamma_inf, threshold)
        try:
            us_report = recovery.usf_recover(y, threshold, Omega, beta)
            if truth is not None:
                metrics["MSE_US"] = recovery.calibrated_mse(
                    us_report.gamma_hat.values, truth.values
                )
        except ModsampleError as exc:
            metrics["MSE_US"] = None
            metrics["US_error"] = str(exc)
        if cfg.lambda_grid is not None:
            try:
                metrics["lambda_opt"], metrics["MSE_USopt"] = recovery.optimize_lambda(
                    y, truth, Omega, *cfg.lambda_grid
                )
            except ModsampleError as exc:
                metrics["USopt_error"] = str(exc)

    if not cfg.output_dir:
        return metrics
    out_dir = Path(cfg.output_dir)
    # recovery is zero-mean; shift the written estimates to the truth's mean
    mean = 0.0 if truth is None else float(np.mean(truth.values))
    k = np.arange(y.grid.K)
    written: list = []  # each path goes here before it is opened
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        written.append(out_dir / "metrics.txt")
        _write_metrics(written[-1], metrics)
        written.append(out_dir / "reconstruction.csv")
        _write_table(
            written[-1],
            {
                "k": k,
                "t": k * y.grid.T,
                "y": y.values,
                "gamma_true": None if truth is None else truth.values,
                "gamma_fd": fp_report.gamma_hat.values + mean if fp_report else None,
                "gamma_us": us_report.gamma_hat.values + mean if us_report else None,
                "residue_fd": fp_report.residue_hat.values if fp_report else None,
                "residue_us": us_report.residue_hat.values if us_report else None,
            },
        )
        written.append(out_dir / "spectrum.csv")
        _write_spectrum(written[-1], y, fp_report)
    except Exception:
        for target in written:
            target.unlink(missing_ok=True)
        raise
    return metrics


def _write_metrics(path: Path, metrics: dict):
    with _open_new(path, "w") as fh:
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


def sweep(cfg: ExperimentConfig, axis: str, values) -> list[dict]:
    """Run `cfg` once per value of the named field of `_SWEEP_AXES`;
    run failures are recorded in-row and the sweep continues. Every value
    is cast and its config built before the first run, so a value that
    makes no config, or that repeats another once cast, raises ValueError
    with nothing written. Rows come back sorted by the axis value. When
    `cfg.output_dir` is set, each run writes to its subdirectory
    ``<axis>_<value>``, named by the cast value, and the rows go to its
    ``sweep.csv``."""
    runs = dict(_set_axis(cfg, axis, value) for value in values)
    if len(runs) < len(values):
        raise ValueError(f"axis {axis!r} repeats a value once cast: {', '.join(map(str, values))}")
    base_out = Path(cfg.output_dir) if cfg.output_dir else None
    if base_out is not None:
        base_out.mkdir(parents=True, exist_ok=True)
    rows = []
    for value, run_cfg in runs.items():
        if base_out is not None:
            run_cfg = replace(run_cfg, output_dir=str(base_out / f"{axis}_{value}"))
        row = {"axis": axis, "value": float(value), "error": ""}
        try:
            row.update(run_experiment(run_cfg))
        except Exception as exc:
            row["error"] = str(exc)
        rows.append(row)
    rows.sort(key=lambda r: r["value"])
    if base_out is not None:
        first = ["axis", "value", "error"]
        keys = first + sorted({k for row in rows for k in row} - set(first))
        with _open_new(base_out / "sweep.csv", "w") as fh:
            writer = csv.writer(fh)
            writer.writerow(keys)
            for row in rows:
                writer.writerow([_fmt(row.get(k, "")) for k in keys])
    return rows


# The fields a sweep may vary: name -> (type, where the field lives). The
# baseline unfolds at the source's threshold unless the config sets its own.
_SWEEP_AXES = {
    "P": (int, "source"),
    "tau": (float, "source"),
    "K": (int, "source"),
    "amplitude": (float, "source"),
    "seed": (int, "source"),
    "bits": (int, "source"),
    "threshold": (float, "source"),
    "M": (int, "config"),
    "P_used": (int, "config"),
}


def _set_axis(cfg: ExperimentConfig, axis: str, value):
    """(value cast to the axis type, `cfg` with the axis set to it)."""
    if axis not in _SWEEP_AXES:
        raise ValueError(f"{axis!r} is not a sweep axis; the axes are {', '.join(_SWEEP_AXES)}")
    cast, where = _SWEEP_AXES[axis]
    try:
        value = cast(value)
    except ValueError:
        raise ValueError(f"axis {axis!r} takes {cast.__name__} values, got {value!r}") from None
    if where == "config":
        return value, replace(cfg, **{axis: value})
    if cfg.source is None:
        raise ValueError(f"axis {axis!r} requires a synthetic source")
    return value, replace(cfg, source=replace(cfg.source, **{axis: value}))
