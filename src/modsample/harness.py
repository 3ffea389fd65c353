"""Experiment orchestration: configs, capture-file ingestion, metric and
plot-table emission, and parameter sweeps."""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import folding, recovery, signal_model
from .exceptions import CaptureFormatError, ModsampleError, RecoveryError

_GRID_UNIFORMITY_RTOL = 1e-6


@dataclass(frozen=True)
class SyntheticSource:
    """Synthetic signal + fold-model description."""

    P: int
    tau: float
    amplitude: float
    seed: int
    threshold: float
    nonideality: Optional[folding.NonIdealityConfig] = None
    bits: Optional[int] = None  # quantize modulo samples when set


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved description of one experiment run."""

    T: float
    K: int
    method: str = "fp"  # fp | usf | both
    source: Optional[SyntheticSource] = None
    capture_path: Optional[str] = None
    P_used: Optional[int] = None
    p_inflation: float = 0.0
    M: Optional[int] = None
    threshold: Optional[float] = None  # baseline folding threshold
    beta_g: Optional[float] = None
    lambda_grid: Optional[tuple] = None  # (lo, hi, step)
    calibrate: str = "mean"  # mean | none
    output_dir: Optional[str] = None

    def __post_init__(self):
        if (self.source is None) == (self.capture_path is None):
            raise ValueError("exactly one of source and capture_path is required")
        if self.method not in ("fp", "usf", "both"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.calibrate not in ("mean", "none"):
            raise ValueError(f"unknown calibration mode {self.calibrate!r}")


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


def load_capture(path) -> CaptureFile:
    """Parse a capture CSV.

    Format: optional '#'-prefixed comment lines (``# key = value`` pairs are
    kept as metadata), then a ``time,truth,modulo`` or ``time,modulo`` header
    and rows of finite numbers. Timestamps must be uniformly spaced to
    within 1e-6 relative. A ``dc_offset`` metadata value is subtracted from
    the modulo column.
    """
    path = Path(path)
    metadata: dict = {}
    header = None
    rows = []
    with path.open() as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    metadata[key.strip()] = value.strip()
                continue
            if header is None:
                header = [c.strip().lower() for c in line.split(",")]
                if header not in (["time", "truth", "modulo"], ["time", "modulo"]):
                    raise CaptureFormatError(
                        f"unsupported header {header!r}", line=lineno
                    )
                continue
            cells = line.split(",")
            if len(cells) != len(header):
                raise CaptureFormatError(
                    f"expected {len(header)} columns, got {len(cells)}", line=lineno
                )
            try:
                row = [float(c) for c in cells]
            except ValueError as exc:
                raise CaptureFormatError(str(exc), line=lineno) from exc
            if not all(math.isfinite(v) for v in row):
                raise CaptureFormatError("non-finite sample", line=lineno)
            rows.append(row)
    if header is None or len(rows) < 2:
        raise CaptureFormatError("capture needs a header and at least two rows")
    data = np.asarray(rows, dtype=float)
    time = data[:, 0]
    steps = np.diff(time)
    T = float(np.median(steps))
    if T <= 0 or np.max(np.abs(steps - T)) > _GRID_UNIFORMITY_RTOL * abs(T):
        raise CaptureFormatError("timestamps are not on a uniform grid")
    modulo = data[:, header.index("modulo")]
    if "dc_offset" in metadata:
        modulo = modulo - float(metadata["dc_offset"])
    truth = data[:, 1] if "truth" in header else None
    metadata.setdefault("tau", repr(len(time) * T))
    metadata["T"] = T
    return CaptureFile(time=time, modulo=modulo, ground_truth=truth, metadata=metadata)


def write_capture(path, time, modulo, truth=None, metadata=None):
    """Emit a capture CSV readable by :func:`load_capture`."""
    path = Path(path)
    with path.open("w") as fh:
        for key, value in (metadata or {}).items():
            fh.write(f"# {key} = {value}\n")
        if truth is not None:
            fh.write("time,truth,modulo\n")
            for t, g, y in zip(time, truth, modulo):
                fh.write(f"{float(t)!r},{float(g)!r},{float(y)!r}\n")
        else:
            fh.write("time,modulo\n")
            for t, y in zip(time, modulo):
                fh.write(f"{float(t)!r},{float(y)!r}\n")


def synthesize_measurement(src: SyntheticSource, grid: signal_model.UniformGrid):
    """Generate (gamma, y, residue_spec) for a synthetic source.

    Folds ideally at the threshold, optionally perturbs the folds with the
    non-ideality model, and optionally quantizes the modulo samples.
    """
    g = signal_model.synthesize_random(src.P, src.tau, src.amplitude, src.seed)
    gamma = signal_model.sample(g, grid)
    _, residue = folding.fold_ideal(gamma, src.threshold)
    spec = folding.residue_spec_from_samples(residue, src.tau)
    if src.nonideality is not None:
        spec = folding.perturb_folds(
            spec, src.nonideality, grid.T, seed=src.seed + 1
        )
    y = folding.apply_residue(gamma, spec)
    if src.bits is not None:
        y = signal_model.quantize(y, src.bits, src.threshold)
    return gamma, y, spec


def realized_fold_count(spec: folding.ResidueSpec, grid: signal_model.UniformGrid) -> int:
    """Number of spikes in the circularly differenced residue, counting the
    wrap spike when the jumps do not cancel."""
    r = spec.step_values(grid.times)
    rbar = folding.finite_difference(r, 1, circular=True)
    scale = max(np.max(np.abs(rbar), initial=0.0), 1.0)
    return int(np.sum(np.abs(rbar) > 1e-12 * scale))


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _flatten_config(cfg: ExperimentConfig) -> dict:
    flat = {}
    for key, value in asdict(cfg).items():
        if isinstance(value, dict):
            for k2, v2 in value.items():
                if isinstance(v2, dict):
                    for k3, v3 in v2.items():
                        flat[f"config.{key}.{k2}.{k3}"] = (
                            _fmt(v3) if v3 is not None else ""
                        )
                else:
                    flat[f"config.{key}.{k2}"] = _fmt(v2) if v2 is not None else ""
        else:
            flat[f"config.{key}"] = _fmt(value) if value is not None else ""
    return flat


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run one experiment and write metrics / reconstruction / spectrum files.

    Returns the metrics dict. Partial outputs are removed on failure.
    """
    out_dir = Path(cfg.output_dir) if cfg.output_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _run_experiment_inner(cfg, out_dir)
    except Exception:
        if out_dir is not None:
            for name in ("metrics.txt", "reconstruction.csv", "spectrum.csv"):
                target = out_dir / name
                if target.exists():
                    target.unlink()
        raise


def _run_experiment_inner(cfg: ExperimentConfig, out_dir) -> dict:
    grid = signal_model.UniformGrid(T=cfg.T, K=cfg.K)
    spec = None
    if cfg.source is not None:
        gamma, y, spec = synthesize_measurement(cfg.source, grid)
        gamma_values = gamma.values
        tau = cfg.source.tau
        P_signal = cfg.source.P
    else:
        capture = load_capture(cfg.capture_path)
        if capture.K != cfg.K or abs(capture.T - cfg.T) > 1e-9 * cfg.T:
            raise ValueError(
                f"capture grid (T={capture.T}, K={capture.K}) does not match "
                f"the configured grid (T={cfg.T}, K={cfg.K})"
            )
        y = signal_model.SampleVector(values=capture.modulo, grid=grid)
        gamma_values = capture.ground_truth
        tau = float(capture.metadata["tau"])
        if cfg.P_used is None:
            raise ValueError("P_used is required for capture sources")
        P_signal = cfg.P_used

    P_used = cfg.P_used if cfg.P_used is not None else P_signal
    if cfg.capture_path is not None and cfg.p_inflation > 0:
        P_used = int(math.ceil(P_used * (1.0 + cfg.p_inflation)))
    if cfg.M is not None:
        M = cfg.M
    elif spec is not None:
        M = realized_fold_count(spec, grid)
    else:
        raise ValueError("M is required for capture sources")

    Omega = 2.0 * np.pi * P_used / tau if P_used > 0 else 0.0
    T_fd, T_us, K_min = recovery.sampling_bounds(tau, P_used, M, Omega=Omega or None)

    metrics: dict = dict(_flatten_config(cfg))
    metrics.update(
        {
            "tau": _fmt(tau),
            "T": _fmt(cfg.T),
            "K": _fmt(cfg.K),
            "P_used": _fmt(P_used),
            "M": _fmt(M),
            "T_FD": _fmt(T_fd),
            "T_US": _fmt(T_us),
            "K_min": _fmt(K_min),
            "DR_y": _fmt(signal_model.dynamic_range(y)),
        }
    )
    if gamma_values is not None:
        gamma_sv = signal_model.SampleVector(values=gamma_values, grid=grid)
        metrics["DR_gamma"] = _fmt(signal_model.dynamic_range(gamma_sv))
        metrics["DR_ratio"] = _fmt(
            signal_model.dynamic_range(gamma_sv) / signal_model.dynamic_range(y)
        )

    calibration = (
        gamma_values if (cfg.calibrate == "mean" and gamma_values is not None) else None
    )

    fp_report = None
    us_report = None
    opt_report = None
    if cfg.method in ("fp", "both"):
        fp_report = recovery.fourier_prony_recover(
            y, P_used, M, calibration_reference=calibration
        )
        if gamma_values is not None:
            metrics["MSE_FD"] = _fmt(
                recovery.calibrated_mse(fp_report.gamma_hat.values, gamma_values)
            )
    if cfg.method in ("usf", "both"):
        if cfg.threshold is None:
            raise ValueError("baseline recovery requires a folding threshold")
        beta = cfg.beta_g
        if beta is None:
            ref = gamma_values if gamma_values is not None else y.values
            beta = folding.round_beta(float(np.max(np.abs(ref))), cfg.threshold)
        try:
            us_report = recovery.usf_recover(
                y, cfg.threshold, Omega, beta, calibration_reference=calibration
            )
            if gamma_values is not None:
                metrics["MSE_US"] = _fmt(
                    recovery.calibrated_mse(us_report.gamma_hat.values, gamma_values)
                )
        except ModsampleError as exc:
            metrics["MSE_US"] = ""
            metrics["US_error"] = str(exc)
        if cfg.lambda_grid is not None and gamma_values is not None:
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
                metrics["lambda_opt"] = _fmt(lam_opt)
                metrics["MSE_USopt"] = _fmt(
                    recovery.calibrated_mse(opt_report.gamma_hat.values, gamma_values)
                )
            except ModsampleError as exc:
                metrics["USopt_error"] = str(exc)

    if out_dir is not None:
        _write_metrics(out_dir / "metrics.txt", metrics)
        _write_reconstruction(
            out_dir / "reconstruction.csv", grid, y, gamma_values, fp_report, us_report
        )
        _write_spectrum(out_dir / "spectrum.csv", y, fp_report)
    return metrics


def _write_metrics(path: Path, metrics: dict):
    with path.open("w") as fh:
        for key in sorted(metrics):
            fh.write(f"{key} = {metrics[key]}\n")


def _write_reconstruction(path, grid, y, gamma_values, fp_report, us_report):
    with path.open("w") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["k", "t", "y", "gamma_true", "gamma_fd", "gamma_us", "residue_fd", "residue_us"]
        )
        for k in range(grid.K):
            row = [str(k), repr(k * grid.T), repr(float(y.values[k]))]
            row.append(repr(float(gamma_values[k])) if gamma_values is not None else "")
            row.append(
                repr(float(fp_report.gamma_hat.values[k])) if fp_report else ""
            )
            row.append(
                repr(float(us_report.gamma_hat.values[k])) if us_report else ""
            )
            row.append(
                repr(float(fp_report.residue_hat.values[k])) if fp_report else ""
            )
            row.append(
                repr(float(us_report.residue_hat.values[k])) if us_report else ""
            )
            writer.writerow(row)


def _write_spectrum(path, y, fp_report):
    ybar = folding.finite_difference(y.values, 1, circular=True)
    bins = np.fft.fft(ybar)
    L = len(bins)
    spikes = np.zeros(L)
    if fp_report is not None:
        # the model's instants lie on the sampling grid
        k = np.rint(fp_report.model.t / y.grid.T).astype(int)
        spikes[k] = fp_report.model.c
    model_bins = np.fft.fft(spikes)
    with path.open("w") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "abs_ybar_dft", "abs_residue_model_dft"])
        for n in range(L):
            writer.writerow([str(n), repr(abs(bins[n])), repr(abs(model_bins[n]))])


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


_SOURCE_FIELDS = {"P", "tau", "amplitude", "seed", "threshold", "bits"}


def _set_axis(cfg: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    if axis in _SOURCE_FIELDS:
        if cfg.source is None:
            raise ValueError(f"axis {axis!r} requires a synthetic source")
        caster = int if axis in ("P", "seed", "bits") else float
        return replace(cfg, source=replace(cfg.source, **{axis: caster(value)}))
    if not hasattr(cfg, axis):
        raise ValueError(f"unknown config field {axis!r}")
    caster = int if axis in ("K", "M", "P_used") else float
    out = replace(cfg, **{axis: caster(value)})
    if axis == "K" and cfg.source is not None:
        # keep the one-period relation K*T = tau for synthetic sources
        out = replace(out, T=cfg.source.tau / int(value))
    return out
