"""Exception types shared across the package."""


class ModsampleError(Exception):
    """Base class for all package errors."""


class UndersampledError(ModsampleError, ValueError):
    """Too few samples for the requested bandwidth or spike count."""


class OversamplingInsufficientError(ModsampleError, ValueError):
    """T * Omega * e >= 1, so the finite-difference order rule has no solution."""


class FoldConsistencyError(ModsampleError, RuntimeError):
    """Baseline unfolding detected data inconsistent with ideal 2*lambda folds."""


class RecoveryError(ModsampleError, RuntimeError):
    """End-to-end recovery failure; carries the failing algorithm step."""

    def __init__(self, message, step=None):
        super().__init__(message if step is None else f"step {step}: {message}")
        self.step = step


class CaptureFormatError(ModsampleError, ValueError):
    """Capture file failed parsing or grid-uniformity validation."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
