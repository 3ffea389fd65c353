"""Modulo (self-reset) ADC simulation and Fourier-Prony signal unfolding."""

from .exceptions import (
    CaptureFormatError,
    FoldConsistencyError,
    ModsampleError,
    OversamplingInsufficientError,
    RecoveryError,
    UndersampledError,
)
from .folding import (
    NonIdealityConfig,
    ResidueSpec,
    apply_residue,
    centered_modulo,
    choose_order,
    finite_difference,
    fold_ideal,
    perturb_folds,
    residue_spec_from_samples,
    round_beta,
)
from .recovery import (
    RecoveryReport,
    anti_difference,
    calibrated_mse,
    fourier_prony_recover,
    mse,
    optimize_lambda,
    sampling_bounds,
    usf_recover,
)
from .signal_model import (
    SampleVector,
    TrigPolynomial,
    UniformGrid,
    dynamic_range,
    evaluate,
    quantize,
    sample,
    synthesize_random,
)
from .spectral import amplitudes_ls, fit_spikes, grid_support, inband_support

__version__ = "0.1.0"
