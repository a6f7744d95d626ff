"""Multiuser detection of ternary on-off BPSK signals over an underdetermined
linear AWGN model.

The package provides the SOAV-regularized MAP detector (penalty weights
calibrated from the symbol prior, solved with a closed-form ternary prox by
ADMM when the weights are convex and by accelerated proximal gradient when
they are not) next to LMMSE, LASSO, and exhaustive-MAP baselines, plus a
reproducible Monte Carlo harness and CLI.
"""

from .detectors import (
    DETECTOR_KINDS,
    DetectionResult,
    DetectorConfig,
    EnumerationBoundError,
    exhaustive_map,
    lasso,
    lmmse,
    map_soav,
    run_detector,
    threshold_map,
)
from .frontend import (
    FrontendModel,
    SingularGramError,
    WaveformBank,
    build_frontend,
    cross_correlate,
    gram,
    load_bank,
    whiten,
)
from .harness import (
    ExperimentConfig,
    SweepResult,
    TrialError,
    TrialRecord,
    emit_csv,
    run_sweep,
    run_trial,
)
from .model import (
    SymbolPrior,
    SystemInstance,
    bpsk_prior,
    gaussian_matrix,
    sigma_from_snr,
    substream,
    synthesize,
)
from .optim import (
    DivergenceError,
    SolveReport,
    SolverConfig,
    admm,
    fista,
    lipschitz_bound,
)
from .soav import (
    SingularWeightSystemError,
    SoavWeights,
    UnsupportedAlphabetError,
    default_offset,
    soav_objective,
    solve_weights,
    ternary_prox,
)

__version__ = "0.1.0"
