"""Simulation smoothing for mixed-frequency VARs with ragged-edge data."""

from .adaptive import mult_count, run_adaptive
from .baseline import RunStats, SmoothResult, run_baseline
from .blocked import run_blocked
from .errors import (
    ConfigurationError,
    InitializationError,
    MfsmoothError,
    OracleSizeError,
    SingularInnovationError,
)
from .model import (
    Aggregation,
    AggregationScheme,
    MixedFreqData,
    ObservationPattern,
    VarParams,
    build_aggregation,
    detect_pattern,
    intra_quarterly_average,
    skip_sampling,
)
from .oracle import oracle_joint, oracle_smooth
from .simsmooth import LatentDraw, PseudoSample, draw_latent, draw_many, gen_pseudo

__all__ = [
    "Aggregation",
    "AggregationScheme",
    "ConfigurationError",
    "InitializationError",
    "LatentDraw",
    "MfsmoothError",
    "MixedFreqData",
    "ObservationPattern",
    "OracleSizeError",
    "PseudoSample",
    "RunStats",
    "SingularInnovationError",
    "SmoothResult",
    "VarParams",
    "build_aggregation",
    "detect_pattern",
    "draw_latent",
    "draw_many",
    "gen_pseudo",
    "intra_quarterly_average",
    "mult_count",
    "oracle_joint",
    "oracle_smooth",
    "run_adaptive",
    "run_baseline",
    "run_blocked",
    "skip_sampling",
]

__version__ = "0.1.0"
