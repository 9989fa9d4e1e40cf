"""kolmobox: periodic-box solver and verification suite for a two-equation
turbulence closure with an r-Laplacian regularization."""

from .errors import (
    BadDelta,
    DegenerateOmega,
    EnvelopeViolated,
    IncompatibleGrid,
    InsufficientSamples,
    KolmoboxError,
    NegativeCoefficient,
    NonFiniteRecord,
    NonpositiveParameter,
    NonpositiveSamples,
    ParseError,
    PicardDiverged,
    SnapshotError,
    StepRejected,
    ValidationError,
)
from .fields import Grid
from .model import ComparisonEnvelope, HomogeneousIC, ModelParams, State
from .timestepper import StepConfig

__version__ = "0.1.0"

__all__ = [
    "Grid",
    "ModelParams",
    "ComparisonEnvelope",
    "State",
    "HomogeneousIC",
    "StepConfig",
    "KolmoboxError",
    "NegativeCoefficient",
    "DegenerateOmega",
    "IncompatibleGrid",
    "StepRejected",
    "EnvelopeViolated",
    "PicardDiverged",
    "InsufficientSamples",
    "NonpositiveSamples",
    "BadDelta",
    "NonpositiveParameter",
    "NonFiniteRecord",
    "SnapshotError",
    "ParseError",
    "ValidationError",
    "__version__",
]
