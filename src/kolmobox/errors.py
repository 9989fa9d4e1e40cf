"""Exception types shared across the package."""


class KolmoboxError(Exception):
    """Base class for all errors raised by this package."""


class NegativeCoefficient(KolmoboxError):
    """A diffusion coefficient field has negative entries beyond tolerance."""


class DegenerateOmega(KolmoboxError):
    """omega is nonpositive somewhere but the unregularized k/omega is requested."""


class IncompatibleGrid(KolmoboxError):
    """Fields or grids that must match do not."""


class StepRejected(KolmoboxError):
    """A time step attempt was rejected (a non-finite field, or a subclass's cause);
    the caller may retry with a smaller dt."""


class EnvelopeViolated(StepRejected):
    """With the positivity guard on, a stage's omega or k fell below its guard level."""


class PicardDiverged(KolmoboxError):
    """The preconditioned Picard iteration did not reach tolerance within the budget."""


class InsufficientSamples(KolmoboxError):
    """A trajectory window holds too few samples for the requested evaluation."""


class NonpositiveSamples(KolmoboxError):
    """Samples that must be strictly positive are not: log-fit data, or the
    (omega, k) of a `scaling.coefficient_defect`."""


class BadDelta(KolmoboxError):
    """Entropy exponent delta outside the open interval (0, 1)."""


class NonpositiveParameter(KolmoboxError):
    """A scaling parameter, a factor derived from it, or a scaled envelope bound or
    box side (or its reciprocal) is not positive and finite."""


class NonFiniteRecord(KolmoboxError):
    """A diagnostics record holds an inf or nan, which a strict JSON series line cannot carry."""


class SnapshotError(KolmoboxError, ValueError):
    """A snapshot file is malformed: short or bad header, truncated or missing field."""


class ParseError(KolmoboxError):
    """Config text could not be parsed; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class ValidationError(KolmoboxError, ValueError):
    """A config key, command-line option or constructor field violates a constraint;
    `field` names it."""

    def __init__(self, field: str, constraint: str):
        super().__init__(f"{field}: {constraint}")
        self.field = field
        self.constraint = constraint
