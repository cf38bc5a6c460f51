"""Exception types shared across the package."""


class FreqMiaError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(FreqMiaError):
    """Invalid configuration value or combination (CLI exit code 1)."""


class ContractViolation(FreqMiaError, ValueError):
    """An operation was called with arguments outside its documented domain."""


class TrainingError(FreqMiaError):
    """Training diverged or could not proceed."""


class IngestionError(FreqMiaError):
    """An input file (dataset image, manifest entry, weight file or score
    CSV) is malformed (CLI exit code 1)."""


class EvaluationError(FreqMiaError):
    """A metric is undefined for the given inputs (e.g. single-class data)."""


class ExperimentError(FreqMiaError):
    """An experiment stage failed; partial outputs were persisted."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage '{stage}' failed: {message}")
        self.stage = stage
