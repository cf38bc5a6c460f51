"""Exception types shared across the package, and :func:`reading`, the one
rule by which an error about an input file names that file."""

from contextlib import contextmanager


class FreqMiaError(Exception):
    """Base class for all package-specific errors."""


class InputError(FreqMiaError):
    """A bad flag, config value or input file (CLI exit code 1). Raised in
    :func:`reading`, it reads ``<file>: <message>``, or with a ``line``
    ``<file>, line <n>: <message>``."""

    path = None

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line

    def __str__(self):
        where = self.path if self.line is None else f"{self.path}, line {self.line}"
        return super().__str__() if self.path is None else f"{where}: {super().__str__()}"


class ConfigurationError(InputError):
    """Invalid configuration value or combination (CLI exit code 1)."""


class ContractViolation(FreqMiaError, ValueError):
    """An operation was called with arguments outside its documented domain."""


class TrainingError(FreqMiaError):
    """Training diverged or could not proceed."""


class IngestionError(InputError):
    """An input file (dataset image, manifest entry, weight file, score CSV,
    loss trace or metrics JSON) is malformed (CLI exit code 1)."""


class EvaluationError(FreqMiaError):
    """A metric is undefined for the given inputs (e.g. single-class data)."""


class ExperimentError(FreqMiaError):
    """An experiment stage failed; partial outputs were persisted."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage '{stage}' failed: {message}")
        self.stage = stage


@contextmanager
def reading(path):
    """Run a reader of ``path`` so that its errors name the file: an
    :class:`InputError` naming no file yet gets ``path`` (one that names a
    nested reader's file passes unchanged), and text that is not UTF-8 or
    an ``OSError`` becomes an :class:`IngestionError` naming ``path``."""
    try:
        yield
    except InputError as exc:
        if exc.path is None:
            exc.path = path
        raise
    except (UnicodeDecodeError, OSError) as exc:
        error = IngestionError(f"not UTF-8 text ({exc.reason})"
                               if isinstance(exc, UnicodeDecodeError) else exc.strerror or str(exc))
        error.path = path
        raise error from exc
