"""Exception types shared across the package."""


class PhonetraitError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(PhonetraitError):
    """Invalid configuration values, or a request the data cannot satisfy."""


class DimensionError(PhonetraitError):
    """Array shapes inconsistent with the declared configuration."""


class ParseError(PhonetraitError):
    """A file failed to parse; carries path and 1-based line number."""

    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


class EmptyUtteranceError(PhonetraitError):
    """An utterance produced no present traits."""


class BatchError(PhonetraitError):
    """A pair batch does not satisfy the requirements of a loss term."""


class NumericGuardError(PhonetraitError):
    """A numeric precondition failed, e.g. a zero-norm vector or degenerate data."""


class UndefinedEvidenceError(PhonetraitError):
    """Evidence score requested for a trial with no co-present phones."""


class DivergenceError(PhonetraitError):
    """Non-finite loss, gradient or parameter in training; the message names the group and step."""
