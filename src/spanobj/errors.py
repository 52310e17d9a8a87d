"""Exception types shared across the package."""


class SpanObjError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(SpanObjError, ValueError):
    """Arguments violate a precondition (shape, finiteness, range)."""


class MalformedFileError(InvalidInputError):
    """A dataset, contexts or checkpoint file that does not parse; names file and line."""


class DegenerateInputError(InvalidInputError):
    """Structurally empty input, e.g. an all-masked span matrix."""


class InvalidTargetError(SpanObjError, ValueError):
    """Supervision target out of range or masked out."""


class NoSupervisionError(SpanObjError, ValueError):
    """Shared-normalization instance whose ground-truth sets are all empty."""


class OracleFailureError(SpanObjError, RuntimeError):
    """The finite-difference oracle hit a non-finite function value."""


class DegenerateSampleError(SpanObjError, ValueError):
    """Statistical sample with zero variance."""


class DegeneratePairsError(SpanObjError, ValueError):
    """Paired test with zero difference variance; no p-value is defined."""


class DivergenceError(SpanObjError, RuntimeError):
    """Training produced a non-finite loss."""


class VocabularyError(SpanObjError, ValueError):
    """Token id outside the embedding table."""


class ConfigError(SpanObjError, ValueError):
    """Invalid or unknown configuration values."""


# What a parser of one line-delimited record raises when the line is valid
# text but not a valid record (bad JSON, missing key, wrong type or value).
MALFORMED_RECORD_ERRORS = (ValueError, KeyError, IndexError, TypeError)


def malformed(path, line_no: int, what: str, err: Exception) -> MalformedFileError:
    """A :class:`MalformedFileError` naming ``path:line_no`` for parse failure ``err``."""
    detail = f"missing key {err}" if isinstance(err, KeyError) else f"{type(err).__name__}: {err}"
    return MalformedFileError(f"{path}:{line_no}: bad {what}: {detail}")
