"""Exception hierarchy shared across the package.

Two families matter for the CLI exit codes: configuration / validation
problems (exit 2) and violated internal invariants (exit 4). I/O problems
stay the OSError they are (exit 3). Everything raised by this package
derives from RanTopoError so callers can catch one type.
"""


class RanTopoError(Exception):
    """Base class for all errors raised by ran_topo."""


class ValidationError(RanTopoError):
    """Bad input data or configuration (CLI exit code 2)."""


class InternalError(RanTopoError):
    """An internal invariant was violated (CLI exit code 4)."""


# graph construction
class UnknownEndpoint(ValidationError):
    pass


class UnknownNode(ValidationError):
    pass


class SelfLoop(ValidationError):
    pass


class FeatureRowMismatch(ValidationError):
    pass


class BadRatios(ValidationError):
    pass


class GraphTooSmall(ValidationError):
    pass


# csv / feature handling
class MissingHeader(ValidationError):
    pass


class DuplicateCellId(ValidationError):
    pass


class BadCoordinate(ValidationError):
    pass


class BadRow(ValidationError):
    pass


class AllValuesMissing(ValidationError):
    pass


class EmptyRowSet(ValidationError):
    pass


class ColumnMismatch(ValidationError):
    pass


# neural / model
class ShapeMismatch(ValidationError):
    pass


class BadLabel(ValidationError):
    pass


class BadDims(ValidationError):
    pass


# pipeline
class EmptyEvalSet(ValidationError):
    pass


class NotEnoughNegatives(ValidationError):
    pass


class EmptyTrainSet(ValidationError):
    pass


class DegenerateGraph(ValidationError):
    pass


class SingleClassOnly(ValidationError):
    pass


class BadConfig(ValidationError):
    pass


class StageError(RanTopoError):
    """Wraps a failure with the pipeline stage it occurred in."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause
