"""Exception hierarchy shared across the package.

Two families matter for the CLI exit codes: configuration / validation
problems (exit 2) and violated internal invariants (exit 4). I/O problems
stay the OSError they are (exit 3). Everything raised by this package
derives from RanTopoError so callers can catch one type; within a family
the message, not a subclass, says what was refused.
"""


class RanTopoError(Exception):
    """Base class for all errors raised by ran_topo."""


class ValidationError(RanTopoError):
    """Bad input data or configuration (CLI exit code 2)."""


class InternalError(RanTopoError):
    """An internal invariant was violated (CLI exit code 4)."""


class StageError(RanTopoError):
    """Wraps a failure with the pipeline stage it occurred in."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause
