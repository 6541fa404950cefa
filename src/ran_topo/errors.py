"""Exception hierarchy shared across the package.

Everything raised by this package derives from RanTopoError, so callers can
catch one type, and the CLI exits 2 for it: bad input or configuration. I/O
problems stay the OSError they are (exit 3); any other exception is a bug
(exit 4). The message, not a subclass, says what was refused.
"""


class RanTopoError(Exception):
    """Base class for all errors raised by ran_topo."""


class ValidationError(RanTopoError):
    """Bad input data or configuration (CLI exit code 2)."""


class StageError(RanTopoError):
    """Wraps a failure with the pipeline stage it occurred in."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause
