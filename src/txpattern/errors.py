"""Exception types shared across the pipeline.

Every error raised on bad input data or bad parameters derives from
:class:`TxPatternError`, so callers (and the CLI) can catch one base class.
"""

from __future__ import annotations


class TxPatternError(Exception):
    """Base class for all errors raised by this package."""


class BadSpec(TxPatternError, ValueError):
    """A parameter is out of range, or a model file is not one this version
    can read.  Also a ``ValueError``, Python's exception for a bad argument."""


# --- ingest ---------------------------------------------------------------

class MissingFile(TxPatternError):
    def __init__(self, path: str):
        super().__init__(f"no such file: {path}")


class MalformedRow(TxPatternError):
    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class DuplicateTxId(TxPatternError):
    def __init__(self, tx_id: str, first_line: int, second_line: int):
        self.tx_id = tx_id
        self.first_line = first_line
        self.second_line = second_line
        super().__init__(
            f"duplicate tx_id {tx_id!r} on lines {first_line} and {second_line}"
        )


class NonPositivePrice(TxPatternError):
    def __init__(self, date):
        self.date = date
        super().__init__(f"non-positive price on {date}")


class UnparseableDate(TxPatternError):
    def __init__(self, line: int, text: str = ""):
        self.line = line
        super().__init__(f"line {line}: cannot parse date {text!r}")


# --- features / regress ---------------------------------------------------

class PriceMissing(TxPatternError):
    def __init__(self, date):
        self.date = date
        super().__init__(f"no price available for {date}")


class TooFewRows(TxPatternError):
    pass


class SingularSystem(TxPatternError):
    pass


class DimensionMismatch(TxPatternError):
    pass


# --- backtest ---------------------------------------------------------------

class LengthMismatch(TxPatternError):
    pass


class EmptyInput(TxPatternError):
    pass


class NonPositiveTruth(TxPatternError):
    pass


class InsufficientData(TxPatternError):
    pass
