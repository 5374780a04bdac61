"""Exception hierarchy shared across the library.

Every failure mode raised by library code derives from SsdLabError so
callers can distinguish domain errors from programming errors.
"""


class SsdLabError(Exception):
    """Base class for all library errors."""


class InvalidEntryError(SsdLabError):
    """An input vector contains negative, NaN, or infinite entries, or fails basic shape checks."""


class AllZeroError(SsdLabError):
    """Every weight is zero, so no distribution can be formed."""


class EmptySetError(SsdLabError):
    """An index set that must be nonempty is empty."""


class ZeroMassSupportError(SsdLabError):
    """A restriction set carries zero probability mass."""


class SupportViolationError(SsdLabError):
    """p assigns positive mass where q is zero, so the divergence is infinite."""


class InvalidOrderError(SsdLabError):
    """A Renyi order or an operator ordering is invalid."""


class OutOfRangeError(SsdLabError):
    """A scalar parameter lies outside its admissible range."""


class NonPositiveTemperatureError(SsdLabError):
    """A temperature parameter is zero or negative."""


class NormalFormViolationError(SsdLabError):
    """An executed decode pipeline is not a power transform on a rank prefix (implementation bug)."""


class EmptyEventError(SsdLabError):
    """An event set that must be nonempty is empty."""


class ZeroMassEventError(SsdLabError):
    """An event set carries zero probability mass where positive mass is required."""


class DivergenceError(SsdLabError):
    """Training loss rose for too many steps or went non-finite (bad learning rate)."""


class CompositionViolationError(SsdLabError):
    """A composition identity that must hold exactly failed (implementation bug)."""


class ZeroProbabilityOnSupportError(SsdLabError):
    """log p is required on a token where p is zero."""


class KTooLargeError(SsdLabError):
    """A prefix length k exceeds the number of positive-probability tokens."""


class RankOutOfRangeError(SsdLabError):
    """A rank argument lies outside [1, k]."""


class InvalidRatioError(SsdLabError):
    """A geometric tail ratio lies outside (0, 1)."""


class InvalidDistributionError(SsdLabError):
    """A loaded record does not validate as a probability distribution."""


class ParseError(SsdLabError):
    """A data file contains malformed lines."""


class EmptyReportError(SsdLabError):
    """A report was requested for zero rows."""


class IoError(SsdLabError):
    """An output file could not be written."""
