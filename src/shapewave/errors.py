"""Exception hierarchy for the shapewave pipeline.

Every domain error derives from :class:`ShapewaveError`: the data cannot be
fitted, and the CLI exits 1.  An argument out of its documented range is an
:class:`InvalidArgument`, a ``ValueError``; the CLI exits 2 with its usage.
"""


class ShapewaveError(Exception):
    """Base class for all shapewave domain errors."""


class InvalidArgument(ValueError):
    """A parameter outside its documented range (NaN and infinities included)."""


# ---- signal / phase validation ---------------------------------------------

class NonIncreasingTimes(ShapewaveError):
    pass


class NonFiniteValue(ShapewaveError):
    pass


class TooShort(ShapewaveError):
    pass


class NonMonotonePhase(ShapewaveError):
    pass


class TooFewPeriods(ShapewaveError):
    pass


class NotNearIntegerPeriods(ShapewaveError):
    pass


# ---- phase-domain transform -------------------------------------------------

class GridTooCoarse(ShapewaveError):
    pass


class BandExceedsNyquist(ShapewaveError):
    pass


# ---- rank-1 fitting ----------------------------------------------------------

class MismatchedLengths(ShapewaveError):
    pass


class DegenerateInput(ShapewaveError):
    pass


class DegenerateFactors(ShapewaveError):
    pass


class NonConvergence(ShapewaveError):
    pass


# ---- localized extraction ----------------------------------------------------

class WindowTooShort(ShapewaveError):
    pass


class CenterOutOfRange(ShapewaveError):
    pass


# ---- phase estimation ----------------------------------------------------------

class AmbiguousFundamental(ShapewaveError):
    pass


class NonMonotoneEstimate(ShapewaveError):
    pass


# ---- data generation / ingestion ----------------------------------------------

class NonFiniteState(ShapewaveError):
    pass


class ParseError(ShapewaveError):
    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line
