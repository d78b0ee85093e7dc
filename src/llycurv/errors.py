"""Exception hierarchy shared by every module."""


class LlycurvError(ValueError):
    """Base class for all errors raised by this package."""


class InvalidVertexError(LlycurvError):
    """Vertex id out of range for the graph."""


class NotAnEdgeError(LlycurvError):
    """The given vertex pair is not an edge."""


class NotRegularError(LlycurvError):
    """Operation requires a regular graph."""


class DisconnectedError(LlycurvError):
    """Operation requires a connected graph."""


class InfiniteDistanceError(LlycurvError):
    """Measure supports lie in different connected components."""


class InvalidIdlenessError(LlycurvError):
    """Idleness parameter must lie in [0, 1]."""


class NotPrimeError(LlycurvError):
    """Field characteristic must be prime."""


class TooLargeError(LlycurvError):
    """Requested object exceeds the configured size bound."""


class NotPrimePowerError(LlycurvError):
    """Order is not a prime power."""


class NotPaleyOrderError(LlycurvError):
    """Paley graphs need a prime power congruent to 1 mod 4."""


class UnknownFamilyError(LlycurvError):
    """No graph family registered under that name."""


class InvalidParamsError(LlycurvError):
    """Parameters invalid for the requested construction."""


class ViolatorTooSmallError(LlycurvError):
    """Obstruction quadratics only apply to violator sizes b >= 2."""


class DegenerateParametersError(LlycurvError):
    """A denominator of the obstruction quadratic vanishes for these parameters."""


class NotSrgParametersError(LlycurvError):
    """Parameters fail the strongly-regular counting identity."""


class InfeasibleParametersError(LlycurvError):
    """Eigenvalue multiplicities are not positive integers."""


class InvalidPairError(LlycurvError):
    """The difference of the two field elements is not a nonzero square."""


class InvalidOrderError(LlycurvError):
    """Field order invalid for the quadratic-residue pattern check."""
