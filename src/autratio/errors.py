"""Exception types shared across the package."""


class AutratioError(Exception):
    """Base class for all package-specific errors."""


class GroupParseError(AutratioError, ValueError):
    """Malformed group literal."""


class SieveCapacityError(AutratioError):
    """The prime sieve cannot be extended far enough under its hard ceiling.

    Carries optional partial state (e.g. a partial greedy trace) so callers
    can report how far a computation got before running out of primes.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class OracleCapExceeded(AutratioError):
    """A brute-force oracle call exceeded its configured order or work cap."""


class InputLimitExceeded(AutratioError):
    """An input whose exact answer would be too large to compute in bounded
    time and memory, such as a group literal above ``MAX_LITERAL_AUT_BITS``
    or ``MAX_LITERAL_DIGITS``, or a number with a probable-prime factor at
    or above psi_12 that ``factorize`` cannot prove prime."""


class PrecisionRefusal(AutratioError):
    """Requested tolerance is below the achievable arithmetic error bound."""
