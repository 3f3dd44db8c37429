"""Exception types shared across the package."""


class PgoppaError(Exception):
    """Base class for all package-specific errors."""


class NotPrimeError(PgoppaError, ValueError):
    """The requested characteristic is not a prime number."""


class ReducibleModulusError(PgoppaError, ValueError):
    """A supplied field modulus is not irreducible."""


class NotInvertibleError(PgoppaError, ArithmeticError):
    """A residue has no inverse modulo the given polynomial; the decoder
    relies on this as an early-exit signal."""


class DegreeBoundError(PgoppaError, ValueError):
    """A candidate solution row violates the locator degree bounds."""


class ParamError(PgoppaError, ValueError):
    """Invalid code or experiment parameters."""
