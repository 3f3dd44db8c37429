"""Exception types shared across the package."""


class PgoppaError(Exception):
    """Base class for all package-specific errors."""


class ParamError(PgoppaError, ValueError):
    """Invalid field, code, word or experiment parameters."""


class NotInvertibleError(PgoppaError, ArithmeticError):
    """A residue has no inverse modulo the given polynomial; the decoder
    relies on this as an early-exit signal."""


class DegreeBoundError(PgoppaError, ValueError):
    """A candidate solution row violates the locator degree bounds."""
