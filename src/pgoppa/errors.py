"""Exception types (ParamError for bad input, NotInvertibleError for the
decoder's early exit) and the integer-range check at the public boundaries."""

from numbers import Integral
from typing import Sequence


class PgoppaError(Exception):
    """Base class for all package-specific errors."""


class ParamError(PgoppaError, ValueError):
    """Invalid field, code, word or experiment parameters."""


class NotInvertibleError(PgoppaError, ArithmeticError):
    """A residue has no inverse modulo the given polynomial; the decoder
    relies on this as an early-exit signal."""


def check_integers(values: Sequence, lo: int, hi: int, what: str) -> None:
    """ParamError unless every value is an integer (not a bool) in [lo, hi).
    Types are screened once per distinct type, before any comparison."""
    types = set(map(type, values))
    ints = types <= {int} or all(t is not bool and issubclass(t, Integral) for t in types)
    if not ints or min(values, default=lo) < lo or max(values, default=lo) >= hi:
        raise ParamError(f"{what} must be integers in [{lo}, {hi})")
