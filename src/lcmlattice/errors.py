"""Exception types shared across the package, and :func:`shown`, the one
renderer of a caller's value inside their messages."""

from __future__ import annotations

__all__ = [
    "Error",
    "MonomialParseError",
    "NotDivisibleError",
    "FormatError",
    "ValidationError",
    "NotAnElementError",
    "DegenerateIdealError",
    "PreconditionError",
    "CapExceededError",
]

ECHO_LIMIT = 60  # characters


def shown(value: object, render=repr) -> str:
    """``render(value)`` cut to ``ECHO_LIMIT`` characters, ending in ``...``
    when cut.  A value ``render`` refuses (an ``int`` past Python's digit
    limit, nesting past the recursion limit) names only its type."""
    try:
        text = render(value)
    except (ValueError, RecursionError):
        return f"<{type(value).__name__} too large to show>"
    return text if len(text) <= ECHO_LIMIT else text[: ECHO_LIMIT - 3] + "..."


class Error(Exception):
    """Base class for every error raised by this package."""


class MonomialParseError(Error, ValueError):
    """Raised when a monomial string does not follow the surface grammar.

    ``position`` is the 0-based offset of the first offending character.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotDivisibleError(Error, ArithmeticError):
    """Raised by exact division when the divisor does not divide the dividend."""


class FormatError(Error, ValueError):
    """Raised when serialized input (JSON documents, ideal text) is malformed."""


class ValidationError(Error, ValueError):
    """A family of atom sets is not a finite atomic lattice.

    ``missing_required`` lists every absent mandatory set (empty set,
    singletons, full set).  ``non_closed_pairs`` lists pairs of member sets
    whose intersection is missing from the family, in canonical pair order:
    one for each step of the closure walk that fails, at most m·n pairs for
    m sets on n atoms, and at least one when the family with the empty and
    the full set added is not closed under intersection; not every such
    pair.  Both are given as sorted tuples of 1-based atom indices.
    """

    def __init__(self, message, missing_required=(), non_closed_pairs=()):
        super().__init__(message)
        self.missing_required = tuple(missing_required)
        self.non_closed_pairs = tuple(non_closed_pairs)


class NotAnElementError(Error, KeyError):
    """An atom set was used with a lattice it does not belong to.

    A ``KeyError`` for callers that catch one, with the plain text of any
    other error: ``KeyError`` would print its message in quotes."""

    __str__ = Exception.__str__


class DegenerateIdealError(Error, ValueError):
    """The unit monomial is (or would be) a generator, so no lcm lattice exists."""


class PreconditionError(Error, ValueError):
    """An operation's documented precondition does not hold for the given input."""


class CapExceededError(Error, ValueError):
    """Input size exceeds a documented safety cap (atom count, lcm-lattice elements, ...)."""
