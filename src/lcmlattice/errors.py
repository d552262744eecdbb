"""Exception types shared across the package, :func:`shown`, the one
renderer of a caller's value inside their messages, and :func:`_iterated`,
the one reader of a caller's container."""

from __future__ import annotations

from typing import Iterator, Mapping

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


def _iterated(values: object, expected: str, strings: bool = False) -> Iterator:
    """An iterator over caller-given ``values``; a value that is not
    iterable is a :class:`PreconditionError` saying what was ``expected``.
    So is a string, ``bytes`` or ``bytearray``, unless ``strings``: none of
    these is a container of monomials, pairs or names, as a string read
    character by character would name one-character ones, and bytes would
    yield ints.  The lattice readers, whose items are ints, pass
    ``strings`` and refuse the first item with their own text."""
    if strings or not isinstance(values, (str, bytes, bytearray)):
        try:
            return iter(values)
        except TypeError:
            pass
    raise PreconditionError(f"{expected}, got {shown(values)}")


def _pairs(values: object, what: str, pair: str) -> Iterator[tuple[object, object]]:
    """The two-item ``pair``s (say ``"(name, exponent)"``) of a mapping's
    items or of an iterable; anything else is a :class:`PreconditionError`
    naming ``what`` was given and echoing it."""
    items = values.items() if isinstance(values, Mapping) else values
    for item in _iterated(items, f"{what} must be a mapping or an iterable of {pair} pairs"):
        try:
            k, v = item
        except (TypeError, ValueError):
            raise PreconditionError(f"{what} must be {pair} pairs, got {shown(item)}") from None
        yield k, v
