"""Monomials in commuting named variables, with divisibility arithmetic.

A monomial is a finite product of variable powers with positive integer
exponents; the empty product is the unit and prints as ``1``.  The surface
grammar is deliberately small::

    monomial := "1" | term ("*" term)*
    term     := ident ("^" uint)?
    ident    := [A-Za-z_][A-Za-z0-9_]*
    uint     := positive decimal integer, no leading zeros, <= MAX_EXPONENT_DIGITS digits

``a^1`` parses but always renders as ``a``.  Rendering is canonical: variables
shaped like ``a<k>`` (the default names given to lattice atoms) come first in
numeric order, every other variable follows lexicographically, so equal
monomials always produce identical strings.  The render key tests a name's
shape with string methods (``a``, then ASCII digits not starting with ``0``),
with no regex.

Internally the exponents are a dict from name to exponent in the order the
names first came, so building a monomial sorts nothing; dict equality ignores
that order, and the hash, of the frozen set of the pairs, is computed on first
use and kept.  The render order is applied only where order is visible
(``str``, :meth:`Monomial.items` and :attr:`Monomial.variables`), by sorting
the names with a bounded cache of their render keys.  Public construction
validates every name and exponent.  :meth:`Monomial.parse` validates a whole
text with one match of a compiled pattern of the grammar, and wraps the summed
exponents through a trusted constructor that checks nothing and keeps the dict
it is given; the grammar loop runs only to word a refusal.  Arithmetic results
and the generator builders of :mod:`lcmlattice.ideals` go through the trusted
constructor too, as their exponents are already valid.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, NoReturn

from .errors import MonomialParseError, NotDivisibleError, PreconditionError, _pairs, shown

__all__ = ["Monomial", "ONE", "lcm_all", "gcd_all"]

# Most digits in one exponent.  Parsing, the constructor and
# ``ideals.element_generator`` (which adds label exponents) refuse more, and lcm,
# gcd and exact division never raise an exponent, so every monomial the package
# builds renders within Python's 4,300-digit int-to-str limit.  Only ``*`` is
# unchecked; a product of two monomials within the cap has at most 1,001 digits.
MAX_EXPONENT_DIGITS = 1000
_EXPONENT_BOUND = 10**MAX_EXPONENT_DIGITS


def _check_exponent_digits(name: str, exp: int) -> None:
    """Refuse an exponent of more than ``MAX_EXPONENT_DIGITS`` digits."""
    if exp >= _EXPONENT_BOUND:
        raise PreconditionError(f"exponent of {shown(name)} has more than {MAX_EXPONENT_DIGITS} digits")


_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_UINT = re.compile(r"[1-9][0-9]*")
# The whole grammar but "1": terms of a name and an optional exponent of at
# most MAX_EXPONENT_DIGITS digits, joined by "*".
_TERM = rf"{_IDENT.pattern}(?:\^[1-9][0-9]{{0,{MAX_EXPONENT_DIGITS - 1}}})?"
_MONOMIAL = re.compile(rf"{_TERM}(?:\*{_TERM})*")


def _variable_key(name: str):
    """The render key: ``a<k>`` names (``k`` a positive decimal with no
    leading zero) first by ``k``, then every other name lexicographically."""
    digits = name[1:]
    if name[0] == "a" and digits.isascii() and digits.isdigit() and digits[0] != "0":
        return (0, int(digits), name)
    return (1, 0, name)


# The render key of each name seen lately: rendering sorts the names by it.
_render_key = lru_cache(maxsize=4096)(_variable_key)


def _refuse(text: str) -> NoReturn:
    """The grammar loop, for a text ``_MONOMIAL`` refuses: raise the
    :class:`MonomialParseError` of the first position where the text leaves
    the grammar."""
    pos = 0
    while True:
        m = _IDENT.match(text, pos)
        if not m:
            raise MonomialParseError("expected a variable name", pos)
        pos = m.end()
        if text.startswith("^", pos):
            pos += 1
            m = _UINT.match(text, pos)
            if not m:
                raise MonomialParseError("expected a positive exponent after '^'", pos)
            if m.end() - pos > MAX_EXPONENT_DIGITS:
                raise MonomialParseError(f"exponent has more than {MAX_EXPONENT_DIGITS} digits", pos)
            pos = m.end()
        if not text.startswith("*", pos):
            raise MonomialParseError(f"unexpected character {shown(text[pos : pos + 1])}", pos)
        pos += 1


class Monomial:
    """An immutable, hashable monomial.

    Construct from a mapping or an iterable of ``(variable, exponent)`` pairs;
    repeated variables accumulate, and any other container (a string
    included) is a :class:`PreconditionError` that echoes it.  All exponents
    must be positive integers (zero-exponent entries are rejected rather
    than silently dropped, except when they arise internally from exact
    division), and each accumulated exponent has at most
    ``MAX_EXPONENT_DIGITS`` digits.
    """

    __slots__ = ("_exps", "_hash")

    def __init__(self, exponents: Mapping[str, int] | Iterable[tuple[str, int]] = ()):
        acc: dict[str, int] = {}
        for name, exp in _pairs(exponents, "exponents", "(name, exponent)"):
            if not isinstance(name, str) or not _IDENT.fullmatch(name):
                raise PreconditionError(f"invalid variable name: {shown(name)}")
            if not isinstance(exp, int) or isinstance(exp, bool) or exp <= 0:
                raise PreconditionError(f"exponent of {shown(name)} must be a positive int, got {shown(exp)}")
            acc[name] = total = acc.get(name, 0) + exp
            _check_exponent_digits(name, total)
        self._exps = acc
        self._hash = None

    @classmethod
    def _trusted(cls, exps: dict[str, int]) -> "Monomial":
        """Wrap exponents known to be valid: identifier names, positive ints
        of at most ``MAX_EXPONENT_DIGITS`` digits.

        The fast path for arithmetic results, generator builders and
        :meth:`parse`, which has validated every name and exponent with one
        match of the grammar; it skips the checks of ``__init__``, so never
        hand it unchecked input.  It takes ownership of ``exps`` and stores
        it as it is, copying nothing: the caller hands over a fresh dict and
        never touches it again, or the monomial would change under it.
        """
        m = object.__new__(cls)
        m._exps = exps
        m._hash = None
        return m

    @classmethod
    def parse(cls, text: str) -> "Monomial":
        """Parse the strict grammar above; raise :class:`MonomialParseError` otherwise.

        One ``fullmatch`` of the compiled grammar accepts the text, which
        admits only identifier names and positive exponents of at most
        ``MAX_EXPONENT_DIGITS`` digits; the terms are then split at ``*``.
        A text with no ``^`` whose names are distinct has every exponent 1,
        so its names become the exponent dict at once.  Any other text has
        its terms split at ``^`` and their exponents summed, and the sums
        are wrapped as they are.  A text the pattern refuses goes to the
        grammar loop (:func:`_refuse`), which names the first offending
        position.  A sum past the cap is the constructor's
        :class:`PreconditionError`, named for the first variable to pass it,
        and is raised only once the whole text parses, so a grammar error
        wins.
        """
        if not isinstance(text, str):
            raise MonomialParseError(f"expected a string, got {shown(text)}", 0)
        if text == "1":
            return ONE
        if _MONOMIAL.fullmatch(text) is None:
            _refuse(text)
        terms = text.split("*")
        if "^" not in text:
            acc = dict.fromkeys(terms, 1)
            if len(acc) == len(terms):
                return Monomial._trusted(acc)
        acc = {}
        over = None  # the first variable whose sum passes the cap
        for term in terms:
            name, _, exp = term.partition("^")
            acc[name] = total = acc.get(name, 0) + (int(exp) if exp else 1)
            if over is None and total >= _EXPONENT_BOUND:
                over = name
        if over is not None:
            _check_exponent_digits(over, acc[over])
        return Monomial._trusted(acc)

    # -- inspection ----------------------------------------------------------

    @property
    def is_one(self) -> bool:
        return not self._exps

    @property
    def variables(self) -> tuple[str, ...]:
        """Variable names in render order."""
        return tuple(sorted(self._exps, key=_render_key))

    def items(self) -> Iterator[tuple[str, int]]:
        """``(variable, exponent)`` pairs in render order."""
        exps = self._exps
        return ((v, exps[v]) for v in sorted(exps, key=_render_key))

    # -- arithmetic ----------------------------------------------------------

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        acc = self._exps.copy()
        for v, e in other._exps.items():
            acc[v] = acc.get(v, 0) + e
        return Monomial._trusted(acc)

    def lcm(self, other: "Monomial") -> "Monomial":
        acc = self._exps.copy()
        for v, e in other._exps.items():
            if e > acc.get(v, 0):
                acc[v] = e
        return Monomial._trusted(acc)

    def gcd(self, other: "Monomial") -> "Monomial":
        theirs = other._exps
        return Monomial._trusted({v: min(e, theirs[v]) for v, e in self._exps.items() if v in theirs})

    def divides(self, other: "Monomial") -> bool:
        theirs = other._exps
        return all(e <= theirs.get(v, 0) for v, e in self._exps.items())

    def __truediv__(self, other: "Monomial") -> "Monomial":
        """Exact division; raises :class:`NotDivisibleError` when it would not be exact."""
        if not isinstance(other, Monomial):
            return NotImplemented
        if not other.divides(self):
            raise NotDivisibleError(f"{other} does not divide {self}")
        theirs = other._exps
        return Monomial._trusted({v: e - theirs.get(v, 0) for v, e in self._exps.items() if e > theirs.get(v, 0)})

    # -- identity ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self._exps == other._exps

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._exps.items()))
        return self._hash

    def __str__(self) -> str:
        if not self._exps:
            return "1"
        return "*".join(v if e == 1 else f"{v}^{e}" for v, e in self.items())

    def __repr__(self) -> str:
        return f"Monomial({str(self)!r})"


ONE = Monomial()


def lcm_all(monomials: Iterable[Monomial]) -> Monomial:
    """Least common multiple of a finite family; the empty lcm is 1."""
    out = ONE
    for m in monomials:
        out = out.lcm(m)
    return out


def gcd_all(monomials: Iterable[Monomial]) -> Monomial:
    """Greatest common divisor of a finite family; the empty gcd is 1."""
    it = iter(monomials)
    try:
        out = next(it)
    except StopIteration:
        return ONE
    for m in it:
        if out.is_one:
            break
        out = out.gcd(m)
    return out
