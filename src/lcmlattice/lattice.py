"""Finite atomic lattices, encoded as intersection-closed families of atom sets.

Every finite atomic lattice on atoms 1..n is determined by the family
``{ supp(p) : p in P }`` of its elements' atom supports.  Such a family
contains the empty set, every singleton and the full set, and is closed under
pairwise intersection; conversely every such family, ordered by inclusion, is
a finite atomic lattice.  This module works directly with that encoding:
an *element* is an ``int`` bitmask over atoms (atom ``i`` is bit ``i-1``),
and a lattice is a validated, canonically ordered tuple of masks.  Families
that are closed by construction skip the validation through the trusted
constructor :meth:`AtomicLattice._trusted`; its only callers are
:meth:`AtomicLattice.relabel`, the :class:`LcmLattice
<lcmlattice.ideals.LcmLattice>` constructor, and the enumerations
``enumerate_super_atomic`` and ``enumerate_all_lattices``.

Canonical order is (cardinality, mask value); it is the order used for
iteration, serialization and DOT export, which keeps all output byte-stable.

A lattice keeps three derived structures: an element index, one
atom-incidence table and one join cache.  The index maps each element to
its canonical position; membership tests, element checks, join misses and
``covers`` read it.  Every lattice builds it on first use, so a lattice that
is only walked, as the enumerated ones are by the support detector, holds
no m-entry dict.  The table holds, for atom ``a``, an m-bit int with bit
``i`` set when the i-th element (in canonical order) contains ``a``.  The
AND of the rows of a mask's atoms is the set of elements above the mask.
Every lattice builds the table on first use, too: its first join miss,
``filter``, plain generator ``x(p)``, atom-pair table in ``superatomic``,
or closure walk.  It is built by byte transposition, in C-level passes over
the packed elements (see :meth:`AtomicLattice._atom_rows`).
A join that is not already an element (the cache and the membership test
come first) takes |mask| ANDs and the lowest set bit; ``filter``, the plain
generators of :mod:`lcmlattice.ideals` and the atom-pair table of
:mod:`lcmlattice.superatomic` read the same table.  That table takes one
AND of two rows per atom pair, with no join: its lowest set bit is the
pair's join and its popcount N([a v b, top]), and the super-atomic test
and both interval criteria of ``support_labeling`` read it.

The validating constructor closes the family from the top down with
:func:`_meet_closure`, the closure the lcm-lattice build runs on its cuts:
it walks the members by decreasing size, skips a member the running
closure already holds, and intersects every other one with the closure.
The closure holds every member, so it has at most m sets, for m members,
exactly when it is the family, that is, when the family is closed; it
stops at m + 1.  A valid family costs O(|MI|·m) intersections of masks for
|MI| meet-irreducibles, builds no table, and its kept members, with the
top, are its meet-irreducibles.  A family that misses a required set,
outgrows itself, or would cost more than twice the closure walk's AND
count goes to that walk, which decides from the table in O(m·n) ANDs on
m-bit ints for n atoms and names one pair of members with a missing
intersection at each step where it fails, at most m·n pairs, not every
such pair.  The walk, not the closure, finds the pairs a refusal names.
One method, :meth:`AtomicLattice._decide`, takes this closure-or-walk
decision for the constructor and for ``meet_irreducibles``.

The cover queries are answered from joins alone: ``upper_covers(p)`` takes
the n − |p| joins of p with the atoms outside it, and ``covers`` O(m·n)
joins; neither is cached.  The meet-irreducibles are one tuple per lattice,
handed over by its constructor: the validating constructor's closure keeps
them (or its walk records them), the lcm-lattice build keeps them from the
same closure of its cuts, and ``relabel`` permutes its source's.  A
lattice built without one, an enumerated lattice, decides them as the
validating constructor does on its first ``meet_irreducibles`` call and
keeps them.

``lattice_isomorphic`` searches atom permutations depth-first and looks at
the meet-irreducibles alone: a finite lattice is the intersection-closure of
its meet-irreducibles, so a permutation that maps one lattice's
meet-irreducibles onto the other's maps the whole family.  An atom's
candidate images are the atoms that lie in meet-irreducibles of the same
sizes.
"""

from __future__ import annotations

import json
from itertools import repeat
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import (
    CapExceededError,
    FormatError,
    NotAnElementError,
    PreconditionError,
    ValidationError,
    _iterated,
    shown,
)

__all__ = [
    "AtomicLattice",
    "lattice_isomorphic",
    "mask_of",
    "atoms_of",
]

MAX_ATOMS = 64
# joining_sets, the one function under this cap, walks all 2^k atom subsets
# of a k-atom element (65,536 at k = 16); no other package function calls it.
MAX_JOINING_ATOMS = 16


def mask_of(atoms: Iterable[int], n: Optional[int] = None) -> int:
    """Bitmask for a collection of 1-based atom indices."""
    mask = 0
    for a in _iterated(atoms, "an atom set must be an iterable of atom indices", strings=True):
        if not _is_int(a) or a < 1:
            raise FormatError(f"atom indices must be integers >= 1, got {shown(a)}")
        if n is not None and a > n:
            raise FormatError(f"atom index {shown(a)} out of range 1..{shown(n)}")
        mask |= 1 << (a - 1)
    return mask


def _byte_atoms(first: int) -> tuple[tuple[int, ...], ...]:
    """The sorted atom indices of each byte value, its bit 0 being atom
    ``first``, built by doubling: the values with bit ``k`` set repeat the
    ones below them, plus atom ``first + k``."""
    table = [()]
    for atom in range(first, first + 8):
        table += [atoms + (atom,) for atoms in table]
    return tuple(table)


# The atoms of a mask's low byte and of its second byte.
_BYTE_ATOMS, _SECOND_BYTE_ATOMS = _byte_atoms(1), _byte_atoms(9)
# _BIT_DIGITS[k] is a bytes.translate table sending a byte value to b"1" when
# its bit k is set, else to b"0".
_BIT_DIGITS = tuple((b"0" * (1 << k) + b"1" * (1 << k)) * (128 >> k) for k in range(8))


def atoms_of(mask: int) -> tuple[int, ...]:
    """Sorted 1-based atom indices of a bitmask (every witness and serialized
    set goes through here), from tables of the 256 byte values: a mask below
    2^16 takes two lookups, a wider one a list extension per nonzero byte,
    offset by 8 per byte.  A negative int raises as in :func:`bits_of`."""
    _require_set(mask)
    if mask < 65536:
        return _BYTE_ATOMS[mask & 255] + _SECOND_BYTE_ATOMS[mask >> 8]
    out = []
    for k, byte in enumerate(mask.to_bytes((mask.bit_length() + 7) >> 3, "little")):
        if byte:
            out += map((k << 3).__add__, _BYTE_ATOMS[byte])
    return tuple(out)


def _require_set(mask: int) -> None:
    """A negative int has infinitely many set bits: :class:`NotAnElementError`."""
    if mask < 0:
        raise NotAnElementError(f"{shown(mask)} is not a set of atoms")


def bits_of(mask: int) -> Iterator[int]:
    """Iterate the single-bit masks of ``mask``, lowest first.  A negative
    int raises :class:`NotAnElementError`."""
    _require_set(mask)
    while mask:
        b = mask & -mask
        yield b
        mask ^= b


def _is_int(x) -> bool:
    """An ``int`` that is not a ``bool``: the only values usable as masks or indices."""
    return isinstance(x, int) and not isinstance(x, bool)


def _canon_key(mask: int) -> tuple[int, int]:
    return (mask.bit_count(), mask)


def _canonical(masks: Iterable[int]) -> tuple[int, ...]:
    """``masks`` in canonical order, by size and then by value: a stable
    sort by size of the sorted masks, which builds no key tuple."""
    return tuple(sorted(sorted(masks), key=int.bit_count))


# Validation stops its meet-closure after this many intersections per AND of
# the closure walk (m·n for m members on n atoms) and leaves the family to
# the walk.  The closure costs about |MI|·m intersections, which passes m·n
# on families with many meet-irreducibles (all subsets of at most 5 of 14
# atoms and the full set: 2,003 among 3,474 members); with the cap no family
# costs more than the walk and twice its AND count.
_CLOSURE_BUDGET = 2


def _meet_closure(
    members: Iterable[int], top: int, limit: int, budget: float = float("inf")
) -> Optional[tuple[set[int], tuple[int, ...]]]:
    """``(closed, mi)``: the intersection-closure L of ``members`` and the
    full set ``top``, and its meet-irreducibles in canonical order, the top
    last.  None the moment a set would make ``closed`` hold ``limit + 1``,
    or once the next pass would take it past ``budget`` intersections.
    Validation (``limit`` the family's size) and the lcm-lattice build
    (``limit`` its cap) both close their members here.

    ``members`` come by decreasing size.  ``closed`` starts as ``{top}``; a
    member it already holds is skipped, and any other member ``c`` is kept
    and closed in, one pass adding ``s & c`` for every ``s`` in ``closed``,
    one set at a time, so the limit is checked at every add.  The kept
    members, with the top, are ``mi``.

    When a member ``c`` is reached, ``closed`` holds every intersection of
    the members kept before it and is intersection-closed, and it holds
    every member reached before (one not kept was in it).  So if ``c`` is
    in ``closed``, ``s & c`` is in it for every ``s``: a pass would add
    nothing.  No other member of ``c``'s size contains ``c``, and every
    member strictly containing it came before, so ``c`` is in ``closed``
    exactly when it is the intersection of the members strictly containing
    it, that is, when it is not meet-irreducible in L (each element of L
    strictly above ``c`` is an intersection of such members).  Every element
    of L is an intersection of members, so a meet-irreducible below the top
    is a member, and each is kept once.  The closure is the same set in any
    order of the kept members.  O(|MI|·|L|) intersections of masks, and no
    incidence table.
    """
    closed = {top}
    kept = []
    for c in members:
        if c in closed:
            continue
        budget -= len(closed)
        if budget < 0:
            return None
        kept.append(c)
        for s in tuple(closed):
            s &= c
            if s not in closed:
                if len(closed) == limit:
                    return None
                closed.add(s)
    return closed, (*_canonical(kept), top)


def _set_str(mask: int) -> str:
    return "{" + ",".join(str(a) for a in atoms_of(mask)) + "}"


def _element_str(p: object) -> str:
    """A caller's element for an error message: as an atom set if it is a
    mask over at most ``MAX_ATOMS`` atoms, else as its ``repr``."""
    return shown(p, _set_str if _is_int(p) and 0 <= p < 1 << MAX_ATOMS else repr)


def _parse_json(text: str, source: object = None):
    """The one parser of input JSON.  Whatever ``json`` refuses (malformed
    text, nesting deeper than the recursion limit, an integer over Python's
    digit limit) is a :class:`FormatError`, naming ``source`` when given."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        where = "" if source is None else f"{source}: "
        raise FormatError(f"{where}invalid JSON: {exc}") from None


def _json_text(doc) -> str:
    """The one writer of output JSON: ``doc`` indented by two, ending in a newline."""
    return json.dumps(doc, indent=2) + "\n"


class AtomicLattice:
    """A validated finite atomic lattice over atoms ``1..n``.

    Construct with :meth:`from_sets` (iterables of 1-based indices) or pass
    bitmasks directly.  Construction validates the axioms, closing the
    family from the top down (:func:`_meet_closure`), and otherwise
    decides with the closure walk (:meth:`_closure_walk`), which raises
    :class:`ValidationError` carrying every missing required set and the
    non-closed pairs it finds, at least one when the family is not closed
    under intersection.  Package code holding a family that is valid by
    construction uses :meth:`_trusted` instead (see the module docstring for
    its callers).
    """

    __slots__ = ("n", "sets", "_index", "_rows", "_join_cache", "_mi")

    def __init__(self, n: int, masks: Iterable[int]):
        if not _is_int(n) or n < 1:
            raise ValidationError(f"atom count must be a positive integer, got {shown(n)}")
        if n > MAX_ATOMS:
            raise CapExceededError(f"atom count {shown(n)} exceeds the supported maximum {MAX_ATOMS}")
        top = (1 << n) - 1
        # Exact ints within [0, top] pass in C-level passes over the list;
        # anything else takes the loop, which names the first offender.
        masks = list(_iterated(masks, "masks must be an iterable of ints", strings=True))
        if set(map(type, masks)) == {int} and min(masks) >= 0 and max(masks) <= top:
            seen = set(masks)
        else:
            seen = set()
            for m in masks:
                if not _is_int(m) or m < 0 or m > top:
                    raise ValidationError(f"element {shown(m)} is not a bitmask over {n} atoms")
                seen.add(m)

        missing = _canonical({m for m in (0, *(1 << i for i in range(n)), top) if m not in seen})
        seen.update((0, top))  # the walk needs both; a missing one stays reported
        self._fill(n, _canonical(seen))
        pairs, self._mi = self._decide(closure=not missing)
        if not (missing or pairs):
            return
        non_closed = [(self.sets[i], self.sets[j]) for i, j in sorted(set(pairs))]
        parts = []
        if missing:
            parts.append("missing required sets: " + ", ".join(_set_str(m) for m in missing))
        if non_closed:
            listed = ", ".join(f"{_set_str(a)} & {_set_str(b)}" for a, b in non_closed[:5])
            more = "" if len(non_closed) <= 5 else f" (+{len(non_closed) - 5} more)"
            parts.append("intersections not in family: " + listed + more)
        raise ValidationError(
            "; ".join(parts),
            missing_required=[atoms_of(m) for m in missing],
            non_closed_pairs=[(atoms_of(a), atoms_of(b)) for a, b in non_closed],
        )

    def _decide(self, closure: bool = True) -> tuple[Sequence[tuple[int, int]], Optional[tuple[int, ...]]]:
        """``(pairs, mi)`` as :meth:`_closure_walk` gives them: the one
        decision of the validating constructor and of
        :meth:`meet_irreducibles`.  With ``closure``, :func:`_meet_closure`
        runs first, within ``_CLOSURE_BUDGET`` intersections per AND of the
        walk; the closure holds every member, so it has no more sets than the
        family exactly when it is the family, that is, when the family is
        closed, and then no pair fails and its kept members are ``mi``.
        Otherwise, or when the closure gives up, the walk decides."""
        size = len(self.sets)
        closed = closure and _meet_closure(reversed(self.sets), self.top, size, _CLOSURE_BUDGET * size * self.n)
        return ((), closed[1]) if closed else self._closure_walk()

    def _closure_walk(self) -> tuple[list[tuple[int, int]], Optional[tuple[int, ...]]]:
        """``(pairs, mi)``: the fallback decision of the validating
        constructor, and its explanation of a refusal.  It runs where
        :func:`_meet_closure` does not answer: on a family missing a
        required set, whose closure outgrows it, or over the budget.

        ``pairs`` holds positions ``(i, j)``, i < j, of members whose
        intersection is not a member: one pair for each (r, a) below that
        fails, so none exactly when the family, which holds the empty and the
        full set, is closed under intersection.  ``mi`` is the
        meet-irreducibles in canonical order when no pair fails, else None.
        O(m·n) ANDs on m-bit ints, plus |s| ANDs for each pair.

        Let up(X) be the members containing X (the AND of X's rows) and cl(X)
        their intersection.  The family is closed exactly when cl(r | a) is a
        member for every member r and atom a outside r.  Necessary, as
        cl(r | a) is an intersection of members.  Sufficient, as
        cl(cl(Y) | a) = cl(Y | a): adding atoms one at a time to the empty
        set, a member, puts every cl(X) in the family, and members p and q
        have p & q = cl(p & q).

        For one (r, a), up(r | a) = up(r) & rows[a], which holds the top.  Let
        s be its first member in canonical order.  If cl(r | a) is a member,
        it lies inside every member of up(r | a), so it is s.  So the test is
        up(s) == up(r | a); as s contains r | a, up(s) lies inside up(r | a),
        and it is enough that both have equally many members.  The walk goes
        from the top down, so the count of up(s), which comes after r, is
        known when r is reached.  (up(r) is :meth:`_above` inlined: the same
        pass over the rows collects the rows of the atoms outside r, and
        calling :meth:`_above` measured slower.)

        When the test fails, some member t of up(r | a) does not contain s;
        the first one is the lowest bit of up(r | a) & ~up(s), and it comes
        after s.  Then s & t is not a member: it contains r | a and is
        smaller than s, while s is the least member containing r | a.

        In a closed family s is cl(r | a), the join of r and a.  Every member
        strictly above r contains one of these joins, each strictly above r,
        so the members strictly above r meet in the AND of the joins, and r
        is meet-irreducible exactly when it is the top or that AND is not r.
        """
        rows = self._atom_rows()
        sets = self.sets
        everything = (1 << len(sets)) - 1
        counts = [0] * len(sets)
        pairs = []
        mi = []
        for i in range(len(sets) - 1, -1, -1):
            r = sets[i]
            up = everything
            outside = []
            for row in rows:
                if r & 1:
                    up &= row
                else:
                    outside.append(row)
                r >>= 1
            counts[i] = up.bit_count()
            meet = -1  # the AND over no atom, so the top, with none outside, is kept
            for row in outside:
                up_ra = up & row
                s = (up_ra & -up_ra).bit_length() - 1
                meet &= sets[s]
                if counts[s] != up_ra.bit_count():
                    t = up_ra & ~self._above(sets[s])
                    pairs.append((s, (t & -t).bit_length() - 1))
            if meet != sets[i]:
                mi.append(sets[i])
        return pairs, None if pairs else tuple(reversed(mi))

    @classmethod
    def _trusted(cls, n: int, sets: tuple[int, ...], mi: Optional[tuple[int, ...]] = None) -> "AtomicLattice":
        """Wrap masks known to form a lattice on ``n`` atoms, in canonical
        order, with its meet-irreducibles ``mi`` in canonical order (the top
        last) when the caller knows them.

        Checks nothing: no types, no order, no required sets, no closure, no
        meet-irreducibles.  Only for families that are valid by
        construction, each caller's docstring giving the reason; never hand
        it outside input.
        """
        lat = object.__new__(cls)
        lat._fill(n, sets, mi)
        return lat

    def _fill(self, n: int, sets: tuple[int, ...], mi: Optional[tuple[int, ...]] = None) -> None:
        self.n = n
        self.sets = sets
        self._index: Optional[dict[int, int]] = None
        self._rows: Optional[list[int]] = None
        self._join_cache: dict[int, int] = {}
        self._mi = mi

    @classmethod
    def from_sets(cls, n: int, sets: Iterable[Iterable[int]]) -> "AtomicLattice":
        sets = _iterated(sets, "sets must be an iterable of atom sets", strings=True)
        return cls(n, (mask_of(s, n) for s in sets))

    # -- basic structure -------------------------------------------------

    @property
    def bottom(self) -> int:
        return 0

    @property
    def top(self) -> int:
        return self.sets[-1]

    @property
    def atoms(self) -> tuple[int, ...]:
        return tuple(1 << i for i in range(self.n))

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self) -> Iterator[int]:
        return iter(self.sets)

    def __contains__(self, mask: int) -> bool:
        """A float or bool equal to a member mask is not a member."""
        return _is_int(mask) and mask in self._element_index()

    def __eq__(self, other) -> bool:
        return isinstance(other, AtomicLattice) and self.n == other.n and self.sets == other.sets

    def __hash__(self) -> int:
        return hash((self.n, self.sets))

    def __repr__(self) -> str:
        return f"AtomicLattice(n={self.n}, elements={len(self.sets)})"

    def _element_index(self) -> dict[int, int]:
        """Each element's position in canonical order.  Built on first use,
        in O(m)."""
        if self._index is None:
            self._index = {m: i for i, m in enumerate(self.sets)}
        return self._index

    def _atom_rows(self) -> list[int]:
        """The incidence table: bit i of ``rows[a]`` is set when the i-th
        element contains atom ``a + 1``.  Built on first use by byte
        transposition: m ``to_bytes`` calls pack the elements ``width`` bytes
        each; atom ``a``'s column of bytes, ``data[a >> 3 :: width]``, is
        translated to one ASCII digit per element (``_BIT_DIGITS``), reversed
        so the first element is the lowest bit, and read by ``int(·, 2)``,
        which has no digit limit for a power-of-two base.  That is m + n
        C-level passes, against one Python iteration per incidence."""
        if self._rows is None:
            width = (self.n + 7) >> 3
            data = b"".join(map(int.to_bytes, self.sets, repeat(width), repeat("little")))
            self._rows = [int(data[a >> 3 :: width].translate(_BIT_DIGITS[a & 7])[::-1], 2) for a in range(self.n)]
        return self._rows

    def _above(self, mask: int) -> int:
        """The elements containing ``mask``, a set of atoms within the
        universe, as a bitset over canonical positions: the AND of the rows
        of its atoms, |mask| ANDs."""
        rows = self._atom_rows()
        above = (1 << len(self.sets)) - 1
        while mask:
            low = mask & -mask
            above &= rows[low.bit_length() - 1]
            mask ^= low
        return above

    def _require(self, p: int) -> int:
        if not _is_int(p) or p not in self._element_index():
            raise NotAnElementError(f"{_element_str(p)} is not an element of this lattice")
        return p

    # -- order and lattice operations ------------------------------------

    def meet(self, p: int, q: int) -> int:
        """Greatest lower bound; equals the set intersection by closure."""
        self._require(p)
        self._require(q)
        return p & q

    def join(self, p: int, q: int) -> int:
        self._require(p)
        self._require(q)
        return self.join_mask(p | q)

    def join_mask(self, mask: int) -> int:
        """Least element containing ``mask`` (``mask`` need not be an element)."""
        # Only an exact int may hit the cache: 3.0 and True hash like 3 and 1.
        j = self._join_cache.get(mask) if type(mask) is int else None
        if j is None:
            if not _is_int(mask):
                raise NotAnElementError(f"{shown(mask)} is not a set of atoms")
            if mask & ~self.top:
                raise NotAnElementError(f"{_element_str(mask)} is not within the atom universe")
            if mask in self._element_index():
                j = mask
            else:
                above = self._above(mask)
                j = self.sets[(above & -above).bit_length() - 1]
            self._join_cache[mask] = j
        return j

    def _members(self, positions: int) -> list[int]:
        """The elements at the set bits of a bitset over canonical
        positions, in canonical order."""
        return [self.sets[b.bit_length() - 1] for b in bits_of(positions)]

    def filter(self, p: int) -> tuple[int, ...]:
        """All elements above (and including) ``p``, canonically ordered."""
        self._require(p)
        return tuple(self._members(self._above(p)))

    # -- covers and meet-irreducibility -----------------------------------

    def _upper_covers_of(self, p: int) -> list[int]:
        """The upper covers of the element ``p``, in no particular order.
        Everything strictly above p lies above the join of p with some atom
        outside p, so q covers p exactly when each atom of q outside p
        already joins with p to q.  n - |p| joins."""
        joined_by: dict[int, int] = {}
        for a in bits_of(self.top & ~p):
            q = self.join_mask(p | a)
            joined_by[q] = joined_by.get(q, 0) | a
        return [q for q, atoms in joined_by.items() if atoms == q & ~p]

    def covers(self) -> tuple[tuple[int, int], ...]:
        """All cover pairs ``(p, q)`` with ``p`` covered by ``q``, canonically
        ordered (by upper element, then lower).  O(m·n) joins, not cached."""
        index = self._element_index()
        out = [(p, q) for p in self.sets for q in self._upper_covers_of(p)]
        return tuple(sorted(out, key=lambda pq: (index[pq[1]], index[pq[0]])))

    def upper_covers(self, p: int) -> tuple[int, ...]:
        """The elements covering ``p``, canonically ordered.  n - |p| joins."""
        self._require(p)
        return _canonical(self._upper_covers_of(p))

    def meet_irreducibles(self) -> tuple[int, ...]:
        """Elements that are not the meet of strictly larger ones, canonically
        ordered; the top is one (the defining condition is vacuous).

        The tuple its constructor handed over (see the module docstring), or,
        on a lattice built without one, the one the validating constructor
        finds (:meth:`_decide`), on the first call, kept for the next.
        """
        if self._mi is None:
            self._mi = self._decide()[1]
        return self._mi

    # -- atom subsets joining to an element --------------------------------

    def joining_sets(self, p: int) -> tuple[int, ...]:
        """All subsets of ``p``'s atoms whose join is ``p``, as masks.

        The empty subset joins to the bottom, so it appears exactly when
        ``p`` is the bottom element.  Raises :class:`CapExceededError` when
        ``p`` has more than ``MAX_JOINING_ATOMS`` atoms.
        """
        self._require(p)
        if p.bit_count() > MAX_JOINING_ATOMS:
            raise CapExceededError(
                f"joining sets of an element with {p.bit_count()} atoms exceed the supported maximum "
                f"{MAX_JOINING_ATOMS}"
            )
        if p == 0:
            return (0,)
        out = []
        sub = p
        while sub:
            if self.join_mask(sub) == p:
                out.append(sub)
            sub = (sub - 1) & p
        out.reverse()
        return tuple(out)

    # -- helpers -------------------------------------------------------------

    def relabel(self, image: Mapping[int, int] | Iterable[int]) -> "AtomicLattice":
        """Apply an atom permutation; ``image`` maps each 1-based index to its new index.

        A permutation keeps the required sets and commutes with intersection,
        so the image of a valid family is valid and only needs re-sorting.
        It is an isomorphism onto the image, so the image of the source's
        meet-irreducibles, when the source holds them, is the image's.
        """
        if not isinstance(image, Mapping):
            image = dict(enumerate(_iterated(image, "image must be a mapping or an iterable", strings=True), 1))
        indices = list(range(1, self.n + 1))
        if (
            not all(_is_int(i) for i in (*image, *image.values()))
            or sorted(image) != indices
            or sorted(image.values()) != indices
        ):
            raise PreconditionError(f"not a permutation of 1..{self.n}: {shown(image)}")
        targets = [1 << (image[a] - 1) for a in indices]

        def permuted(masks: tuple[int, ...]) -> tuple[int, ...]:
            return _canonical(_permute(m, targets) for m in masks)

        mi = None if self._mi is None else permuted(self._mi)
        return AtomicLattice._trusted(self.n, permuted(self.sets), mi)

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"n": self.n, "sets": [list(atoms_of(m)) for m in self.sets]}

    def to_json(self) -> str:
        return _json_text(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, doc) -> "AtomicLattice":
        if not isinstance(doc, dict) or "n" not in doc or "sets" not in doc:
            raise FormatError('a lattice document needs "n" and "sets" keys')
        n = doc["n"]
        sets = doc["sets"]
        if not _is_int(n):
            raise FormatError(f'"n" must be an integer, got {shown(n)}')
        if not isinstance(sets, list) or not all(isinstance(s, list) for s in sets):
            raise FormatError('"sets" must be a list of lists of atom indices')
        return cls.from_sets(n, sets)

    @classmethod
    def from_json(cls, text: str) -> "AtomicLattice":
        return cls.from_json_dict(_parse_json(text))


def _require_lattice(value: object) -> AtomicLattice:
    """``value`` if it is an :class:`AtomicLattice`, else a
    :class:`PreconditionError` echoing it."""
    if not isinstance(value, AtomicLattice):
        raise PreconditionError(f"the lattice must be an AtomicLattice, got {shown(value)}")
    return value


def _permute(mask: int, targets: list[int]) -> int:
    """The image of an atom set under an atom permutation, where
    ``targets[i]`` is the image of atom ``i + 1`` as a mask."""
    out = 0
    for b in bits_of(mask):
        out |= targets[b.bit_length() - 1]
    return out


def lattice_isomorphic(P: AtomicLattice, Q: AtomicLattice) -> Optional[dict[int, int]]:
    """Search for an order-isomorphism; return it as an element map or ``None``.

    A lattice isomorphism must send atoms to atoms and commutes with taking
    supports, so it is induced by an atom permutation whose set-wise image of
    one family equals the other.  It is enough to match the meet-irreducibles:
    a permutation s maps P's family onto Q's exactly when it maps
    ``P.meet_irreducibles()`` onto ``Q.meet_irreducibles()``.  If s maps the
    families onto each other it is an order-isomorphism, so it keeps
    meet-irreducibility.  Conversely, every element of a finite lattice is the
    meet of the meet-irreducibles above it (the top, the empty meet, is one
    itself), so each family is the intersection-closure of its
    meet-irreducibles, and s, which commutes with intersection, carries one
    closure onto the other.

    The search assigns atom images depth-first.  An atom may only go to an
    atom that lies in meet-irreducibles of the same sizes, so a complete
    assignment leaves both sides with equally many nonempty meet-irreducibles
    of each size (the empty set is one only on a single atom, where both
    lattices are the same).  Each nonempty meet-irreducible of P is checked
    against Q's once its last atom is placed; an assignment that passes every
    check maps P's meet-irreducibles into Q's and, by the count, onto them.
    A value that is no :class:`AtomicLattice` is a :class:`PreconditionError`.
    """
    if _require_lattice(P).n != _require_lattice(Q).n or len(P) != len(Q):
        return None
    n = P.n
    mi_p, mi_q = P.meet_irreducibles(), Q.meet_irreducibles()

    def signature(mi: tuple[int, ...], i: int) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in mi if m >> i & 1)

    sig_q: dict[tuple, list[int]] = {}
    for j in range(n):
        sig_q.setdefault(signature(mi_q, j), []).append(j)

    candidates = []
    for i in range(n):
        pool = sig_q.get(signature(mi_p, i))
        if not pool:
            return None
        candidates.append(pool)

    order = sorted(range(n), key=lambda i: (len(candidates[i]), i))
    position = {atom_index: rank for rank, atom_index in enumerate(order)}
    # Meet-irreducibles become checkable once their last atom (in assignment
    # order) is placed; group them by that moment.
    closes_at: list[list[int]] = [[] for _ in range(n)]
    for m in mi_p:
        if m:
            closes_at[max(position[i] for i in range(n) if m >> i & 1)].append(m)

    q_members = set(mi_q)
    image = [0] * n  # image[i] = the target atom of source atom i + 1, as a mask
    used = [False] * n

    def dfs(rank: int) -> bool:
        if rank == n:
            return True
        i = order[rank]
        for j in candidates[i]:
            if used[j]:
                continue
            image[i] = 1 << j
            used[j] = True
            if all(_permute(m, image) in q_members for m in closes_at[rank]) and dfs(rank + 1):
                return True
            used[j] = False
        return False

    if not dfs(0):
        return None
    return {m: _permute(m, image) for m in P.sets}
