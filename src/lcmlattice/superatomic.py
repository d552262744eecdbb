"""Super-atomic lattices: detection, construction, and the cover order.

A finite atomic lattice is *super-atomic* when for every element p that is
neither the bottom nor an atom, every atom subset joining to p contains
exactly one pair whose join is already p.  Two independent detectors are
provided, both in polynomial time: the definition decided per element
(:func:`is_super_atomic`) and the support characterization
(:func:`is_super_atomic_via_supp`); they are kept separate on purpose so each
can serve as an oracle for the other.

Construction works level by level, top down: each set S of the current level
picks a pair delta(S) of its members not jointly contained in any other set
of the level, and contributes the two sets S minus one chosen member to the
next level.  The next level gives the choices back: delta(S) is the set of
members v of S with S - v in it (see :func:`iter_super_atomic_families`),
so distinct choices give distinct levels, and exhausting all valid choices
enumerates every super-atomic lattice on n atoms exactly once, with no
record of the families produced.  Different branches reach the same level
again (at n = 6, 3,496 times for 1,431 distinct levels): the listing
computes each distinct level's children once per call and drops that memo
when it returns, while the stream recomputes them, so its memory stays
constant.  Each level is sorted and holds sets of one size, so a family
assembled level by level, smallest sets first, is already in canonical
order; the enumerations never re-sort a family.

Lattices on the same n atoms are partially ordered by containment of their
set systems; covers in that order add exactly one set, and the added set is
always meet-irreducible in the larger lattice.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import chain, combinations, product
from math import comb
from typing import Callable, Iterator, Optional

from .errors import CapExceededError, PreconditionError, shown
from .lattice import AtomicLattice, _canon_key, _canonical, _is_int, _require_lattice, _set_str, bits_of

__all__ = [
    "is_super_atomic",
    "is_super_atomic_via_supp",
    "iter_super_atomic_families",
    "enumerate_super_atomic",
    "super_atomic_size",
    "enumerate_all_lattices",
    "CoverWitness",
    "cover_witness",
    "verify_new_element_meet_irreducible",
    "check_superatomic_structure",
]

MAX_ENUM_ATOMS = 7
# Listing holds every lattice at once: 23,040 on 6 atoms, 2,580,480 on 7.
MAX_LIST_ATOMS = 6

# The child levels of a level: :func:`_children`, or a per-call memo of it.
_Children = Callable[[tuple[int, ...]], list[tuple[int, ...]]]


def _pairs_within(mask: int) -> list[int]:
    bits = list(bits_of(mask))
    return [a | b for a, b in combinations(bits, 2)]


def _atom_pairs(lat: AtomicLattice) -> tuple[dict[int, list[int]], dict[int, int]]:
    """``(joining, sizes)``: the atom pairs whose join is each element, as
    masks, keyed only by the elements that are the join of some atom pair,
    and N([a v b, top]) for every atom pair {a, b} (a = b included), keyed
    by ``a | b``.

    No join is taken: the elements above atoms a and b are the AND of their
    two rows of the incidence table, so the join is the first of them in
    canonical order, its lowest set bit, and N([a v b, top]) is its
    popcount.  The a = b entries are the popcounts of the rows.  So the
    table costs the incidence rows plus C(n, 2) ANDs, and holds at most
    C(n, 2) keys however many elements the lattice has; every non-atom
    nonzero element is the join of an atom pair exactly when
    ``len(joining) == m - n - 1``.  A pair joining to p lies inside p, so
    walking the atom pairs in ``_pairs_within`` order lists each element's
    pairs in the order ``_pairs_within(p)`` gives.  The super-atomic test
    and both interval criteria of :mod:`lcmlattice.support_labeling` read
    this one table, so its refusal of a value that is no
    :class:`AtomicLattice` is theirs.
    """
    sets, rows = _require_lattice(lat).sets, lat._atom_rows()
    joining: dict[int, list[int]] = {}
    sizes = {1 << i: row.bit_count() for i, row in enumerate(rows)}
    for (i, a), (j, b) in combinations(enumerate(lat.atoms), 2):
        up = rows[i] & rows[j]
        joining.setdefault(sets[(up & -up).bit_length() - 1], []).append(a | b)
        sizes[a | b] = up.bit_count()
    return joining, sizes


def _super_atomic_joining_pairs(lat: AtomicLattice) -> Optional[tuple[dict[int, list[int]], dict[int, int]]]:
    """The :func:`_atom_pairs` table when the lattice is super-atomic, else
    None: the definition, decided in C(n, 2) ANDs of two incidence rows and
    O(m) joins.

    An element p of two or more atoms passes when exactly one pair {a, b} of
    its atoms joins to p and neither supp(p) - {a} nor supp(p) - {b} does.
    This is the definition: the atom sets joining to p are upward-closed
    inside supp(p), and supp(p) is one, so it must hold exactly one joining
    pair {a, b}.  A joining set then holds exactly one joining pair when it
    contains a and b, and some joining set misses a exactly when the largest
    set missing a, supp(p) - {a}, joins to p.  Each of the C(n, 2) pairs
    joins to one element, so every one of the m - n - 1 elements of two or
    more atoms has exactly one joining pair when the table has C(n, 2) keys
    and m - n - 1 = C(n, 2).
    """
    table = _atom_pairs(lat)
    joining = table[0]
    if not len(lat) - lat.n - 1 == comb(lat.n, 2) == len(joining):
        return None
    for p, (pair,) in joining.items():
        if any(lat.join_mask(p ^ b) == p for b in bits_of(pair)):
            return None
    return table


def is_super_atomic(lat: AtomicLattice) -> bool:
    """The definition, decided per element (see :func:`_super_atomic_joining_pairs`)."""
    return _super_atomic_joining_pairs(lat) is not None


def is_super_atomic_via_supp(lat: AtomicLattice) -> bool:
    """The support characterization: some pair joins to p with both
    supp(p)-minus-one-member sets present in the family.

    Only the atoms b with supp(p) - {b} in the family can form that pair, so
    only the pairs among those atoms are tried.  A pair {a, b} inside p joins
    to p exactly when no element q other than p has {a, b} ⊆ q ⊆ p: the join
    is the least element containing {a, b}, and it lies inside p because p
    is such an element, so it is p exactly when no other element sits in
    between.  Any such q is strictly smaller than p, so it comes before p in
    canonical order.  The test needs no q ⊆ p either: if some q before p
    contains {a, b}, then q & p is an element (the family is
    intersection-closed) between {a, b} and p, and it is not p, since p ⊆ q
    with q no larger than p would make q = p.  So {a, b} joins to p exactly
    when no element before p contains both atoms.

    One walk in canonical order keeps, per atom, an int column with bit i
    set when the i-th element contains that atom, and the set of the
    elements seen so far.  At the i-th element p the columns of p's atoms
    take bit i; supp(p) - {b}, smaller than p, is in the family exactly when
    it was seen; and a pair {a, b} of such atoms joins to p exactly when the
    AND of their columns is bit i alone.  So the walk costs O(Σ|p|) ORs and
    ANDs on m-bit ints for m elements (an element of a super-atomic lattice
    has exactly two removable atoms, so one pair to AND).  No join is taken,
    no table of the lattice is read and nothing is cached on it.  The first
    failing element ends the check.
    """
    cols = [0] * _require_lattice(lat).n
    seen = set()
    bit = 1
    for p in lat.sets:
        joined = p & (p - 1) == 0  # the bottom and the atoms have no pair to find
        removable = []  # the columns of the atoms b of p with p - {b} seen
        rest = p
        while rest:
            b = rest & -rest
            rest ^= b
            a = b.bit_length() - 1
            col = cols[a] | bit
            cols[a] = col
            if (p ^ b) in seen:
                for other in removable:
                    if other & col == bit:
                        joined = True
                removable.append(col)
        if not joined:
            return False
        seen.add(p)
        bit <<= 1
    return True


def _require_atom_count(n: int, least: int) -> None:
    if not _is_int(n):
        raise PreconditionError(f"the atom count must be an int, got {shown(n)}")
    if n < least:
        raise PreconditionError(f"need at least {least} atom{'s' if least > 1 else ''}, got {shown(n)}")


def super_atomic_size(n: int) -> int:
    """Element count shared by every super-atomic lattice on n atoms."""
    _require_atom_count(n, 2)
    return comb(n, 2) + n + 1


def iter_super_atomic_families(n: int) -> Iterator[tuple[int, ...]]:
    """An iterator over the set system of every super-atomic lattice on n atoms.

    Streams each family as a tuple of masks in canonical order (by size,
    then by mask) without validating them, which is what makes counting at
    n = 7 (about 2.6 million families) tolerable.  The atom count is checked
    at the call, not at the first family: more than ``MAX_ENUM_ATOMS`` atoms
    raise :class:`CapExceededError`.  A level the descent reaches again has
    its children computed again (at n = 6, 3,496 computations for 1,431
    distinct levels), so the stream holds no memo and its memory stays
    constant; at n = 7 a memo would hold 34,343 levels.

    Each family is produced exactly once, as the child level fixes every
    choice: for every S of a level, {v in S : S - v is in the child} is
    delta(S).  Proof: suppose S - v is in the child but v is not in
    delta(S).  Then S - v = T - z for some other T of the level (T = S
    would give v = z, a member of delta(S)), so delta(S) lies in S - v,
    inside T, which the choice rule forbids.  So distinct choices give
    distinct child levels, and since a family determines its levels (the
    sets of each cardinality), distinct branches give distinct families.
    """
    _require_atom_count(n, 2)
    if n > MAX_ENUM_ATOMS:
        raise CapExceededError(f"enumeration on {shown(n)} atoms exceeds the cap of {MAX_ENUM_ATOMS}")
    return _families(n, _children)


def _families(n: int, children: _Children) -> Iterator[tuple[int, ...]]:
    """Every family on n atoms, descending from the top with ``children``."""
    top = (1 << n) - 1
    return _descend(children, (top,), (), (0, *(1 << i for i in range(n))))


def _children(level: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The child levels of ``level``, each sorted, in the descent's order.

    Each set S of the level picks a pair delta(S) of its members that lies
    in no other set of the level, and contributes S minus each member of
    the pair; a child is the union over one choice per set, and the
    children come in the order of the product of the choices.  So a pair
    of S is valid exactly when S is the only set of the level holding it,
    and one count over every set's pairs decides them all.  Distinct
    choices give distinct children (see :func:`iter_super_atomic_families`),
    so the list has no repeats.  A set with no valid pair makes the level a
    dead end, with no children.
    """
    within = [_pairs_within(S) for S in level]
    holders = Counter(chain.from_iterable(within))  # per pair, how many sets of the level contain it
    options = []  # per set S, the two children S - a and S - b of each valid pair {a, b}
    for S, inside in zip(level, within):
        pairs = [pr for pr in inside if holders[pr] == 1]
        if not pairs:
            return []
        options.append([(S ^ (pr & -pr), S ^ (pr & (pr - 1))) for pr in pairs])
    return [tuple(sorted(set(chain.from_iterable(choice)))) for choice in product(*options)]


def _descend(
    children: _Children, level: tuple[int, ...], above: tuple[int, ...], base: tuple[int, ...]
) -> Iterator[tuple[int, ...]]:
    """Every family below ``level``, as ``base`` followed by the levels.

    ``level`` is sorted and holds sets of one size, and ``above`` is the
    concatenation of the levels above it, smallest size first, so each
    family comes out in canonical order.  ``children`` gives the levels
    below one level (:func:`_children`, or a memo of it).
    """
    levels = level + above
    if level[0].bit_count() == 2:
        yield base + levels
        return
    for child in children(level):
        yield from _descend(children, child, levels, base)


def enumerate_super_atomic(n: int) -> list[AtomicLattice]:
    """All super-atomic lattices on n atoms, valid by construction and
    canonically ordered.

    Each family of :func:`iter_super_atomic_families` comes out once, in
    canonical order, holds the bottom, the atoms and the top, and is
    intersection-closed, so the lattices are built without re-validation.
    Closure, by induction on the larger size of two sets U and V of two or
    more atoms: if both lie in one level, delta(U) is in no other set of that
    level, so some x in delta(U) is outside V and some y in delta(V) outside
    U, and U & V equals (U - x) & (V - y), two sets of the next level down.
    If U lies in a lower level, it lies in some W of V's level, since each
    set comes from one of the level above; then U & V is U when W = V, and
    U & (W & V) otherwise, where W & V is a member smaller than V.

    A plain sort of the tuples puts the families in canonical order, because
    every super-atomic lattice on n atoms has exactly n - j + 1 sets of size
    j for 2 <= j <= n, so position i holds sets of one size in every family.
    Proof, by induction on n: let {a, b} be the pair joining to the top.
    Then U = top - a and V = top - b are the only elements of size n - 1, and
    every other element misses a or b, so it lies in the down-set of U or of
    V; the two down-sets meet in the down-set of U & V.  The down-set of an
    element p is a super-atomic lattice on supp(p), so inclusion-exclusion
    gives N_j(n) = [j = n] + 2·N_j(n - 1) - N_j(n - 2).

    The families come from the same descent as
    :func:`iter_super_atomic_families`, with the child levels of each
    distinct level computed once per call (1,431 levels for 3,496 visits at
    n = 6); the memo is dropped when the listing returns.  Materializes
    everything, so more than ``MAX_LIST_ATOMS`` atoms raise
    :class:`CapExceededError` before any work; for n = 7 stream
    :func:`iter_super_atomic_families` (2,580,480 families) instead.
    """
    _require_atom_count(n, 2)
    if n > MAX_LIST_ATOMS:
        raise CapExceededError(f"listing the lattices on {shown(n)} atoms exceeds the cap of {MAX_LIST_ATOMS}")
    return [AtomicLattice._trusted(n, sets) for sets in sorted(_families(n, cache(_children)))]


def enumerate_all_lattices(n: int) -> list[AtomicLattice]:
    """Every finite atomic lattice on n atoms, canonically ordered.

    Ground-truth enumeration by brute force over subsets of the non-required
    sets, keeping the intersection-closed ones.  Doubly exponential: n = 4
    (545 lattices, from 1024 candidate subsets) is the largest n accepted;
    n = 5 would walk 2^25 candidates and raises :class:`CapExceededError`.
    """
    _require_atom_count(n, 1)
    if n > 4:
        raise CapExceededError(f"enumerating all lattices on {shown(n)} atoms is not tractable here (max 4)")
    top = (1 << n) - 1
    base = (0, *(1 << i for i in range(n)))
    optional = _canonical(m for m in range(1, top) if m.bit_count() >= 2)
    out = []
    for bits in range(1 << len(optional)):
        chosen = [m for i, m in enumerate(optional) if bits >> i & 1]
        members = set(base).union(chosen)
        if all(a & b in members for a, b in combinations(chosen, 2)):
            out.append((*base, *chosen, top) if n > 1 else base)
    out.sort(key=lambda sets: [_canon_key(m) for m in sets])
    return [AtomicLattice._trusted(n, sets) for sets in out]


@dataclass(frozen=True)
class CoverWitness:
    """Evidence that ``larger`` covers ``smaller`` in the containment order:
    the set systems differ by exactly ``new_element``."""

    larger: AtomicLattice
    smaller: AtomicLattice
    new_element: int

    def __post_init__(self):
        if _require_lattice(self.larger).n != _require_lattice(self.smaller).n:
            raise PreconditionError("cover requires lattices on the same atoms")
        sp, sq = set(self.larger.sets), set(self.smaller.sets)
        if not (sq < sp and len(sp) == len(sq) + 1):
            raise PreconditionError("not a cover: the larger family must add exactly one set")
        if not _is_int(self.new_element):
            raise PreconditionError(f"new_element must be an int mask, got {shown(self.new_element)}")
        if sp - sq != {self.new_element}:
            raise PreconditionError(f"new_element {_set_str(self.new_element)} is not the added set")


def cover_witness(P: AtomicLattice, Q: AtomicLattice) -> Optional[CoverWitness]:
    """Witness that P covers Q (P's family adds exactly one set), or None."""
    if _require_lattice(P).n != _require_lattice(Q).n:
        raise PreconditionError("cover comparison requires lattices on the same atoms")
    sp, sq = set(P.sets), set(Q.sets)
    if sq < sp and len(sp) == len(sq) + 1:
        (extra,) = sp - sq
        return CoverWitness(P, Q, extra)
    return None


def verify_new_element_meet_irreducible(witness: CoverWitness) -> bool:
    """The added set of a cover is always meet-irreducible in the larger
    lattice; this evaluates that claim on one witness, which must be a
    :class:`CoverWitness`."""
    if not isinstance(witness, CoverWitness):
        raise PreconditionError(f"the witness must be a CoverWitness, got {shown(witness)}")
    return witness.new_element in witness.larger.meet_irreducibles()


def check_superatomic_structure(lat: AtomicLattice) -> bool:
    """Structural facts that hold in every super-atomic lattice.

    (1) the members of an element S of size >= 2 whose removal stays in the
    family are exactly the atoms of its generating pair, the one pair
    joining to S (the joining pairs of
    :func:`_super_atomic_joining_pairs`); (2) for incomparable elements,
    neither one contains the other's generating pair.  Raises if the
    lattice is not super-atomic; returns the verdict of the two checks.
    """
    table = _super_atomic_joining_pairs(lat)
    if table is None:
        raise PreconditionError("lattice is not super-atomic")
    generating_pair = {S: pair for S, (pair,) in table[0].items()}
    for S, pr in generating_pair.items():
        if sum(b for b in bits_of(S) if (S ^ b) in lat) != pr:  # the removable atoms, as a mask
            return False
    for S1, S2 in combinations(generating_pair, 2):
        if S1 & ~S2 and S2 & ~S1:
            if generating_pair[S1] & ~S2 == 0 or generating_pair[S2] & ~S1 == 0:
                return False
    return True
