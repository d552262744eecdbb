"""Classify a labeling: coordinatization, strong/weak variants, and the
two sufficient-condition checks.

A labeling *coordinatizes* its lattice when the lcm-lattice of the generated
ideal is order-isomorphic to it.  The strong and weak variants pin the
isomorphism down to the specific map sending each atom to its generator
(``x(a)`` for strong, ``delta(a)`` for weak) and every other element to the
lcm over its support; being a bijection that preserves order both ways is
then a property, not a search.  It holds exactly when MI(L) ⊆ cuts ⊆ L:
every *cut* (the empty set, or a level mask ``D(v, t)``, the atoms whose
generator has ``e_v <= t``) is an element, and every meet-irreducible element
is a cut.  That takes ``O(k*n)`` level masks for ``k`` variables and ``n``
atoms, and the lattice's meet-irreducible tuple, which its constructor
handed over (the validating closure's kept members, or the lcm-lattice
build's kept cuts) and the condition checks read too.  No lcm is taken and
no lcm-lattice built.  The predicates build none for either verdict;
:func:`is_coordinatization` builds one only when the strong map fails, for
the isomorphism search.  :func:`classify` builds one per tuple of minimal
generators, only to word a false verdict; the lattice keeps no monomial, so
a witness takes an lcm only where it reads one, and a size mismatch, the
usual witness, reads none.  Each generator tuple's exponent-level table is
made at most once per call and read by every check on that tuple; that of
``delta(a)`` is handed over by the refinement that builds it, not computed.

Two checkable sufficient conditions come with the theory:

* **chain conditions** (strong): every meet-irreducible element below the
  top is labeled, and for each variable the labels containing it sit on a
  chain;
* **overlap conditions** (weak): meet-irreducibles below the top are
  labeled, and for every incomparable labeled pair p, q with entangled
  labels, each label strictly exceeds the common part and the set of
  elements entangled with either label is a chain once the other element is
  dropped.

Both read one per-variable index of the labels, the *carrier* of each
variable (the elements whose label holds it, see :func:`_carriers`): the
chain check asks that each carrier be a chain, and the overlap check visits
only the labeled pairs that share a variable, read off the carriers, so a
labeling whose labels share no variable costs no pair at all.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cache, reduce
from itertools import combinations
from typing import Optional

from .errors import DegenerateIdealError, PreconditionError
from .ideals import (
    Labeling,
    LcmLattice,
    MonomialIdeal,
    _check_lcm_generators,
    _label_groups,
    _level_masks,
    _refine,
    _support_lcms,
    ideal_from_labeling,
    lcm_lattice,
    recovered_labeling,
    weak_ideal,
)
from .lattice import AtomicLattice, _set_str, lattice_isomorphic
from .monomial import Monomial

__all__ = [
    "LabelingClassification",
    "check_strong_conditions",
    "check_weak_conditions",
    "is_coordinatization",
    "is_strong_coordinatization",
    "is_weak_coordinatization",
    "verify_labeling_recovery",
    "classify",
]


def _first_incomparable(masks) -> Optional[str]:
    """The first incomparable pair, rendered "{a} and {b}"; None exactly on a chain."""
    for a, b in combinations(masks, 2):
        if a & ~b and b & ~a:
            return f"{_set_str(a)} and {_set_str(b)}"
    return None


def _carriers(lat: AtomicLattice, labeling: Labeling) -> dict[str, int]:
    """Per variable, its *carrier*: the bitset, over canonical positions, of
    the elements whose label holds it.  That is the sum of its groups in
    :func:`~lcmlattice.ideals._label_groups`, which are disjoint, as a label
    has one exponent of each variable; the groups refuse a labeling of
    another lattice before any work.  Both condition checks read it."""
    return {v: sum(by_exp.values()) for v, by_exp in _label_groups(lat, labeling).items()}


def _unlabeled_meet_irreducible(lat: AtomicLattice, labeling: Labeling) -> Optional[str]:
    """The first requirement of both condition checks: every meet-irreducible
    element below the top is labeled.  The witness of a violation, or None.

    Each meet-irreducible is an element, so its label is read off the table
    with no membership check.  That needs a labeling of this lattice, which
    both checks make sure of by calling :func:`_carriers` first."""
    for p in lat.meet_irreducibles()[:-1]:  # the top is last
        if p not in labeling._table:
            return f"meet-irreducible element {_set_str(p)} is unlabeled"
    return None


def check_strong_conditions(lat: AtomicLattice, labeling: Labeling) -> tuple[bool, Optional[str]]:
    """Labeled meet-irreducibles + one chain per variable.

    These conditions guarantee a strong coordinatization.  The top element is
    exempt from the labeling requirement: it never contributes to any
    generator (every filter contains it), and recovered labelings always
    leave it unlabeled.  The elements labeled with a variable, in canonical
    order, are the members of its carrier (see :func:`_carriers`).
    """
    carriers = _carriers(lat, labeling)
    unlabeled = _unlabeled_meet_irreducible(lat, labeling)
    if unlabeled:
        return False, unlabeled
    for v in sorted(carriers):
        pair = _first_incomparable(lat._members(carriers[v]))
        if pair:
            return False, f"variable {v} labels incomparable elements {pair}"
    return True, None


def check_weak_conditions(lat: AtomicLattice, labeling: Labeling) -> tuple[bool, Optional[str]]:
    """Labeled meet-irreducibles + the overlap conditions on incomparable pairs.

    These conditions guarantee a weak coordinatization.  They relax the
    per-variable chain requirement: incomparable labels may share variables
    as long as neither label is swallowed by the common part and, for each of
    the two, the elements whose labels it is entangled with (sharing any
    variable, the partner element excluded) form a chain.

    No gcd is taken.  Two labels share a variable exactly when their gcd is
    not 1, so the elements whose labels share a variable with a label ``m``
    are the OR of the carriers of ``m``'s variables (see :func:`_carriers`):
    the bitset ``shares(m)``, which holds the elements labeled ``m``.  A
    label ``m`` is swallowed by its overlap with ``m'`` when ``m / gcd(m,
    m') = 1``, that is, when ``m = gcd(m, m')``, which holds exactly when
    ``m`` divides ``m'``.

    Each labeled ``p`` is taken in canonical order, with the members of
    ``shares`` of its label at later positions, in increasing order: exactly
    the pairs that share a variable, in the order of a scan over all labeled
    pairs, so the first witness is that scan's.  A later element is not
    below ``p``, so the two are comparable exactly when ``p`` lies in it.
    The elements entangled with a label are the members of its ``shares``;
    no label is scanned.
    """
    carriers = _carriers(lat, labeling)
    unlabeled = _unlabeled_meet_irreducible(lat, labeling)
    if unlabeled:
        return False, unlabeled

    def shares(m: Monomial) -> int:
        return reduce(int.__or__, map(carriers.__getitem__, m._exps))

    for p, mp in labeling.items():
        for q in lat._members(shares(mp) & -(2 << lat._element_index()[p])):  # the positions after p's own
            if p & ~q == 0:
                continue
            mq = labeling.label(q)
            for hi, lo, m_hi, m_lo in ((p, q, mp, mq), (q, p, mq, mp)):
                if m_hi.divides(m_lo):
                    return False, (
                        f"label of {_set_str(hi)} is contained in its overlap with the label of {_set_str(lo)}"
                    )
                pair = _first_incomparable([s for s in lat._members(shares(m_hi)) if s != lo])
                if pair:
                    return False, f"elements entangled with the label of {_set_str(hi)} are not a chain: {pair}"
    return True, None


def _abstract_isomorphism(lat: AtomicLattice, ll: LcmLattice) -> tuple[bool, Optional[str]]:
    if lattice_isomorphic(ll.abstract(), lat) is None:
        return False, (
            f"lcm-lattice of the generated ideal ({len(ll)} elements, {len(ll.generators)} atoms) "
            f"is not isomorphic to the lattice ({len(lat)} elements, {lat.n} atoms)"
        )
    return True, None


def _extends_to_isomorphism(lat: AtomicLattice, ideal: MonomialIdeal) -> bool:
    """Is g(p) = lcm of the atom monomials below p an isomorphism onto the
    lcm-lattice of those monomials?  The atom monomials are ``ideal``'s
    generators, in atom order.  Decided on their level masks (the ideal's
    level table) and the lattice's meet-irreducibles, with no lcm and no
    lcm-lattice built.  A unit monomial, on which no lcm-lattice is defined,
    raises :class:`DegenerateIdealError`, as the build would.

    The *cuts* are the empty set and the level masks D(v, t) = {a : e_v(m_a)
    <= t} of :func:`~lcmlattice.ideals._exponent_levels`; K(S) is the set of
    cuts containing an atom set S.  First, g(S) | g(T) exactly when K(T) is
    in K(S).  For nonempty T the largest exponent t of v over T is a level
    of v, T lies in D(v, t') exactly when t <= t', and so K(T) in K(S) says
    that no exponent over S exceeds the one over T, variable by variable.
    For empty T, K(T) holds every cut, the cut {} included, so it lies in
    K(S) only for empty S; and only g({}) = 1 divides 1, no monomial being
    a unit.  The {} cut is needed: on one atom,
    the only level is the atom itself.

    Then g is an isomorphism exactly when (i) every cut is an element and
    (ii) p -> K(p) is injective on the elements.  Write cl(S) for the
    intersection of K(S); K(cl(S)) = K(S), so g(cl(S)) = g(S).

    * Necessary: (ii) is the injectivity of g, as g(p) = g(q) exactly when
      K(p) = K(q).  The atom monomials are the atoms of the lcm-lattice, so
      for a cut c, g(c) is in it and equals g(p) for an element p.  Then p
      lies in c, as c is in K(c) = K(p), and each atom a of c has
      g(a) | g(p), so a <= p; thus c = p is an element.
    * Sufficient: by (i) each cl(p) is an element with K(cl(p)) = K(p), so
      by (ii) p = cl(p), and g(p) | g(q) exactly when p <= q.  So g is an
      order embedding, and its image holds every g(S) = g(cl(S)), that is,
      every lcm of atom monomials.  Atoms are incomparable, so no atom
      monomial divides another; they are the minimal generators, and the
      image is their lcm-lattice.

    In terms of joins, (i) is the rule g(p v a) = lcm(g(p), g(a)) read one
    level at a time: the rule holds exactly when every atom set S has
    g(join of S) = g(S), that is, when each cut holding S holds its join,
    that is, when each cut is an element.

    Given (i), every intersection of cuts is an element, and (ii) holds
    exactly when every element p is one (p = cl(p)).  That holds exactly
    when every meet-irreducible of the lattice is a cut.  Every element p is
    the meet of the meet-irreducibles above it, so if these are cuts, cl(p)
    lies below p.  Conversely, a meet-irreducible p below the top is not the
    meet of elements strictly above it, so if p = cl(p), the meet of the
    cuts above p, then one of those cuts is p.  The top is always a cut (the
    last level of every variable), and the {} cut is the bottom of the
    one-atom lattice, the one lattice whose bottom is meet-irreducible.  So
    the decision is MI(L) ⊆ cuts ⊆ L, and the meet-irreducibles are read
    only once every cut is an element.  That costs O(k*n) level masks for k
    variables and n atoms, and
    :meth:`~lcmlattice.lattice.AtomicLattice.meet_irreducibles`, which the
    condition checks of :func:`classify` read too.
    """
    _check_lcm_generators(ideal.generators)
    cuts = _level_masks(ideal._level_table())
    return cuts <= lat._element_index().keys() and cuts.issuperset(lat.meet_irreducibles())


def _specific_map_witness(lat: AtomicLattice, atom_monomials: tuple[Monomial, ...], ll: LcmLattice) -> str:
    """Why g (see :func:`_extends_to_isomorphism`) is not an isomorphism onto
    ``ll``, the lcm-lattice of ``atom_monomials``, once that decision is false.

    Order is preserved upward by construction, so the checks are size,
    injectivity, membership and order reflection, in that order, and one of
    them fails.  The size check reads no monomial.  After it, each element
    costs the lcm of g and, for membership, one divisibility test per
    generator and one lcm (see :meth:`LcmLattice._support
    <lcmlattice.ideals.LcmLattice._support>`)."""
    if len(ll) != len(lat):
        return f"lcm-lattice has {len(ll)} elements, the lattice has {len(lat)}"
    g = _support_lcms(atom_monomials, lat.sets)
    seen: dict[Monomial, int] = {}
    for p in lat.sets:
        if g[p] in seen:
            return f"map collision: {_set_str(seen[g[p]])} and {_set_str(p)} both map to {g[p]}"
        if g[p] not in ll:
            return f"{_set_str(p)} maps to {g[p]}, which is not in the lcm-lattice"
        seen[g[p]] = p
    return next(
        f"order not reflected: image of {_set_str(p)} divides image of {_set_str(q)} "
        f"but {_set_str(p)} is not below {_set_str(q)}"
        for p in lat.sets
        for q in lat.sets
        if g[p].divides(g[q]) and p & ~q
    )


def is_coordinatization(lat: AtomicLattice, labeling: Labeling) -> bool:
    """Is the lcm-lattice of the generated ideal isomorphic to the lattice?

    A strong coordinatization is one, so the lcm-lattice is built, for the
    isomorphism search, only when the strong map fails."""
    x = ideal_from_labeling(lat, labeling)
    return _extends_to_isomorphism(lat, x) or _abstract_isomorphism(lat, lcm_lattice(x))[0]


def is_strong_coordinatization(lat: AtomicLattice, labeling: Labeling) -> bool:
    """Is atom -> x(atom), extended by lcm over supports, an isomorphism?"""
    return _extends_to_isomorphism(lat, ideal_from_labeling(lat, labeling))


def is_weak_coordinatization(lat: AtomicLattice, labeling: Labeling) -> bool:
    """Is atom -> delta(atom), extended by lcm over supports, an isomorphism?"""
    return _extends_to_isomorphism(lat, weak_ideal(lat, labeling))


def verify_labeling_recovery(lat: AtomicLattice, labeling: Labeling) -> bool:
    """Round-trip check: recover the labeling from its own lcm-lattice.

    Requires the chain conditions (which force the extended atom map to be an
    isomorphism); alongside it the recovered labeling provably reproduces the
    original, and this function tests that equality directly.
    """
    ok, wit = check_strong_conditions(lat, labeling)
    if not ok:
        raise PreconditionError(f"labeling does not satisfy the chain conditions: {wit}")
    monomial_of = _support_lcms(ideal_from_labeling(lat, labeling).generators, lat.sets)
    return recovered_labeling(lat, monomial_of) == labeling


@dataclass(frozen=True)
class LabelingClassification:
    """The five classification booleans plus failure diagnostics.

    ``witness`` maps a result field name to a human-readable reason whenever
    that result is false (or a check could not run on a degenerate ideal).
    """

    satisfies_A1A2: bool
    satisfies_C1C2: bool
    is_coordinatization: bool
    is_strong: bool
    is_weak: bool
    witness: Optional[dict[str, str]] = None

    def to_json_dict(self) -> dict:
        return asdict(self)


def classify(lat: AtomicLattice, labeling: Labeling) -> LabelingClassification:
    """Run all five checks on one shared set of generators.

    The strong and weak checks decide whether the map g is an isomorphism
    as MI(L) ⊆ cuts ⊆ L, from the level masks of its atom monomials and the
    lattice's meet-irreducibles (see :func:`_extends_to_isomorphism`), with
    no lcm-lattice built; the meet-irreducibles are shared with the two
    condition checks.  The single predicates take the same decision.  A
    strong verdict makes the coordinatization check true as well, and when
    ``delta(a) = x(a)`` for every atom the weak verdict is the strong one.
    Only a false verdict builds an lcm-lattice, one per tuple of minimal
    generators and call, to word its witness (and, for coordinatization, to
    run the isomorphism search); the lattice keeps no monomial and takes an
    lcm only when the witness reads one, so a size mismatch or a failed
    isomorphism search takes none.

    Each generator tuple's exponent-level table is made at most once per
    call: ``x(a)`` and ``delta(a)`` are each held as a
    :class:`MonomialIdeal`, which keeps its table for the specific-map
    decision and for the lcm-lattice build, and its minimal generators,
    found by a divisibility pass that reads no table.
    The table of ``x`` is computed when first read, and ``delta`` is built
    from it together with its own table, the joins of the levels of ``x``
    (see :func:`~lcmlattice.ideals._refine`), so none is computed for
    ``delta``.  Minimal generators that differ from their tuple get an
    ideal, and a table, of their own, once, since ``x`` and ``delta`` share
    the build when their minimal generators coincide.  Every ideal is made
    by this call and goes with it, so no table outlives it.

    A degenerate ideal (a unit generator) classifies as false with a witness,
    not as an error.  The witness build of a false verdict raises what
    :class:`~lcmlattice.ideals.LcmLattice` raises.
    """

    def guarded(fn) -> tuple[bool, Optional[str]]:
        try:
            return fn()
        except DegenerateIdealError as exc:
            return False, str(exc)

    def specific_map(ideal: MonomialIdeal) -> tuple[bool, Optional[str]]:
        if _extends_to_isomorphism(lat, ideal):
            return True, None
        return False, _specific_map_witness(lat, ideal.generators, lcm_lattice_of(ideal))

    def lcm_lattice_of(ideal: MonomialIdeal) -> LcmLattice:
        return build(ideal._minimal_ideal())

    # Local to this call: one build per tuple of minimal generators, which
    # the coordinatization, strong and weak witnesses may share.
    build = cache(lcm_lattice)
    a_ok = check_strong_conditions(lat, labeling)
    c_ok = check_weak_conditions(lat, labeling)
    # x computes its level table once, delta is handed its own by _refine,
    # and both live only as long as this call.
    x = ideal_from_labeling(lat, labeling)
    strong = guarded(lambda: specific_map(x))
    coord = strong if strong[0] else guarded(lambda: _abstract_isomorphism(lat, lcm_lattice_of(x)))
    delta = _refine(lat, x)
    weak = strong if delta == x else guarded(lambda: specific_map(delta))

    verdicts = {
        "satisfies_A1A2": a_ok,
        "satisfies_C1C2": c_ok,
        "is_coordinatization": coord,
        "is_strong": strong,
        "is_weak": weak,
    }
    witness = {field: wit for field, (ok, wit) in verdicts.items() if not ok}
    return LabelingClassification(
        **{field: ok for field, (ok, _) in verdicts.items()},
        witness=witness or None,
    )
