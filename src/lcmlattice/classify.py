"""Classify a labeling: coordinatization, strong/weak variants, and the
two sufficient-condition checks.

A labeling *coordinatizes* its lattice when the lcm-lattice of the generated
ideal is order-isomorphic to it.  The strong and weak variants pin the
isomorphism down to the specific map sending each atom to its generator
(``x(a)`` for strong, ``delta(a)`` for weak) and every other element to the
lcm over its support; being a bijection that preserves order both ways is
then a property, not a search.  It holds exactly when the map is injective and
sends the join of each element ``p`` with each atom ``a`` outside it to
``lcm(g(p), g(a))``: ``O(m*n)`` joins and lcms for ``m`` elements and ``n``
atoms (the joins :meth:`AtomicLattice.covers` takes), with no lcm-lattice
built.  The lcm-lattice is built only to explain a false verdict.

Two checkable sufficient conditions come with the theory:

* **chain conditions** (strong): every meet-irreducible element below the
  top is labeled, and for each variable the labels containing it sit on a
  chain;
* **overlap conditions** (weak): meet-irreducibles below the top are
  labeled, and for every incomparable labeled pair p, q with entangled
  labels, each label strictly exceeds the common part and the set of
  elements entangled with either label is a chain once the other element is
  dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations
from typing import Callable, Optional

from .errors import DegenerateIdealError, PreconditionError
from .ideals import (
    Labeling,
    LcmLattice,
    _check_lcm_generators,
    _refine,
    ideal_from_labeling,
    lcm_lattice,
    recovered_labeling,
    weak_ideal,
)
from .lattice import AtomicLattice, _set_str, bits_of, lattice_isomorphic
from .monomial import ONE, Monomial, lcm_all

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


def _first_incomparable(masks) -> Optional[tuple[int, int]]:
    for a, b in combinations(masks, 2):
        if a & ~b and b & ~a:
            return a, b
    return None


def check_strong_conditions(lat: AtomicLattice, labeling: Labeling) -> tuple[bool, Optional[str]]:
    """Labeled meet-irreducibles + one chain per variable.

    These conditions guarantee a strong coordinatization.  The top element is
    exempt from the labeling requirement: it never contributes to any
    generator (every filter contains it), and recovered labelings always
    leave it unlabeled.
    """
    for p in lat.meet_irreducibles():
        if p != lat.top and labeling.label(p).is_one:
            return False, f"meet-irreducible element {_set_str(p)} is unlabeled"
    by_var: dict[str, list[int]] = {}
    for p, m in labeling.items():
        for v in m.variables:
            by_var.setdefault(v, []).append(p)
    for v in sorted(by_var):
        members = by_var[v]
        if not AtomicLattice.is_chain(members):
            p, q = _first_incomparable(members)
            return False, f"variable {v} labels incomparable elements {_set_str(p)} and {_set_str(q)}"
    return True, None


def check_weak_conditions(lat: AtomicLattice, labeling: Labeling) -> tuple[bool, Optional[str]]:
    """Labeled meet-irreducibles + the overlap conditions on incomparable pairs.

    These conditions guarantee a weak coordinatization.  They relax the
    per-variable chain requirement: incomparable labels may share variables
    as long as neither label is swallowed by the common part and, for each of
    the two, the elements whose labels it is entangled with (sharing any
    variable, the partner element excluded) form a chain.
    """
    for p in lat.meet_irreducibles():
        if p != lat.top and labeling.label(p).is_one:
            return False, f"meet-irreducible element {_set_str(p)} is unlabeled"
    labeled = list(labeling.items())
    for (p, mp), (q, mq) in combinations(labeled, 2):
        if p & ~q == 0 or q & ~p == 0:
            continue
        shared = mp.gcd(mq)
        if shared.is_one:
            continue
        for hi, lo, m_hi in ((p, q, mp), (q, p, mq)):
            if (m_hi / shared).is_one:
                return False, (
                    f"label of {_set_str(hi)} is contained in its overlap with the label of {_set_str(lo)}"
                )
            tangled = [s for s, ms in labeled if s != lo and not m_hi.gcd(ms).is_one]
            if not AtomicLattice.is_chain(tangled):
                a, b = _first_incomparable(tangled)
                return False, (
                    f"elements entangled with the label of {_set_str(hi)} are not a chain: "
                    f"{_set_str(a)} and {_set_str(b)}"
                )
    return True, None


def _abstract_isomorphism(lat: AtomicLattice, ll: LcmLattice) -> tuple[bool, Optional[str]]:
    if lattice_isomorphic(ll.abstract(), lat) is None:
        return False, (
            f"lcm-lattice of the generated ideal ({len(ll)} elements, {len(ll.generators)} atoms) "
            f"is not isomorphic to the lattice ({len(lat)} elements, {lat.n} atoms)"
        )
    return True, None


def _support_map(lat: AtomicLattice, atom_monomials: tuple[Monomial, ...]) -> dict[int, Monomial]:
    """g(p): the lcm of the monomials of the atoms below p (given in atom order)."""
    return {p: lcm_all(atom_monomials[b.bit_length() - 1] for b in bits_of(p)) for p in lat.sets}


def _extends_to_isomorphism(lat: AtomicLattice, atom_monomials: tuple[Monomial, ...]) -> bool:
    """Is g(p) = lcm of the atom monomials below p an isomorphism onto the
    lcm-lattice of those monomials?  In ``O(m*n)`` joins and lcms.

    It is exactly when g is injective and g(p v a) = lcm(g(p), g(a)) for
    every element p and every atom a outside p.  An isomorphism onto a
    lattice whose join is lcm satisfies both.  Conversely, the join rule gives
    g(join of S) = lcm of the monomials of S for every atom set S, so the image
    is closed under lcm; if g(a) divided g(b) for atoms a != b, then
    g(a v b) = g(b) would break injectivity, so every atom monomial is a
    minimal generator and the image is the whole lcm-lattice.  Order is
    reflected: g(p) | g(q) gives g(p v q) = g(q), so p v q = q.  A unit
    monomial collides with the bottom's image 1, so it is rejected too.

    g is computed along those joins.  Every element above the bottom is the
    join of a lower cover with an atom, and elements come in order of size,
    so g(p) is complete before it is used; when every path to q agrees, the
    value is the lcm over q's atoms, as defined.
    """
    g = {0: ONE}
    for p in lat.sets:
        gp = g[p]
        for a in bits_of(lat.top & ~p):
            m = gp.lcm(atom_monomials[a.bit_length() - 1])
            if g.setdefault(lat.join_mask(p | a), m) != m:
                return False
    return len(set(g.values())) == len(g)


def _specific_map_isomorphism(
    lat: AtomicLattice,
    atom_monomials: tuple[Monomial, ...],
    lcm_lattice_of: Callable[[tuple[Monomial, ...]], LcmLattice],
) -> tuple[bool, Optional[str]]:
    """Is g(p) = lcm of the atom monomials below p an isomorphism onto the
    lcm-lattice of those monomials?

    A true verdict comes from :func:`_extends_to_isomorphism`, with no
    lcm-lattice built; its image has all n atom monomials as minimal
    generators, so the inputs the build refuses are refused here too.  A false
    verdict is explained on ``lcm_lattice_of(atom_monomials)``: order is
    preserved upward by construction, so the checks are size, injectivity,
    membership, and order reflection."""
    if _extends_to_isomorphism(lat, atom_monomials):
        _check_lcm_generators(atom_monomials)
        return True, None
    ll = lcm_lattice_of(atom_monomials)
    if len(ll) != len(lat):
        return False, f"lcm-lattice has {len(ll)} elements, the lattice has {len(lat)}"
    g = _support_map(lat, atom_monomials)
    seen: dict[Monomial, int] = {}
    for p in lat.sets:
        if g[p] in seen:
            return False, f"map collision: {_set_str(seen[g[p]])} and {_set_str(p)} both map to {g[p]}"
        if g[p] not in ll:
            return False, f"{_set_str(p)} maps to {g[p]}, which is not in the lcm-lattice"
        seen[g[p]] = p
    for p in lat.sets:
        for q in lat.sets:
            if g[p].divides(g[q]) and p & ~q:
                return False, (
                    f"order not reflected: image of {_set_str(p)} divides image of {_set_str(q)} "
                    f"but {_set_str(p)} is not below {_set_str(q)}"
                )
    return True, None


def is_coordinatization(lat: AtomicLattice, labeling: Labeling) -> bool:
    """Is the lcm-lattice of the generated ideal isomorphic to the lattice?"""
    return _abstract_isomorphism(lat, lcm_lattice(ideal_from_labeling(lat, labeling)))[0]


def is_strong_coordinatization(lat: AtomicLattice, labeling: Labeling) -> bool:
    """Is atom -> x(atom), extended by lcm over supports, an isomorphism?"""
    return _specific_map_isomorphism(lat, ideal_from_labeling(lat, labeling).generators, lcm_lattice)[0]


def is_weak_coordinatization(lat: AtomicLattice, labeling: Labeling) -> bool:
    """Is atom -> delta(atom), extended by lcm over supports, an isomorphism?"""
    return _specific_map_isomorphism(lat, weak_ideal(lat, labeling).generators, lcm_lattice)[0]


def verify_labeling_recovery(lat: AtomicLattice, labeling: Labeling) -> bool:
    """Round-trip check: recover the labeling from its own lcm-lattice.

    Requires the chain conditions (which force the extended atom map to be an
    isomorphism); alongside it the recovered labeling provably reproduces the
    original, and this function tests that equality directly.
    """
    ok, wit = check_strong_conditions(lat, labeling)
    if not ok:
        raise PreconditionError(f"labeling does not satisfy the chain conditions: {wit}")
    monomial_of = _support_map(lat, ideal_from_labeling(lat, labeling).generators)
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
        return {
            "satisfies_A1A2": self.satisfies_A1A2,
            "satisfies_C1C2": self.satisfies_C1C2,
            "is_coordinatization": self.is_coordinatization,
            "is_strong": self.is_strong,
            "is_weak": self.is_weak,
            "witness": self.witness,
        }


def classify(lat: AtomicLattice, labeling: Labeling) -> LabelingClassification:
    """Run all five checks on one shared set of generators.

    The strong and weak checks decide whether the map g is injective and
    sends ``p v a`` to ``lcm(g(p), g(a))`` for every element ``p`` and atom
    ``a`` outside it, in ``O(m*n)`` joins for ``m`` elements and ``n`` atoms,
    without building an lcm-lattice.  A strong verdict makes the
    coordinatization check true as well, and when ``delta(a) = x(a)`` for
    every atom the weak verdict is the strong one.  Only a false verdict builds
    an lcm-lattice, one per generator tuple, to explain itself.

    A degenerate ideal (a unit generator) classifies as false with a witness,
    not as an error.  An input over a documented cap, such as an ideal with
    more than ``MAX_GENERATORS`` minimal generators, raises
    :class:`CapExceededError`.
    """

    def guarded(fn) -> tuple[bool, Optional[str]]:
        try:
            return fn()
        except DegenerateIdealError as exc:
            return False, str(exc)

    a_ok = guarded(lambda: check_strong_conditions(lat, labeling))
    c_ok = guarded(lambda: check_weak_conditions(lat, labeling))
    x = ideal_from_labeling(lat, labeling).generators
    # Local to this call: the coordinatization and strong witnesses share one build.
    lcm_lattice_of = cache(lcm_lattice)
    strong = guarded(lambda: _specific_map_isomorphism(lat, x, lcm_lattice_of))
    coord = strong if strong[0] else guarded(lambda: _abstract_isomorphism(lat, lcm_lattice_of(x)))
    delta = _refine(lat, x)
    weak = strong if delta == x else guarded(lambda: _specific_map_isomorphism(lat, delta, lcm_lattice_of))

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
