"""Classify a labeling: coordinatization, strong/weak variants, and the
two sufficient-condition checks.

A labeling *coordinatizes* its lattice when the lcm-lattice of the generated
ideal is order-isomorphic to it.  The strong and weak variants pin the
isomorphism down to the specific map sending each atom to its generator
(``x(a)`` for strong, ``delta(a)`` for weak) and every other element to the
lcm over its support; being a bijection that preserves order both ways is
then a property, not a search.

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
from itertools import combinations
from typing import Optional

from .errors import DegenerateIdealError, PreconditionError
from .ideals import (
    Labeling,
    MonomialIdeal,
    _refine,
    ideal_from_labeling,
    lcm_lattice,
    recovered_labeling,
    weak_ideal,
)
from .lattice import AtomicLattice, _set_str, bits_of, lattice_isomorphic
from .monomial import Monomial, lcm_all

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


def _abstract_isomorphism(lat: AtomicLattice, ideal: MonomialIdeal) -> tuple[bool, Optional[str]]:
    ll = lcm_lattice(ideal)
    if lattice_isomorphic(ll.abstract(), lat) is None:
        return False, (
            f"lcm-lattice of the generated ideal ({len(ll)} elements, {len(ll.generators)} atoms) "
            f"is not isomorphic to the lattice ({len(lat)} elements, {lat.n} atoms)"
        )
    return True, None


def _support_map(lat: AtomicLattice, atom_monomials: tuple[Monomial, ...]) -> dict[int, Monomial]:
    """g(p): the lcm of the monomials of the atoms below p (given in atom order)."""
    return {p: lcm_all(atom_monomials[b.bit_length() - 1] for b in bits_of(p)) for p in lat.sets}


def _specific_map_isomorphism(
    lat: AtomicLattice, atom_monomials: tuple[Monomial, ...]
) -> tuple[bool, Optional[str]]:
    """Is g(p) = lcm of the atom monomials below p an isomorphism onto the
    lcm-lattice of those monomials?  Order is preserved upward by
    construction, so the checks are size, injectivity, membership, and order
    reflection."""
    ll = lcm_lattice(atom_monomials)
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
    return _abstract_isomorphism(lat, ideal_from_labeling(lat, labeling))[0]


def is_strong_coordinatization(lat: AtomicLattice, labeling: Labeling) -> bool:
    """Is atom -> x(atom), extended by lcm over supports, an isomorphism?"""
    return _specific_map_isomorphism(lat, ideal_from_labeling(lat, labeling).generators)[0]


def is_weak_coordinatization(lat: AtomicLattice, labeling: Labeling) -> bool:
    """Is atom -> delta(atom), extended by lcm over supports, an isomorphism?"""
    return _specific_map_isomorphism(lat, weak_ideal(lat, labeling).generators)[0]


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

    A degenerate ideal (a unit generator) classifies as false with a witness,
    not as an error.  An input over a documented cap, such as an ideal with
    more than ``MAX_GENERATORS`` minimal generators, raises
    :class:`CapExceededError`.
    """
    witness: dict[str, str] = {}

    def run(field, fn):
        try:
            ok, wit = fn()
        except DegenerateIdealError as exc:
            ok, wit = False, str(exc)
        if not ok:
            witness[field] = wit
        return ok

    a_ok = run("satisfies_A1A2", lambda: check_strong_conditions(lat, labeling))
    c_ok = run("satisfies_C1C2", lambda: check_weak_conditions(lat, labeling))
    ideal = ideal_from_labeling(lat, labeling)
    coord = run("is_coordinatization", lambda: _abstract_isomorphism(lat, ideal))
    strong = run("is_strong", lambda: _specific_map_isomorphism(lat, ideal.generators))
    weak = run("is_weak", lambda: _specific_map_isomorphism(lat, _refine(lat, ideal.generators)))

    return LabelingClassification(
        satisfies_A1A2=a_ok,
        satisfies_C1C2=c_ok,
        is_coordinatization=coord,
        is_strong=strong,
        is_weak=weak,
        witness=witness or None,
    )
