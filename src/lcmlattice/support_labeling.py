"""The canonical support labeling and its interval-count criteria.

The *support labeling* gives every nonzero element the squarefree product of
the variables of its support atoms.  Whether it coordinatizes the lattice
turns out to be controlled by interval cardinalities N([q, top]):

* the **weak criterion**: if every non-atom nonzero p is the join of two
  atoms a_i, a_j such that, for a fixed r in {i, j}, every atom a_k outside
  supp(p) has N([a_r v a_k, top]) < N([p, top]), then the support labeling is
  a weak coordinatization;
* the **strong criterion** (super-atomic lattices only): the support
  labeling is a strong coordinatization exactly when for every non-atom
  nonzero p with generating pair a_i, a_j and all atoms a_k, a_r in supp(p),
  N([a_i v a_k, top]) <= N([a_r v a_k, top]) or
  N([a_j v a_k, top]) <= N([a_r v a_k, top]);
* the **cover transfer** criterion: below a super-atomic lattice, if the
  support labeling of a lattice is strong and we step down one cover, the
  smaller lattice's support labeling is strong exactly when its refined
  generators coincide with its plain generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .classify import _extends_to_isomorphism, is_strong_coordinatization
from .errors import PreconditionError, _iterated, shown
from .ideals import Labeling, _refine, ideal_from_labeling
from .lattice import AtomicLattice, _set_str, atoms_of, bits_of
from .monomial import Monomial
from .superatomic import _atom_pairs, _super_atomic_joining_pairs, cover_witness, is_super_atomic

__all__ = [
    "support_labeling",
    "IntervalWitness",
    "IntervalCriterionReport",
    "check_weak_interval_criterion",
    "check_strong_interval_criterion",
    "CoverTransferReport",
    "check_cover_transfer",
]


def support_labeling(lat: AtomicLattice, atom_names: Optional[list[str]] = None) -> Labeling:
    """Label every nonzero element with the product of its support variables.

    Atom i is written ``a<i>`` unless ``atom_names`` supplies n distinct
    string names (handy for matching hand-drawn figures that use a, b, c, ...).
    """
    if atom_names is None:
        names = [f"a{i}" for i in range(1, lat.n + 1)]
    else:
        names = list(_iterated(atom_names, "atom names must be an iterable of strings"))
        for name in names:
            if not isinstance(name, str):
                raise PreconditionError(f"atom names must be strings, got {shown(name)}")
        if len(names) != lat.n or len(set(names)) != lat.n:
            raise PreconditionError(f"need {lat.n} distinct atom names, got {shown(names)}")
    by_bit = {1 << i: name for i, name in enumerate(names)}
    return Labeling(
        lat,
        ((p, Monomial((by_bit[b], 1) for b in bits_of(p))) for p in lat.sets if p != 0),
    )


@dataclass(frozen=True)
class IntervalWitness:
    """Outcome of the weak criterion at one element.

    When satisfied, ``pair`` and ``chosen`` (atom indices) record the joining
    pair and the fixed member that worked.  When not, they record the last
    candidate tried and ``violating`` the outside atom that defeated it;
    all three are absent if the element is not a join of two atoms at all.
    """

    element: tuple[int, ...]
    satisfied: bool
    pair: Optional[tuple[int, int]] = None
    chosen: Optional[int] = None
    violating: Optional[int] = None

    def to_json_dict(self) -> dict:
        return {
            "set": list(self.element),
            "satisfied": self.satisfied,
            "pair": list(self.pair) if self.pair else None,
            "chosen": self.chosen,
            "violating": self.violating,
        }


def _witness(element, satisfied, pair=None, chosen=None, violating=None) -> IntervalWitness:
    """An :class:`IntervalWitness` with its five fields written straight into
    the instance ``__dict__``, where the frozen ``__init__`` pays one
    ``object.__setattr__`` per field.  Equality, hash, repr and
    ``to_json_dict`` read the fields as they read a public one's, and the
    fields stay frozen."""
    w = object.__new__(IntervalWitness)
    w.__dict__.update(element=element, satisfied=satisfied, pair=pair, chosen=chosen, violating=violating)
    return w


@dataclass(frozen=True)
class IntervalCriterionReport:
    hypothesis_holds: bool
    witnesses: tuple[IntervalWitness, ...]

    def to_json_dict(self) -> dict:
        return {
            "hypothesis_holds": self.hypothesis_holds,
            "witnesses": [w.to_json_dict() for w in self.witnesses],
        }


def check_weak_interval_criterion(lat: AtomicLattice) -> IntervalCriterionReport:
    """Evaluate the weak criterion, reporting per-element evidence.

    Sufficient, not necessary: when it holds, the support labeling is a weak
    coordinatization.  The joining pairs and N([a_r v a_k, top]) are read
    from the one atom-pair table of :func:`~lcmlattice.superatomic._atom_pairs`,
    so no join is taken per candidate.  N([p, top]) is read there too, at
    any joining pair {a_i, a_j} of p: an element
    contains both a_i and a_j exactly when it contains their join, which is
    p, so the elements above p are the ones the pair's entry counts.  The
    atoms outside p are found only at elements with a joining pair, and
    each chosen atom a_r is tested once per element (its result does not
    depend on the pair it came from).  Each element's witness is built
    once, for the candidate kept: the first that works, or else the last one
    tried, through :func:`_witness`.
    """
    joining, n_pair = _atom_pairs(lat)
    atoms = lat.atoms
    witnesses = []
    for p in lat.sets:
        if p == 0 or p.bit_count() == 1:
            continue
        pairs = joining[p]
        if not pairs:
            witnesses.append(_witness(atoms_of(p), False))
            continue
        outside = [a for a in atoms if not a & p]
        n_p = n_pair[pairs[0]]
        first_bad: dict[int, Optional[int]] = {}  # chosen atom -> first outside atom defeating it
        for pr, r in ((pr, r) for pr in pairs for r in (pr & -pr, pr & (pr - 1))):
            if r not in first_bad:
                first_bad[r] = next((k for k in outside if n_pair[r | k] >= n_p), None)
            if first_bad[r] is None:
                break
        bad = first_bad[r]
        witnesses.append(
            _witness(
                atoms_of(p),
                bad is None,
                ((pr & -pr).bit_length(), (pr & (pr - 1)).bit_length()),
                r.bit_length(),
                None if bad is None else bad.bit_length(),
            )
        )
    return IntervalCriterionReport(
        hypothesis_holds=all(w.satisfied for w in witnesses),
        witnesses=tuple(witnesses),
    )


def check_strong_interval_criterion(lat: AtomicLattice) -> tuple[bool, Optional[str]]:
    """Evaluate the strong criterion on a super-atomic lattice.

    Equivalent to the support labeling being a strong coordinatization (the
    equivalence itself is exercised by the test suite, not assumed here).

    N([a_r v a_k, top]) depends on the two atoms alone, so the atom-pair
    table of :func:`~lcmlattice.superatomic._atom_pairs` holds every value
    the criterion reads, with no join.  At each element p with generating
    pair {a_i, a_j}, the check fails at the first a_r in p whose entry with
    a_k is below both N([a_i v a_k, top]) and N([a_j v a_k, top]); atoms are
    tried in increasing order, a_k outer, so the first witness is the one
    the triple loop over p's atoms finds.  The same table decides the
    super-atomic precondition and gives each generating pair, so it is
    built once.
    """
    table = _super_atomic_joining_pairs(lat)
    if table is None:
        raise PreconditionError("lattice is not super-atomic")
    joining, n_pair = table
    for p in lat.sets:
        if p == 0 or p.bit_count() == 1:
            continue
        pair = joining[p][0]
        ai = pair & -pair
        aj = pair ^ ai
        members = tuple(bits_of(p))
        for ak in members:
            bound = min(n_pair[ai | ak], n_pair[aj | ak])
            for ar in members:
                if n_pair[ar | ak] < bound:
                    return False, (
                        f"at element {_set_str(p)}: both members of the "
                        f"generating pair ({ai.bit_length()},{aj.bit_length()}) give strictly larger "
                        f"intervals than atom {ar.bit_length()} does, against atom {ak.bit_length()}"
                    )
    return True, None


@dataclass(frozen=True)
class CoverTransferReport:
    """Both sides of the cover-transfer equivalence, evaluated independently."""

    deltas_equal_generators: bool
    strong_on_smaller: bool

    @property
    def agree(self) -> bool:
        return self.deltas_equal_generators == self.strong_on_smaller

    def to_json_dict(self) -> dict:
        return {
            "deltas_equal_generators": self.deltas_equal_generators,
            "strong_on_smaller": self.strong_on_smaller,
            "agree": self.agree,
        }


def check_cover_transfer(
    root: AtomicLattice, larger: AtomicLattice, smaller: AtomicLattice
) -> CoverTransferReport:
    """Evaluate both sides of the cover-transfer criterion.

    Preconditions (each failure named): ``root`` is super-atomic; all three
    lattices share the atom set; ``larger``'s family is contained in
    ``root``'s; ``larger`` covers ``smaller``; and the support labeling of
    ``larger`` is a strong coordinatization.

    The generators ``x(a)`` of ``smaller`` are built once: ``delta(a)`` is
    refined from them, and the strong verdict reads their level table, as
    in :func:`~lcmlattice.classify.classify`.
    """
    if root.n != larger.n or root.n != smaller.n:
        raise PreconditionError("all three lattices must share the same atoms")
    if not is_super_atomic(root):
        raise PreconditionError("the root lattice is not super-atomic")
    if not set(larger.sets) <= set(root.sets):
        raise PreconditionError("the middle lattice is not contained in the root lattice")
    if cover_witness(larger, smaller) is None:
        raise PreconditionError("the middle lattice does not cover the smaller one")
    if not is_strong_coordinatization(larger, support_labeling(larger)):
        raise PreconditionError("the support labeling of the middle lattice is not a strong coordinatization")

    plain = ideal_from_labeling(smaller, support_labeling(smaller))
    return CoverTransferReport(
        deltas_equal_generators=_refine(smaller, plain) == plain,
        strong_on_smaller=_extends_to_isomorphism(smaller, plain),
    )
