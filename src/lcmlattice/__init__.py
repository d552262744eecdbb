"""Monomial ideals and their lcm-lattices, via labeled finite atomic lattices.

The package is organized around two directions of the same dictionary:

* a finite atomic lattice plus a monomial labeling *generates* an ideal
  (:func:`ideal_from_labeling`, :func:`weak_ideal`), and
* a monomial ideal *has* an lcm-lattice (:func:`lcm_lattice`) whose labels
  can be recovered (:func:`recovered_labeling`).

On top of that sit the classification predicates (:func:`classify` and
friends), the super-atomic detectors and enumerator, and the interval-count
criteria for the canonical support labeling.
"""

from .classify import (
    LabelingClassification,
    check_strong_conditions,
    check_weak_conditions,
    classify,
    is_coordinatization,
    is_strong_coordinatization,
    is_weak_coordinatization,
    verify_labeling_recovery,
)
from .dot import hasse_dot
from .errors import (
    CapExceededError,
    DegenerateIdealError,
    Error,
    FormatError,
    MonomialParseError,
    NotAnElementError,
    NotDivisibleError,
    PreconditionError,
    ValidationError,
)
from .ideals import (
    Labeling,
    LcmLattice,
    MonomialIdeal,
    atom_generator,
    element_generator,
    ideal_from_labeling,
    labeling_from_json_dict,
    lcm_lattice,
    load_labeling,
    parse_ideal_text,
    recovered_labeling,
    render_ideal_text,
    weak_generator,
    weak_ideal,
)
from .lattice import AtomicLattice, atoms_of, lattice_isomorphic, mask_of
from .monomial import ONE, Monomial, gcd_all, lcm_all
from .superatomic import (
    CoverWitness,
    check_superatomic_structure,
    cover_witness,
    enumerate_all_lattices,
    enumerate_super_atomic,
    is_super_atomic,
    is_super_atomic_via_supp,
    iter_super_atomic_families,
    super_atomic_size,
    verify_new_element_meet_irreducible,
)
from .support_labeling import (
    CoverTransferReport,
    IntervalCriterionReport,
    IntervalWitness,
    check_cover_transfer,
    check_strong_interval_criterion,
    check_weak_interval_criterion,
    support_labeling,
)

__version__ = "0.1.0"

__all__ = [
    "AtomicLattice",
    "CapExceededError",
    "CoverTransferReport",
    "CoverWitness",
    "DegenerateIdealError",
    "Error",
    "FormatError",
    "IntervalCriterionReport",
    "IntervalWitness",
    "Labeling",
    "LabelingClassification",
    "LcmLattice",
    "Monomial",
    "MonomialIdeal",
    "MonomialParseError",
    "NotAnElementError",
    "NotDivisibleError",
    "ONE",
    "PreconditionError",
    "ValidationError",
    "atom_generator",
    "atoms_of",
    "check_cover_transfer",
    "check_strong_conditions",
    "check_strong_interval_criterion",
    "check_superatomic_structure",
    "check_weak_conditions",
    "check_weak_interval_criterion",
    "classify",
    "cover_witness",
    "element_generator",
    "enumerate_all_lattices",
    "enumerate_super_atomic",
    "gcd_all",
    "hasse_dot",
    "ideal_from_labeling",
    "is_coordinatization",
    "is_strong_coordinatization",
    "is_super_atomic",
    "is_super_atomic_via_supp",
    "is_weak_coordinatization",
    "iter_super_atomic_families",
    "labeling_from_json_dict",
    "lattice_isomorphic",
    "lcm_all",
    "lcm_lattice",
    "load_labeling",
    "mask_of",
    "parse_ideal_text",
    "recovered_labeling",
    "render_ideal_text",
    "super_atomic_size",
    "support_labeling",
    "verify_labeling_recovery",
    "verify_new_element_meet_irreducible",
    "weak_generator",
    "weak_ideal",
]
