"""Bundled regression fixtures and the runner that replays them.

Each fixture is a JSON document pairing input data (a lattice with a
labeling, an ideal, or an enumeration request) with frozen expected values.
The expectations name rows of one ordered table, ``_CHECKS``, which maps
each expectation to the public call that recomputes it.  Nested blocks of
the ``expect`` object give dotted names (``classification.is_weak``,
``superatomic.literal``, ``cover.smaller_strong``); ``cover.smaller`` is an
input, not an expectation.  A name the table does not hold is a
:class:`FormatError`, so a misspelt expectation fails instead of going
unchecked.  The runner walks the table in order and reports one outcome per
expectation the fixture holds; the inputs (the lattice, its labeling and its
plain ideal, the ideal's lcm-lattice, the ``classify`` result, the smaller
lattice of a cover with its support labeling and plain ideal, and the cover
witness) are each built once, on first use.  The ``weak_ideal`` and
``classify`` rows call their public functions, which build the plain
generators again.  The ``paper-examples`` CLI command and the test suite
both drive it.

Rows call package functions by their global names at call time, so whatever
rebinds those names (a profiler's wrapper, say) sees the calls.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from importlib import resources

from ..classify import classify
from ..errors import FormatError, shown
from ..ideals import (
    MonomialIdeal,
    ideal_from_labeling,
    labeling_from_json_dict,
    lcm_lattice,
    recovered_labeling,
    weak_ideal,
)
from ..lattice import AtomicLattice, atoms_of, lattice_isomorphic
from ..monomial import Monomial
from ..superatomic import (
    check_superatomic_structure,
    cover_witness,
    enumerate_super_atomic,
    is_super_atomic,
    is_super_atomic_via_supp,
    verify_new_element_meet_irreducible,
)
from ..support_labeling import (
    check_cover_transfer,
    check_strong_interval_criterion,
    check_weak_interval_criterion,
    support_labeling,
)

__all__ = ["FIXTURE_IDS", "FixtureCheck", "FixtureResult", "load", "run", "run_all"]

FIXTURE_IDS = (
    "fig1",
    "fig2",
    "fig3",
    "fig6",
    "fig8",
    "fig9",
    "example-4-3",
    "example-5-2",
)


@dataclass(frozen=True)
class FixtureCheck:
    name: str
    passed: bool
    expected: str
    actual: str


@dataclass(frozen=True)
class FixtureResult:
    fixture_id: str
    checks: tuple[FixtureCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def load(fixture_id: str) -> dict:
    if fixture_id not in FIXTURE_IDS:
        raise FormatError(f"unknown fixture {shown(fixture_id)}; known: {', '.join(FIXTURE_IDS)}")
    text = (resources.files(__name__) / "data" / f"{fixture_id}.json").read_text()
    return json.loads(text)


class _Inputs:
    """The inputs of one fixture document, each built on first use."""

    def __init__(self, doc: dict):
        self.doc = doc

    @cached_property
    def lattice(self) -> AtomicLattice:
        return AtomicLattice.from_json_dict(self.doc["lattice"])

    @cached_property
    def labeling(self):
        if self.doc.get("support_labeling"):
            return support_labeling(self.lattice, self.doc.get("atom_names"))
        return labeling_from_json_dict(self.doc, lattice=self.lattice)

    @cached_property
    def plain(self) -> MonomialIdeal:
        return ideal_from_labeling(self.lattice, self.labeling)

    @cached_property
    def lcm(self):
        return lcm_lattice(MonomialIdeal(Monomial.parse(s) for s in self.doc["ideal"]))

    @cached_property
    def classified(self):
        return classify(self.lattice, self.labeling)

    @cached_property
    def smaller(self) -> AtomicLattice:
        return AtomicLattice.from_json_dict(self.doc["expect"]["cover"]["smaller"])

    @cached_property
    def small_labeling(self):
        return support_labeling(self.smaller)

    @cached_property
    def small_plain(self) -> MonomialIdeal:
        return ideal_from_labeling(self.smaller, self.small_labeling)

    @cached_property
    def witness(self):
        return cover_witness(self.lattice, self.smaller)


def _check(name: str, expected, actual) -> FixtureCheck:
    return FixtureCheck(name=name, passed=expected == actual, expected=repr(expected), actual=repr(actual))


def _gens(ideal) -> list[str]:
    return [str(g) for g in ideal.generators]


def _recovered_labels(f: _Inputs) -> list:
    abstract = f.lcm.abstract()
    return recovered_labeling(abstract, {p: f.lcm.monomial_of(p) for p in abstract.sets}).to_json_dict()["labels"]


def _enumeration_exact(f: _Inputs) -> bool:
    spec = f.doc["enumeration"]
    expected = sorted(sorted(tuple(sorted(s)) for s in fam) for fam in spec["families"])
    return expected == sorted(sorted(atoms_of(m) for m in lat.sets) for lat in enumerate_super_atomic(spec["n"]))


# Each expectation and the call that recomputes it, in replay order.  A row
# whose cover witness is missing (the lattices are not a cover) yields None.
_CHECKS = {
    "lcm_elements": lambda f: [str(m) for m in f.lcm.monomials],
    "lcm_covers": lambda f: [[str(lo), str(hi)] for lo, hi in f.lcm.covers_monomials()],
    "recovered_labels": _recovered_labels,
    "plain_ideal": lambda f: _gens(f.plain),
    "weak_ideal": lambda f: _gens(weak_ideal(f.lattice, f.labeling)),
    "lcm_plain_size": lambda f: len(lcm_lattice(f.plain)),
    "classification.satisfies_A1A2": lambda f: f.classified.satisfies_A1A2,
    "classification.satisfies_C1C2": lambda f: f.classified.satisfies_C1C2,
    "classification.is_coordinatization": lambda f: f.classified.is_coordinatization,
    "classification.is_strong": lambda f: f.classified.is_strong,
    "classification.is_weak": lambda f: f.classified.is_weak,
    "superatomic.literal": lambda f: is_super_atomic(f.lattice),
    "superatomic.via_supp": lambda f: is_super_atomic_via_supp(f.lattice),
    "superatomic.structure": lambda f: check_superatomic_structure(f.lattice),
    "weak_interval_criterion": lambda f: check_weak_interval_criterion(f.lattice).hypothesis_holds,
    "strong_interval_criterion": lambda f: check_strong_interval_criterion(f.lattice)[0],
    "enumeration_exact": _enumeration_exact,
    "cover.new_element": lambda f: f.witness and list(atoms_of(f.witness.new_element)),
    "cover.new_element_meet_irreducible": lambda f: f.witness and verify_new_element_meet_irreducible(f.witness),
    "cover.smaller_plain_ideal": lambda f: _gens(f.small_plain),
    "cover.smaller_deltas_equal_plain": lambda f: (
        weak_ideal(f.smaller, f.small_labeling).generators == f.small_plain.generators
    ),
    "cover.smaller_lcm_isomorphic": lambda f: (
        lattice_isomorphic(lcm_lattice(f.small_plain).abstract(), f.smaller) is not None
    ),
    "cover.smaller_strong": lambda f: classify(f.smaller, f.small_labeling).is_strong,
    "cover.cover_transfer_agrees": lambda f: f.witness and check_cover_transfer(f.lattice, f.lattice, f.smaller).agree,
}


def _expectations(expect: dict) -> dict:
    """``expect`` with each nested block flattened to dotted names, less the
    one input it holds (``cover.smaller``)."""
    flat = {}
    for key, value in expect.items():
        if isinstance(value, dict):
            flat.update((f"{key}.{name}", want) for name, want in value.items())
        else:
            flat[key] = value
    flat.pop("cover.smaller", None)
    return flat


def run(fixture_id: str) -> FixtureResult:
    doc = load(fixture_id)
    want = _expectations(doc["expect"])
    unknown = [name for name in want if name not in _CHECKS]
    if unknown:
        raise FormatError(f"fixture {shown(fixture_id)} expects unknown checks: {', '.join(map(shown, unknown))}")
    inputs = _Inputs(doc)
    checks = tuple(_check(name, want[name], compute(inputs)) for name, compute in _CHECKS.items() if name in want)
    return FixtureResult(fixture_id=fixture_id, checks=checks)


def run_all() -> list[FixtureResult]:
    return [run(fid) for fid in FIXTURE_IDS]
