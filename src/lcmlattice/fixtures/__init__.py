"""Bundled regression fixtures and the runner that replays them.

Each fixture is a JSON document pairing input data (a lattice with a
labeling, an ideal, or an enumeration request) with frozen expected values.
The runner recomputes everything through the public API and reports one
outcome per expectation; the ``paper-examples`` CLI command and the test
suite both drive it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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


def _check(checks: list, name: str, expected, actual) -> None:
    checks.append(
        FixtureCheck(name=name, passed=expected == actual, expected=repr(expected), actual=repr(actual))
    )


def _gens(ideal) -> list[str]:
    return [str(g) for g in ideal.generators]


def run(fixture_id: str) -> FixtureResult:
    doc = load(fixture_id)
    expect = doc["expect"]
    checks: list[FixtureCheck] = []

    lat = AtomicLattice.from_json_dict(doc["lattice"]) if "lattice" in doc else None
    labeling = None
    if lat is not None and doc.get("support_labeling"):
        labeling = support_labeling(lat, doc.get("atom_names"))
    elif lat is not None and "labels" in doc:
        labeling = labeling_from_json_dict(doc, lattice=lat)

    if "ideal" in doc:
        ll = lcm_lattice(MonomialIdeal(Monomial.parse(s) for s in doc["ideal"]))
        if "lcm_elements" in expect:
            _check(checks, "lcm_elements", expect["lcm_elements"], [str(m) for m in ll.monomials])
        if "lcm_covers" in expect:
            expected = {(a, b) for a, b in expect["lcm_covers"]}
            actual = {(str(lo), str(hi)) for lo, hi in ll.covers_monomials()}
            _check(checks, "lcm_covers", sorted(expected), sorted(actual))
        if "recovered_labels" in expect:
            abstract = ll.abstract()
            rec = recovered_labeling(abstract, {p: ll.monomial_of(p) for p in abstract.sets})
            expected = {tuple(e["set"]): e["monomial"] for e in expect["recovered_labels"]}
            actual = {atoms_of(p): str(m) for p, m in rec.items()}
            _check(checks, "recovered_labels", expected, actual)

    if labeling is not None:
        if "plain_ideal" in expect:
            _check(checks, "plain_ideal", expect["plain_ideal"], _gens(ideal_from_labeling(lat, labeling)))
        if "weak_ideal" in expect:
            _check(checks, "weak_ideal", expect["weak_ideal"], _gens(weak_ideal(lat, labeling)))
        if "lcm_plain_size" in expect:
            _check(
                checks,
                "lcm_plain_size",
                expect["lcm_plain_size"],
                len(lcm_lattice(ideal_from_labeling(lat, labeling))),
            )
        if "classification" in expect:
            got = classify(lat, labeling)
            for field, want in expect["classification"].items():
                _check(checks, f"classification.{field}", want, getattr(got, field))

    if lat is not None and "superatomic" in expect:
        want = expect["superatomic"]
        if "literal" in want:
            _check(checks, "superatomic.literal", want["literal"], is_super_atomic(lat))
        if "via_supp" in want:
            _check(checks, "superatomic.via_supp", want["via_supp"], is_super_atomic_via_supp(lat))
        if "structure" in want:
            _check(checks, "superatomic.structure", want["structure"], check_superatomic_structure(lat))

    if lat is not None and "weak_interval_criterion" in expect:
        _check(
            checks,
            "weak_interval_criterion",
            expect["weak_interval_criterion"],
            check_weak_interval_criterion(lat).hypothesis_holds,
        )
    if lat is not None and "strong_interval_criterion" in expect:
        _check(
            checks,
            "strong_interval_criterion",
            expect["strong_interval_criterion"],
            check_strong_interval_criterion(lat)[0],
        )

    if "enumeration" in doc and expect.get("enumeration_exact"):
        spec = doc["enumeration"]
        n = spec["n"]
        expected = sorted(
            sorted(tuple(sorted(s)) for s in fam) for fam in spec["families"]
        )
        actual = sorted(
            sorted(atoms_of(m) for m in found.sets) for found in enumerate_super_atomic(n)
        )
        _check(checks, "enumeration_exact", expected, actual)

    if lat is not None and "cover" in expect:
        want = expect["cover"]
        smaller = AtomicLattice.from_json_dict(want["smaller"])
        witness = cover_witness(lat, smaller)
        _check(
            checks,
            "cover.new_element",
            tuple(want["new_element"]),
            atoms_of(witness.new_element) if witness else None,
        )
        if witness and "new_element_meet_irreducible" in want:
            _check(
                checks,
                "cover.new_element_meet_irreducible",
                want["new_element_meet_irreducible"],
                verify_new_element_meet_irreducible(witness),
            )
        small_labeling = support_labeling(smaller)
        if "smaller_plain_ideal" in want:
            _check(
                checks,
                "cover.smaller_plain_ideal",
                want["smaller_plain_ideal"],
                _gens(ideal_from_labeling(smaller, small_labeling)),
            )
        if "smaller_deltas_equal_plain" in want:
            _check(
                checks,
                "cover.smaller_deltas_equal_plain",
                want["smaller_deltas_equal_plain"],
                weak_ideal(smaller, small_labeling).generators
                == ideal_from_labeling(smaller, small_labeling).generators,
            )
        if "smaller_lcm_isomorphic" in want:
            ll = lcm_lattice(ideal_from_labeling(smaller, small_labeling))
            _check(
                checks,
                "cover.smaller_lcm_isomorphic",
                want["smaller_lcm_isomorphic"],
                lattice_isomorphic(ll.abstract(), smaller) is not None,
            )
        if "smaller_strong" in want:
            _check(
                checks,
                "cover.smaller_strong",
                want["smaller_strong"],
                classify(smaller, small_labeling).is_strong,
            )
        if "cover_transfer_agrees" in want:
            report = check_cover_transfer(lat, lat, smaller)
            _check(checks, "cover.cover_transfer_agrees", want["cover_transfer_agrees"], report.agree)

    return FixtureResult(fixture_id=fixture_id, checks=tuple(checks))


def run_all() -> list[FixtureResult]:
    return [run(fid) for fid in FIXTURE_IDS]
