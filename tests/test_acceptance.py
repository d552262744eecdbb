"""Acceptance suite: one test per contract criterion.

Each test emits exactly one verdict line (``criterion NN ...: PASS``/``FAIL``)
in addition to pytest's own per-test line, and enforces the stated time
budget where one applies.  The random corpora are seeded, so a failure here
reproduces deterministically.
"""

import random
import time
from itertools import combinations
from math import comb

from lcmlattice import (
    AtomicLattice,
    Labeling,
    check_strong_conditions,
    check_strong_interval_criterion,
    check_weak_conditions,
    check_weak_interval_criterion,
    classify,
    cover_witness,
    enumerate_all_lattices,
    enumerate_super_atomic,
    ideal_from_labeling,
    is_strong_coordinatization,
    is_super_atomic,
    is_super_atomic_via_supp,
    is_weak_coordinatization,
    lattice_isomorphic,
    lcm_lattice,
    parse_ideal_text,
    support_labeling,
    verify_labeling_recovery,
    verify_new_element_meet_irreducible,
    weak_ideal,
)
from lcmlattice.fixtures import run as run_fixture

from conftest import (
    chain_condition_labeling,
    lattices_with,
    overlap_condition_labeling,
    random_labeling,
    random_lattice,
)


def _verdict(num: int, description: str, ok: bool, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {description}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num:02d} {description}{suffix}"


def test_criterion_01_lcm_lattice_of_three_generator_ideal():
    start = time.perf_counter()
    ll = lcm_lattice(parse_ideal_text("a^2*c*d\na*b*d\na*b*c\n"))
    elements = [str(m) for m in ll]
    covers = {(str(lo), str(hi)) for lo, hi in ll.covers_monomials()}
    elapsed = time.perf_counter() - start
    ok = (
        elements == ["1", "a^2*c*d", "a*b*d", "a*b*c", "a*b*c*d", "a^2*b*c*d"]
        and covers
        == {
            ("1", "a^2*c*d"),
            ("1", "a*b*d"),
            ("1", "a*b*c"),
            ("a*b*d", "a*b*c*d"),
            ("a*b*c", "a*b*c*d"),
            ("a^2*c*d", "a^2*b*c*d"),
            ("a*b*c*d", "a^2*b*c*d"),
        }
        and elapsed < 1.0
    )
    _verdict(1, "lcm-lattice elements and covers", ok, f"{elapsed:.3f}s")


def test_criterion_02_coordinatization_that_is_not_strong():
    lat = AtomicLattice.from_sets(3, [[], [1], [2], [3], [2, 3], [1, 2, 3]])
    lab = Labeling.from_sets(lat, [([1], "a*b^2"), ([2], "e"), ([3], "a*c")])
    gens = tuple(str(g) for g in ideal_from_labeling(lat, lab))
    c = classify(lat, lab)
    ok = (
        gens == ("a*c*e", "a^2*b^2*c", "a*b^2*e")
        and c.is_coordinatization
        and not c.is_strong
    )
    _verdict(2, "generated ideal; coordinatization without strength", ok)


def test_criterion_03_weak_coordinatization_that_is_not_plain():
    lat = AtomicLattice.from_sets(
        5, [[], [1], [2], [3], [4], [5], [1, 2], [2, 3], [4, 5], [1, 2, 3, 4, 5]]
    )
    lab = Labeling.from_sets(
        lat,
        [([1], "a"), ([2], "b"), ([3], "c"), ([4], "d"), ([5], "e"),
         ([1, 2], "a*b"), ([2, 3], "b*c"), ([4, 5], "d*e")],
    )
    plain = tuple(str(g) for g in ideal_from_labeling(lat, lab))
    refined = tuple(str(g) for g in weak_ideal(lat, lab))
    c = classify(lat, lab)
    refined_iso = lattice_isomorphic(lcm_lattice(weak_ideal(lat, lab)).abstract(), lat)
    plain_iso = lattice_isomorphic(lcm_lattice(ideal_from_labeling(lat, lab)).abstract(), lat)
    ok = (
        plain
        == ("b^2*c^2*d^2*e^2", "a*c*d^2*e^2", "a^2*b^2*d^2*e^2", "a^2*b^3*c^2*e", "a^2*b^3*c^2*d")
        and refined
        == ("b^2*c^2*d^2*e^2", "a*c*d^2*e^2", "a^2*b^2*d^2*e^2", "a^2*b^2*c^2*e", "a^2*b^2*c^2*d")
        and refined_iso is not None
        and c.is_weak
        and plain_iso is None
        and not c.is_coordinatization
    )
    _verdict(3, "refined ideal coordinatizes where the plain one does not", ok)


def test_criterion_04_overlap_conditions_without_chain_conditions():
    lat = AtomicLattice.from_sets(3, [[], [1], [2], [3], [1, 2], [1, 3], [2, 3], [1, 2, 3]])
    lab = Labeling.from_sets(
        lat,
        [([1], "a"), ([2], "e"), ([3], "m"), ([1, 2], "a*c"), ([1, 3], "c*m"), ([2, 3], "e")],
    )
    refined = tuple(str(g) for g in weak_ideal(lat, lab))
    c = classify(lat, lab)
    ok = (
        refined == ("e^2*m", "a*c*m^2", "a^2*c*e")
        and c.satisfies_C1C2
        and not c.satisfies_A1A2
        and c.is_weak
    )
    _verdict(4, "overlap conditions hold, chain conditions fail, still weak", ok)


def test_criterion_05_enumeration_on_three_atoms_exact():
    got = [lat.to_json_dict()["sets"] for lat in enumerate_super_atomic(3)]
    base = [[], [1], [2], [3]]
    ok = got == [
        base + [[1, 2], [1, 3], [1, 2, 3]],
        base + [[1, 2], [2, 3], [1, 2, 3]],
        base + [[1, 3], [2, 3], [1, 2, 3]],
    ]
    _verdict(5, "exactly the three super-atomic families on 3 atoms", ok)


def test_criterion_06_enumeration_outputs_validate_up_to_six_atoms():
    start = time.perf_counter()
    ok = True
    counts = []
    for n in range(2, 7):
        lats = enumerate_super_atomic(n)
        counts.append(len(lats))
        size = comb(n, 2) + n + 1
        for lat in lats:
            if len(lat) != size or not is_super_atomic(lat) or not is_super_atomic_via_supp(lat):
                ok = False
                break
        if not ok:
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0 and counts == [1, 3, 24, 480, 23040]
    _verdict(6, "every enumerated lattice has the pinned size and passes both detectors", ok, f"{elapsed:.1f}s")


def test_criterion_07_enumeration_complete_versus_brute_force():
    start = time.perf_counter()
    ok = True
    for n in (2, 3, 4):
        expected = {frozenset(lat.sets) for lat in lattices_with(n) if is_super_atomic(lat)}
        got = {frozenset(lat.sets) for lat in enumerate_super_atomic(n)}
        if got != expected:
            ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    _verdict(7, "enumeration matches the brute-force filter exactly", ok, f"{elapsed:.1f}s")


def test_criterion_08_detectors_agree_on_every_lattice_up_to_four_atoms():
    disagreements = 0
    total = 0
    for n in (1, 2, 3, 4):
        for lat in lattices_with(n):
            total += 1
            if is_super_atomic(lat) != is_super_atomic_via_supp(lat):
                disagreements += 1
    _verdict(8, "both detectors agree on every atomic lattice", disagreements == 0, f"{total} lattices")


def test_criterion_09_labeling_recovery_roundtrip():
    rng = random.Random(901)
    start = time.perf_counter()
    failures = 0
    trials = 1000
    for _ in range(trials):
        lat = random_lattice(rng, rng.randint(2, 4))
        lab = chain_condition_labeling(rng, lat)
        if not verify_labeling_recovery(lat, lab):
            failures += 1
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 60.0
    _verdict(9, "recovered labeling reproduces every chain-condition labeling", ok, f"{trials} trials, {elapsed:.1f}s")


def test_criterion_10_strong_iff_weak_with_equal_generators():
    rng = random.Random(1001)
    violations = 0
    non_chain_cases = 0
    for _ in range(300):
        lat = random_lattice(rng, rng.randint(2, 4))
        kind = rng.random()
        if kind < 0.3:
            lab = chain_condition_labeling(rng, lat)
        elif kind < 0.6:
            lab = overlap_condition_labeling(rng, lat)
        else:
            lab = random_labeling(rng, lat)
        if not check_strong_conditions(lat, lab)[0]:
            non_chain_cases += 1
        c = classify(lat, lab)
        if c.is_weak:
            same = tuple(ideal_from_labeling(lat, lab)) == tuple(weak_ideal(lat, lab))
            if c.is_strong != same:
                violations += 1
        elif c.is_strong:
            violations += 1
    ok = violations == 0 and non_chain_cases >= 50
    _verdict(10, "strong equals weak plus identical generators", ok, f"{non_chain_cases} non-chain cases")


def test_criterion_11_overlap_conditions_imply_weak():
    rng = random.Random(1101)
    passing = 0
    violations = 0
    while passing < 1000:
        lat = random_lattice(rng, rng.randint(2, 4))
        lab = (
            overlap_condition_labeling(rng, lat)
            if rng.random() < 0.8
            else random_labeling(rng, lat)
        )
        if not check_weak_conditions(lat, lab)[0]:
            continue
        passing += 1
        if not is_weak_coordinatization(lat, lab):
            violations += 1
    _verdict(11, "overlap conditions imply a weak coordinatization", violations == 0, f"{passing} passing trials")


def test_criterion_12_new_cover_element_is_meet_irreducible():
    lats3 = lattices_with(3)
    checked = 0
    ok = True
    for p, q in combinations(lats3, 2):
        for hi, lo in ((p, q), (q, p)):
            w = cover_witness(hi, lo)
            if w is not None:
                checked += 1
                if not verify_new_element_meet_irreducible(w):
                    ok = False
    rng = random.Random(1201)
    random_covers = 0
    while random_covers < 1000:
        lat = random_lattice(rng, 4)
        drops = [m for m in lat.sets if m.bit_count() >= 2 and m != lat.top]
        rng.shuffle(drops)
        for m in drops:
            try:
                smaller = AtomicLattice(4, [s for s in lat.sets if s != m])
            except Exception:
                continue
            w = cover_witness(lat, smaller)
            random_covers += 1
            if w is None or not verify_new_element_meet_irreducible(w):
                ok = False
            break
    _verdict(12, "the added element of a cover is meet-irreducible", ok, f"{checked} exhaustive + {random_covers} random covers")


def test_criterion_13_strong_criterion_matches_strong_coordinatization():
    """Every super-atomic lattice with n <= 5, where both sides are always
    true, and a seeded 1,000 of the 23,040 with n = 6, the smallest n where
    the criterion can fail, so both directions are compared."""
    start = time.perf_counter()
    lats = [lat for n in (2, 3, 4, 5) for lat in enumerate_super_atomic(n)]
    lats += random.Random(13).sample(enumerate_super_atomic(6), 1000)
    mismatches = 0
    not_strong = 0
    for lat in lats:
        criterion = check_strong_interval_criterion(lat)[0]
        actual = is_strong_coordinatization(lat, support_labeling(lat))
        mismatches += criterion != actual
        not_strong += not actual
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and not_strong >= 1 and elapsed < 300.0
    detail = f"{len(lats)} lattices, {not_strong} not strong, {elapsed:.1f}s"
    _verdict(13, "interval criterion equals strength of the support labeling", ok, detail)


def test_criterion_14_worked_super_atomic_example_regression():
    result = run_fixture("example-5-2")
    failed = [c for c in result.checks if not c.passed]
    _verdict(
        14,
        "super-atomic worked example reproduces bit-exactly",
        not failed,
        "; ".join(f"{c.name}: expected {c.expected}, got {c.actual}" for c in failed),
    )


def test_criterion_15_weak_criterion_example_regression():
    result = run_fixture("fig9")
    failed = [c for c in result.checks if not c.passed]
    _verdict(
        15,
        "weak-criterion worked example reproduces bit-exactly",
        not failed,
        "; ".join(f"{c.name}: expected {c.expected}, got {c.actual}" for c in failed),
    )


def test_criterion_16_weak_criterion_implies_weak_exhaustively():
    """Single-atom lattices are excluded: their support labeling generates
    the unit ideal, which has no lcm-lattice to compare against."""
    violations = 0
    holding = 0
    for n in (2, 3, 4):
        for lat in lattices_with(n):
            if not check_weak_interval_criterion(lat).hypothesis_holds:
                continue
            holding += 1
            if not is_weak_coordinatization(lat, support_labeling(lat)):
                violations += 1
    _verdict(16, "interval hypothesis implies weakness of the support labeling", violations == 0, f"{holding} lattices in scope")
