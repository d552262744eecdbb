import json
import os
import random
import re
import subprocess
import sys
import textwrap
import time
from collections import Counter
from enum import IntEnum
from itertools import permutations, product
from pathlib import Path

import pytest

import lcmlattice
from lcmlattice import (
    AtomicLattice,
    CapExceededError,
    Error,
    FormatError,
    Labeling,
    Monomial,
    NotAnElementError,
    PreconditionError,
    ValidationError,
    atom_generator,
    atoms_of,
    enumerate_all_lattices,
    enumerate_super_atomic,
    fixtures,
    lattice_isomorphic,
    lcm_lattice,
    mask_of,
    weak_generator,
)
from lcmlattice import lattice as lattice_module
from lcmlattice.classify import _unlabeled_meet_irreducible
from lcmlattice.errors import ECHO_LIMIT, shown
from lcmlattice.lattice import MAX_JOINING_ATOMS, _canon_key, _set_str, bits_of

from conftest import (
    ATOM_ROW_CORPORA,
    Raised,
    assert_matches_oracle,
    atom_masks,
    bit_loop_atom_rows,
    boolean_lattice,
    brute_force_isomorphic,
    cubic_covers,
    flat_lattice,
    interval_lattice,
    join_oracle,
    joining_sets_oracle,
    late_refusals,
    lattices_with,
    loop_atoms_of,
    meet_irreducibles_oracle,
    order_lattices,
    outcome,
    pair_scan_validation,
    random_lattice,
    random_lattices,
    small_subsets_family,
    validation_error,
    validation_families,
    wide_lattices,
    worked_example,
)

BOOLEAN3 = AtomicLattice.from_sets(3, [[], [1], [2], [3], [1, 2], [1, 3], [2, 3], [1, 2, 3]])
DIAMOND3 = AtomicLattice.from_sets(3, [[], [1], [2], [3], [1, 2, 3]])


def test_mask_atom_roundtrip():
    assert mask_of([1, 3, 4]) == 0b1101
    assert atoms_of(0b1101) == (1, 3, 4)
    assert mask_of([]) == 0
    assert list(bits_of(0b1101)) == [1, 4, 8]
    with pytest.raises(FormatError):
        mask_of([0])
    with pytest.raises(FormatError):
        mask_of([3], n=2)


def test_atoms_of_matches_the_loop():
    """The byte tables give the loop's atoms for every mask below 2^16 and
    for seeded masks of up to 200 bits, and a negative int is still refused
    first."""
    assert_matches_oracle(atoms_of, loop_atoms_of, [(mask,) for mask in atom_masks(36)], {"NotAnElementError": 3})


@pytest.mark.parametrize("corpus", ATOM_ROW_CORPORA)
def test_atom_rows_match_the_bit_loop(corpus):
    """The byte transposition builds the bit loop's incidence table, on
    every byte boundary of the atoms and past Python's 4,300-digit limit
    (B14 has 16,384-bit rows)."""
    cases = [(lat,) for lat in ATOM_ROW_CORPORA[corpus]()]
    assert_matches_oracle(lambda lat: lat._atom_rows(), bit_loop_atom_rows, cases)


class TestValidation:
    def test_collects_all_violations(self):
        with pytest.raises(ValidationError) as exc:
            AtomicLattice.from_sets(3, [[], [1], [2], [1, 2], [1, 3], [2, 3]])
        err = exc.value
        assert (3,) in err.missing_required  # singleton {3}
        assert (1, 2, 3) in err.missing_required  # full set
        assert ((1, 3), (2, 3)) in err.non_closed_pairs  # missing {3}

    def test_rejects_bad_atom_count(self):
        with pytest.raises(ValidationError):
            AtomicLattice(0, [0])
        with pytest.raises(CapExceededError):
            AtomicLattice(65, [])

    def test_rejects_out_of_range_mask(self):
        with pytest.raises(ValidationError):
            AtomicLattice(2, [0, 1, 2, 3, 8])

    def test_single_atom(self):
        lat = AtomicLattice.from_sets(1, [[], [1]])
        assert lat.bottom == 0 and lat.top == 1 and len(lat) == 2

    def test_canonical_order_and_dedup(self):
        lat = AtomicLattice(2, [3, 0, 1, 2, 3, 0])
        assert lat.sets == (0, 1, 2, 3)


def _raise(error: Error):
    raise error


def test_closure_decision_matches_the_pair_scan():
    """The closure walk accepts exactly the families the pair scan accepts,
    with the same sets, and refuses the others with the same
    ``missing_required``.  The pairs it lists are pair-scan violations, in
    the scan's order, and its text is built from them in the scan's format.
    It lists none only where the scan lists none, or the empty set is
    missing and every pair the scan lists is disjoint."""
    kinds = Counter()
    for i, (n, masks) in enumerate(validation_families(random.Random(20), 2500)):
        got = outcome(lambda: AtomicLattice(n, masks).sets)
        expected = outcome(pair_scan_validation, n, masks)
        if not isinstance(expected, Raised):
            assert got == expected, f"case {i}"
            kinds["valid"] += 1
            continue
        scan = [(mask_of(a), mask_of(b)) for a, b in expected.payload["non_closed_pairs"]]
        listed = [(mask_of(a), mask_of(b)) for a, b in got.payload["non_closed_pairs"]]
        missing = [mask_of(s) for s in expected.payload["missing_required"]]
        assert got == outcome(_raise, validation_error(missing, listed)), f"case {i}"
        assert set(listed) <= set(scan), f"case {i}"
        positions = [scan.index(pair) for pair in listed]
        assert positions == sorted(set(positions)), f"case {i}"
        disjoint = 0 not in masks and all(a & b == 0 for a, b in scan)
        assert listed or not scan or disjoint, f"case {i}"
        kinds["missing" if missing else "only non-closed"] += 1
        kinds["fewer pairs" if len(listed) < len(scan) else "every pair"] += 1
    assert min(kinds[kind] for kind in ("valid", "missing", "only non-closed", "fewer pairs", "every pair")) >= 250


def test_validating_and_covering_b12_fits_the_budget():
    """Validation takes O(m·n) ANDs, not C(m, 2) pair tests: B12 (4,096
    sets) is validated and its covers taken in under 0.3 s."""
    masks = list(range(1 << 12))
    start = time.perf_counter()
    lat = AtomicLattice(12, masks)
    covers = lat.covers()
    elapsed = time.perf_counter() - start
    assert len(covers) == 12 * 2**11
    assert elapsed < 0.3, f"{elapsed:.3f} s"


@pytest.mark.parametrize("n, budget", [(12, 0.3), (13, 0.5)])
def test_refusing_a_boolean_family_without_a_singleton_fits_the_budget(n, budget):
    """A refused family costs the closure walk and |s| ANDs per failing
    (r, a), not C(m, 2) pair tests: the Boolean family without {1} fails at
    r = {} and a = 1 alone, and is refused in time, with one pair."""
    masks = [m for m in range(1 << n) if m != 1]
    start = time.perf_counter()
    with pytest.raises(ValidationError) as exc:
        AtomicLattice(n, masks)
    elapsed = time.perf_counter() - start
    assert exc.value.missing_required == ((1,),)
    assert exc.value.non_closed_pairs == (((1, 2), (1, 3)),)
    assert elapsed < budget, f"{elapsed:.3f} s"


def test_valid_families_are_decided_without_the_closure_walk(monkeypatch):
    """B10, the flat lattice on 12 atoms, the ``wide-generators`` shapes and
    every super-atomic lattice on 5 atoms, validated again, are accepted by
    the top-down closure alone: no closure walk, no incidence table, and
    the meet-irreducibles it hands over are the definition's."""
    sources = [boolean_lattice(10), flat_lattice(12), *wide_lattices(), *enumerate_super_atomic(5)]

    def refuse(self):
        raise AssertionError("the closure walk ran on a valid family")

    monkeypatch.setattr(AtomicLattice, "_closure_walk", refuse)
    lats = [AtomicLattice(lat.n, lat.sets) for lat in sources]
    assert [lat.sets for lat in lats] == [lat.sets for lat in sources]
    assert all(lat._rows is None for lat in lats)
    assert_matches_oracle(AtomicLattice.meet_irreducibles, meet_irreducibles_oracle, [(lat,) for lat in lats])


def test_a_family_with_many_meet_irreducibles_is_left_to_the_walk(monkeypatch):
    """All subsets of at most 4 of 10 atoms and the full set (387 members,
    211 meet-irreducibles with the top) cost the top-down closure more than
    its budget, twice the walk's m·n ANDs: the walk then decides, once, and
    finds the meet-irreducibles."""
    walk = AtomicLattice._closure_walk
    walked = []

    def counted(self):
        walked.append(len(self))
        return walk(self)

    monkeypatch.setattr(AtomicLattice, "_closure_walk", counted)
    lat = AtomicLattice(10, small_subsets_family(10, 4))
    assert walked == [387]
    assert lat.meet_irreducibles() == meet_irreducibles_oracle(lat)
    assert len(lat.meet_irreducibles()) == 211 and walked == [387]


def test_a_late_missing_intersection_is_refused_as_the_pair_scan_does(monkeypatch):
    """Families whose one missing intersection the meet-closure meets only
    after reading at least three members are refused with the pair scan's
    text and payload, and the same lattices whole are accepted."""
    meet_closure = lattice_module._meet_closure
    read = []

    def counted(members, *limits):
        def reading():
            for c in members:
                read.append(c)
                yield c

        return meet_closure(reading(), *limits)

    monkeypatch.setattr(lattice_module, "_meet_closure", counted)
    read_before_refusal = []

    def validated(n, masks):
        read.clear()
        try:
            return AtomicLattice(n, masks).sets
        except ValidationError:
            read_before_refusal.append(len(read))
            raise

    cases = list(late_refusals(31, 40))
    assert_matches_oracle(validated, pair_scan_validation, cases, reach={"ValidationError": 40})
    assert len(read_before_refusal) == 40 and min(read_before_refusal) >= 3


def test_validating_the_b16_an_lcm_lattice_prints_fits_the_budget():
    """The Boolean lattice on 16 atoms (65,536 sets), as the lcm-lattice of
    x1..x16 writes it, loads and validates from JSON in under 2 s."""
    text = lcm_lattice([f"x{i}" for i in range(1, 17)]).abstract().to_json()
    start = time.perf_counter()
    lat = AtomicLattice.from_json(text)
    elapsed = time.perf_counter() - start
    assert len(lat) == 1 << 16 and lat.meet_irreducibles() == tuple(sorted(lat.top ^ a for a in lat.atoms)) + (lat.top,)
    assert elapsed < 2, f"{elapsed:.3f} s"


def test_order_and_operations():
    lat = BOOLEAN3
    a, b, ab = 0b001, 0b010, 0b011
    assert lat.meet(ab, 0b110) == b
    assert lat.join(a, b) == ab
    assert lat.join_mask(a | b | 0b100) == 0b111
    assert lat.join_mask(0) == 0
    with pytest.raises(NotAnElementError):
        DIAMOND3.meet(0b011, 0b111)  # {1,2} not an element of the diamond
    with pytest.raises(NotAnElementError):
        DIAMOND3.join_mask(0b11000)
    with pytest.raises(NotAnElementError):
        DIAMOND3.upper_covers(0b011)


def test_negative_masks_are_refused_at_once():
    """A negative int has infinitely many set bits, so rendering or walking it
    must raise instead of looping.  The calls run in a child process, so a
    hang fails the test at the timeout instead of stalling the suite."""
    code = textwrap.dedent(
        """
        from lcmlattice import AtomicLattice, Labeling, Monomial, NotAnElementError
        lat = AtomicLattice(2, [0, 1, 2, 3])
        calls = [
            lambda: lat.meet(-1, 0),
            lambda: lat.join_mask(-1),
            lambda: lat.filter(-2),
            lambda: Labeling(lat, {-1: Monomial.parse("x")}),
        ]
        for call in calls:
            try:
                call()
            except NotAnElementError:
                print("refused")
        """
    )
    env = dict(os.environ, PYTHONPATH=str(Path(lcmlattice.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=30)
    assert done.stdout.split() == ["refused"] * 4, done.stderr
    with pytest.raises(NotAnElementError):
        atoms_of(-1)


NON_INT_ELEMENT_CALLS = {
    "meet(1.0, 2)": lambda lat: lat.meet(1.0, 2),
    "filter(3.0)": lambda lat: lat.filter(3.0),
    "upper_covers(1.0)": lambda lat: lat.upper_covers(1.0),
    "upper_covers(True)": lambda lat: lat.upper_covers(True),
    "join_mask(1.5)": lambda lat: lat.join_mask(1.5),
    "join_mask(3.0)": lambda lat: lat.join_mask(3.0),
    "join_mask(True)": lambda lat: lat.join_mask(True),
    "Labeling({1.0: a})": lambda lat: Labeling(lat, {1.0: Monomial.parse("a")}),
    "Labeling({True: a})": lambda lat: Labeling(lat, {True: Monomial.parse("a")}),
    "label(2.0)": lambda lat: Labeling(lat).label(2.0),
    "atom_generator(1.0)": lambda lat: atom_generator(lat, Labeling(lat), 1.0),
    "weak_generator(2.0)": lambda lat: weak_generator(lat, Labeling(lat), 2.0),
}


@pytest.mark.parametrize("call", NON_INT_ELEMENT_CALLS)
def test_non_int_elements_are_refused(call):
    """A float or bool equal to a member mask is still not an element: it
    raises the package error, not a bare ``TypeError`` further in, and it
    does so whether or not the int it equals has been joined before."""
    fresh = AtomicLattice(2, [0, 1, 2, 3])
    warmed = AtomicLattice(2, [0, 1, 2, 3])
    for m in warmed.sets:
        warmed.join_mask(m)
    for lat in (fresh, warmed):
        with pytest.raises(NotAnElementError):
            NON_INT_ELEMENT_CALLS[call](lat)


def test_shown_renders_repr_up_to_the_limit():
    for value in (None, 3, -7, 1.5, "set", [1, [2, 3]], {"n": 2}, "x" * (ECHO_LIMIT - 2)):
        assert shown(value) == repr(value)
    long = shown("x" * 5000)
    assert len(long) == ECHO_LIMIT and long == repr("x" * 5000)[: ECHO_LIMIT - 3] + "..."
    assert shown(10**5000) == "<int too large to show>"
    assert shown([10**5000]) == "<list too large to show>"
    assert shown(0b101, _set_str) == "{1,3}"


ECHOING_CALLS = {
    "4,001-digit n in a file": lambda: AtomicLattice.from_json_dict({"n": 10**4000, "sets": []}),
    "long string n in a file": lambda: AtomicLattice.from_json_dict({"n": "n" * 5000, "sets": []}),
    "5,001-digit atom count": lambda: AtomicLattice(-(10**5000), []),
    "long string atom index": lambda: mask_of(["a" * 5000]),
    "5,001-digit index range": lambda: mask_of([3], n=-(10**5000)),
    "huge element": lambda: BOOLEAN3.meet(10**5000, 0),
    "negative huge mask": lambda: list(bits_of(-(10**5000))),
    "mask past the universe": lambda: BOOLEAN3.join_mask(1 << 5000),
    "long permutation": lambda: BOOLEAN3.relabel(range(5000)),
    "5,001-digit enumeration size": lambda: enumerate_super_atomic(10**5000),
    "long labeled value": lambda: Labeling(BOOLEAN3, {"x" * 5000: Monomial.parse("a")}),
}


@pytest.mark.parametrize("call", ECHOING_CALLS)
def test_error_messages_echo_a_bounded_value(call):
    """A caller's value in an error message is cut to ``ECHO_LIMIT``
    characters, so the message stays short and is always built."""
    with pytest.raises(Error) as excinfo:
        ECHOING_CALLS[call]()
    assert len(str(excinfo.value)) <= ECHO_LIMIT + 80


# Each kind of value that is no mask over 2 atoms, with the text refusing it.
BAD_MASKS = {
    "bool": (True, "element True is not a bitmask over 2 atoms"),
    "float": (1.0, "element 1.0 is not a bitmask over 2 atoms"),
    "negative": (-1, "element -1 is not a bitmask over 2 atoms"),
    "over-top": (4, "element 4 is not a bitmask over 2 atoms"),
    "None": (None, "element None is not a bitmask over 2 atoms"),
    "unhashable": ([1], "element [1] is not a bitmask over 2 atoms"),
}


@pytest.mark.parametrize("where", [0, 2, 4])
@pytest.mark.parametrize("kind", BAD_MASKS)
def test_a_value_that_is_no_mask_is_refused_by_name(kind, where):
    """A bad mask first, among or after the members, in a list or a one-shot
    iterator, is refused with the text naming it.  ``True`` and ``1.0``
    equal a member, so the set of the masks does not show them."""
    bad, text = BAD_MASKS[kind]
    masks = [0, 1, 2, 3]
    masks.insert(where, bad)
    for given in (masks, iter(masks)):
        with pytest.raises(ValidationError, match=f"^{re.escape(text)}$"):
            AtomicLattice(2, given)


def test_the_first_of_several_bad_masks_is_named():
    """Among several offenders, each order names its first."""
    for order in permutations(BAD_MASKS.values()):
        masks = [0, 1, *(bad for bad, _ in order), 2, 3]
        with pytest.raises(ValidationError, match=f"^{re.escape(order[0][1])}$"):
            AtomicLattice(2, masks)


def test_int_subclass_masks_and_one_shot_iterators_are_accepted():
    """An ``IntEnum`` mask is an int and no bool, so it is a member as it
    is; a generator of masks is read once."""

    class Mask(IntEnum):
        BOTTOM = 0
        FIRST = 1
        TOP = 3

    lat = AtomicLattice(2, [Mask.TOP, Mask.FIRST, 2, Mask.BOTTOM])
    assert lat.sets == (0, 1, 2, 3) and lat.sets[1] is Mask.FIRST
    assert AtomicLattice(2, (m for m in (3, 2, 1, 0, 3))).sets == (0, 1, 2, 3)


def test_non_int_values_are_not_members():
    lat = AtomicLattice(2, [0, 1, 2, 3])
    for m in lat.sets:
        lat.join_mask(m)
    assert all(m in lat for m in lat.sets)
    assert 1.0 not in lat and 3.0 not in lat and True not in lat and False not in lat


def test_join_is_least_upper_bound(rng):
    """Every mask joins to the first element above it.  A join miss reads
    the incidence table, which no lattice builds at construction: validated
    and trusted ones (relabelings, enumerations, lcm-lattices) alike build
    it on their first miss."""
    validated = [random_lattice(rng, rng.randint(2, 5)) for _ in range(30)]
    validated += [random_lattice(rng, 7) for _ in range(5)] + [flat_lattice(6), interval_lattice(6)]
    trusted = [lat.relabel(rng.sample(range(1, lat.n + 1), lat.n)) for lat in validated[:20]]
    trusted += rng.sample(enumerate_super_atomic(5), 20)
    trusted.append(lcm_lattice(["a*b", "b*c", "c*d", "a*d", "a*c^2"]).abstract())
    assert all(lat._rows is None for lat in validated + trusted)
    for lat in validated + trusted:
        for _ in range(20):
            p, q = rng.choice(lat.sets), rng.choice(lat.sets)
            j = lat.join(p, q)
            assert (p | q) & ~j == 0
            uppers = [r for r in lat.sets if (p | q) & ~r == 0]
            assert all(j & ~r == 0 for r in uppers)
            assert lat.meet(p, q) in lat
        masks = range(1 << lat.n) if lat.n <= 6 else [rng.randint(0, lat.top) for _ in range(200)]
        assert_matches_oracle(lat.join_mask, lambda mask: join_oracle(lat, mask), [(mask,) for mask in masks])


def _fresh_trusted_lattices() -> dict[str, AtomicLattice]:
    """A new lattice from each caller of ``AtomicLattice._trusted``, nothing
    read from it yet."""
    return {
        "relabel": random_lattice(random.Random(7), 5).relabel([3, 5, 1, 2, 4]),
        "LcmLattice.abstract": lcm_lattice(["a*b", "b*c", "c*d", "a*d", "a*c^2"]).abstract(),
        "enumerate_super_atomic": enumerate_super_atomic(5)[123],
        "enumerate_all_lattices": enumerate_all_lattices(4)[300],
    }


def _error_texts(lat: AtomicLattice) -> list[str]:
    """The text of the NotAnElementError each refused query raises."""
    queries = [(lat.filter, m) for m in range(1 << lat.n) if m not in lat.sets]
    queries += [(lat.upper_covers, -1), (lat.filter, 1.0), (lat.join_mask, 1 << lat.n), (lat.join_mask, "x")]
    texts = []
    for query, arg in queries:
        with pytest.raises(NotAnElementError) as excinfo:
            query(arg)
        texts.append(str(excinfo.value))
    return texts


INDEX_READERS = {
    "in": lambda lat: [m in lat for m in (*range(-1, 2 << lat.n), 1.0, True)],
    "join_mask": lambda lat: [lat.join_mask(m) for m in range(1 << lat.n)],
    "filter": lambda lat: [lat.filter(p) for p in lat.sets],
    "covers": lambda lat: lat.covers(),
    "NotAnElementError": _error_texts,
}


@pytest.mark.parametrize("reader", INDEX_READERS)
def test_trusted_lattices_build_their_index_on_first_use(reader):
    """A trusted lattice starts with no element index; whichever reader
    comes first builds it, and answers as the validated lattice does."""
    read = INDEX_READERS[reader]
    for caller, lat in _fresh_trusted_lattices().items():
        assert lat._index is None, caller
        assert read(lat) == read(AtomicLattice(lat.n, lat.sets)), caller
        assert lat._index == {m: i for i, m in enumerate(lat.sets)}, caller


def test_filters_partition():
    lat = DIAMOND3
    for p in lat.sets:
        assert lat.filter(p) == tuple(q for q in lat.sets if p & ~q == 0)


def test_covers_against_definition(rng):
    for lat in random_lattices(rng, 20, (2, 5)):
        expected = set()
        for q in lat.sets:
            for p in lat.sets:
                if p != q and p & ~q == 0:
                    if not any(r not in (p, q) and p & ~r == 0 and r & ~q == 0 for r in lat.sets):
                        expected.add((p, q))
        assert set(lat.covers()) == expected


def test_covers_match_cubic_scan(rng):
    """Same pairs in the same canonical order as the literal cubic scan."""
    lattices = [random_lattice(rng, rng.randint(1, 6)) for _ in range(200)]
    lattices += [boolean_lattice(n) for n in range(1, 7)]
    assert_matches_oracle(AtomicLattice.covers, cubic_covers, [(lat,) for lat in lattices])


def test_meet_irreducibles():
    # in Boolean(3): the three coatoms, plus the top by convention
    assert set(BOOLEAN3.meet_irreducibles()) == {0b011, 0b101, 0b110, 0b111}
    # in the diamond everything except the bottom is meet-irreducible
    assert set(DIAMOND3.meet_irreducibles()) == {1, 2, 4, 7}
    # on one atom the bottom is one too
    assert boolean_lattice(1).meet_irreducibles() == meet_irreducibles_oracle(boolean_lattice(1)) == (0, 1)
    assert flat_lattice(2).meet_irreducibles() == meet_irreducibles_oracle(flat_lattice(2)) == (1, 2, 3)


def test_every_element_is_meet_of_irreducibles_above(rng):
    """Classic finite-lattice fact; exercises covers and meet together."""
    for lat in random_lattices(rng, 20, (2, 5)):
        mi = set(lat.meet_irreducibles())
        for p in lat.sets:
            above = [q for q in lat.filter(p) if q in mi]
            acc = lat.top
            for q in above:
                acc &= q
            assert acc == p


def test_meet_irreducibles_match_the_definition():
    """Exactly the elements the literal definition keeps, in canonical order:
    a superset would still pass the meet-of-irreducibles test above.  Every
    way a lattice gets its tuple is among the cases, ``enumerate_all_lattices``
    too, and so are the shapes the ``wide-generators`` benchmark walks."""
    cases = [(lat,) for lat in order_lattices() + enumerate_all_lattices(4) + wide_lattices()]
    assert_matches_oracle(AtomicLattice.meet_irreducibles, meet_irreducibles_oracle, cases)


def test_only_a_walk_that_proves_closure_records_the_meet_irreducibles():
    """The closure walk returns the meet-irreducibles with no failing pair,
    and ``None`` in their place once a pair fails."""
    closed = AtomicLattice._trusted(3, BOOLEAN3.sets)
    assert closed._closure_walk() == ([], meet_irreducibles_oracle(BOOLEAN3))
    unclosed = AtomicLattice._trusted(4, tuple(sorted([0, 1, 2, 4, 8, 0b0111, 0b1110, 0b1111], key=_canon_key)))
    pairs, mi = unclosed._closure_walk()
    assert pairs != [] and mi is None


def test_a_validated_lattice_reads_its_meet_irreducibles_with_no_join(monkeypatch):
    """Once built, a validated lattice takes no join, no incidence-table read
    and no membership test for its meet-irreducibles, and neither does the
    unlabeled meet-irreducible check of both condition checks.  Nor does a
    lattice handed its tuple by its constructor (an lcm-lattice's abstract
    lattice, a relabeling of a validated lattice), or an enumerated lattice
    after its first call, which kept what its walk found."""
    labeling = worked_example("fig3")
    lat = labeling.lattice
    expected = meet_irreducibles_oracle(lat), _unlabeled_meet_irreducible(lat, labeling)
    handed = [lcm_lattice(fixtures.load("fig1")["ideal"]).abstract(), lat.relabel([2, 3, 1, 5, 4])]
    enumerated = enumerate_super_atomic(5)[123]
    kept = enumerated.meet_irreducibles()
    others = [(other, meet_irreducibles_oracle(other)) for other in handed] + [(enumerated, kept)]

    def refuse(*args):
        raise AssertionError("no join, table read or membership test expected")

    for name in ("join_mask", "_above", "_element_index", "_atom_rows"):
        monkeypatch.setattr(AtomicLattice, name, refuse)
    assert (lat.meet_irreducibles(), _unlabeled_meet_irreducible(lat, labeling)) == expected
    assert [other.meet_irreducibles() for other, _ in others] == [want for _, want in others]


def test_fill_sets_every_slot():
    """A trusted lattice is made by ``_fill`` alone, so it sets every slot
    and no query reads an unset one."""
    lat = AtomicLattice._trusted(3, BOOLEAN3.sets)
    assert [name for name in AtomicLattice.__slots__ if not hasattr(lat, name)] == []


def _upper_covers_by_the_cubic_scan(lat: AtomicLattice) -> list[tuple[int, ...]]:
    pairs = cubic_covers(lat)
    return [tuple(hi for lo, hi in pairs if lo == p) for p in lat.sets]


def test_upper_covers_match_the_cubic_scan():
    """Each element's upper covers are the upper elements of its pairs in
    the literal cover scan, in canonical order."""
    assert_matches_oracle(
        lambda lat: [lat.upper_covers(p) for p in lat.sets],
        _upper_covers_by_the_cubic_scan,
        [(lat,) for lat in order_lattices()],
    )


def test_upper_covers_of_the_b14_atoms_fit_the_budget():
    """``upper_covers(p)`` takes p's own n - |p| joins, not the whole cover
    relation: the 14 atoms of a trusted B14 (16,384 elements) take under
    0.05 s, where building every cover takes several times that."""
    b14 = AtomicLattice._trusted(14, tuple(sorted(range(1 << 14), key=_canon_key)))
    start = time.perf_counter()
    uppers = [b14.upper_covers(a) for a in b14.atoms]
    elapsed = time.perf_counter() - start
    assert uppers == [tuple(sorted((a | b for b in b14.atoms if b != a), key=_canon_key)) for a in b14.atoms]
    assert elapsed < 0.05, f"{elapsed:.3f} s"


def test_joining_sets():
    lat = BOOLEAN3
    assert lat.joining_sets(0) == (0,)
    assert lat.joining_sets(0b001) == (0b001,)
    # in Boolean(3) each atom pair joins only to its doubleton, never the top
    assert set(lat.joining_sets(0b111)) == {0b111}
    # in the diamond there are no doubletons, so every pair joins to the top
    assert set(DIAMOND3.joining_sets(0b111)) == {0b111, 0b011, 0b101, 0b110}


def test_joining_sets_definition(rng):
    cases = [(lat, p) for lat in random_lattices(rng, 20, (2, 5)) for p in lat.sets]
    assert_matches_oracle(lambda lat, p: lat.joining_sets(p), joining_sets_oracle, cases)


def test_joining_sets_cap():
    at_cap = flat_lattice(MAX_JOINING_ATOMS)
    # every subset of two or more atoms joins to the top of a flat lattice
    assert len(at_cap.joining_sets(at_cap.top)) == 2**MAX_JOINING_ATOMS - 1 - MAX_JOINING_ATOMS
    over = flat_lattice(MAX_JOINING_ATOMS + 1)
    with pytest.raises(CapExceededError, match=f"{MAX_JOINING_ATOMS + 1} atoms .* maximum {MAX_JOINING_ATOMS}"):
        over.joining_sets(over.top)
    assert over.joining_sets(0b1) == (0b1,)  # small elements stay within the cap


def test_relabel():
    lat = AtomicLattice.from_sets(3, [[], [1], [2], [3], [1, 2], [1, 2, 3]])
    swapped = lat.relabel({1: 3, 2: 2, 3: 1})
    assert 0b110 in swapped and 0b011 not in swapped
    with pytest.raises(ValueError) as excinfo:
        lat.relabel({1: 1, 2: 2, 3: 2})
    assert isinstance(excinfo.value, Error)


CONTAINER_CALLS = {
    "AtomicLattice(3, 5)": (lambda lat: AtomicLattice(3, 5), "masks must be an iterable of ints, got 5"),
    "from_sets(3, 5)": (lambda lat: AtomicLattice.from_sets(3, 5), "sets must be an iterable of atom sets, got 5"),
    "from_sets(2, [5])": (
        lambda lat: AtomicLattice.from_sets(2, [5]),
        "an atom set must be an iterable of atom indices, got 5",
    ),
    "mask_of(5)": (lambda lat: mask_of(5), "an atom set must be an iterable of atom indices, got 5"),
    "Labeling.from_sets": (
        lambda lat: Labeling.from_sets(lat, [(5, "x")]),
        "an atom set must be an iterable of atom indices, got 5",
    ),
    "relabel(5)": (lambda lat: lat.relabel(5), "image must be a mapping or an iterable, got 5"),
}


@pytest.mark.parametrize("call", CONTAINER_CALLS)
def test_a_value_that_is_no_container_is_refused_by_name(call):
    """Where an iterable is expected, a value that is none is a package
    error that echoes it."""
    build, text = CONTAINER_CALLS[call]
    with pytest.raises(PreconditionError) as excinfo:
        build(AtomicLattice(2, [0, 1, 2, 3]))
    assert str(excinfo.value) == text


def test_the_lattice_readers_read_a_string_item_by_item():
    """A string is read as its characters, so its first one is refused as an
    element, an atom index or a permutation, with the text an item gets."""
    with pytest.raises(ValidationError, match=r"^element 'a' is not a bitmask over 3 atoms$"):
        AtomicLattice(3, "abc")
    with pytest.raises(FormatError, match=r"^atom indices must be integers >= 1, got 'a'$"):
        AtomicLattice.from_sets(3, "abc")
    with pytest.raises(PreconditionError, match=r"^not a permutation of 1..2: \{1: 'a', 2: 'b'\}$"):
        AtomicLattice(2, [0, 1, 2, 3]).relabel("ab")


@pytest.mark.parametrize("image", [{1: 2.0, 2: 1.0}, [2.0, 1.0], {1.0: 2, 2: 1}, {1: True, 2: 2}, {"1": 2, 2: 1}])
def test_relabel_rejects_non_int_indices(image):
    lat = AtomicLattice.from_sets(2, [[], [1], [2], [1, 2]])
    with pytest.raises(PreconditionError):
        lat.relabel(image)


def test_relabel_matches_the_validating_constructor(rng):
    """relabel builds its result without re-validation; it must equal the
    validated image family, with caches that start empty."""
    for lat in [*lattices_with(3), *(random_lattice(rng, rng.randint(2, 6)) for _ in range(60))]:
        lat.covers()
        perm = list(range(1, lat.n + 1))
        rng.shuffle(perm)
        image = [mask_of((perm[a - 1] for a in atoms_of(m)), lat.n) for m in lat.sets]
        got = lat.relabel(perm)
        assert got == AtomicLattice(lat.n, image)
        assert got.covers() == cubic_covers(got)


def test_relabel_does_not_revalidate(monkeypatch):
    lat = AtomicLattice.from_sets(4, [[], [1], [2], [3], [4], [1, 2], [2, 3], [1, 2, 3], [1, 2, 3, 4]])
    expected = AtomicLattice.from_sets(4, [[], [1], [2], [3], [4], [2, 3], [3, 4], [2, 3, 4], [1, 2, 3, 4]])

    def refuse(self, n, masks):
        raise AssertionError("relabel re-validated a permuted family")

    monkeypatch.setattr(AtomicLattice, "__init__", refuse)
    assert lat.relabel([2, 3, 4, 1]) == expected


def test_json_roundtrip():
    doc = BOOLEAN3.to_json_dict()
    assert doc == {"n": 3, "sets": [[], [1], [2], [3], [1, 2], [1, 3], [2, 3], [1, 2, 3]]}
    assert AtomicLattice.from_json_dict(doc) == BOOLEAN3
    assert AtomicLattice.from_json(BOOLEAN3.to_json()) == BOOLEAN3
    assert json.loads(BOOLEAN3.to_json()) == doc


@pytest.mark.parametrize(
    "doc",
    [
        "not json",
        '{"n": 3}',
        '{"sets": []}',
        '{"n": "3", "sets": []}',
        '{"n": 2, "sets": [0, 1]}',
        '{"n": 2, "sets": [[], [1], [2], [1, 2], [0]]}',
        pytest.param("[" * 100_000 + "]" * 100_000, id="deep-nesting"),
        pytest.param('{"n": ' + "9" * 5000 + ', "sets": []}', id="long-integer"),
    ],
)
def test_json_rejects_malformed(doc):
    with pytest.raises(FormatError):
        AtomicLattice.from_json(doc)


# -- isomorphism ----------------------------------------------------------


def test_isomorphism_known_pairs():
    # the three atomic lattices on 3 atoms with exactly one extra doubleton
    # are pairwise isomorphic relabelings of each other
    fam = [
        AtomicLattice.from_sets(3, [[], [1], [2], [3], [1, 2], [1, 2, 3]]),
        AtomicLattice.from_sets(3, [[], [1], [2], [3], [2, 3], [1, 2, 3]]),
    ]
    iso = lattice_isomorphic(fam[0], fam[1])
    assert iso is not None
    assert sorted(iso) == sorted(fam[0].sets)
    assert sorted(iso.values()) == sorted(fam[1].sets)
    assert all((p & ~q == 0) == (iso[p] & ~iso[q] == 0) for p in fam[0].sets for q in fam[0].sets)
    assert lattice_isomorphic(BOOLEAN3, DIAMOND3) is None


def test_isomorphism_matches_brute_force_n3():
    pairs = product(lattices_with(3), repeat=2)
    assert_matches_oracle(lambda p, q: lattice_isomorphic(p, q) is not None, brute_force_isomorphic, pairs)


def test_isomorphism_matches_brute_force_sampled_n4():
    rng = random.Random(7)
    fams = lattices_with(4)
    pairs = [(rng.choice(fams), rng.choice(fams)) for _ in range(120)]
    # bias towards same-size pairs, where the answer is not a free rejection
    by_size: dict[int, list] = {}
    for lat in fams:
        by_size.setdefault(len(lat), []).append(lat)
    for size, group in by_size.items():
        for _ in range(6):
            if len(group) >= 2:
                pairs.append((rng.choice(group), rng.choice(group)))
    assert_matches_oracle(lambda p, q: lattice_isomorphic(p, q) is not None, brute_force_isomorphic, pairs)


def test_isomorphic_to_own_relabeling(rng):
    for _ in range(25):
        n = rng.randint(2, 5)
        lat = random_lattice(rng, n)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        assert lattice_isomorphic(lat, lat.relabel(perm)) is not None


def test_isomorphism_matches_brute_force_on_super_atomic_lattices(rng):
    """Every super-atomic lattice on 2-5 atoms against a random relabeling of
    itself and against the next super-atomic lattice on as many atoms.  They
    all have C(n, 2) + n + 1 elements, so no count rejects a pair and every
    answer comes from the search over meet-irreducibles."""
    for n in range(2, 6):
        lats = enumerate_super_atomic(n)
        for k, lat in enumerate(lats):
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            others = [lat.relabel(perm)] + ([lats[(k + 1) % len(lats)]] if len(lats) > 1 else [])
            for other in others:
                iso = lattice_isomorphic(lat, other)
                assert (iso is not None) == brute_force_isomorphic(lat, other)
                if iso is not None:
                    assert sorted(iso) == sorted(lat.sets)
                    assert sorted(iso.values()) == sorted(other.sets)
                    assert all((p & ~q == 0) == (iso[p] & ~iso[q] == 0) for p in lat.sets for q in lat.sets)
