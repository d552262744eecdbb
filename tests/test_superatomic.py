import re
from collections import Counter
from math import factorial

import pytest

from lcmlattice import (
    AtomicLattice,
    CapExceededError,
    CoverWitness,
    PreconditionError,
    ValidationError,
    check_superatomic_structure,
    cover_witness,
    enumerate_all_lattices,
    enumerate_super_atomic,
    is_super_atomic,
    is_super_atomic_via_supp,
    iter_super_atomic_families,
    lattice_isomorphic,
    super_atomic_size,
    verify_new_element_meet_irreducible,
)
from lcmlattice import superatomic
from lcmlattice.lattice import _canon_key
from lcmlattice.superatomic import _atom_pairs

from conftest import (
    DETECTOR_CORPORA,
    JOINING_PAIR_CORPORA,
    SUPP_SCAN_CORPORA,
    assert_matches_oracle,
    flat_lattice,
    interval_lattice,
    intervals64_and_near_miss,
    joining_pairs_oracle,
    lattices_with,
    literal_super_atomic_oracle,
    random_lattices,
    small_lattices,
    supp_characterization_oracle,
    supp_scan_oracle,
)

BOOLEAN3 = AtomicLattice.from_sets(3, [[], [1], [2], [3], [1, 2], [1, 3], [2, 3], [1, 2, 3]])

STAIRCASE4 = AtomicLattice.from_sets(
    4,
    [[], [1], [2], [3], [4], [1, 2], [2, 3], [2, 4], [1, 2, 3], [2, 3, 4], [1, 2, 3, 4]],
)


def expected_count(n: int) -> int:
    """Closed form for the number of super-atomic lattices on n atoms,
    derived once from the levelwise choice structure and frozen here."""
    return factorial(n) // 2 * 2 ** ((n - 2) * (n - 3) // 2)


# -- detectors -----------------------------------------------------------------


def test_detectors_on_known_lattices():
    assert is_super_atomic(STAIRCASE4)
    assert is_super_atomic_via_supp(STAIRCASE4)
    assert check_superatomic_structure(STAIRCASE4)
    # Boolean(3) has 8 elements, one too many
    assert not is_super_atomic(BOOLEAN3)
    assert not is_super_atomic_via_supp(BOOLEAN3)
    with pytest.raises(PreconditionError):
        check_superatomic_structure(BOOLEAN3)


def test_detectors_answer_beyond_the_joining_set_cap(monkeypatch):
    def refuse(self, p):
        raise AssertionError("a super-atomic check enumerated joining sets")

    monkeypatch.setattr(AtomicLattice, "joining_sets", refuse)
    intervals20 = interval_lattice(20)
    assert is_super_atomic(intervals20)
    assert is_super_atomic_via_supp(intervals20)
    assert check_superatomic_structure(intervals20)
    flat17 = flat_lattice(17)
    assert not is_super_atomic(flat17)
    assert not is_super_atomic_via_supp(flat17)


@pytest.mark.parametrize("corpus", DETECTOR_CORPORA)
def test_is_super_atomic_matches_the_literal_definition(corpus):
    assert_matches_oracle(is_super_atomic, literal_super_atomic_oracle, [(lat,) for lat in DETECTOR_CORPORA[corpus]()])


@pytest.mark.parametrize("corpus", JOINING_PAIR_CORPORA)
def test_joining_pairs_match_the_per_element_oracle(corpus):
    """Same pairs for every element, in the same order; the table keys only
    the elements that are the join of some atom pair, so every other
    element reads as having none."""
    cases = [(lat,) for lat in JOINING_PAIR_CORPORA[corpus]()]

    def every_element(lat):
        joining = _atom_pairs(lat)[0]
        assert all(joining.values())  # no key without a pair
        return {p: joining.get(p, []) for p in lat.sets}

    assert_matches_oracle(every_element, joining_pairs_oracle, cases)


@pytest.mark.parametrize("corpus", JOINING_PAIR_CORPORA)
def test_supp_detector_matches_both_oracles(corpus):
    """The join-free scan gives the join-based characterization's verdicts,
    and both give the literal definition's."""
    cases = [(lat,) for lat in JOINING_PAIR_CORPORA[corpus]()]
    assert_matches_oracle(is_super_atomic_via_supp, supp_characterization_oracle, cases)
    assert_matches_oracle(is_super_atomic_via_supp, literal_super_atomic_oracle, cases)


@pytest.mark.parametrize("corpus", SUPP_SCAN_CORPORA)
def test_supp_detector_matches_the_scan_it_replaced(corpus):
    """The walk over incidence columns gives the verdicts of the scan of
    the earlier elements per pair."""
    build, verdicts = SUPP_SCAN_CORPORA[corpus]
    outcomes = assert_matches_oracle(is_super_atomic_via_supp, supp_scan_oracle, [(lat,) for lat in build()])
    assert set(outcomes) == verdicts


def test_supp_detector_takes_no_joins_and_writes_nothing(monkeypatch):
    def refuse(self, mask):
        raise AssertionError("the support characterization took a join")

    lats = [lat for n in (2, 3, 4, 5) for lat in enumerate_super_atomic(n)] + [interval_lattice(20)]
    # No lattice, trusted or validated, builds its incidence table or its
    # element index before a reader asks for it, and the detector asks for
    # neither, so a pass over an enumeration holds no table and no index
    # dict.
    assert all(lat._rows is None for lat in lats)
    monkeypatch.setattr(AtomicLattice, "join_mask", refuse)
    for lat in lats:
        assert is_super_atomic_via_supp(lat)
        assert lat._join_cache == {}
        assert lat._rows is None
        assert lat._index is None


def test_detectors_at_the_atom_cap():
    """interval_lattice(64) is the largest input MAX_ATOMS admits.  Its
    interval {1, 2} is meet-irreducible, with the single upper cover
    {1, 2, 3}; without it, {1, 2} and {1, 3} both join to {1, 2, 3}."""
    intervals64, near_miss = intervals64_and_near_miss()
    assert len(intervals64) == 2081
    assert is_super_atomic(intervals64)
    assert is_super_atomic_via_supp(intervals64)
    assert not is_super_atomic(near_miss)
    assert not is_super_atomic_via_supp(near_miss)


def test_detectors_agree_exhaustively_small():
    assert_matches_oracle(is_super_atomic, is_super_atomic_via_supp, [(lat,) for lat in small_lattices()])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_supp_detector_accepts_every_enumerated_lattice(n):
    assert all(is_super_atomic_via_supp(lat) for lat in enumerate_super_atomic(n))


def test_detectors_agree_on_random_lattices(rng):
    cases = [(lat,) for lat in random_lattices(rng, 150, (2, 6))]
    assert_matches_oracle(is_super_atomic, is_super_atomic_via_supp, cases)


def test_size_formula():
    assert [super_atomic_size(n) for n in (2, 3, 4, 5)] == [4, 7, 11, 16]
    with pytest.raises(PreconditionError):
        super_atomic_size(1)


# -- enumeration ----------------------------------------------------------------


def test_enumeration_counts_frozen():
    assert [len(enumerate_super_atomic(n)) for n in (2, 3, 4, 5)] == [1, 3, 24, 480]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_enumeration_counts_match_closed_form(n):
    assert sum(1 for _ in iter_super_atomic_families(n)) == expected_count(n)


def test_enumeration_n3_exact():
    got = [lat.to_json_dict()["sets"] for lat in enumerate_super_atomic(3)]
    base = [[], [1], [2], [3]]
    assert got == [
        base + [[1, 2], [1, 3], [1, 2, 3]],
        base + [[1, 2], [2, 3], [1, 2, 3]],
        base + [[1, 3], [2, 3], [1, 2, 3]],
    ]


def canonical_order(lat: AtomicLattice) -> list[tuple[int, int]]:
    return [(m.bit_count(), m) for m in lat.sets]


def test_enumeration_outputs_validate(rng):
    """The lattices are built without re-validation, so the validating
    constructor, fed each family in reverse, must give each one back."""
    for n in (2, 3, 4, 5, 6):
        lats = enumerate_super_atomic(n)
        assert len(set(lats)) == len(lats)  # no duplicate families
        assert lats == sorted(lats, key=canonical_order)
        for lat in lats:
            assert AtomicLattice(n, lat.sets[::-1]) == lat
            assert len(lat) == super_atomic_size(n)
            if n <= 5:
                assert is_super_atomic(lat)
                assert is_super_atomic_via_supp(lat)
                assert check_superatomic_structure(lat)


def test_enumerations_do_not_revalidate(monkeypatch):
    def refuse(self, n, masks):
        raise AssertionError("re-validated a family that is closed by construction")

    monkeypatch.setattr(AtomicLattice, "__init__", refuse)
    lats = enumerate_super_atomic(5)
    assert len(lats) == 480 and lats[0].covers()
    lats = enumerate_all_lattices(3)
    assert len(lats) == 8 and lats[-1].meet_irreducibles()


def test_enumeration_complete_against_filter():
    """Independent ground truth: filter the brute-force list of *all* atomic
    lattices by the detector and compare families exactly."""
    for n in (2, 3, 4):
        expected = {frozenset(lat.sets) for lat in lattices_with(n) if is_super_atomic(lat)}
        got = {frozenset(lat.sets) for lat in enumerate_super_atomic(n)}
        assert got == expected


def test_enumeration_closed_under_relabeling(rng):
    families = {frozenset(lat.sets) for lat in enumerate_super_atomic(4)}
    for lat in list(families)[:6]:
        perm = list(range(1, 5))
        rng.shuffle(perm)
        relabeled = AtomicLattice(4, lat).relabel(perm)
        assert frozenset(relabeled.sets) in families


def test_enumeration_refuses_oversized():
    with pytest.raises(CapExceededError):
        enumerate_super_atomic(8)
    # listing 7 atoms would hold 2,580,480 lattices; streaming them is allowed
    with pytest.raises(CapExceededError, match="^listing the lattices on 7 atoms exceeds the cap of 6$"):
        enumerate_super_atomic(7)
    assert len(next(iter_super_atomic_families(7))) == super_atomic_size(7)
    with pytest.raises(PreconditionError):
        enumerate_super_atomic(1)
    # streaming stops at MAX_ENUM_ATOMS at the call, before any family is asked for
    with pytest.raises(CapExceededError, match="^enumeration on 8 atoms exceeds the cap of 7$"):
        iter_super_atomic_families(8)
    with pytest.raises(PreconditionError, match="^need at least 2 atoms, got 1$"):
        iter_super_atomic_families(1)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_streamed_families_are_canonical_tuples(n):
    for fam in iter_super_atomic_families(n):
        assert type(fam) is tuple
        assert fam == tuple(sorted(fam, key=_canon_key))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_every_family_has_n_minus_j_plus_one_sets_of_size_j(n):
    """The lemma that lets ``enumerate_super_atomic`` order families by a
    plain tuple sort: the sizes sit at the same positions in every family."""
    expected = {0: 1, 1: n, **{j: n - j + 1 for j in range(2, n + 1)}}
    for fam in iter_super_atomic_families(n):
        assert Counter(m.bit_count() for m in fam) == expected


@pytest.mark.parametrize(
    "call,bad",
    [
        (lambda n: next(iter_super_atomic_families(n)), 2.5),
        (lambda n: next(iter_super_atomic_families(n)), "3"),
        (enumerate_super_atomic, 3.0),
        (enumerate_super_atomic, True),
        (super_atomic_size, 2.5),
        (super_atomic_size, None),
        (enumerate_all_lattices, "3"),
        (enumerate_all_lattices, 2.0),
    ],
)
def test_enumeration_entry_points_reject_a_non_int_atom_count(call, bad):
    with pytest.raises(PreconditionError):
        call(bad)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_listing_is_the_sorted_stream(n):
    assert [lat.sets for lat in enumerate_super_atomic(n)] == sorted(iter_super_atomic_families(n))


def test_the_listing_computes_each_levels_children_once(monkeypatch):
    """The listing memoizes the child levels for one call; the stream
    recomputes a level each time the descent reaches it, so its memory
    stays constant.  At n = 6 the descent reaches 3,496 levels, of which
    1,431 are distinct; at n = 5, 101 and 81."""
    calls = Counter()
    children = superatomic._children

    def counted(level):
        calls[level] += 1
        return children(level)

    monkeypatch.setattr(superatomic, "_children", counted)
    for n, distinct in ((6, 1431), (5, 81), (5, 81)):  # the second n = 5 call starts from an empty memo
        calls.clear()
        enumerate_super_atomic(n)
        assert len(calls) == sum(calls.values()) == distinct
    calls.clear()
    assert sum(1 for _ in iter_super_atomic_families(5)) == 480
    assert (len(calls), sum(calls.values())) == (81, 101)


def test_iteration_streams_without_materializing():
    it = iter_super_atomic_families(6)
    first = [next(it) for _ in range(5)]
    assert all(len(fam) == super_atomic_size(6) for fam in first)


# -- the exhaustive-list enumerator ------------------------------------------------


def test_all_lattices_counts_frozen():
    assert len(enumerate_all_lattices(1)) == 1
    assert len(enumerate_all_lattices(2)) == 1
    assert len(enumerate_all_lattices(3)) == 8
    assert len(lattices_with(4)) == 545


def test_all_lattices_match_the_validating_constructor():
    """Oracle: every candidate family the validating constructor accepts,
    in canonical order."""
    for n in (1, 2, 3, 4):
        top = (1 << n) - 1
        required = [0, *(1 << i for i in range(n)), top]
        optional = [m for m in range(1, top) if m.bit_count() >= 2]
        expected = []
        for bits in range(1 << len(optional)):
            try:
                expected.append(AtomicLattice(n, required + [m for i, m in enumerate(optional) if bits >> i & 1]))
            except ValidationError:
                pass
        assert enumerate_all_lattices(n) == sorted(expected, key=canonical_order)


def test_all_lattices_guard_rails():
    with pytest.raises(CapExceededError):
        enumerate_all_lattices(5)
    with pytest.raises(PreconditionError):
        enumerate_all_lattices(0)


# -- covers in the containment order ------------------------------------------------


def test_cover_witness_roundtrip():
    # {1,2} is meet-irreducible, so dropping it keeps intersection-closure.
    # ({2,3} would not work: it is the meet of {1,2,3} and {2,3,4}.)
    smaller = AtomicLattice(4, [m for m in STAIRCASE4.sets if m != 0b0011])
    w = cover_witness(STAIRCASE4, smaller)
    assert w is not None and w.new_element == 0b0011
    assert verify_new_element_meet_irreducible(w)
    assert cover_witness(smaller, STAIRCASE4) is None  # wrong direction
    assert cover_witness(STAIRCASE4, STAIRCASE4) is None


def test_cover_witness_validates():
    smaller = AtomicLattice(4, [m for m in STAIRCASE4.sets if m != 0b0011])
    with pytest.raises(PreconditionError):
        CoverWitness(STAIRCASE4, smaller, new_element=0b0110)
    with pytest.raises(PreconditionError):
        CoverWitness(STAIRCASE4, BOOLEAN3, new_element=0b0011)
    for larger, lower in ((smaller, STAIRCASE4), (STAIRCASE4, STAIRCASE4)):
        with pytest.raises(PreconditionError, match="^not a cover: the larger family must add exactly one set$"):
            CoverWitness(larger, lower, new_element=0b0011)
    with pytest.raises(PreconditionError):
        cover_witness(STAIRCASE4, BOOLEAN3)
    with pytest.raises(PreconditionError, match=r"^new_element \{2,3\} is not the added set$"):
        CoverWitness(STAIRCASE4, smaller, new_element=0b0110)


@pytest.mark.parametrize("bad", ["x", 3.0, True, None, [3]])
def test_cover_witness_refuses_a_new_element_that_is_not_an_int(bad):
    """The refusal names the value; it is no bare ``TypeError`` from
    rendering a non-mask as an atom set, nor from hashing a list."""
    smaller = AtomicLattice(4, [m for m in STAIRCASE4.sets if m != 0b0011])
    with pytest.raises(PreconditionError, match=rf"^new_element must be an int mask, got {re.escape(repr(bad))}$"):
        CoverWitness(STAIRCASE4, smaller, bad)


def test_new_element_meet_irreducible_exhaustive_n3():
    lats = lattices_with(3)
    found = 0
    for p in lats:
        for q in lats:
            w = cover_witness(p, q)
            if w is not None:
                found += 1
                assert verify_new_element_meet_irreducible(w)
    assert found > 0


def test_superatomic_lattices_sit_inside_boolean():
    # every super-atomic family is contained in the Boolean lattice's family,
    # and walking down one set at a time stays within covers
    full = AtomicLattice.from_sets(3, [[], [1], [2], [3], [1, 2], [1, 3], [2, 3], [1, 2, 3]])
    for lat in enumerate_super_atomic(3):
        assert set(lat.sets) <= set(full.sets)


def test_distinct_superatomic_families_can_be_isomorphic():
    a, b, c = enumerate_super_atomic(3)
    assert lattice_isomorphic(a, b) is not None
    assert lattice_isomorphic(b, c) is not None
    assert a != b  # distinct as labeled set systems
