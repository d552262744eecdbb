import random
import re
import sys
from dataclasses import FrozenInstanceError, fields

import pytest

from lcmlattice import (
    AtomicLattice,
    IntervalWitness,
    PreconditionError,
    check_cover_transfer,
    check_strong_interval_criterion,
    check_weak_interval_criterion,
    classify,
    enumerate_super_atomic,
    ideal_from_labeling,
    is_strong_coordinatization,
    is_super_atomic,
    is_super_atomic_via_supp,
    is_weak_coordinatization,
    support_labeling,
    weak_ideal,
)

from lcmlattice import fixtures, ideals, superatomic

from conftest import (
    FILTER_SIZE_CORPORA,
    WEAK_CRITERION_CORPORA,
    assert_matches_oracle,
    boolean_lattice,
    flat_lattice,
    interval_count,
    interval_lattice,
    join_oracle,
    lattices_with,
    random_lattices,
    strong_interval_criterion_oracle,
    weak_interval_criterion_oracle,
    within,
)

BOOLEAN3 = AtomicLattice.from_sets(3, [[], [1], [2], [3], [1, 2], [1, 3], [2, 3], [1, 2, 3]])

WEAK_EXAMPLE = AtomicLattice.from_sets(
    4, [[], [1], [2], [3], [4], [1, 2], [2, 3], [1, 4], [1, 2, 3], [1, 2, 3, 4]]
)

SUPER_EXAMPLE = AtomicLattice.from_sets(
    4, [[], [1], [2], [3], [4], [3, 4], [2, 3], [1, 4], [2, 3, 4], [1, 3, 4], [1, 2, 3, 4]]
)

# a super-atomic lattice on 6 atoms whose support labeling is weak but not
# strong; the smallest atom count where the strong criterion can fail
STRONG_FAILS = AtomicLattice.from_sets(
    6,
    [
        [], [1], [2], [3], [4], [5], [6],
        [1, 5], [2, 5], [3, 6], [4, 6], [5, 6],
        [3, 4, 6], [1, 5, 6], [2, 5, 6], [4, 5, 6],
        [1, 4, 5, 6], [2, 4, 5, 6], [3, 4, 5, 6],
        [1, 3, 4, 5, 6], [2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6],
    ],
)


@pytest.mark.parametrize("corpus", FILTER_SIZE_CORPORA)
def test_pair_sizes_match_interval_count(corpus):
    """The atom-pair table of both interval criteria holds N([a v b, top])
    for every atom pair, a = b included, and nothing else."""
    assert_matches_oracle(
        lambda lat: superatomic._atom_pairs(lat)[1],
        lambda lat: {
            a | b: interval_count(lat, join_oracle(lat, a | b), lat.top) for a in lat.atoms for b in lat.atoms
        },
        [(lat,) for lat in FILTER_SIZE_CORPORA[corpus]()],
    )


# -- the labeling itself ---------------------------------------------------------


def test_support_labeling_default_names():
    lab = support_labeling(BOOLEAN3)
    assert str(lab.label(0b001)) == "a1"
    assert str(lab.label(0b110)) == "a2*a3"
    assert str(lab.label(0b111)) == "a1*a2*a3"
    assert 0 not in dict(lab.items())
    assert len(lab) == len(BOOLEAN3) - 1


def test_support_labeling_custom_names():
    lab = support_labeling(BOOLEAN3, atom_names=["x", "y", "z"])
    assert str(lab.label(0b101)) == "x*z"
    with pytest.raises(PreconditionError):
        support_labeling(BOOLEAN3, atom_names=["x", "y"])
    with pytest.raises(PreconditionError):
        support_labeling(BOOLEAN3, atom_names=["x", "x", "y"])
    with pytest.raises(PreconditionError):
        support_labeling(AtomicLattice.from_sets(2, [[], [1], [2], [1, 2]]), ["a", "1b"])


@pytest.mark.parametrize(
    "names, message",
    [
        ([[1], [2]], r"atom names must be strings, got \[1\]"),
        (["a", 2], "atom names must be strings, got 2"),
        (["a", "a"], r"need 2 distinct atom names, got \['a', 'a'\]"),
    ],
)
def test_support_labeling_refuses_a_name_that_is_not_a_string(names, message):
    """A list name is refused as a package error, not as the ``TypeError``
    of hashing it for the distinctness check."""
    with pytest.raises(PreconditionError, match=message):
        support_labeling(AtomicLattice.from_sets(2, [[], [1], [2], [1, 2]]), names)


@pytest.mark.parametrize(
    "names, shown_as",
    [
        (5, "5"),
        (1.5, "1.5"),
        (object, "<class 'object'>"),
        ("xy", "'xy'"),
        ("", "''"),
        pytest.param(b"xy", "b'xy'", id="bytes-xy"),
        pytest.param(bytearray(b"xy"), re.escape("bytearray(b'xy')"), id="bytearray-xy"),
    ],
)
def test_support_labeling_refuses_names_that_are_not_iterable(names, shown_as):
    """Names that cannot be listed are refused as a package error, not as
    the ``TypeError`` of listing them, and so is a string, which is not
    read as one name per character, and so are ``bytes`` and ``bytearray``,
    which are not read as one int per byte."""
    with pytest.raises(PreconditionError, match=f"^atom names must be an iterable of strings, got {shown_as}$"):
        support_labeling(AtomicLattice.from_sets(2, [[], [1], [2], [1, 2]]), names)


def test_generator_exponents_count_intervals(rng):
    """The exponent of a_j in the generator of a_k equals
    N([a_j, top]) - N([a_j v a_k, top]): the elements above a_j but not
    above a_k.  This identity is what turns the coordinatization questions
    into interval-count comparisons."""
    for lat in random_lattices(rng, 25, (2, 5)):
        lab = support_labeling(lat)
        gens = dict(zip(lat.atoms, ideal_from_labeling(lat, lab)))
        for k, ak in enumerate(lat.atoms):
            for j, aj in enumerate(lat.atoms):
                got = dict(gens[ak].items()).get(f"a{j + 1}", 0)
                want = interval_count(lat, aj, lat.top) - interval_count(lat, lat.join(aj, ak), lat.top)
                assert got == want


def test_refined_generator_divisibility_pattern_superatomic():
    """On super-atomic lattices each refined generator delta(a_v) is divisible
    by every variable except its own."""
    for n in (3, 4):
        for lat in enumerate_super_atomic(n):
            lab = support_labeling(lat)
            deltas = dict(zip(lat.atoms, weak_ideal(lat, lab)))
            for v, av in enumerate(lat.atoms):
                for u in range(n):
                    divides = f"a{u + 1}" in deltas[av].variables
                    assert divides == (u != v)


# -- weak criterion ----------------------------------------------------------------


def test_weak_criterion_frozen_examples():
    assert check_weak_interval_criterion(WEAK_EXAMPLE).hypothesis_holds
    assert check_weak_interval_criterion(SUPER_EXAMPLE).hypothesis_holds
    # Boolean(3) defeats every candidate pair: for a doubleton p and the
    # outside atom k, each join a_r v a_k is another doubleton with the same
    # interval count as p
    report = check_weak_interval_criterion(BOOLEAN3)
    assert not report.hypothesis_holds


def test_weak_criterion_n3_exactly_boolean_fails():
    failing = [lat for lat in lattices_with(3) if not check_weak_interval_criterion(lat).hypothesis_holds]
    assert failing == [BOOLEAN3]


def test_weak_criterion_implies_weak_coordinatization(rng):
    for lat in lattices_with(3):
        if check_weak_interval_criterion(lat).hypothesis_holds:
            assert is_weak_coordinatization(lat, support_labeling(lat))
    for lat in random_lattices(rng, 40, (4, 5)):
        if check_weak_interval_criterion(lat).hypothesis_holds:
            assert is_weak_coordinatization(lat, support_labeling(lat))


def test_weak_criterion_report_shape():
    report = check_weak_interval_criterion(BOOLEAN3)
    doc = report.to_json_dict()
    assert doc["hypothesis_holds"] is False
    # only non-atom, nonzero elements get a witness entry
    assert len(doc["witnesses"]) == 4
    failed = [w for w in doc["witnesses"] if not w["satisfied"]]
    assert failed
    for w in failed:
        if w["pair"] is None:
            # no two atoms join to this element at all (Boolean(3)'s top)
            assert w["chosen"] is None and w["violating"] is None
        else:
            assert w["violating"] is not None
    ok = check_weak_interval_criterion(WEAK_EXAMPLE).witnesses
    assert all(w.satisfied and w.pair and w.chosen in w.pair for w in ok)


@pytest.mark.parametrize("corpus", WEAK_CRITERION_CORPORA)
def test_weak_criterion_matches_its_oracle(corpus):
    """One witness built per element gives the report of one built per
    candidate tried, witness for witness, satisfied or not."""
    make, kinds = WEAK_CRITERION_CORPORA[corpus]
    docs = assert_matches_oracle(
        lambda lat: check_weak_interval_criterion(lat).to_json_dict(),
        lambda lat: weak_interval_criterion_oracle(lat).to_json_dict(),
        [(lat,) for lat in make()],
    )
    # (satisfied, without a joining pair)
    assert {(w["satisfied"], w["pair"] is None) for doc in docs for w in doc["witnesses"]} == kinds


@pytest.mark.parametrize("corpus", WEAK_CRITERION_CORPORA)
def test_weak_criterion_witnesses_are_plain_interval_witnesses(corpus):
    """Each witness the criterion builds equals, hashes and prints like the
    publicly built :class:`IntervalWitness` with the same fields, holds no
    other attribute, and refuses a field assignment."""
    names = [f.name for f in fields(IntervalWitness)]
    for lat in WEAK_CRITERION_CORPORA[corpus][0]():
        for w in check_weak_interval_criterion(lat).witnesses:
            public = IntervalWitness(**{name: getattr(w, name) for name in names})
            assert w == public and hash(w) == hash(public) and repr(w) == repr(public)
            assert vars(w) == vars(public) and w.to_json_dict() == public.to_json_dict()
            for name in names:
                with pytest.raises(FrozenInstanceError):
                    setattr(w, name, None)


@pytest.mark.parametrize("make, n", [(boolean_lattice, 7), (flat_lattice, 12)], ids=["B7", "flat12"])
def test_joining_pairs_and_the_weak_criterion_take_no_join(make, n, monkeypatch):
    """The atom-pair table, and so the weak criterion, read each atom pair's
    join off the AND of two incidence rows, with no ``join_mask`` call; the
    criterion builds the table once."""
    lat = make(n)
    calls = []
    tables = []
    join_mask = AtomicLattice.join_mask
    atom_pairs = superatomic._atom_pairs
    monkeypatch.setattr(AtomicLattice, "join_mask", lambda self, mask: calls.append(mask) or join_mask(self, mask))
    # The package re-exports the function ``support_labeling`` under its module's name.
    monkeypatch.setattr(
        sys.modules["lcmlattice.support_labeling"], "_atom_pairs", lambda lat: tables.append(lat) or atom_pairs(lat)
    )
    assert superatomic._atom_pairs(lat)[0]
    assert check_weak_interval_criterion(lat).witnesses
    assert calls == [] and tables == [lat]
    lat.join_mask(0b11)
    assert calls == [0b11]  # the counter is live


def test_the_weak_verdict_on_b16_reads_only_the_pair_table():
    """Only the joins of two atoms can pass, and B16 has 120 of them for its
    65,519 non-atom nonzero elements, so the verdict takes the incidence
    rows and the C(16, 2) ANDs of the atom-pair table, not a witness per
    element."""
    lat = boolean_lattice(16)
    with within(0.05):
        assert not check_weak_interval_criterion(lat).hypothesis_holds


def test_the_weak_verdict_builds_no_witness(monkeypatch):
    """Reading only ``hypothesis_holds`` builds no witness and lists no
    element's atoms.  The witnesses are built the first time they are
    read, from the atom-pair table the verdict was decided on, and kept:
    a second read gives the same tuple, and no second table is built."""
    # The package re-exports the function ``support_labeling`` under its module's name.
    module = sys.modules["lcmlattice.support_labeling"]
    tables = []
    atom_pairs = superatomic._atom_pairs
    monkeypatch.setattr(module, "_atom_pairs", lambda lat: tables.append(lat) or atom_pairs(lat))

    def refuse(*args):
        raise AssertionError("the verdict built a witness")

    lats = [WEAK_EXAMPLE, BOOLEAN3, boolean_lattice(9), flat_lattice(12)]
    with monkeypatch.context() as refused:
        refused.setattr(module, "_witness", refuse)
        refused.setattr(module, "atoms_of", refuse)
        reports = [check_weak_interval_criterion(lat) for lat in lats]
        assert [report.hypothesis_holds for report in reports] == [True, False, False, True]
    for lat, report in zip(lats, reports):
        witnesses = report.witnesses
        assert report.witnesses is witnesses
        assert witnesses == weak_interval_criterion_oracle(lat).witnesses
    assert tables == lats


# -- strong criterion ---------------------------------------------------------------


def test_strong_criterion_requires_superatomic():
    with pytest.raises(PreconditionError):
        check_strong_interval_criterion(BOOLEAN3)


def test_strong_criterion_frozen_examples():
    ok, witness = check_strong_interval_criterion(SUPER_EXAMPLE)
    assert ok and witness is None
    ok, witness = check_strong_interval_criterion(STRONG_FAILS)
    assert not ok and "generating pair" in witness


def test_strong_criterion_matches_its_oracle():
    """The table over atom pairs gives the triple loop's verdict and first
    witness, text for text, on every super-atomic lattice with n <= 5 and a
    seeded 500 of those with n = 6 (the smallest n where it can fail)."""
    lats = [lat for n in range(2, 6) for lat in enumerate_super_atomic(n)]
    lats += random.Random(19).sample(enumerate_super_atomic(6), 500)
    outcomes = assert_matches_oracle(
        check_strong_interval_criterion, strong_interval_criterion_oracle, [(lat,) for lat in lats]
    )
    assert {ok for ok, _ in outcomes} == {True, False}


@pytest.mark.parametrize("n", [21, 32])
def test_strong_criterion_past_twenty_atoms(n):
    """The interval lattices on more than 20 atoms, which no generator count
    refuses: the criterion equals the strong decision, the two super-atomic
    detectors agree, and the support labeling classifies as a strong, weak
    and plain coordinatization.  Only the sufficient conditions fail: a
    variable labels the incomparable intervals holding its atom."""
    lat = interval_lattice(n)
    lab = support_labeling(lat)
    assert check_strong_interval_criterion(lat)[0] == is_strong_coordinatization(lat, lab)
    assert is_super_atomic(lat) == is_super_atomic_via_supp(lat)
    c = classify(lat, lab)
    assert c.is_coordinatization and c.is_strong and c.is_weak
    assert set(c.witness) == {"satisfies_A1A2", "satisfies_C1C2"}


def test_strong_criterion_lists_the_joining_pairs_once(monkeypatch):
    """The super-atomic precondition and the criterion read one atom-pair
    table, whether the lattice passes, fails the criterion or is not
    super-atomic."""
    calls = []
    atom_pairs = superatomic._atom_pairs
    # The package re-exports the function ``support_labeling`` under its module's name.
    for module in (superatomic, sys.modules["lcmlattice.support_labeling"]):
        monkeypatch.setattr(module, "_atom_pairs", lambda lat: calls.append(lat) or atom_pairs(lat))
    assert check_strong_interval_criterion(SUPER_EXAMPLE) == strong_interval_criterion_oracle(SUPER_EXAMPLE)
    assert check_strong_interval_criterion(STRONG_FAILS) == strong_interval_criterion_oracle(STRONG_FAILS)
    with pytest.raises(PreconditionError, match="^lattice is not super-atomic$"):
        check_strong_interval_criterion(BOOLEAN3)
    assert calls == [SUPER_EXAMPLE, STRONG_FAILS, BOOLEAN3]


def test_strong_criterion_negative_example_is_weak_not_strong():
    lab = support_labeling(STRONG_FAILS)
    assert not is_strong_coordinatization(STRONG_FAILS, lab)
    assert is_weak_coordinatization(STRONG_FAILS, lab)


def test_strong_criterion_matches_strong_coordinatization_n4():
    for lat in enumerate_super_atomic(4):
        criterion = check_strong_interval_criterion(lat)[0]
        actual = is_strong_coordinatization(lat, support_labeling(lat))
        assert criterion == actual


# -- cover transfer -----------------------------------------------------------------


def _without(lat, mask):
    return AtomicLattice(lat.n, [m for m in lat.sets if m != mask])


def test_cover_transfer_frozen_example():
    smaller = _without(SUPER_EXAMPLE, 0b1110)  # drop {2,3,4}
    report = check_cover_transfer(SUPER_EXAMPLE, SUPER_EXAMPLE, smaller)
    assert report.deltas_equal_generators and report.strong_on_smaller and report.agree
    assert report.to_json_dict() == {"deltas_equal_generators": True, "strong_on_smaller": True, "agree": True}


def test_cover_transfer_preconditions_each_named():
    smaller = _without(SUPER_EXAMPLE, 0b1110)
    with pytest.raises(PreconditionError, match="same atoms"):
        check_cover_transfer(SUPER_EXAMPLE, BOOLEAN3, smaller)
    with pytest.raises(PreconditionError, match="not super-atomic"):
        check_cover_transfer(BOOLEAN3, BOOLEAN3, _without(BOOLEAN3, 0b011))
    staircase = AtomicLattice.from_sets(
        4, [[], [1], [2], [3], [4], [1, 2], [2, 3], [2, 4], [1, 2, 3], [2, 3, 4], [1, 2, 3, 4]]
    )
    with pytest.raises(PreconditionError, match="not contained"):
        check_cover_transfer(SUPER_EXAMPLE, staircase, _without(staircase, 0b0011))
    with pytest.raises(PreconditionError, match="does not cover"):
        check_cover_transfer(SUPER_EXAMPLE, SUPER_EXAMPLE, SUPER_EXAMPLE)


def test_cover_transfer_groups_the_labels_once_per_lattice(monkeypatch):
    """On ``example-5-2`` one call groups labels twice: for the middle
    lattice's strong precondition, and once for the smaller lattice, whose
    ``x(a)`` serve both ``delta(a)`` and its strong verdict."""
    grouped = []
    label_groups = ideals._label_groups
    monkeypatch.setattr(ideals, "_label_groups", lambda lat, lab: grouped.append(lat) or label_groups(lat, lab))
    doc = fixtures.load("example-5-2")
    larger, smaller = (AtomicLattice.from_json_dict(d) for d in (doc["lattice"], doc["expect"]["cover"]["smaller"]))
    assert check_cover_transfer(larger, larger, smaller).agree
    assert grouped == [larger, smaller]


def test_cover_transfer_requires_strong_middle():
    root = AtomicLattice.from_sets(
        4, [[], [1], [2], [3], [4], [1, 2], [1, 3], [1, 4], [1, 2, 3], [1, 2, 4], [1, 2, 3, 4]]
    )
    larger = AtomicLattice.from_sets(4, [[], [1], [2], [3], [4], [1, 2], [1, 3], [1, 2, 3, 4]])
    smaller = AtomicLattice.from_sets(4, [[], [1], [2], [3], [4], [1, 3], [1, 2, 3, 4]])
    assert not is_strong_coordinatization(larger, support_labeling(larger))
    with pytest.raises(PreconditionError, match="strong"):
        check_cover_transfer(root, larger, smaller)


def test_cover_transfer_agrees_walking_down(rng):
    """Both sides of the equivalence, evaluated independently, agree along
    random descending walks below super-atomic roots."""
    roots = enumerate_super_atomic(4)
    checked = 0
    for _ in range(30):
        root = rng.choice(roots)
        larger = root
        for _step in range(3):
            drops = [m for m in larger.sets if m.bit_count() >= 2 and m != larger.top]
            rng.shuffle(drops)
            smaller = None
            for m in drops:
                try:
                    smaller = _without(larger, m)
                    break
                except Exception:
                    continue
            if smaller is None:
                break
            if not is_strong_coordinatization(larger, support_labeling(larger)):
                break
            report = check_cover_transfer(root, larger, smaller)
            assert report.agree
            checked += 1
            larger = smaller
    assert checked >= 20
