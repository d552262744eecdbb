import time
from collections import Counter

import pytest

from lcmlattice import (
    AtomicLattice,
    CapExceededError,
    Labeling,
    LcmLattice,
    DegenerateIdealError,
    Monomial,
    MonomialIdeal,
    PreconditionError,
    check_strong_conditions,
    check_weak_conditions,
    classify,
    ideal_from_labeling,
    is_coordinatization,
    is_strong_coordinatization,
    is_weak_coordinatization,
    lcm_lattice,
    support_labeling,
    verify_labeling_recovery,
    weak_ideal,
)
from lcmlattice import ideals
from lcmlattice.classify import _extends_to_isomorphism, _specific_map_witness
from lcmlattice.ideals import _refine

from conftest import (
    CONDITION_CORPORA,
    Raised,
    assert_matches_oracle,
    boolean_lattice,
    chain_condition_labeling,
    chain_conditions_oracle,
    decision_labelings,
    differential_labelings,
    flat_lattice,
    interval_lattice,
    labeled_lattices,
    lattices_with,
    mixed_labelings,
    order_not_reflected_labeling,
    outcome,
    overlap_conditions_oracle,
    random_labeling,
    small_lattices,
    specific_map_oracle,
    worked_example,
)

BOOLEAN3 = AtomicLattice.from_sets(3, [[], [1], [2], [3], [1, 2], [1, 3], [2, 3], [1, 2, 3]])

# The fig6 lattice is BOOLEAN3.
FIG2_LABELS, FIG3_LABELS, FIG6_LABELS = map(worked_example, ("fig2", "fig3", "fig6"))
FIG2, FIG3 = FIG2_LABELS.lattice, FIG3_LABELS.lattice


# -- the worked examples, frozen ------------------------------------------------


def test_coordinatization_without_strength():
    """An abstract isomorphism can exist even when the canonical atom map
    collides; the generated lattice is isomorphic only by permuting atoms."""
    c = classify(FIG2, FIG2_LABELS)
    assert c.is_coordinatization and not c.is_strong
    assert "is_strong" in c.witness


def test_weakness_without_coordinatization():
    c = classify(FIG3, FIG3_LABELS)
    assert c.is_weak and not c.is_coordinatization
    # plain and refined generators genuinely differ here
    assert tuple(ideal_from_labeling(FIG3, FIG3_LABELS)) != tuple(weak_ideal(FIG3, FIG3_LABELS))


def test_overlap_without_chains():
    c = classify(BOOLEAN3, FIG6_LABELS)
    assert c.satisfies_C1C2 and not c.satisfies_A1A2 and c.is_weak


# -- the sufficient-condition checks --------------------------------------------


def test_chain_conditions_unlabeled_meet_irreducible():
    lab = Labeling.from_sets(BOOLEAN3, [([1, 2], "x"), ([1, 3], "y")])  # {2,3} missing
    ok, witness = check_strong_conditions(BOOLEAN3, lab)
    assert not ok and "{2,3}" in witness


def test_chain_conditions_shared_variable_off_chain():
    lab = Labeling.from_sets(BOOLEAN3, [([1, 2], "x"), ([1, 3], "x"), ([2, 3], "y")])
    ok, witness = check_strong_conditions(BOOLEAN3, lab)
    assert not ok and "variable x" in witness


def test_chain_conditions_top_exempt():
    # {2,3} in FIG2 has the single upper cover {1,2,3}: meet-irreducible
    lab = Labeling.from_sets(FIG2, [([1], "x"), ([2], "y"), ([3], "z"), ([2, 3], "w")])
    assert check_strong_conditions(FIG2, lab) == (True, None)
    # same labeling minus the coatom fails
    lab2 = Labeling.from_sets(FIG2, [([1], "x"), ([2], "y"), ([3], "z")])
    assert check_strong_conditions(FIG2, lab2)[0] is False


def test_overlap_conditions_swallowed_label():
    # label of {1,2} is exactly the overlap: first overlap condition fails
    lab = Labeling.from_sets(BOOLEAN3, [([1, 2], "x"), ([1, 3], "x*y"), ([2, 3], "z")])
    ok, witness = check_weak_conditions(BOOLEAN3, lab)
    assert not ok and "overlap" in witness


def test_overlap_conditions_entangled_non_chain():
    # c ties {1,2} to both {1,3} and {2,3}, which are incomparable
    lab = Labeling.from_sets(BOOLEAN3, [([1, 2], "c*x"), ([1, 3], "c*y"), ([2, 3], "c*z")])
    ok, witness = check_weak_conditions(BOOLEAN3, lab)
    assert not ok and "chain" in witness


@pytest.mark.parametrize("corpus", CONDITION_CORPORA)
def test_condition_checks_match_their_oracles(corpus):
    """The mask-based checks give the verdict and the first witness of the
    gcd-and-quotient ones, on every labeling of the corpus."""
    build, kinds = CONDITION_CORPORA[corpus]
    outcomes = assert_matches_oracle(
        lambda lat, lab: (check_strong_conditions(lat, lab), check_weak_conditions(lat, lab)),
        lambda lat, lab: (chain_conditions_oracle(lat, lab), overlap_conditions_oracle(lat, lab)),
        build(),
    )
    assert kinds <= {None if ok else witness.split(" ", 1)[0] for _, (ok, witness) in outcomes}


@pytest.mark.parametrize("n, budget", [(12, 0.05), (14, 0.3)])
def test_overlap_conditions_on_a_fully_labeled_boolean_lattice_fit_the_budget(n, budget):
    """The overlap check walks only the labeled pairs that share a variable,
    not all C(L, 2) of them: on B_n with every element below the top labeled
    by a variable of its own no pair shares one, and the check, the
    meet-irreducibles included, takes under the budget."""
    lat = boolean_lattice(n)
    lab = Labeling(lat, {p: Monomial({f"v{i}": 1}) for i, p in enumerate(lat.sets[:-1])})
    start = time.perf_counter()
    verdict = check_weak_conditions(lat, lab)
    elapsed = time.perf_counter() - start
    assert verdict == (True, None)
    assert elapsed < budget, f"{elapsed:.3f} s"


@pytest.mark.parametrize("check", [check_strong_conditions, check_weak_conditions, classify, verify_labeling_recovery])
def test_a_labeling_of_another_lattice_is_refused(check):
    """Each entry point refuses a labeling of another lattice before any
    work, with the text of ``ideals._label_groups``: whether some labeled
    elements are missing from the lattice given (B3's support labeling on
    the flat lattice) or all lie in it (the flat lattice's on B3)."""
    flat = flat_lattice(3)
    for lat, other in ((flat, BOOLEAN3), (BOOLEAN3, flat)):
        with pytest.raises(PreconditionError, match="^labeling belongs to a different lattice$"):
            check(lat, support_labeling(other))


# -- implications over random corpora -------------------------------------------


def test_chain_conditions_imply_overlap_conditions(rng):
    # chains per variable leave incomparable labels with unit gcd
    for lat, lab in mixed_labelings(rng):
        if check_strong_conditions(lat, lab)[0]:
            assert check_weak_conditions(lat, lab)[0]


def test_chain_conditions_imply_strong(rng):
    hits = 0
    for lat, lab in mixed_labelings(rng):
        if check_strong_conditions(lat, lab)[0]:
            hits += 1
            assert is_strong_coordinatization(lat, lab)
    assert hits >= 15  # the corpus must actually exercise the implication


def test_overlap_conditions_imply_weak(rng):
    hits = 0
    for lat, lab in mixed_labelings(rng):
        if check_weak_conditions(lat, lab)[0]:
            hits += 1
            assert is_weak_coordinatization(lat, lab)
    assert hits >= 15


def test_strong_iff_weak_with_equal_generators(rng):
    for lat, lab in mixed_labelings(rng, rounds=80):
        c = classify(lat, lab)
        if c.is_weak:
            same = tuple(ideal_from_labeling(lat, lab)) == tuple(weak_ideal(lat, lab))
            assert c.is_strong == same
        else:
            assert not c.is_strong


def test_strong_implies_coordinatization(rng):
    for lat, lab in mixed_labelings(rng):
        c = classify(lat, lab)
        if c.is_strong:
            assert c.is_coordinatization


def test_classification_invariant_under_variable_renaming(rng):
    for lat, lab in labeled_lattices(rng, 20):
        renamed = Labeling(lat, ((p, Monomial({f"r_{v}": e for v, e in m.items()})) for p, m in lab.items()))
        assert classify(lat, lab).to_json_dict() | {"witness": None} == classify(
            lat, renamed
        ).to_json_dict() | {"witness": None}


def _classified(lat, lab):
    """Each ``classify`` field: the conditions' verdicts and witnesses, and
    for the predicates whether the verdict comes with a witness."""
    c = classify(lat, lab)
    witness = c.witness or {}
    predicates = [(getattr(c, field), field in witness) for field in ("is_coordinatization", "is_strong", "is_weak")]
    return [(getattr(c, field), witness.get(field)) for field in ("satisfies_A1A2", "satisfies_C1C2")] + predicates


def _single_checks(lat, lab):
    """What :func:`_classified` must give, from the single checks.  A
    degenerate ideal classifies as false, with a witness."""
    verdicts = [check_strong_conditions(lat, lab), check_weak_conditions(lat, lab)]
    for check in (is_coordinatization, is_strong_coordinatization, is_weak_coordinatization):
        try:
            ok = check(lat, lab)
        except DegenerateIdealError:
            ok = False
        verdicts.append((ok, not ok))
    return verdicts


def test_classify_matches_the_single_checks(rng):
    # classify shares one set of generators between its checks; each single
    # predicate builds its own, so any drift between the two paths shows here
    assert_matches_oracle(_classified, _single_checks, differential_labelings(rng))


# -- the level-mask decision against the lcm-lattice definition -------------------


def _decided_and_explained(lat, gens):
    """The level-mask decision, with the explanation's witness when false."""
    if _extends_to_isomorphism(lat, MonomialIdeal(gens)):
        return True, None
    return False, _specific_map_witness(lat, gens, lcm_lattice(gens))


def test_specific_map_decision_matches_the_oracle(rng):
    """Level masks that are elements and separate the elements decide what
    the lcm-lattice build decides, refusing what it refuses; false verdicts
    keep the oracle's witness, in the explanation and in ``classify``."""
    cases, classified = [], []
    for lat, lab in decision_labelings(rng):
        c = classify(lat, lab)
        assert c.is_coordinatization or not c.is_strong
        x = ideal_from_labeling(lat, lab)
        for field, gens in (("is_strong", x.generators), ("is_weak", _refine(lat, x).generators)):
            cases.append((lat, gens))
            classified.append((getattr(c, field), (c.witness or {}).get(field)))
    expected = assert_matches_oracle(
        _decided_and_explained, specific_map_oracle, cases, reach={"DegenerateIdealError": 1}
    )
    # classify words a refused tuple as a false verdict
    assert classified == [(False, out.text) if isinstance(out, Raised) else out for out in expected]
    verdicts = Counter(out[0] for out in expected if not isinstance(out, Raised))
    assert min(verdicts[True], verdicts[False]) >= 1000  # both verdicts well exercised


def test_classify_builds_no_lcm_lattice_when_strong_holds(rng, monkeypatch):
    def refuse(self, generators):
        raise AssertionError("classify built an lcm-lattice")

    monkeypatch.setattr(LcmLattice, "__init__", refuse)
    cases = [(lat, chain_condition_labeling(rng, lat)) for lat in lattices_with(4)[::5]]
    # 2^n subsets would be far too many to build: the decision reads O(k*n) level masks and O(m*n) joins,
    # and no generator count is refused, up to the 64 atoms of MAX_ATOMS
    cases += [(lat, support_labeling(lat)) for lat in map(flat_lattice, (20, 21, 64))]
    for lat, lab in cases:
        c = classify(lat, lab)
        assert c.satisfies_A1A2 and c.satisfies_C1C2
        assert c.is_strong and c.is_coordinatization and c.is_weak and c.witness is None
        for check in (is_strong_coordinatization, is_weak_coordinatization, is_coordinatization):
            assert check(lat, lab)


def _flat_product_labeling(n):
    """The flat lattice with atom i labeled by the product of every v_j with
    j != i.  Its lcm-lattice is Boolean (2^n elements), so the strong map
    fails on a lattice of n + 2 elements."""
    lat = flat_lattice(n)
    return lat, Labeling(lat, {1 << i: Monomial({f"v{j}": 1 for j in range(n) if j != i}) for i in range(n)})


def test_predicates_build_no_lcm_lattice(rng, monkeypatch):
    """The strong and weak predicates decide both verdicts, and
    ``is_coordinatization`` a strong one, without an lcm-lattice."""

    def refuse(self, generators):
        raise AssertionError("a predicate built an lcm-lattice")

    monkeypatch.setattr(LcmLattice, "__init__", refuse)
    lat, lab = _flat_product_labeling(16)
    assert not is_strong_coordinatization(lat, lab) and not is_weak_coordinatization(lat, lab)
    verdicts = set()
    for lat in small_lattices():
        for make in (random_labeling, chain_condition_labeling):
            lab = make(rng, lat)
            for check in (is_strong_coordinatization, is_weak_coordinatization):
                # a unit is refused before any build, as the build would refuse it
                out = outcome(check, lat, lab)
                verdicts.add(out.kind if isinstance(out, Raised) else out)
        lab = chain_condition_labeling(rng, lat)
        assert is_coordinatization(lat, lab)
    assert verdicts == {True, False, "DegenerateIdealError"}
    lat = interval_lattice(20)
    assert is_coordinatization(lat, support_labeling(lat))


def test_classify_computes_one_level_table_per_generator_tuple(rng, monkeypatch):
    """``classify`` computes the exponent-level table of ``x(a)`` once per
    call, and of the minimal generators of ``x(a)`` or ``delta(a)`` once
    when these differ from their tuple; never of ``delta(a)``, which
    ``_refine`` hands its table."""
    tables = []
    exponent_levels = ideals._exponent_levels
    monkeypatch.setattr(ideals, "_exponent_levels", lambda gens: tables.append(gens) or exponent_levels(gens))
    most = refined = 0
    for lat, lab in decision_labelings(rng):
        tables.clear()
        classify(lat, lab)
        computed = Counter(tables)
        x = ideal_from_labeling(lat, lab)
        delta = _refine(lat, x)
        shrunk = {i.minimal_generators for i in (x, delta) if len(i.minimal_generators) < len(i)}
        assert max(computed.values()) == 1 and x.generators in computed
        assert computed.keys() <= {x.generators} | shrunk
        refined += delta.generators not in computed
        most = max(most, len(computed))
    assert refined >= 500  # delta differs from x and from every minimal tuple tabled
    assert most >= 3  # some calls build an lcm-lattice on minimal generators that differ


def test_a_size_mismatch_witness_takes_no_lcm(monkeypatch):
    """On ``fig3`` the strong verdict is false because the lcm-lattice has
    one element more than the lattice, and coordinatization fails the
    isomorphism search; neither witness reads a monomial, so the lcm-lattice
    takes no lcm: both lcm builders it reads fail the test when called."""
    for builder in ("_support_lcms", "lcm_all"):
        monkeypatch.setattr(ideals, builder, lambda *args: pytest.fail("an lcm-lattice monomial was built"))
    lab = worked_example("fig3")
    c = classify(lab.lattice, lab)
    assert c.witness["is_strong"] == "lcm-lattice has 11 elements, the lattice has 10"
    assert c.witness["is_coordinatization"].startswith("lcm-lattice of the generated ideal (11 elements")


def test_a_map_that_does_not_reflect_order_is_explained():
    """The last check of the strong map's witness: g is injective onto the
    lcm-lattice, but the image of {2} divides that of {3,4}.  The labeling
    ends ``decision_labelings``, so the oracle words it the same way."""
    lat, lab = order_not_reflected_labeling()
    assert classify(lat, lab).witness["is_strong"] == (
        "order not reflected: image of {2} divides image of {3,4} but {2} is not below {3,4}"
    )


def test_the_lcm_lattice_build_owns_the_size_refusal():
    """On the flat product labeling with 21 atoms the strong and weak maps
    are decided false with no lcm-lattice built (the 21 weak generators
    coincide); whatever needs the Boolean lcm-lattice of 2^21 elements stops
    in the build's element cap, which names the count it reached."""
    lat, lab = _flat_product_labeling(21)
    assert not is_strong_coordinatization(lat, lab)
    assert len(set(weak_ideal(lat, lab).generators)) == 1 and not is_weak_coordinatization(lat, lab)
    for check in (is_coordinatization, classify):
        with pytest.raises(CapExceededError, match=r"^lcm-lattice reached \d+ elements, over the cap 1048576$"):
            check(lat, lab)


# -- labeling recovery -----------------------------------------------------------


def test_recovery_requires_chain_conditions():
    with pytest.raises(PreconditionError):
        verify_labeling_recovery(BOOLEAN3, FIG6_LABELS)


def test_recovery_roundtrip(rng):
    for lat, lab in labeled_lattices(rng, 40, chain_condition_labeling):
        assert verify_labeling_recovery(lat, lab)


# -- degenerate labelings ---------------------------------------------------------


def test_empty_labeling_classifies_false_not_raises():
    lab = Labeling(BOOLEAN3, {})
    c = classify(BOOLEAN3, lab)
    assert not c.satisfies_A1A2 and not c.satisfies_C1C2
    assert not c.is_coordinatization and not c.is_strong and not c.is_weak
    assert "is_weak" in c.witness and "unit" in c.witness["is_weak"]


def test_degenerate_predicates_raise_when_called_directly():
    from lcmlattice import DegenerateIdealError

    lab = Labeling(BOOLEAN3, {})
    with pytest.raises(DegenerateIdealError):
        is_coordinatization(BOOLEAN3, lab)
    with pytest.raises(DegenerateIdealError):
        is_strong_coordinatization(BOOLEAN3, lab)
    with pytest.raises(DegenerateIdealError):
        is_weak_coordinatization(BOOLEAN3, lab)


# -- report shape ------------------------------------------------------------------


def test_classification_json_fields():
    doc = classify(FIG2, FIG2_LABELS).to_json_dict()
    assert list(doc) == [
        "satisfies_A1A2",
        "satisfies_C1C2",
        "is_coordinatization",
        "is_strong",
        "is_weak",
        "witness",
    ]
    clean = classify(BOOLEAN3, FIG6_LABELS)
    assert set(clean.witness) <= {"satisfies_A1A2", "satisfies_C1C2"}


def test_witness_only_for_false_fields(rng):
    for lat, lab in mixed_labelings(rng, rounds=30):
        c = classify(lat, lab)
        doc = c.to_json_dict()
        for field, reason in (c.witness or {}).items():
            assert doc[field] is False and isinstance(reason, str)
