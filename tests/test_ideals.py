import json
import random
import re
from collections import Counter

import pytest

from lcmlattice import (
    AtomicLattice,
    CapExceededError,
    CoverWitness,
    DegenerateIdealError,
    FormatError,
    Labeling,
    LcmLattice,
    Monomial,
    MonomialIdeal,
    MonomialParseError,
    NotAnElementError,
    ONE,
    ValidationError,
    atom_generator,
    check_cover_transfer,
    check_strong_interval_criterion,
    check_superatomic_structure,
    check_weak_interval_criterion,
    classify,
    cover_witness,
    element_generator,
    gcd_all,
    hasse_dot,
    ideal_from_labeling,
    is_super_atomic,
    is_super_atomic_via_supp,
    labeling_from_json_dict,
    lcm_all,
    lattice_isomorphic,
    lcm_lattice,
    load_labeling,
    parse_ideal_text,
    recovered_labeling,
    render_ideal_text,
    support_labeling,
    verify_new_element_meet_irreducible,
    weak_generator,
    weak_ideal,
)

from lcmlattice import PreconditionError, atoms_of, ideals
from lcmlattice.errors import ECHO_LIMIT, shown
from lcmlattice.ideals import _exponent_levels, _level_masks, _refine
from lcmlattice.lattice import bits_of

from conftest import (
    LABELING_BUILDERS,
    LEVEL_TABLE_CORPORA,
    Raised,
    X_ORACLE_CORPORA,
    assert_matches_oracle,
    boolean_lattice,
    chain_condition_labeling,
    cubic_covers,
    divisibility_covers,
    eager_lcm_lattice,
    element_generator_oracle,
    flat_lattice,
    interval_lattice,
    joining_sets_oracle,
    labeled_lattices,
    pairwise_minimal_generators,
    random_labeling,
    random_lattice,
    random_monomial,
    small_lattices,
    sorting_exponent_levels,
    subset_lcm_lattice,
    subset_weak_generators,
    within,
    worked_example,
)

FIG2_LABELS = worked_example("fig2")
FIG2 = FIG2_LABELS.lattice


# -- labelings ---------------------------------------------------------------


class TestLabeling:
    def test_basic(self):
        lab = FIG2_LABELS
        assert lab.label(0b001) == Monomial.parse("a*b^2")
        assert lab.label(0b110) == ONE  # unlabeled
        assert len(lab) == 3
        assert tuple(p for p, _ in lab.items()) == (0b001, 0b010, 0b100)

    def test_rejects_unit_label(self):
        with pytest.raises(ValidationError):
            Labeling.from_sets(FIG2, [([1], "1")])

    def test_rejects_non_element(self):
        with pytest.raises(NotAnElementError):
            Labeling.from_sets(FIG2, [([1, 2], "x")])  # {1,2} not in FIG2

    def test_rejects_conflicting_duplicates(self):
        with pytest.raises(ValidationError):
            Labeling.from_sets(FIG2, [([1], "x"), ([1], "y")])
        # agreeing duplicates are fine
        lab = Labeling.from_sets(FIG2, [([1], "x"), ([1], "x")])
        assert len(lab) == 1

    def test_json_roundtrip(self):
        doc = FIG2_LABELS.to_json_dict()
        back = labeling_from_json_dict(doc)
        assert back == FIG2_LABELS
        assert json.loads(FIG2_LABELS.to_json()) == doc

    def test_json_lattice_by_filename(self, tmp_path):
        (tmp_path / "lat.json").write_text(FIG2.to_json())
        doc = {"lattice": "lat.json", "labels": [{"set": [2], "monomial": "z^2"}]}
        (tmp_path / "labeling.json").write_text(json.dumps(doc))
        lab = load_labeling(tmp_path / "labeling.json")
        assert lab.lattice == FIG2 and lab.label(0b010) == Monomial.parse("z^2")
        # the filename form needs a base directory when fed as a bare dict
        with pytest.raises(FormatError):
            labeling_from_json_dict(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            {},
            {"labels": []},  # no lattice
            {"lattice": 7, "labels": []},
            {"lattice": {"n": 1, "sets": [[], [1]]}, "labels": [{"set": [1]}]},
            {"lattice": {"n": 1, "sets": [[], [1]]}, "labels": [{"set": [1], "monomial": 3}]},
            {"lattice": {"n": 1, "sets": [[], [1]]}, "labels": [{"set": [1], "monomial": "x^"}]},
            {"lattice": {"n": 1, "sets": [[], [1]]}, "labels": [{"set": 5, "monomial": "x"}]},
            {"lattice": {"n": 1, "sets": [[], [1]]}, "labels": [{"set": None, "monomial": "x"}]},
            {"lattice": {"n": 1, "sets": [[], [1]]}, "labels": 5},
        ],
    )
    def test_json_rejects_malformed(self, doc):
        with pytest.raises(FormatError):
            labeling_from_json_dict(doc)

    @pytest.mark.parametrize(
        "content,message",
        [
            pytest.param(b"\xff\xfe", "not UTF-8 text: invalid start byte at byte 0", id="not-utf8"),
            pytest.param(b"[" * 100_000 + b"]" * 100_000, "invalid JSON: maximum recursion depth", id="deep-nesting"),
            pytest.param(b'{"labels": ' + b"9" * 5000 + b"}", "invalid JSON: Exceeds the limit", id="long-integer"),
        ],
    )
    def test_load_rejects_unreadable_files(self, tmp_path, content, message):
        path = tmp_path / "labeling.json"
        path.write_bytes(content)
        with pytest.raises(FormatError) as exc:
            load_labeling(path)
        assert str(exc.value).startswith(f"{path}: {message}")


# -- ideal text ---------------------------------------------------------------


def test_ideal_text_roundtrip():
    text = "# generated ideal\na^2*c*d\na*b*d # inline note\n\na*b*c\n"
    ideal = parse_ideal_text(text)
    assert [str(g) for g in ideal] == ["a^2*c*d", "a*b*d", "a*b*c"]
    assert render_ideal_text(ideal) == "a^2*c*d\na*b*d\na*b*c\n"
    assert parse_ideal_text(render_ideal_text(ideal)) == ideal


def test_ideal_text_error_carries_line_number():
    with pytest.raises(FormatError, match="line 3"):
        parse_ideal_text("a\nb\nc^\n")
    # an exponent past MAX_EXPONENT_DIGITS (here also past Python's int() digit limit) is a parse error too
    with pytest.raises(FormatError, match=r"^line 2: exponent has more than 1000 digits \(at position 2\)$"):
        parse_ideal_text("a\nx^" + "9" * 5000 + "\n")


@pytest.mark.parametrize("value", [5, None, b"a\n", ["a"] * 5000])
def test_ideal_text_must_be_a_string(value):
    """A non-string is a package error, with the value cut by ``shown``."""
    with pytest.raises(FormatError, match=r"^expected a string, got ") as excinfo:
        parse_ideal_text(value)
    assert len(str(excinfo.value)) <= ECHO_LIMIT + len("expected a string, got ")


def test_minimal_generators():
    ideal = MonomialIdeal(Monomial.parse(s) for s in ("a*b", "a", "c", "a", "a^2*c"))
    assert [str(g) for g in ideal.minimal_generators] == ["a", "c"]
    assert MonomialIdeal([ONE]).has_unit_generator


def _divisibility_chain(rng, variables):
    """Three or four monomials, each a proper multiple of the one before, shuffled."""
    chain = [random_monomial(rng, variables)]
    for _ in range(rng.randint(2, 3)):
        chain.append(chain[-1] * Monomial.parse(rng.choice(variables)))
    rng.shuffle(chain)
    return chain


def _placed_generators(rng, variables):
    """Tuples that put the pass's tie and order rules to work, each as built
    and under three shuffles: a proper divisor after its multiple, two equal
    generators apart, and a unit among repeats."""
    for _ in range(60):
        g = random_monomial(rng, variables)
        others = [random_monomial(rng, variables) for _ in range(rng.randint(0, 4))]
        multiple = g * Monomial.parse(rng.choice(variables))
        for base in ([multiple, *others, g], [g, *others, g], [*others, ONE, g, ONE]):
            yield tuple(base)
            for _ in range(3):
                yield tuple(rng.sample(base, len(base)))


def _bounded_minimal_oracle(gens, most):
    """The pairwise scan with the bounded pass's refusal past ``most``."""
    minimal = pairwise_minimal_generators(gens)
    if len(minimal) > most:
        raise CapExceededError(f"more than {most} minimal generators exceed the supported maximum {most} atoms")
    return minimal


def test_minimal_generators_match_the_pairwise_oracle(rng):
    """The degree-ordered pass keeps what the pairwise divisibility scan
    keeps, in the same order: on seeded random tuples with duplicates,
    divisibility chains and units, on single generators, on the empty tuple,
    on 21 to 30 generators, and on placed divisors, repeats and units under
    shuffles.  Bounded by ``most``, it gives the same tuple whenever at most
    ``most`` are minimal, and refuses otherwise."""
    variables = list("abcde")
    shapes = ("duplicate", "chain", "unit", "single", "over 20")
    drawn = []
    for i in range(3000):
        shape = shapes[i % len(shapes)]
        if shape == "single":
            gens = [rng.choice([ONE, random_monomial(rng, variables)])]
        else:
            size = rng.randint(21, 30) if shape == "over 20" else rng.randint(1, 6)
            gens = [random_monomial(rng, variables) for _ in range(size)]
            if shape == "duplicate":
                gens += rng.sample(gens, rng.randint(1, len(gens)))
            elif shape == "chain":
                gens += _divisibility_chain(rng, variables)
            elif shape == "unit":
                gens.insert(rng.randint(0, len(gens)), ONE)
            rng.shuffle(gens)
        drawn.append((shape, tuple(gens)))
    kept = assert_matches_oracle(
        lambda gens: MonomialIdeal(gens).minimal_generators, pairwise_minimal_generators, [(g,) for _, g in drawn]
    )
    # every shape often drops a generator (or is a single one)
    drops = Counter(s for (s, gens), minimal in zip(drawn, kept) if len(minimal) < len(gens) or s == "single")
    assert min(drops[shape] for shape in shapes) >= 300
    assert MonomialIdeal([]).minimal_generators == ()
    placed = list(_placed_generators(rng, variables))
    assert_matches_oracle(
        lambda gens: MonomialIdeal(gens).minimal_generators, pairwise_minimal_generators, [(g,) for g in placed]
    )
    cases = [(gens, most) for gens in placed + [g for _, g in drawn[:500]] for most in (1, 2, 4)]
    outcomes = assert_matches_oracle(
        ideals._minimal_generators, _bounded_minimal_oracle, cases, {"CapExceededError": 300}
    )
    assert sum(not isinstance(out, Raised) for out in outcomes) >= 300


# -- generators from labelings -------------------------------------------------


def test_atom_generators_match_hand_computation():
    got = [str(atom_generator(FIG2, FIG2_LABELS, a)) for a in FIG2.atoms]
    assert got == ["a*c*e", "a^2*b^2*c", "a*b^2*e"]
    assert [str(g) for g in ideal_from_labeling(FIG2, FIG2_LABELS)] == got


def test_element_generator_at_bottom_is_unit():
    # everything is above the bottom, so the product ranges over no elements
    assert element_generator(FIG2, FIG2_LABELS, 0) == ONE


def test_generator_wrong_lattice_rejected():
    other = AtomicLattice.from_sets(3, [[], [1], [2], [3], [1, 2, 3]])
    with pytest.raises(PreconditionError):
        element_generator(other, FIG2_LABELS, 0b001)


@pytest.mark.parametrize("corpus", X_ORACLE_CORPORA)
def test_element_generator_matches_the_per_label_oracle(corpus):
    """``x(p)`` from the label groups and the incidence table equals the
    per-label sum on every element, and :func:`ideal_from_labeling` equals
    it on every atom.  Each lattice takes its support labeling and two
    random labelings whose labels share the variables and have exponents up
    to 5."""
    assert_matches_oracle(
        lambda lat, lab: (
            {p: element_generator(lat, lab, p) for p in lat.sets},
            ideal_from_labeling(lat, lab).generators,
        ),
        lambda lat, lab: (
            {p: element_generator_oracle(lat, lab, p) for p in lat.sets},
            tuple(element_generator_oracle(lat, lab, a) for a in lat.atoms),
        ),
        X_ORACLE_CORPORA[corpus](),
    )


def test_element_generator_refuses_a_label_sum_past_the_digit_cap():
    """Two labels ``x^<1000 nines>`` below atom 1 sum to 1,001 digits: the
    same :class:`PreconditionError` text from the oracle, from
    :func:`element_generator` and from :func:`ideal_from_labeling`; atom 2
    has one of them below it and builds."""
    lat = boolean_lattice(2)
    big = "x^" + "9" * 1000
    lab = Labeling.from_sets(lat, [([], big), ([2], big)])
    message = "^exponent of 'x' has more than 1000 digits$"
    for build in (
        lambda: element_generator_oracle(lat, lab, 0b01),
        lambda: element_generator(lat, lab, 0b01),
        lambda: ideal_from_labeling(lat, lab),
    ):
        with pytest.raises(PreconditionError, match=message):
            build()
    assert element_generator(lat, lab, 0b10) == element_generator_oracle(lat, lab, 0b10) == Monomial.parse(big)


def test_atom_generator_requires_atom():
    with pytest.raises(PreconditionError):
        atom_generator(FIG2, FIG2_LABELS, 0b110)


def test_refined_generator_divides_plain(rng):
    for lat, lab in labeled_lattices(rng, 40):
        plain = ideal_from_labeling(lat, lab)
        refined = weak_ideal(lat, lab)
        for d, x in zip(refined, plain):
            assert d.divides(x)


def test_a_labeling_keeps_its_x():
    """``x`` is built once per labeling and kept with it: every call returns
    that one ideal, for the labeling's own lattice and for an equal lattice
    that is another object, and a lattice the labeling does not belong to is
    refused after the ideal exists as before."""
    lat = boolean_lattice(4)
    lab = support_labeling(lat)
    x = ideal_from_labeling(lat, lab)
    assert ideal_from_labeling(lat, lab) is x
    equal = boolean_lattice(4)
    assert equal == lat and equal is not lat
    assert ideal_from_labeling(equal, lab) is x
    with pytest.raises(PreconditionError, match="^labeling belongs to a different lattice$"):
        ideal_from_labeling(flat_lattice(4), lab)


def test_weak_ideal_builds_no_second_x(monkeypatch):
    """``weak_ideal`` refines the labeling's ``x``: one ``x(a)`` per atom is
    built, by whichever of ``weak_ideal``, ``ideal_from_labeling`` and
    ``classify`` comes first, and none after."""
    calls = []
    product_outside = ideals._product_outside
    monkeypatch.setattr(
        ideals, "_product_outside", lambda groups, above: calls.append(above) or product_outside(groups, above)
    )
    lat = boolean_lattice(4)
    lab = support_labeling(lat)
    weak = weak_ideal(lat, lab)
    assert calls == lat._atom_rows()
    x = ideal_from_labeling(lat, lab)
    classify(lat, lab)
    assert weak_ideal(lat, lab) == weak == _refine(lat, x)
    assert len(calls) == lat.n


def test_weak_generator_matches_weak_ideal(rng):
    cases = []
    for i in range(90):
        lat = random_lattice(rng, rng.randint(1, 6))
        cases.append((lat, LABELING_BUILDERS[i % 3](rng, lat)))
    for lat in (flat_lattice(9), boolean_lattice(5)):
        cases += [(lat, support_labeling(lat)), (lat, random_labeling(rng, lat))]
    assert_matches_oracle(
        lambda lat, lab: tuple(weak_generator(lat, lab, a) for a in lat.atoms),
        lambda lat, lab: weak_ideal(lat, lab).generators,
        cases,
    )


def test_generator_builders_never_reach_the_name_regex(rng, monkeypatch):
    """x(a) and delta(a) are built from exponents the labeling already
    validated, through the trusted constructor."""
    from lcmlattice import monomial

    lat = boolean_lattice(4)
    lab = random_labeling(rng, lat, variables=["a1", "a12", "x", "y_2"])
    plain = ideal_from_labeling(lat, lab).generators
    weak = weak_ideal(lat, lab).generators
    below_pair = element_generator(lat, lab, 0b0011)

    class Refuse:
        def fullmatch(self, *args):
            raise AssertionError("a generator builder reached the name regex")

        match = fullmatch

    monkeypatch.setattr(monomial, "_IDENT", Refuse())
    assert ideal_from_labeling(lat, lab).generators == plain
    assert weak_ideal(lat, lab).generators == weak
    assert tuple(weak_generator(lat, lab, a) for a in lat.atoms) == weak
    assert element_generator(lat, lab, 0b0011) == below_pair


def test_weak_ideal_matches_subset_definition(rng):
    """``e_v(delta(a))`` as the least level of ``v`` whose join reaches ``a``,
    against the literal gcd over joining sets."""

    def cases():
        for i in range(510):
            lat = random_lattice(rng, rng.randint(1, 5))
            yield lat, LABELING_BUILDERS[i % 3](rng, lat)
        for i in range(150):
            lat = random_lattice(rng, rng.randint(6, 7), extra=rng.randint(0, 12))
            yield lat, LABELING_BUILDERS[i % 3](rng, lat)
        for n in range(1, 11):
            for lat in [flat_lattice(n), interval_lattice(n)] + ([boolean_lattice(n)] if 2 <= n <= 6 else []):
                for lab in (support_labeling(lat), random_labeling(rng, lat)):
                    yield lat, lab

    assert_matches_oracle(lambda lat, lab: weak_ideal(lat, lab).generators, subset_weak_generators, cases())


def test_refine_takes_at_most_one_join_per_level(rng, monkeypatch):
    """``_refine`` joins each level mask ``D(v, t)`` at most once and walks
    no element: on B8 the element walk took thousands of joins."""
    lat = boolean_lattice(8)
    x = ideal_from_labeling(lat, random_labeling(rng, lat, variables=list("uvwxyz")))
    levels = sum(len(per_var) for per_var in _exponent_levels(x.generators).values())
    joins = []
    join_mask = AtomicLattice.join_mask
    monkeypatch.setattr(AtomicLattice, "join_mask", lambda self, mask: joins.append(mask) or join_mask(self, mask))
    assert _refine(lat, x).generators == x.generators  # each element of B8 is joined only by its own atoms
    assert 0 < len(joins) <= levels


def test_delta_level_masks_are_the_joins_of_the_x_level_masks(rng):
    """The corollary in :func:`_refine`: ``D_delta(v, t)`` is the join of
    ``D_x(v, t)``; a variable gone from every ``delta(a)`` has only the top
    as its joins."""
    for i in range(3000):
        lat = random_lattice(rng, rng.randint(1, 6), extra=rng.randint(0, 8))
        x = ideal_from_labeling(lat, LABELING_BUILDERS[i % 3](rng, lat))
        joins = {lat.join_mask(d) for levels in _exponent_levels(x.generators).values() for d in levels.values()}
        assert _level_masks(_exponent_levels(_refine(lat, x).generators)) | {lat.top} == {0, lat.top} | joins


def _ordered(table: dict[str, dict[int, int]]) -> dict[str, list[tuple[int, int]]]:
    """A level table with each variable's levels as a list, so that equal
    tables also list their levels in the same order."""
    return {v: list(levels.items()) for v, levels in table.items()}


def _level_table_cases(labelings):
    """The ideals of ``x(a)`` and ``delta(a)`` of each labeling and of their
    minimal tuples; ``delta`` holds its table before any read."""
    for lat, lab in labelings:
        x = ideal_from_labeling(lat, lab)
        delta = _refine(lat, x)
        assert delta._levels is not None
        yield from ((ideal,) for ideal in (x, delta, x._minimal_ideal(), delta._minimal_ideal()))


def test_refine_drops_a_variable_that_no_delta_keeps():
    """On the flat lattice on three atoms, the generators ``u*v``,
    ``u^2*a`` and ``b`` have ``J(w, 0)`` the top for ``w`` in v, a, b, so
    no ``delta`` keeps these, and the table handed over lists only ``u``.
    (The ``x(a)`` of a labeling never do this: ``J(w, 0)`` lies below each
    label holding ``w`` that is not the top.)"""
    delta = _refine(flat_lattice(3), MonomialIdeal(["u*v", "u^2*a", "b"]))
    assert [str(g) for g in delta.generators] == ["u", "u", "1"]
    assert _ordered(delta._level_table()) == _ordered(sorting_exponent_levels(delta.generators)) == {
        "u": [(0, 0b100), (1, 0b111)]
    }


@pytest.mark.parametrize("corpus", LEVEL_TABLE_CORPORA)
def test_level_tables_match_the_sorting_oracle(corpus):
    """Every level table, computed in one pass (``x`` and the minimal
    tuples) or handed over by ``_refine`` (``delta``), is the per-variable
    sort of its generators, each variable's levels in increasing order."""
    assert_matches_oracle(
        lambda ideal: _ordered(ideal._level_table()),
        lambda ideal: _ordered(sorting_exponent_levels(ideal.generators)),
        _level_table_cases(LEVEL_TABLE_CORPORA[corpus]()),
    )


def test_weak_ideal_never_enumerates_subsets(rng, monkeypatch):
    def refuse(self, p):
        raise AssertionError("weak_ideal enumerated joining sets")

    monkeypatch.setattr(AtomicLattice, "joining_sets", refuse)
    # Flat lattice: every set of two or more atoms joins to the top, so delta(a)
    # is gcd(x(a), gcd over atom pairs of lcm(x(b), x(c))).
    lat = flat_lattice(24)
    lab = random_labeling(rng, lat, variables=["x", "y", "z", "w", "u", "v"])
    x = list(ideal_from_labeling(lat, lab))
    top = gcd_all(b.lcm(c) for i, b in enumerate(x) for c in x[i + 1 :])
    assert tuple(weak_ideal(lat, lab)) == tuple(xa.gcd(top) for xa in x)
    # Boolean lattice: each element is joined only by its own atoms, so delta = x.
    lat = boolean_lattice(6)
    for lab in (support_labeling(lat), random_labeling(rng, lat)):
        assert tuple(weak_ideal(lat, lab)) == tuple(ideal_from_labeling(lat, lab))


def test_refined_generator_divides_every_joining_term(rng):
    """delta(a) must divide lcm{x(b) : b in T} for every T joining to any
    element above a; spot-check the definition from the outside."""
    for lat, lab in labeled_lattices(rng, 15):
        x = {a: atom_generator(lat, lab, a) for a in lat.atoms}
        deltas = dict(zip(lat.atoms, weak_ideal(lat, lab)))
        for a in lat.atoms:
            for p in lat.filter(a):
                for T in joining_sets_oracle(lat, p):
                    term = lcm_all(x[b] for b in bits_of(T))
                    assert deltas[a].divides(term)


def test_comparison_map_injective_under_chain_conditions(rng):
    """element_generator is injective on the whole lattice whenever the chain
    conditions hold; this is the engine behind labeling recovery."""
    for lat, lab in labeled_lattices(rng, 60, chain_condition_labeling):
        values = [element_generator(lat, lab, p) for p in lat.sets]
        assert len(set(values)) == len(values)


# -- lcm lattices ---------------------------------------------------------------


FIG1_IDEAL = parse_ideal_text("a^2*c*d\na*b*d\na*b*c\n")


def test_lcm_lattice_elements_frozen():
    ll = lcm_lattice(FIG1_IDEAL)
    assert [str(m) for m in ll] == ["1", "a^2*c*d", "a*b*d", "a*b*c", "a*b*c*d", "a^2*b*c*d"]
    assert str(ll.top_monomial) == "a^2*b*c*d"
    assert len(ll) == 6


def test_lcm_lattice_covers_frozen():
    ll = lcm_lattice(FIG1_IDEAL)
    got = {(str(lo), str(hi)) for lo, hi in ll.covers_monomials()}
    assert got == {
        ("1", "a^2*c*d"),
        ("1", "a*b*d"),
        ("1", "a*b*c"),
        ("a*b*d", "a*b*c*d"),
        ("a*b*c", "a*b*c*d"),
        ("a^2*c*d", "a^2*b*c*d"),
        ("a*b*c*d", "a^2*b*c*d"),
    }


def test_lcm_lattice_degenerate_inputs(monkeypatch):
    """No generator and a unit generator are refused.  The element cap
    counts the elements the closure builds: the 31 generators
    ``x^i*y^(30-i)`` give 497 elements, while 21 independent variables pass
    ``MAX_LCM_ELEMENTS``; the build refuses at the cap itself, one support
    past it, and the error names that count.  Past ``MAX_ATOMS`` minimal
    generators the build refuses before any closure."""
    with pytest.raises(DegenerateIdealError):
        lcm_lattice([])
    with pytest.raises(DegenerateIdealError):
        lcm_lattice([ONE, Monomial.parse("a")])
    staircase = [Monomial({v: e for v, e in (("x", i), ("y", 30 - i)) if e}) for i in range(31)]
    assert len(lcm_lattice(staircase)) == 497
    # 65 minimal generators (2,146 elements, under the element cap) are refused at the build
    over = r"^more than 64 minimal generators exceed the supported maximum 64 atoms$"
    with pytest.raises(CapExceededError, match=over):
        lcm_lattice(Monomial({v: e for v, e in (("x", i), ("y", 64 - i)) if e}) for i in range(65))
    with pytest.raises(CapExceededError, match=r"^lcm-lattice reached 1048577 elements, over the cap 1048576$"):
        LcmLattice(Monomial.parse(f"x{i}") for i in range(21))
    # at the cap a lattice builds; one element past it is refused
    monkeypatch.setattr(ideals, "MAX_LCM_ELEMENTS", 16)
    assert len(LcmLattice(Monomial.parse(f"x{i}") for i in range(4))) == 16
    with pytest.raises(CapExceededError, match=r"^lcm-lattice reached 17 elements, over the cap 16$"):
        LcmLattice(Monomial.parse(f"x{i}") for i in range(5))


def test_lcm_lattice_constructor_coerces_generators_like_the_ideal():
    """``LcmLattice`` parses non-``Monomial`` generators as ``MonomialIdeal``
    does, so strings work and a value that is no monomial is a package error."""
    direct = LcmLattice(["a", "b"])
    assert direct.monomials == lcm_lattice(["a", "b"]).monomials == LcmLattice(Monomial.parse(g) for g in "ab").monomials
    assert [str(m) for m in direct] == ["1", "a", "b", "a*b"]
    for bad in ([5], [10**5000], ["a", "b^"]):
        with pytest.raises(MonomialParseError):
            LcmLattice(bad)
        with pytest.raises(MonomialParseError):
            MonomialIdeal(bad)


@pytest.mark.parametrize(
    "value", [None, True, 1.5, b"a", ["a"], 10**5000], ids=["None", "True", "1.5", "bytes", "list", "10**5000"]
)
def test_a_value_that_is_no_monomial_or_string_is_refused(value):
    """Only a :class:`Monomial` or a string is a monomial to the API: any
    other value is refused, not parsed from its ``str``, which would label
    an element with a variable named ``None`` or ``True``."""
    lat = boolean_lattice(2)
    calls = (
        lambda: Labeling(lat, {1: value}),
        lambda: MonomialIdeal([value]),
        lambda: LcmLattice(["a", value]),
        lambda: recovered_labeling(lat, dict.fromkeys(lat.sets, value)),
    )
    text = f"expected a monomial or a string, got {shown(value)} (at position 0)"
    for call in calls:
        with pytest.raises(MonomialParseError, match=f"^{re.escape(text)}$"):
            call()


_NOT_GENERATORS = "generators must be an iterable of monomials, got "
_NOT_PAIRS = "assignments must be (element, monomial) pairs, got "
_NOT_MONOMIALS = "monomials must be an iterable of monomials, got 5"


@pytest.mark.parametrize(
    "make, text",
    [
        pytest.param(lambda lat: MonomialIdeal(5), _NOT_GENERATORS + "5", id="MonomialIdeal(5)"),
        pytest.param(lambda lat: lcm_lattice(5), _NOT_GENERATORS + "5", id="lcm_lattice(5)"),
        pytest.param(lambda lat: LcmLattice(None), _NOT_GENERATORS + "None", id="LcmLattice(None)"),
        pytest.param(lambda lat: lcm_all(5), _NOT_MONOMIALS, id="lcm_all(5)"),
        pytest.param(lambda lat: gcd_all(5), _NOT_MONOMIALS, id="gcd_all(5)"),
        pytest.param(
            lambda lat: Labeling(lat, 5),
            "assignments must be a mapping or an iterable of (element, monomial) pairs, got 5",
            id="Labeling(lat, 5)",
        ),
        pytest.param(lambda lat: Labeling(lat, [(1,)]), _NOT_PAIRS + "(1,)", id="Labeling(lat, [(1,)])"),
        pytest.param(lambda lat: Labeling(lat, [5]), _NOT_PAIRS + "5", id="Labeling(lat, [5])"),
        pytest.param(lambda lat: Labeling(lat, [(1, "a", "b")]), _NOT_PAIRS + "(1, 'a', 'b')", id="a triple"),
        pytest.param(
            lambda lat: Labeling.from_sets(lat, 5),
            "assignments must be a mapping or an iterable of (atom set, monomial) pairs, got 5",
            id="from_sets(lat, 5)",
        ),
        pytest.param(
            lambda lat: Labeling.from_sets(lat, [([1],)]),
            "assignments must be (atom set, monomial) pairs, got ([1],)",
            id="from_sets(lat, [([1],)])",
        ),
    ],
)
def test_malformed_generators_and_assignments_are_package_errors(make, text):
    """A container that cannot be read is refused as a package error echoing
    it, not as the ``TypeError`` or ``ValueError`` of reading it."""
    with pytest.raises(PreconditionError, match=f"^{re.escape(text)}$"):
        make(boolean_lattice(2))


_NOT_A_LABELING = "the labeling must be a Labeling, got "
_NOT_A_LATTICE = "the lattice must be an AtomicLattice, got "
_OTHER_LATTICE = "labeling belongs to a different lattice"


@pytest.mark.parametrize(
    "call, text",
    [
        pytest.param(lambda lat, lab: classify(lat, 5), _NOT_A_LABELING + "5", id="classify(lat, 5)"),
        pytest.param(lambda lat, lab: weak_ideal(lat, None), _NOT_A_LABELING + "None", id="weak_ideal(lat, None)"),
        pytest.param(
            lambda lat, lab: atom_generator(lat, lat, 1),
            _NOT_A_LABELING + "AtomicLattice(n=2, elements=4)",
            id="atom_generator(lat, lat, 1)",
        ),
        pytest.param(lambda lat, lab: atom_generator(5, lab, 1), _OTHER_LATTICE, id="atom_generator(5, lab, 1)"),
        pytest.param(lambda lat, lab: weak_generator(5, lab, 1), _OTHER_LATTICE, id="weak_generator(5, lab, 1)"),
        pytest.param(lambda lat, lab: Labeling(5, {}), _NOT_A_LATTICE + "5", id="Labeling(5, {})"),
        pytest.param(lambda lat, lab: Labeling.from_sets(None, {}), _NOT_A_LATTICE + "None", id="from_sets(None, {})"),
        pytest.param(lambda lat, lab: lattice_isomorphic(lat, 5), _NOT_A_LATTICE + "5", id="isomorphic(lat, 5)"),
        pytest.param(lambda lat, lab: lattice_isomorphic(5, lat), _NOT_A_LATTICE + "5", id="isomorphic(5, lat)"),
        pytest.param(
            lambda lat, lab: recovered_labeling(lat, 5),
            "monomial_of must be a mapping from elements to monomials, got 5",
            id="recovered_labeling(lat, 5)",
        ),
        pytest.param(lambda lat, lab: recovered_labeling(5, {}), _NOT_A_LATTICE + "5", id="recovered_labeling(5, {})"),
        pytest.param(
            lambda lat, lab: render_ideal_text(5), "the ideal must be a MonomialIdeal, got 5", id="render_ideal_text(5)"
        ),
        pytest.param(
            lambda lat, lab: load_labeling(5), "a path must be a str or an os.PathLike, got 5", id="load_labeling(5)"
        ),
    ],
)
def test_an_argument_of_the_wrong_kind_is_a_package_error(call, text):
    """A labeling that is no :class:`Labeling`, a lattice that is no
    :class:`AtomicLattice`, a ``monomial_of`` that is no mapping, an ideal
    that is no :class:`MonomialIdeal` and a path that is none are
    refused with a package error echoing the value, not the
    ``AttributeError`` or ``TypeError`` of reading it.  A lattice of the
    wrong kind beside a labeling is refused as another lattice, by the
    check every lattice-and-labeling function reaches first."""
    lat = boolean_lattice(2)
    with pytest.raises(PreconditionError, match=f"^{re.escape(text)}$"):
        call(lat, Labeling(lat))


_ONE_LABEL = {"labels": [{"set": [1], "monomial": "x"}]}


@pytest.mark.parametrize(
    "call, text",
    [
        *(
            pytest.param(call, _NOT_A_LATTICE + "5", id=name)
            for name, call in {
                "support_labeling(5)": lambda lat: support_labeling(5),
                "hasse_dot(5)": lambda lat: hasse_dot(5),
                "is_super_atomic(5)": lambda lat: is_super_atomic(5),
                "is_super_atomic_via_supp(5)": lambda lat: is_super_atomic_via_supp(5),
                "check_superatomic_structure(5)": lambda lat: check_superatomic_structure(5),
                "check_weak_interval_criterion(5)": lambda lat: check_weak_interval_criterion(5),
                "check_strong_interval_criterion(5)": lambda lat: check_strong_interval_criterion(5),
                "check_cover_transfer(5, lat, lat)": lambda lat: check_cover_transfer(5, lat, lat),
                "check_cover_transfer(lat, lat, 5)": lambda lat: check_cover_transfer(lat, lat, 5),
                "cover_witness(lat, 5)": lambda lat: cover_witness(lat, 5),
                "cover_witness(5, lat)": lambda lat: cover_witness(5, lat),
                "CoverWitness(lat, 5, 0b11)": lambda lat: CoverWitness(lat, 5, 0b11),
                "labeling_from_json_dict(lattice=5)": lambda lat: labeling_from_json_dict(_ONE_LABEL, lattice=5),
            }.items()
        ),
        pytest.param(
            lambda lat: verify_new_element_meet_irreducible(5),
            "the witness must be a CoverWitness, got 5",
            id="verify_new_element_meet_irreducible(5)",
        ),
    ],
)
def test_a_lattice_or_cover_witness_of_the_wrong_kind_is_a_package_error(call, text):
    """Every entry point that takes a lattice alone, or lattices beside
    one another, refuses a value that is no :class:`AtomicLattice` with
    the text of ``lattice._require_lattice``, and the meet-irreducibility
    check of a cover refuses a witness that is no :class:`CoverWitness`,
    not with the ``AttributeError`` of reading it."""
    with pytest.raises(PreconditionError, match=f"^{re.escape(text)}$"):
        call(boolean_lattice(2))


_NOT_ASSIGNMENTS = "assignments must be a mapping or an iterable of ({}, monomial) pairs, got "


@pytest.mark.parametrize(
    "build, expected",
    [
        pytest.param(MonomialIdeal, _NOT_GENERATORS, id="MonomialIdeal"),
        pytest.param(lcm_lattice, _NOT_GENERATORS, id="lcm_lattice"),
        pytest.param(LcmLattice, _NOT_GENERATORS, id="LcmLattice"),
        pytest.param(
            lambda text: Labeling(boolean_lattice(2), text), _NOT_ASSIGNMENTS.format("element"), id="Labeling"
        ),
        pytest.param(
            lambda text: Labeling.from_sets(boolean_lattice(2), text),
            _NOT_ASSIGNMENTS.format("atom set"),
            id="Labeling.from_sets",
        ),
    ],
)
@pytest.mark.parametrize(
    "text",
    [
        "",
        "ab",
        "xy",
        "a*b",
        "x" * 500,
        pytest.param(b"", id="bytes-empty"),
        pytest.param(b"ab", id="bytes-ab"),
        pytest.param(bytearray(b"ab"), id="bytearray-ab"),
    ],
)
def test_a_string_is_not_a_generator_list(build, expected, text):
    """A string is refused as a whole, echoed through ``shown``: it is not
    read as one-character monomials, so ``"ab"`` is not the ideal (a, b),
    nor as pairs, so ``""`` is not the empty labeling and ``"ab"`` is not
    refused for its first character.  ``bytes`` and ``bytearray`` are
    refused the same way, not read as ints, so ``b""`` is not the empty
    labeling and ``b"ab"`` is not refused for its first byte.  A list
    holding the string is the ideal it names."""
    with pytest.raises(PreconditionError, match=f"^{re.escape(expected + shown(text))}$"):
        build(text)
    assert MonomialIdeal(["ab"]).generators == (Monomial.parse("ab"),)


def _lcm_lattice_answers(gens: tuple[Monomial, ...]) -> tuple:
    """What ``LcmLattice(gens)`` answers: the generators, elements in order,
    supports both ways, the abstract lattice and the meet-irreducibles the
    build handed it, and, up to 64 elements, the divisibility covers."""
    ll = LcmLattice(gens)
    sets = ll.abstract().sets
    covers = len(ll) <= 64 and ll.covers_monomials()
    masks = [ll.mask_of(m) for m in ll.monomials]
    mi = ll.abstract().meet_irreducibles()
    return ll.generators, ll.monomials, masks, [ll.monomial_of(s) for s in sets], sets, mi, covers


def _subset_lcm_answers(gens: tuple[Monomial, ...]) -> tuple:
    """The same from :func:`conftest.subset_lcm_lattice` of the
    :func:`conftest.pairwise_minimal_generators` of ``gens``, refusing the
    tuples no lcm-lattice is defined on (none, or one with a unit); the
    abstract lattice and its meet-irreducibles through the validating
    constructor."""
    if not gens:
        raise DegenerateIdealError("the zero ideal has no lcm-lattice")
    if any(g.is_one for g in gens):
        raise DegenerateIdealError("the unit monomial is a generator; the lcm-lattice is undefined")
    minimal = pairwise_minimal_generators(gens)
    monomials, support = subset_lcm_lattice(minimal)
    lat = AtomicLattice(len(minimal), support.values())
    covers = len(monomials) <= 64 and divisibility_covers(monomials)
    masks = [support[m] for m in monomials]
    return minimal, monomials, masks, list(monomials), lat.sets, lat.meet_irreducibles(), covers


def test_lcm_lattice_matches_the_subset_lcm_oracle(rng):
    """The level-mask build gives the lcm-lattice of its definition, on raw
    tuples (repeats and multiples included, which the build drops) and on
    minimal generators, and refuses a unit generator as given.  The
    meet-irreducibles it hands over, its kept cuts and the top, are the
    ones the validating walk finds, (0, 1) on one generator."""

    def tuples():
        for _ in range(3000):
            gens = [random_monomial(rng, list("abcde")) for _ in range(rng.randint(1, 5))]
            if rng.random() < 0.4:
                gens.append(rng.choice(gens) * rng.choice([ONE, Monomial.parse(rng.choice("abf"))]))
                rng.shuffle(gens)
            yield from ((tup,) for tup in dict.fromkeys((tuple(gens), MonomialIdeal(gens).minimal_generators)))
        for lat in small_lattices():
            for make in (random_labeling, chain_condition_labeling):
                x = ideal_from_labeling(lat, make(rng, lat))
                yield from ((tup,) for tup in dict.fromkeys((x.generators, _refine(lat, x).generators)))
        for n in range(1, 11):
            yield (tuple(Monomial.parse(f"x{i}") for i in range(n)),)

    outcomes = assert_matches_oracle(
        _lcm_lattice_answers, _subset_lcm_answers, tuples(), reach={"DegenerateIdealError": 1}
    )
    assert sum(not isinstance(out, Raised) for out in outcomes) >= 6000
    assert LcmLattice([Monomial.parse("x0")]).abstract().meet_irreducibles() == (0, 1)


LCM_ACCESSORS = {
    "monomials": lambda ll, want: ll.monomials == want["monomials"],
    "iter": lambda ll, want: tuple(ll) == want["monomials"],
    "in": lambda ll, want: all(m in ll for m in want["monomials"])
    and want["monomials"][-1] * Monomial.parse("z") not in ll,
    "mask_of": lambda ll, want: {m: ll.mask_of(m) for m in want["monomials"]} == want["mask_of"],
    "monomial_of": lambda ll, want: {s: ll.monomial_of(s) for s in want["monomial_of"]} == want["monomial_of"],
    "top_monomial": lambda ll, want: ll.top_monomial == want["monomials"][-1],
    "hasse_labels": lambda ll, want: ll.hasse_labels() == want["hasse_labels"],
    "covers_monomials": lambda ll, want: ll.covers_monomials() == want["covers"],
    "len": lambda ll, want: len(ll) == len(want["monomials"]),
    "abstract": lambda ll, want: ll.abstract().sets == want["abstract"].sets,
}


def test_lcm_lattice_accessors_match_an_eager_oracle_whichever_is_read_first(rng, monkeypatch):
    """The monomials are taken on each read; whichever accessor comes first,
    every accessor then answers what :func:`conftest.eager_lcm_lattice`
    answers on the minimal generators of the raw tuple.  ``len``,
    ``generators`` and ``abstract`` read the supports alone: they answer
    while both lcm builders the lattice reads fail the test when called."""
    tuples = [tuple(Monomial.parse(g) for g in "ab"), (Monomial.parse("a"), Monomial.parse("a*b"))]
    for _ in range(200):
        gens = [random_monomial(rng, list("abcd")) for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.3:
            gens.append(rng.choice(gens) * Monomial.parse(rng.choice("ae")))
        tuples.append(tuple(gens))
    for gens in tuples:
        minimal = pairwise_minimal_generators(gens)
        want = eager_lcm_lattice(minimal)
        for first in LCM_ACCESSORS:
            ll = LcmLattice(gens)
            if first in ("len", "abstract"):
                with monkeypatch.context() as patched:
                    for builder in ("_support_lcms", "lcm_all"):
                        patched.setattr(ideals, builder, lambda *args: pytest.fail("the shape took an lcm"))
                    assert LCM_ACCESSORS[first](ll, want) and ll.generators == minimal
            assert all(check(ll, want) for check in LCM_ACCESSORS.values()), first


def test_lcm_lattice_uses_minimal_generators():
    # a*b is redundant; the lattice lives on 2 atoms
    ll = lcm_lattice(parse_ideal_text("a\na*b\nb\n"))
    assert len(ll.generators) == 2
    assert ll.abstract().n == 2


def test_lcm_lattice_order_is_divisibility(rng):
    for _ in range(20):
        k = rng.randint(1, 4)
        gens = {Monomial({v: rng.randint(1, 3) for v in rng.sample("abcd", rng.randint(1, 3))}) for _ in range(k)}
        ll = lcm_lattice(MonomialIdeal(gens))
        lat = ll.abstract()
        for p in lat.sets:
            for q in lat.sets:
                assert (p & ~q == 0) == ll.monomial_of(p).divides(ll.monomial_of(q))
        # supports really are the sets of dividing minimal generators
        for p in lat.sets:
            m = ll.monomial_of(p)
            supp = sum(a for a, g in zip(lat.atoms, ll.generators) if g.divides(m))
            assert supp == p


def test_lcm_lattice_is_always_atomic_with_unique_supports(rng):
    """Every monomial in the lcm-lattice is the lcm of the generators below
    it, so the abstract view always validates; this is the structural fact
    that makes ``abstract()`` total."""
    for _ in range(30):
        k = rng.randint(1, 5)
        gens = {Monomial({v: rng.randint(1, 2) for v in rng.sample("abcde", rng.randint(1, 4))}) for _ in range(k)}
        ll = lcm_lattice(MonomialIdeal(gens))
        for m in ll:
            mask = ll.mask_of(m)
            assert lcm_all(g for g, a in zip(ll.generators, ll.abstract().atoms) if a & mask) == m


def test_abstract_matches_the_validating_constructor(rng):
    """abstract() builds without re-validation; it must equal the validated
    family of supports, also when the input has duplicates and multiples."""
    for _ in range(60):
        gens = [random_monomial(rng, list("abcde")) for _ in range(rng.randint(1, 6))]
        gens += [gens[0], gens[-1] * Monomial.parse(rng.choice("abcdef"))]
        rng.shuffle(gens)
        ll = lcm_lattice(gens)
        lat = ll.abstract()
        assert lat == AtomicLattice(len(ll.generators), [ll.mask_of(m) for m in ll])
        assert lat.covers() == cubic_covers(lat)


def test_abstract_does_not_revalidate(monkeypatch):
    ideals = [FIG1_IDEAL, parse_ideal_text("a\na*b\nb\n"), [Monomial.parse(f"x{i}") for i in range(8)]]
    sizes = [len(lcm_lattice(ideal).abstract()) for ideal in ideals]

    def refuse(self, n, masks):
        raise AssertionError("abstract() re-validated the supports")

    monkeypatch.setattr(AtomicLattice, "__init__", refuse)
    assert [len(lcm_lattice(ideal).abstract()) for ideal in ideals] == sizes == [6, 4, 256]


def test_lcm_lattice_of_non_minimal_generators_lives_on_the_minimal_ones():
    """``LcmLattice`` on a generator and its multiple is the lcm-lattice of
    the ideal they span, ``(a)``: one atom, two elements, as ``lcm_lattice``
    gives."""
    raw = [Monomial.parse("a"), Monomial.parse("a*b")]
    direct, via = LcmLattice(raw), lcm_lattice(raw)
    assert direct.generators == via.generators == (Monomial.parse("a"),)
    assert direct.monomials == via.monomials == (ONE, Monomial.parse("a"))
    assert direct.abstract() == via.abstract() == AtomicLattice(1, [0, 1])


@pytest.mark.parametrize("k", [65, 300])
def test_the_build_refuses_past_max_atoms_minimal_generators_before_the_closure(k, monkeypatch):
    """The staircase ``x^i*y^(k-1-i)`` has ``k`` minimal generators; past
    ``MAX_ATOMS`` of them ``lcm_lattice`` and ``LcmLattice`` refuse with the
    text ``lcmlat lcm-lattice`` prints, and no level table is built, so no
    level mask is closed.  A repeat and a multiple do not count, and an
    ideal whose minimal generators were read first is refused too.  The
    pass takes divisibility tests alone, no lcm and no gcd."""
    staircase = [Monomial({v: e for v, e in (("x", i), ("y", k - 1 - i)) if e}) for i in range(k)]
    raw = staircase + [staircase[0], staircase[1] * Monomial.parse("z")]
    monkeypatch.setattr(ideals, "_exponent_levels", None)  # building a level table would fail here
    monkeypatch.setattr(ideals, "_level_masks", None)  # reaching the closure would fail here
    monkeypatch.setattr(Monomial, "lcm", None)
    monkeypatch.setattr(Monomial, "gcd", None)
    text = r"^more than 64 minimal generators exceed the supported maximum 64 atoms$"
    for build in (lcm_lattice, LcmLattice):
        with pytest.raises(CapExceededError, match=text):
            build(raw)
        with pytest.raises(CapExceededError, match=text):
            build(MonomialIdeal(raw))
        read = MonomialIdeal(raw)
        assert read.minimal_generators == tuple(staircase)
        with pytest.raises(CapExceededError, match=text):
            build(read)


@pytest.mark.parametrize("m", [4000, 8000])
def test_an_over_wide_ideal_is_refused_in_budget(m):
    """``x0 ... x{m-1}``, one per line, is refused at its 65th minimal
    generator, after one degree sort and 65*64/2 divisibility tests, so
    parsing and refusing it takes under 0.1 s."""
    text = "".join(f"x{i}\n" for i in range(m))
    with within(0.1), pytest.raises(CapExceededError, match=r"^more than 64 minimal generators"):
        lcm_lattice(parse_ideal_text(text))


def test_many_redundant_generators_build_their_lcm_lattice_in_budget():
    """4,000 multiples ``x{i%10}*y{i}`` ahead of ``x0 ... x9``: the pass
    takes at most 10 divisibility tests per generator and the level table is
    built on the 10 minimal generators only, so the Boolean lcm-lattice of
    1,024 elements builds in under 0.2 s."""
    minimal = [Monomial.parse(f"x{i}") for i in range(10)]
    raw = [Monomial.parse(f"x{i % 10}*y{i}") for i in range(4000)] + minimal
    with within(0.2):
        ll = lcm_lattice(MonomialIdeal(raw))
    assert ll.generators == tuple(minimal) and len(ll) == 1024


def test_the_unbounded_minimal_generators_of_a_wide_staircase_in_budget():
    """The public property is not bounded by ``MAX_ATOMS``: on the staircase
    ``x^i*y^(999-i)`` all 1,000 generators are minimal, so the pass takes
    1000*999/2 divisibility tests, about 0.35 s on 2 shared CPUs with
    Python 3.11; it must stay under 1.5 s."""
    k = 1000
    staircase = [Monomial({v: e for v, e in (("x", i), ("y", k - 1 - i)) if e}) for i in range(k)]
    ideal = MonomialIdeal(staircase[::-1])
    with within(1.5):
        minimal = ideal.minimal_generators
    assert minimal == tuple(staircase[::-1])


def test_an_ideal_with_many_redundant_cuts_builds_its_lcm_lattice_in_budget(monkeypatch):
    """The build closes in only the cuts that are meet-irreducible in the
    lcm-lattice.  The 17 generators ``v_i * prod_j w_j^(pi_j(i))``, for 100
    random permutations ``pi_j`` of 1..17, have a Boolean lcm-lattice and
    1,363 distinct cuts, of which the 17 coatoms are meet-irreducible; the
    build takes no join and no lcm, and under 0.3 s."""
    n, k = 17, 100
    rng = random.Random(0)
    perms = [rng.sample(range(1, n + 1), n) for _ in range(k)]
    ideal = MonomialIdeal(Monomial({f"v{i}": 1, **{f"w{j}": perms[j][i] for j in range(k)}}) for i in range(n))
    monkeypatch.setattr(AtomicLattice, "join_mask", None)
    monkeypatch.setattr(Monomial, "lcm", None)
    with within(0.3):
        ll = lcm_lattice(ideal)
    assert len(ll) == 2**n


def test_monomial_lookup_errors():
    ll = lcm_lattice(FIG1_IDEAL)
    # lcm of generators 1 and 2 is divisible by generator 3 as well,
    # so no element has support {1,2}
    with pytest.raises(NotAnElementError):
        ll.monomial_of(0b011)
    with pytest.raises(NotAnElementError):
        ll.mask_of(Monomial.parse("z"))
    # a float or bool equal to a support is not one; a list is not a mask
    ll = lcm_lattice([Monomial.parse("a"), Monomial.parse("b")])
    for bad in (1.0, True, [1]):
        with pytest.raises(NotAnElementError):
            ll.monomial_of(bad)


def test_not_an_element_error_reads_as_its_plain_message():
    """``NotAnElementError`` stays a ``KeyError``, for callers that catch
    one, but its ``str`` is the message itself, which ``KeyError`` would
    print in quotes."""
    ll, lat = lcm_lattice(FIG1_IDEAL), flat_lattice(3)
    refusals = [
        (lambda: ll.monomial_of(0b011), "no element has support {1,2}"),
        (lambda: ll.mask_of(Monomial.parse("z")), "z is not an element of the lcm-lattice"),
        (lambda: lat.join(0b011, 0b001), "{1,2} is not an element of this lattice"),
        (lambda: Labeling(lat).label(0b011), "{1,2} is not in the lattice"),
        (lambda: Labeling(lat, {0b011: "a"}), "labeled set {1,2} is not in the lattice"),
    ]
    for refused, text in refusals:
        with pytest.raises(KeyError) as excinfo:
            refused()
        assert isinstance(excinfo.value, NotAnElementError) and str(excinfo.value) == text


def test_a_value_that_is_not_a_monomial_is_no_element():
    """A list, a long string, and the spelling of an element are not
    elements: ``in`` says False and ``mask_of`` raises, echoing the value
    cut to ``ECHO_LIMIT``."""
    ll = lcm_lattice([Monomial.parse("a"), Monomial.parse("b")])
    for bad in ([1], "a" * 200, "a"):
        assert bad not in ll
        with pytest.raises(NotAnElementError) as excinfo:
            ll.mask_of(bad)
        assert len(excinfo.value.args[0]) <= ECHO_LIMIT + len(" is not an element of the lcm-lattice")


# -- labeling recovery ----------------------------------------------------------


def test_recovered_labeling_fig1_frozen():
    ll = lcm_lattice(FIG1_IDEAL)
    lat = ll.abstract()
    lab = recovered_labeling(lat, {p: ll.monomial_of(p) for p in lat.sets})
    got = {atoms_of(p): str(m) for p, m in lab.items()}
    assert got == {(): "a", (1,): "b", (2,): "c", (3,): "d", (2, 3): "a"}


def test_recovered_labeling_refuses_a_missing_or_malformed_monomial():
    lat = boolean_lattice(2)
    with pytest.raises(PreconditionError, match=r"^no monomial given for element \{\}$"):
        recovered_labeling(lat, {})
    partial = {0: ONE, 0b01: Monomial.parse("a"), 0b11: Monomial.parse("a*b")}
    with pytest.raises(PreconditionError, match=r"^no monomial given for element \{2\}$"):
        recovered_labeling(lat, partial)
    as_text = {0: "1", 0b01: "a", 0b10: "b", 0b11: "a*b"}
    assert recovered_labeling(lat, as_text) == recovered_labeling(lat, {p: Monomial.parse(m) for p, m in as_text.items()})
    with pytest.raises(MonomialParseError):
        recovered_labeling(lat, {**as_text, 0b11: 5})


def test_recovery_roundtrip_under_chain_conditions(rng):
    for lat, lab in labeled_lattices(rng, 60, chain_condition_labeling):
        x = {a: atom_generator(lat, lab, a) for a in lat.atoms}
        monomial_of = {p: lcm_all(x[a] for a in bits_of(p)) for p in lat.sets}
        assert recovered_labeling(lat, monomial_of) == lab


def test_recovered_labeling_never_labels_top(rng):
    for lat, lab in labeled_lattices(rng, 20, chain_condition_labeling):
        x = {a: atom_generator(lat, lab, a) for a in lat.atoms}
        monomial_of = {p: lcm_all(x[a] for a in bits_of(p)) for p in lat.sets}
        assert lat.top not in dict(recovered_labeling(lat, monomial_of).items())
