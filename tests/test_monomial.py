import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcmlattice import (
    ONE,
    Error,
    Monomial,
    MonomialParseError,
    NotDivisibleError,
    PreconditionError,
    gcd_all,
    lcm_all,
)
from lcmlattice import monomial as monomial_module
from lcmlattice.errors import shown

from conftest import (
    VARIABLE_NAMES,
    Raised,
    assert_matches_oracle,
    grammar_loop_parse,
    parse_texts,
    regex_variable_key,
    sorting_render,
)

# -- parsing and rendering ----------------------------------------------------


@pytest.mark.parametrize(
    "text,exps",
    [
        ("1", {}),
        ("a", {"a": 1}),
        ("a^3", {"a": 3}),
        ("a*b", {"a": 1, "b": 1}),
        ("a^2*c*d", {"a": 2, "c": 1, "d": 1}),
        ("x_1^10*x_1", {"x_1": 11}),  # repeats accumulate
        ("a2*a10*a1", {"a1": 1, "a2": 1, "a10": 1}),
    ],
)
def test_parse(text, exps):
    m = Monomial.parse(text)
    assert dict(m.items()) == exps


@pytest.mark.parametrize(
    "text,pos",
    [
        ("", 0),
        ("a^0", 2),  # exponents are positive
        ("a^", 2),
        ("a**b", 2),
        ("2a", 0),
        ("a^1b", 3),
        ("a*", 2),
        ("a b", 1),
        ("a^01", 2),  # no leading zeros
        pytest.param("a*x^" + "9" * 5000, 4, id="exponent-past-the-int-digit-limit"),
    ],
)
def test_parse_rejects(text, pos):
    with pytest.raises(MonomialParseError) as exc:
        Monomial.parse(text)
    assert exc.value.position == pos


@pytest.mark.parametrize("value", [5, None, 1.0, b"a", ["a"]])
def test_parse_rejects_non_strings(value):
    with pytest.raises(MonomialParseError) as exc:
        Monomial.parse(value)
    assert exc.value.position == 0


def test_render_canonical_order():
    # atom-style names numerically first, others after, lexicographically
    m = Monomial({"b": 1, "a10": 2, "a2": 1, "_t": 3})
    assert str(m) == "a2*a10^2*_t^3*b"
    assert str(Monomial()) == "1"
    assert str(Monomial({"x": 1})) == "x"  # ^1 suppressed


@given(
    st.dictionaries(
        st.from_regex(r"[a-z][a-z0-9]{0,2}", fullmatch=True),
        st.integers(min_value=1, max_value=9),
        max_size=5,
    )
)
def test_parse_render_roundtrip(exps):
    m = Monomial(exps)
    assert Monomial.parse(str(m)) == m


def _render_key(name):
    """``a<k>`` names first by k, then the rest by name; ``a``, ``a0`` and ``a01`` are not atom names."""
    if name[0] == "a" and name[1:].isdigit() and name[1] != "0":
        return (0, int(name[1:]), name)
    return (1, 0, name)


def test_variable_key_matches_the_regex():
    """The string tests give the regex's render key: ``a`` with a positive
    decimal and no leading zero is an atom name, and nothing else is."""
    keys = assert_matches_oracle(monomial_module._variable_key, regex_variable_key, [(n,) for n in VARIABLE_NAMES])
    assert [name for atom, _, name in keys if atom == 0] == ["a1", "a10", "a2", "a99"]


names = st.one_of(
    st.integers(min_value=1, max_value=30).map(lambda k: f"a{k}"),
    st.sampled_from(["a", "a0", "a01", "ab", "b", "_t", "Z"]),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,3}", fullmatch=True),
)
exponent_maps = st.dictionaries(names, st.integers(min_value=1, max_value=5), max_size=6)


@given(exponent_maps, exponent_maps)
def test_render_order_where_order_is_visible(left, right):
    """Arithmetic keeps exponents in insertion order; ``str``, ``items()`` and
    ``variables`` still show the ``a<k>``-first order."""
    product = {v: left.get(v, 0) + right.get(v, 0) for v in left.keys() | right.keys()}
    lcm = {v: max(left.get(v, 0), right.get(v, 0)) for v in left.keys() | right.keys()}
    a, b = Monomial(left), Monomial(right)
    for m, exps in ((a, left), (a * b, product), (a.lcm(b), lcm), ((a * b) / b, left)):
        ordered = sorted(exps.items(), key=lambda it: _render_key(it[0]))
        assert list(m.items()) == ordered
        assert m.variables == tuple(v for v, _ in ordered)
        assert str(m) == ("*".join(v if e == 1 else f"{v}^{e}" for v, e in ordered) or "1")
        assert m == Monomial(exps) and hash(m) == hash(Monomial(exps))


class _RefusedRegex:
    def fullmatch(self, *args):
        raise AssertionError("arithmetic reached the name regex")

    match = fullmatch


def test_arithmetic_never_reaches_the_name_regex(monkeypatch):
    a = Monomial.parse("a2^3*x*y_1^2")
    b = Monomial.parse("a10*x^4*z")
    expected = [Monomial.parse(t) for t in ("a2^3*a10*x^5*y_1^2*z", "a2^3*a10*x^4*y_1^2*z", "x")]
    monkeypatch.setattr(monomial_module, "_IDENT", _RefusedRegex())
    assert [a * b, a.lcm(b), a.gcd(b)] == expected
    assert (a * b) / b == a and a.divides(a * b)
    assert lcm_all([a, b]) == expected[1] and gcd_all([a, b, a * b]) == expected[2]
    assert len({a * b, expected[0]}) == 1


PARSE_NAMES = ["x", "y", "x_1", "Z9", "_t", "a", "a0", "a1", "a2", "a10", "a11"]


def _seeded_terms(rng: random.Random) -> list[tuple[str, int]]:
    """A few ``(name, exponent)`` terms, names often repeated."""
    names = rng.sample(PARSE_NAMES, rng.randint(1, 4))
    return [(rng.choice(names), rng.choice([1, 1, 2, 3, 10, 99])) for _ in range(rng.randint(1, 8))]


def test_parse_equals_the_constructor_on_seeded_texts():
    """Summing in the grammar loop builds the monomial the constructor
    builds from the same terms, repeats and ``a<k>`` names included, and
    ``x^1`` reads as ``x``."""
    rng = random.Random(18)
    for _ in range(500):
        terms = _seeded_terms(rng)
        text = "*".join(v if e == 1 and rng.random() < 0.7 else f"{v}^{e}" for v, e in terms)
        m = Monomial.parse(text)
        assert m == Monomial(terms) and hash(m) == hash(Monomial(terms))
        assert str(m) == str(Monomial(terms)) and list(m.items()) == list(Monomial(terms).items())


def test_parse_matches_the_grammar_loop():
    """One match of the compiled grammar, then a split at ``*`` and ``^``,
    gives the grammar loop's monomial, or its error with the same type, text
    and position, on the grammar's edge cases and 3,000 seeded labels, valid
    or mutated.  Every refusal the loop words is reached."""
    outcomes = assert_matches_oracle(
        Monomial.parse,
        grammar_loop_parse,
        [(text,) for text in parse_texts(31, 3000)],
        reach={"MonomialParseError": 500, "PreconditionError": 20},
    )
    refusals = [out.text for out in outcomes if isinstance(out, Raised)]
    for opening in (
        "expected a string",
        "expected a variable name",
        "expected a positive exponent after '^'",
        f"exponent has more than {monomial_module.MAX_EXPONENT_DIGITS} digits (at",
        "unexpected character",
        "exponent of 'y' has more than",
    ):
        assert any(text.startswith(opening) for text in refusals), opening


class _MatchOnlyRegex:
    """The name regex, for the grammar loop's ``match`` only."""

    def __init__(self, regex):
        self.match = regex.match

    def fullmatch(self, *args):
        raise AssertionError("a name was checked a second time")


def test_parse_checks_each_name_once(monkeypatch):
    expected = Monomial({"a2": 3, "x": 5, "y_1": 2})
    monkeypatch.setattr(monomial_module, "_IDENT", _MatchOnlyRegex(monomial_module._IDENT))
    assert Monomial.parse("a2^3*x*y_1^2*x^4") == expected


# -- arithmetic ---------------------------------------------------------------


def test_multiplication_and_division():
    a = Monomial.parse("a^2*b")
    b = Monomial.parse("b*c")
    assert str(a * b) == "a^2*b^2*c"
    assert (a * b) / b == a
    assert a / a == ONE
    with pytest.raises(NotDivisibleError):
        a / b


def test_lcm_gcd():
    a = Monomial.parse("a^2*b")
    b = Monomial.parse("a*b^3*c")
    assert str(a.lcm(b)) == "a^2*b^3*c"
    assert str(a.gcd(b)) == "a*b"
    assert a.gcd(Monomial.parse("d")) == ONE


def test_divides():
    assert Monomial.parse("a*b").divides(Monomial.parse("a^2*b*c"))
    assert not Monomial.parse("a^3").divides(Monomial.parse("a^2*b"))
    assert ONE.divides(Monomial.parse("z"))


def test_empty_folds_are_unit():
    assert lcm_all([]) == ONE
    assert gcd_all([]) == ONE
    ms = [Monomial.parse(s) for s in ("a^2*b", "a*c", "a^3")]
    assert str(lcm_all(ms)) == "a^3*b*c"
    assert str(gcd_all(ms)) == "a"


_WRONG_KINDS = [5, None, "ab", b"ab", 1.5, [1], {1: 2}, object(), -1, 10**30, True, 10**5000]


@pytest.mark.parametrize("value", _WRONG_KINDS, ids=shown)
def test_an_operand_that_is_no_monomial_is_a_package_error(value):
    """``lcm``, ``gcd`` and ``divides`` refuse an operand that is no
    :class:`Monomial`, and so do the folds, a lone item included, with a
    :class:`PreconditionError` echoing the value: not the ``AttributeError``
    of reading its exponents, and not the value handed back as a gcd."""
    m = Monomial.parse("a*b")
    text = f"the operand must be a Monomial, got {shown(value)}"
    calls = [m.lcm, m.gcd, m.divides, ONE.lcm]
    for fold in (lcm_all, gcd_all):
        calls += [lambda v, fold=fold: fold([v]), lambda v, fold=fold: fold([m, v]), lambda v, fold=fold: fold([v, m])]
    for call in calls:
        with pytest.raises(PreconditionError, match=f"^{re.escape(text)}$"):
            call(value)


def test_a_fold_over_a_mapping_refuses_its_keys():
    """A mapping is iterated as its keys, so each fold refuses the first
    key that is no monomial."""
    for fold in (lcm_all, gcd_all):
        with pytest.raises(PreconditionError, match=r"^the operand must be a Monomial, got 1$"):
            fold({1: 2})


def test_constructor_rejects_bad_input():
    with pytest.raises(ValueError):
        Monomial({"a": 0})
    with pytest.raises(ValueError):
        Monomial({"a": -1})
    with pytest.raises(ValueError):
        Monomial({"9x": 1})
    with pytest.raises(ValueError):
        Monomial({"a": True})


@pytest.mark.parametrize(
    "exponents, text",
    [
        (5, "exponents must be a mapping or an iterable of (name, exponent) pairs, got 5"),
        ("ab", "exponents must be a mapping or an iterable of (name, exponent) pairs, got 'ab'"),
        (b"ab", "exponents must be a mapping or an iterable of (name, exponent) pairs, got b'ab'"),
        ([("a",)], "exponents must be (name, exponent) pairs, got ('a',)"),
        ([("a", 1, 2)], "exponents must be (name, exponent) pairs, got ('a', 1, 2)"),
        ([5], "exponents must be (name, exponent) pairs, got 5"),
    ],
)
def test_constructor_refuses_a_container_that_holds_no_pairs(exponents, text):
    """A value that is not a mapping or an iterable of two-item pairs, a
    string included, is a package error that echoes it."""
    with pytest.raises(PreconditionError) as excinfo:
        Monomial(exponents)
    assert str(excinfo.value) == text


CAP = monomial_module.MAX_EXPONENT_DIGITS


def test_exponent_digit_cap():
    """An exponent of ``MAX_EXPONENT_DIGITS`` digits parses and renders;
    one more digit is refused, by the parser at the exponent and by the
    constructor, also when repeated variables add up past the cap."""
    at_cap = "9" * CAP
    assert str(Monomial.parse(f"a*x^{at_cap}")) == f"a*x^{at_cap}"
    with pytest.raises(MonomialParseError, match=f"more than {CAP} digits") as exc:
        Monomial.parse(f"a*x^1{at_cap}")
    assert exc.value.position == 4
    assert str(Monomial({"x": 10**CAP - 1})) == f"x^{at_cap}"
    for exps in ({"x": 10**CAP}, [("x", 10**CAP - 1), ("x", 1)]):
        with pytest.raises(PreconditionError, match=f"^exponent of 'x' has more than {CAP} digits$"):
            Monomial(exps)


def test_parse_sum_past_the_cap():
    """Repeated exponents may add up past ``MAX_EXPONENT_DIGITS`` digits.  A
    grammar error later in the text still wins; without one, the error is the
    constructor's, with its text, naming the first variable whose sum passes
    the cap."""
    nines = "9" * CAP
    text = f"x^{nines}*x^{nines}"
    with pytest.raises(MonomialParseError, match="expected a variable name") as exc:
        Monomial.parse(text + "*!")
    assert exc.value.position == len(text) + 1
    with pytest.raises(PreconditionError, match=f"^exponent of 'x' has more than {CAP} digits$"):
        Monomial.parse(text)
    big = 10**CAP - 1
    for terms in ([("x", big), ("x", big)], [("y", big), ("x", big), ("x", big), ("y", big)]):
        text = "*".join(f"{v}^{e}" for v, e in terms)
        with pytest.raises(PreconditionError) as parsed:
            Monomial.parse(text)
        with pytest.raises(PreconditionError) as built:
            Monomial(terms)
        assert str(parsed.value) == str(built.value) == f"exponent of 'x' has more than {CAP} digits"


@pytest.mark.parametrize(
    "exps",
    [{"x": -(10**5000)}, {"x": "9" * 5000}, {"9" + "y" * 5000: 1}],
    ids=["5,001-digit exponent", "long string exponent", "long bad name"],
)
def test_constructor_errors_echo_a_bounded_value(exps):
    with pytest.raises(PreconditionError) as excinfo:
        Monomial(exps)
    assert len(str(excinfo.value)) <= 200


@pytest.mark.parametrize("exps", [{"x": 1.5}, {"9x": 1}])
def test_constructor_errors_are_package_errors(exps):
    with pytest.raises(PreconditionError) as excinfo:
        Monomial(exps)
    assert isinstance(excinfo.value, Error)


def test_value_semantics():
    a1 = Monomial.parse("a*b^2")
    a2 = Monomial((("b", 2), ("a", 1)))
    assert a1 == a2 and hash(a1) == hash(a2)
    assert a1 != Monomial.parse("a*b")
    assert len({a1, a2}) == 1


# Names that mix atom names of one to five digits with other identifiers, so
# the render order and the order of insertion differ.
mixed_names = st.one_of(
    st.integers(min_value=1, max_value=99_999).map(lambda k: f"a{k}"),
    st.sampled_from(["a", "a0", "a01", "a1b", "A1", "_a1", "b", "x_1"]),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,4}", fullmatch=True),
)
mixed_exponent_maps = st.dictionaries(mixed_names, st.integers(min_value=1, max_value=12), min_size=1, max_size=8)
_FIXED_EXAMPLES = settings(derandomize=True, max_examples=100, deadline=None)


@_FIXED_EXAMPLES
@given(mixed_exponent_maps, st.data())
def test_insertion_order_is_invisible(exps, data):
    """The same monomial, built in several orders of insertion by every
    route that builds one, is ``==``, hashes equal and renders one string,
    the one the sorting render gives."""
    order = data.draw(st.permutations(sorted(exps)))
    cut = data.draw(st.integers(min_value=0, max_value=len(order)))
    shuffled = {v: exps[v] for v in order}
    left = Monomial({v: exps[v] for v in order[:cut]})
    right = Monomial({v: exps[v] for v in order[cut:]})
    # Each exponent split over two terms, the names reversed, so repeats accumulate.
    halves = [(v, e) for v in reversed(order) for e in (exps[v] // 2, exps[v] - exps[v] // 2) if e]
    extra = Monomial({"q9": 3, order[-1]: 2})
    built = [
        Monomial(exps),
        Monomial(shuffled),
        Monomial(list(shuffled.items())),
        Monomial(halves),
        Monomial.parse("*".join(f"{v}^{e}" for v, e in halves)),
        Monomial.parse(str(Monomial(exps))),
        left * right,
        right * left,
        left.lcm(right),
        right.lcm(left),
        (Monomial(shuffled) * extra) / extra,
        (extra * Monomial(exps)) / extra,
    ]
    text = sorting_render(built[0])
    for m in built:
        assert m == built[0] and hash(m) == hash(built[0]) and str(m) == text
    assert len(set(built)) == 1


@_FIXED_EXAMPLES
@given(mixed_exponent_maps, mixed_names)
def test_a_monomial_keeps_no_view_of_its_input(exps, name):
    """Changing the mapping or the pair list handed to ``Monomial(...)``
    after construction changes neither the monomial nor its hash, taken
    before the change or, for the second of each, only after it."""
    original = Monomial(dict(exps))
    pairs = list(exps.items())
    from_map, from_pairs = Monomial(exps), Monomial(pairs)
    late_map, late_pairs = Monomial(exps), Monomial(pairs)
    hashes = hash(from_map), hash(from_pairs)
    exps[name] = exps.get(name, 0) + 7
    del exps[next(iter(exps))]
    pairs.append((name, 1))
    pairs.pop(0)
    assert hashes == (hash(original), hash(original))
    for m in (from_map, from_pairs, late_map, late_pairs):
        assert m == original and hash(m) == hash(original) and str(m) == sorting_render(original)


# -- algebraic laws, property-checked ----------------------------------------

monomials = st.dictionaries(
    st.sampled_from(["a", "b", "c", "d"]),
    st.integers(min_value=1, max_value=4),
    max_size=4,
).map(Monomial)


@given(monomials, monomials)
def test_lcm_gcd_are_commutative(x, y):
    assert x.lcm(y) == y.lcm(x)
    assert x.gcd(y) == y.gcd(x)


@given(monomials, monomials)
def test_gcd_times_lcm_is_product(x, y):
    assert x.gcd(y) * x.lcm(y) == x * y


@given(monomials, monomials)
def test_divisibility_bounds(x, y):
    assert x.divides(x.lcm(y))
    assert x.gcd(y).divides(x)
    assert x.divides(x * y)


@given(monomials, monomials, monomials)
def test_lcm_associative(x, y, z):
    assert x.lcm(y).lcm(z) == x.lcm(y.lcm(z))
