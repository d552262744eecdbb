"""Labeled lattices, the monomial ideals they generate, and lcm-lattices.

The constructions here connect the two worlds of the package:

* a *labeling* attaches non-unit monomials to some elements of a finite
  atomic lattice (absent = label 1);
* each atom ``a`` yields a generator ``x(a)``, the product of the labels of
  all elements that are **not** above ``a``; collecting these over all atoms
  gives the plain generated ideal.  The labels are grouped once by
  ``(variable, exponent)`` into bitsets over element positions, so the
  exponent of ``v`` in ``x(a)`` is a sum of popcounts against ``a``'s row of
  the incidence table (see :func:`_product_outside`), with no label walked;
* each atom also yields a refined generator ``delta(a)``: the gcd, over all
  elements ``p >= a`` and all atom subsets ``T`` joining to ``p``, of
  ``lcm{x(b) : b in T}``; collecting these gives the weak generated ideal.
  The exponent of each variable ``v`` in ``delta(a)`` is the least level
  ``t`` of ``v`` whose level mask (the atoms ``b`` with ``e_v(x(b)) <= t``)
  joins to an element above ``a`` (see :func:`_refine`): at most one join
  per level, with no atom subset and no element walked;
* the *lcm-lattice* of a monomial ideal is the set of lcms of subsets of its
  minimal generators ordered by divisibility, and forgetting the monomials
  leaves a finite atomic lattice whose atoms are the minimal generators.
  These are found by one divisibility pass in order of total degree (see
  :func:`_minimal_generators`), which the build stops at the first one
  past ``MAX_ATOMS``; the build reads the level masks of
  :func:`_exponent_levels` of the minimal generators only;
* from an lcm-lattice (or any order-isomorphic copy of one) a canonical
  labeling is *recovered*: ``m_p = gcd{monomial(t) : t > p} / monomial(p)``.

File formats: labeling JSON is
``{"lattice": <lattice JSON or filename>, "labels": [{"set": [...],
"monomial": "..."}, ...]}``; ideal text is one monomial per line with ``#``
comments.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Union

from .errors import (
    CapExceededError,
    DegenerateIdealError,
    FormatError,
    MonomialParseError,
    NotAnElementError,
    PreconditionError,
    ValidationError,
    _iterated,
    _pairs,
    shown,
)
from .lattice import (
    MAX_ATOMS, AtomicLattice, _canonical, _element_str, _json_text, _meet_closure, _parse_json, _require_lattice,
    _set_str, atoms_of, bits_of, mask_of,
)
from .monomial import ONE, Monomial, _check_exponent_digits, gcd_all, lcm_all

__all__ = [
    "Labeling",
    "MonomialIdeal",
    "LcmLattice",
    "atom_generator",
    "element_generator",
    "ideal_from_labeling",
    "weak_generator",
    "weak_ideal",
    "lcm_lattice",
    "recovered_labeling",
    "parse_ideal_text",
    "render_ideal_text",
    "labeling_from_json_dict",
    "load_labeling",
]

MAX_LCM_ELEMENTS = 1 << 20


def _as_monomial(value: object) -> Monomial:
    """The one coercion of caller-given monomials: a :class:`Monomial` as is,
    a string parsed (so ``"a*b"`` works), anything else a
    :class:`MonomialParseError`, so ``None`` or ``True`` names no variable."""
    if isinstance(value, Monomial):
        return value
    if isinstance(value, str):
        return Monomial.parse(value)
    raise MonomialParseError(f"expected a monomial or a string, got {shown(value)}", 0)


class Labeling:
    """A partial assignment of non-unit monomials to lattice elements.

    Unlabeled elements implicitly carry the unit monomial, so an explicit
    unit label is rejected rather than silently normalized away.
    """

    __slots__ = ("lattice", "_table", "_groups")

    def __init__(
        self,
        lattice: AtomicLattice,
        assignments: Union[Mapping[int, Monomial], Iterable[tuple[int, Monomial]]] = (),
    ):
        """Label the elements of ``lattice`` from ``(element, label)`` pairs.

        One pass over the pairs.  An element that is an exact ``int`` found in
        the lattice's element index is a member; any other goes through
        ``in lattice``, so a bool, a float or an int subclass gets the answer
        membership gives it.  A ``str`` label is parsed, any other goes
        through :func:`_as_monomial`.  A ``lattice`` that is no
        :class:`AtomicLattice`, an element not in the lattice, a unit label,
        or two unequal labels of one element are refused.
        """
        index = _require_lattice(lattice)._element_index()
        table: dict[int, Monomial] = {}
        for p, m in _pairs(assignments, "assignments", "(element, monomial)"):
            if not (type(p) is int and p in index) and p not in lattice:
                raise NotAnElementError(f"labeled set {_element_str(p)} is not in the lattice")
            m = Monomial.parse(m) if type(m) is str else _as_monomial(m)
            if not m._exps:
                raise ValidationError(
                    f"element {_set_str(p)} labeled with the unit monomial; leave it unlabeled instead"
                )
            if table.setdefault(p, m) != m:
                raise ValidationError(f"element {_set_str(p)} labeled twice, with {table[p]} and {m}")
        self.lattice = lattice
        self._table = {p: table[p] for p in sorted(table, key=index.__getitem__)}
        self._groups: Optional[dict[str, dict[int, int]]] = None

    @classmethod
    def from_sets(
        cls,
        lattice: AtomicLattice,
        assignments: Union[Mapping[tuple, Union[str, Monomial]], Iterable[tuple[Iterable[int], Union[str, Monomial]]]],
    ) -> "Labeling":
        """Build from (atom-index iterable, monomial or string) pairs."""
        pairs = _pairs(assignments, "assignments", "(atom set, monomial)")
        return cls(lattice, ((mask_of(s, lattice.n), m) for s, m in pairs))

    def label(self, p: int) -> Monomial:
        if p not in self.lattice:
            raise NotAnElementError(f"{_element_str(p)} is not in the lattice")
        return self._table.get(p, ONE)

    def items(self) -> Iterator[tuple[int, Monomial]]:
        return iter(self._table.items())

    def __len__(self) -> int:
        return len(self._table)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Labeling)
            and self.lattice == other.lattice
            and self._table == other._table
        )

    def __hash__(self) -> int:
        return hash((self.lattice, tuple(self._table.items())))

    def __repr__(self) -> str:
        return f"Labeling({len(self._table)} of {len(self.lattice)} elements labeled)"

    def to_json_dict(self) -> dict:
        return {
            "lattice": self.lattice.to_json_dict(),
            "labels": [
                {"set": list(atoms_of(p)), "monomial": str(m)} for p, m in self._table.items()
            ],
        }

    def to_json(self) -> str:
        return _json_text(self.to_json_dict())


def labeling_from_json_dict(
    doc,
    base_dir: Optional[Path] = None,
    lattice: Optional[AtomicLattice] = None,
) -> Labeling:
    """Read a labeling document.

    ``doc["lattice"]`` may be an inline lattice document or a filename; the
    filename form needs ``base_dir`` to resolve against.  An explicit
    ``lattice`` argument overrides whatever the document says.
    """
    if not isinstance(doc, dict) or "labels" not in doc:
        raise FormatError('a labeling document needs a "labels" key')
    if lattice is None:
        ref = doc.get("lattice")
        if ref is None:
            raise FormatError('a labeling document needs a "lattice" key (inline or filename)')
        if isinstance(ref, str):
            if base_dir is None:
                raise FormatError("labeling references a lattice file but no base directory was given")
            lattice = AtomicLattice.from_json_dict(_read_json(Path(base_dir) / ref))
        elif isinstance(ref, dict):
            lattice = AtomicLattice.from_json_dict(ref)
        else:
            raise FormatError('"lattice" must be an object or a filename string')
    labels = doc["labels"]
    if not isinstance(labels, list):
        raise FormatError('"labels" must be a list')
    pairs = []
    for entry in labels:
        if not isinstance(entry, dict) or "set" not in entry or "monomial" not in entry:
            raise FormatError('each label entry needs "set" and "monomial" keys')
        if not isinstance(entry["set"], list):
            raise FormatError(f'"set" must be a list of atom indices, got {shown(entry["set"])}')
        if not isinstance(entry["monomial"], str):
            raise FormatError(f'"monomial" must be a string, got {shown(entry["monomial"])}')
        try:
            m = Monomial.parse(entry["monomial"])
        except (MonomialParseError, PreconditionError) as exc:
            raise FormatError(f"bad monomial for set {shown(entry['set'])}: {exc}") from None
        pairs.append((mask_of(entry["set"], lattice.n), m))
    return Labeling(lattice, pairs)


def _read_text(path: Union[str, Path]) -> str:
    """The one reader of input files.  Bytes that are not UTF-8 are a
    :class:`FormatError` naming the file; an unreadable file stays an
    ``OSError``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _read_json(path: Union[str, Path]):
    """Parse a JSON file; malformed text is a :class:`FormatError` naming the file."""
    return _parse_json(_read_text(path), path)


def load_labeling(path: Union[str, Path]) -> Labeling:
    return labeling_from_json_dict(_read_json(path), base_dir=Path(path).parent)


class MonomialIdeal:
    """A monomial ideal, kept as the generator list it was built from.

    The raw generators are preserved (duplicates and divisibilities intact)
    because diagnostic output wants the atom-indexed list; use
    :attr:`minimal_generators` for the canonical minimal generating set.
    """

    __slots__ = ("generators", "_levels", "_minimal")

    def __init__(self, generators: Iterable[Monomial]):
        """A string is refused, not read as its one-character monomials."""
        self.generators = tuple(map(_as_monomial, _iterated(generators, "generators must be an iterable of monomials")))
        self._levels = None
        self._minimal = None

    @classmethod
    def _with_levels(cls, generators: tuple[Monomial, ...], levels: Optional[dict], minimal=None) -> "MonomialIdeal":
        """The ideal of a tuple of monomials the package built, with no
        coercion, and the :func:`_exponent_levels` table of ``generators`` its
        builder already holds, or None to compute it when first read; and
        its minimal generators when the builder knows them.  Never hand it
        caller input or a table of other generators."""
        ideal = object.__new__(cls)
        ideal.generators, ideal._levels, ideal._minimal = generators, levels, minimal
        return ideal

    def _level_table(self) -> dict[str, dict[int, int]]:
        """The :func:`_exponent_levels` table of the generators, kept with
        this ideal: handed over by its builder (``delta`` gets it from
        :func:`_refine`) or computed the first time it is read.
        :func:`lcm_lattice`, ``delta`` and the specific-map decision of
        :mod:`lcmlattice.classify` all read it, so one ideal's exponent
        arithmetic is done at most once."""
        if self._levels is None:
            self._levels = _exponent_levels(self.generators)
        return self._levels

    @property
    def minimal_generators(self) -> tuple[Monomial, ...]:
        """Generators with duplicates and multiples removed, input order kept
        (see :func:`_minimal_generators`).  Unbounded: for ``m`` generators
        of which ``K`` are minimal, up to ``m*K`` divisibility tests."""
        if self._minimal is None:
            self._minimal = _minimal_generators(self.generators, len(self.generators))
        return self._minimal

    def _minimal_ideal(self) -> "MonomialIdeal":
        """The ideal an lcm-lattice is built on: this ideal when no generator
        is redundant, else the ideal of its minimal generators, whose level
        table is computed when first read (``classify`` builds one
        lcm-lattice per minimal tuple, so equal minimal tuples of ``x`` and
        ``delta`` compute one table) and whose own minimal generators are
        known to be all of them.  Each minimal generator is an atom, so more
        than ``MAX_ATOMS`` are a :class:`CapExceededError` from the bounded
        pass, which also runs when :attr:`minimal_generators` already holds
        more, so the refusal builds no level table."""
        gens = self._minimal
        if gens is None or len(gens) > MAX_ATOMS:
            gens = self._minimal = _minimal_generators(self.generators, MAX_ATOMS)
        return self if len(gens) == len(self.generators) else MonomialIdeal._with_levels(gens, None, gens)

    @property
    def has_unit_generator(self) -> bool:
        return any(g.is_one for g in self.generators)

    def __len__(self) -> int:
        return len(self.generators)

    def __iter__(self) -> Iterator[Monomial]:
        return iter(self.generators)

    def __eq__(self, other) -> bool:
        return isinstance(other, MonomialIdeal) and self.generators == other.generators

    def __hash__(self) -> int:
        return hash(self.generators)

    def __repr__(self) -> str:
        return "MonomialIdeal(" + ", ".join(str(g) for g in self.generators) + ")"


def _minimal_generators(gens: tuple[Monomial, ...], most: int) -> tuple[Monomial, ...]:
    """The generators that no other one properly divides and no equal one
    comes before, in input order; a :class:`CapExceededError` the moment
    more than ``most`` are found.

    One pass over the generators by total degree, ties in input order (the
    sort is stable), keeps a generator when no kept one divides it.  A
    proper divisor, or an equal generator earlier in the input, sorts first,
    and if it was dropped a kept one divides it, so a generator with either
    is dropped; a kept one dividing a later one is itself one of the two.
    One sort and at most ``most`` divisibility tests per generator: the
    refusal of ``x0 ... x{m-1}`` at ``most = 64`` takes 65*64/2 tests,
    whatever ``m``.
    """
    kept: dict[int, Monomial] = {}
    for i, g in sorted(enumerate(gens), key=lambda ig: sum(ig[1]._exps.values())):
        if not any(h.divides(g) for h in kept.values()):
            if len(kept) == most:
                raise CapExceededError(f"more than {most} minimal generators exceed the supported maximum {most} atoms")
            kept[i] = g
    return tuple(kept[i] for i in sorted(kept))


def parse_ideal_text(text: str) -> MonomialIdeal:
    """Parse ideal text: one monomial per line, ``#`` starts a comment."""
    if not isinstance(text, str):
        raise FormatError(f"expected a string, got {shown(text)}")
    gens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            gens.append(Monomial.parse(line))
        except (MonomialParseError, PreconditionError) as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
    return MonomialIdeal(gens)


def render_ideal_text(ideal: MonomialIdeal) -> str:
    return "".join(str(g) + "\n" for g in ideal.generators)


# ---------------------------------------------------------------------------
# Generators from a labeling


def _label_groups(lat: AtomicLattice, labeling: Labeling) -> dict[str, dict[int, int]]:
    """The labels grouped by variable ``v`` and exponent ``e``: the bitset,
    over canonical element positions, of the elements whose label has
    exponent ``e`` in ``v``.  Read by :func:`_product_outside` and, through
    the per-variable carriers, by both condition checks of
    :mod:`lcmlattice.classify`: the chain check and the overlap check.

    Every function taking a lattice and a labeling reaches these refusals,
    of a value that is no :class:`Labeling` and of a labeling of another
    lattice (so of a lattice of the wrong kind), before it reads a label or
    the lattice.  The groups are computed the first time they are read and
    kept with the labeling, as :meth:`MonomialIdeal._level_table` keeps its
    table with its ideal; equal lattices have the same canonical positions,
    so they serve any lattice the labeling belongs to."""
    if not isinstance(labeling, Labeling):
        raise PreconditionError(f"the labeling must be a Labeling, got {shown(labeling)}")
    if labeling.lattice != lat:
        raise PreconditionError("labeling belongs to a different lattice")
    if labeling._groups is None:
        index = lat._element_index()
        labeling._groups = _exponent_groups((1 << index[q], m) for q, m in labeling.items())
    return labeling._groups


def _exponent_groups(bits_and_monomials: Iterable[tuple[int, Monomial]]) -> dict[str, dict[int, int]]:
    """Per variable ``v`` and exponent ``e > 0``, the OR of the bits of the
    monomials with exponent ``e`` in ``v``: one pass over their exponents.
    The groups of one variable are disjoint, as a monomial has one exponent
    of each variable."""
    groups: dict[str, dict[int, int]] = {}
    for bit, m in bits_and_monomials:
        for v, e in m._exps.items():
            by_exp = groups.get(v)
            if by_exp is None:
                by_exp = groups[v] = {}
            by_exp[e] = by_exp.get(e, 0) | bit
    return groups


def _product_outside(groups: dict[str, dict[int, int]], above: int) -> Monomial:
    """The product of the labels of the elements outside ``above``, a bitset
    over canonical positions, from the :func:`_label_groups` of the labeling.

    The exponent of ``v`` is the sum, over the exponents ``e`` of ``v``, of
    ``e`` times the number of elements of that group outside ``above``: one
    AND and one popcount per group, with no label walked.  A sum past
    ``MAX_EXPONENT_DIGITS`` is a :class:`PreconditionError`, with the
    constructor's text.
    """
    outside = ~above
    acc: dict[str, int] = {}
    for v, by_exp in groups.items():
        total = 0
        for e, group in by_exp.items():
            total += e * (group & outside).bit_count()
        if total:
            _check_exponent_digits(v, total)
            acc[v] = total
    return Monomial._trusted(acc)


def element_generator(lat: AtomicLattice, labeling: Labeling, p: int) -> Monomial:
    """Product of the labels of all elements not above ``p``.

    On atoms this is the ideal generator ``x(a)``; on general elements it is
    the comparison map whose injectivity makes chain-per-variable labelings
    work.  A sum of label exponents can pass the ``MAX_EXPONENT_DIGITS``
    cap; that is a :class:`PreconditionError`, with the constructor's text.
    """
    groups = _label_groups(lat, labeling)
    return _product_outside(groups, lat._above(lat._require(p)))


def _require_atom(lat: AtomicLattice, labeling: Labeling, atom: int) -> None:
    """The refusals of :func:`_label_groups`, then :class:`NotAnElementError`
    for a non-element and :class:`PreconditionError` for a non-atom."""
    _label_groups(lat, labeling)
    lat._require(atom)
    if atom.bit_count() != 1:
        raise PreconditionError(f"{_set_str(atom)} is not an atom of the lattice")


def atom_generator(lat: AtomicLattice, labeling: Labeling, atom: int) -> Monomial:
    """The generator ``x(a)`` contributed by one atom."""
    _require_atom(lat, labeling, atom)
    return element_generator(lat, labeling, atom)


def ideal_from_labeling(lat: AtomicLattice, labeling: Labeling) -> MonomialIdeal:
    """The ideal generated by ``x(a)`` over all atoms, in atom order: the
    elements above atom ``a`` are its row of the incidence table."""
    groups = _label_groups(lat, labeling)
    return MonomialIdeal._with_levels(tuple(_product_outside(groups, row) for row in lat._atom_rows()), None)


def weak_generator(lat: AtomicLattice, labeling: Labeling, atom: int) -> Monomial:
    """The refined generator ``delta(a)``; always divides ``x(a)``.

    The single-atom API.  It computes the whole :func:`weak_ideal` (every
    ``x(a)`` and one join per exponent level) and returns one entry, so a
    caller that wants ``delta`` of several atoms should call
    :func:`weak_ideal` once instead.
    """
    _require_atom(lat, labeling, atom)
    return weak_ideal(lat, labeling).generators[atom.bit_length() - 1]


def weak_ideal(lat: AtomicLattice, labeling: Labeling) -> MonomialIdeal:
    """The ideal generated by ``delta(a)`` over all atoms, in atom order."""
    return _refine(lat, ideal_from_labeling(lat, labeling))


def _exponent_levels(generators: tuple[Monomial, ...]) -> dict[str, dict[int, int]]:
    """Per variable ``v`` of the generators, and for each exponent ``t`` of
    ``v`` over them in increasing order, the level mask ``D(v, t)`` of the
    generators ``i`` with ``e_v(g_i) <= t``.  The last level of every
    variable holds all generators.  :meth:`MonomialIdeal._level_table`
    keeps it with its ideal for :func:`_refine`, :class:`LcmLattice` and
    the specific-map decision in :mod:`lcmlattice.classify`.  It runs on
    ``x`` and on the at most ``MAX_ATOMS`` minimal generators a build is
    given, never on ``delta``, whose table :func:`_refine` builds from the
    joins it takes, and never before the build's atom refusal.

    One pass groups the generators by exponent (:func:`_exponent_groups`);
    then each variable sorts its distinct exponents once and ORs the groups
    in that order.  Level 0, the generators without ``v``, is the complement
    of the sum of its groups, which are disjoint."""
    full, table = (1 << len(generators)) - 1, {}
    for v, by_exp in _exponent_groups((1 << i, g) for i, g in enumerate(generators)).items():
        below = full & ~sum(by_exp.values())
        levels = {0: below} if below else {}
        for e in sorted(by_exp):
            below |= by_exp[e]
            levels[e] = below
        table[v] = levels
    return table


def _level_masks(table: dict[str, dict[int, int]]) -> set[int]:
    """The empty set and every level mask of an :func:`_exponent_levels` table."""
    return {0}.union(*(levels.values() for levels in table.values()))


def _refine(lat: AtomicLattice, ideal: MonomialIdeal) -> MonomialIdeal:
    """The ideal of ``delta(a)`` for every atom, in atom order, with its
    level table, from the ideal of the plain generators ``x(a)`` in atom
    order, read through its level table.

    No atom subset and no element is walked: ``e_v(delta(a))`` is the least
    level ``t`` of ``v`` with ``a <= J(v, t)``, the join of the level mask
    ``D(v, t)`` of :func:`_exponent_levels`.  For an element ``p`` and an
    atom set ``T`` joining to it, ``e_v(lcm{x(b) : b in T})`` is the largest
    exponent of ``v`` over ``T``, and the gcd takes the least of these, so
    ``e_v(delta(a))`` is the least ``t`` such that some ``p >= a`` is the
    join of an atom set inside ``D(v, t)``.  Joining sets within ``p`` are
    upward-closed, so that set may be taken to be ``D(v, t) & p``.

    * If ``D(v, t) & p`` joins to ``p`` for some ``p >= a``, then
      ``p <= J(v, t)``, so ``a <= J(v, t)``.
    * If ``a <= J(v, t)``, then ``p = J(v, t)`` works, because
      ``D(v, t) & p = D(v, t)`` joins to ``p``.  The atom's own term,
      ``T = {a}`` at ``p = a``, is the case of ``a`` in ``D(v, t)``.

    So the levels of each variable are walked in increasing order with at most
    one join each, and the atoms newly below the join get that level (level 0
    leaves ``v`` out).  That is at most ``k*n`` joins for ``k`` variables and
    ``n`` atoms.  As a corollary, the level masks of the ``delta(a)`` are
    exactly the joins of the level masks of the ``x(a)``: for every level
    ``t`` of ``v`` over the ``x(a)``, ``D_delta(v, t) = J(v, t)``, as the
    atoms below ``J(v, t)`` are those given a level ``<= t``.  So the
    table of ``delta`` is built here: the exponents of ``v`` over the
    ``delta(a)`` are the levels whose join reaches new atoms, in increasing
    order, each with its join as its level mask, and ``v`` is kept when
    some atom gets a positive level.
    """
    deltas: list[dict[str, int]] = [{} for _ in ideal.generators]
    table = {}
    for v, levels in ideal._level_table().items():
        mine: dict[int, int] = {}
        reached = 0
        for t, below in levels.items():
            if below & ~reached:  # else J(v, t) is the join already reached
                mine[t] = joined = lat.join_mask(below)
                if t:
                    for b in bits_of(joined & ~reached):
                        deltas[b.bit_length() - 1][v] = t
                reached = joined
        if len(mine) > 1 or 0 not in mine:
            table[v] = mine
    return MonomialIdeal._with_levels(tuple(Monomial._trusted(exps) for exps in deltas), table)


# ---------------------------------------------------------------------------
# LCM lattices


def _check_lcm_generators(gens: tuple[Monomial, ...]) -> None:
    """Refuse the generators no lcm-lattice is defined on: none, or a unit."""
    if not gens:
        raise DegenerateIdealError("the zero ideal has no lcm-lattice")
    if any(g.is_one for g in gens):
        raise DegenerateIdealError("the unit monomial is a generator; the lcm-lattice is undefined")


def _support_lcms(generators: tuple[Monomial, ...], supports: Iterable[int]) -> dict[int, Monomial]:
    """Each support mapped to the lcm of the generators in it, generator
    ``i`` standing for atom ``i``: the elements of an lcm-lattice, and the
    map g of the specific-map checks in :mod:`lcmlattice.classify`."""
    return {s: lcm_all(generators[b.bit_length() - 1] for b in bits_of(s)) for s in supports}


class LcmLattice:
    """All lcms of subsets of an ideal's minimal generators, by divisibility.

    Forgetting the monomials leaves a finite atomic lattice over the minimal
    generators (generator ``i`` is atom ``i``): the support of an element is
    the set of generators dividing it, supports are distinct, and the family
    of supports is intersection-closed.  :meth:`abstract` returns that view.

    Past the minimal-generator pass, the build takes no lcm of monomial
    pairs and no divisibility test.  Its supports are the intersections of
    the empty set and the level masks ``D(v, t) = {i : e_v(g_i) <= t}`` of
    :func:`_exponent_levels` (the full set being the empty intersection),
    and each element is the lcm of the generators in its support:

    * If ``S`` is such an intersection and ``M = lcm{g_i : i in S}``, then
      ``supp(M) = S``.  Each ``i`` in ``S`` has ``g_i | M``.  If ``S`` is
      the intersection of the ``D(v_j, t_j)``, then ``e_{v_j}(M) <= t_j``,
      so a generator dividing ``M`` lies in every ``D(v_j, t_j)``, that is,
      in ``S``.  For ``S = {}``, ``M = 1`` and no generator divides it.
    * Every lcm of generators is one of these.  For a nonempty ``T`` let
      ``S`` be the intersection of the levels ``D(v, t_v)``, where ``t_v`` is
      the largest exponent of ``v`` over ``T``.  Then ``T`` lies in ``S``,
      and no generator in ``S`` raises any ``t_v``, so
      ``lcm{g_i : i in T} = lcm{g_i : i in S}``.  The empty ``T`` gives 1.

    So a support determines its monomial, and the family has one member per
    element.  The lattice keeps only the generators and the supports, and
    each accessor that reads a monomial takes the lcms it reads, on every
    call.  ``len``, :attr:`generators` and :meth:`abstract` read the
    supports alone, so a caller that needs only the shape of the lattice
    takes no lcm.
    """

    __slots__ = ("generators", "_abstract")

    def __init__(self, generators: Union[MonomialIdeal, Iterable[Monomial]]):
        """The lcm-lattice of the ideal the generators span, built on its
        minimal generators; a :class:`MonomialIdeal` lends its own level table
        when none of its generators is redundant (see
        :meth:`MonomialIdeal._minimal_ideal`).

        Each minimal generator is an atom, so more than ``MAX_ATOMS`` of them
        are refused with a :class:`CapExceededError` by the bounded pass of
        :func:`_minimal_generators`, which stops at the first one past the
        cap, before any level table or closure.  The level table is built on
        the minimal generators only, when the build reads it.  The
        closure only grows, one support at a time, so the build stops the
        moment it finds one support more than ``MAX_LCM_ELEMENTS``, and the
        error names that count, the cap plus one.  ``k`` generators give at
        most ``2^k`` elements, so up to 20 generators always build.

        The cuts (the empty set and the level masks) are closed in by
        decreasing size through :func:`~lcmlattice.lattice._meet_closure`,
        the closure validation runs too, with the cap as its limit and no
        budget.  It skips a cut already in the closure, and its docstring
        proves that the kept cuts are exactly the meet-irreducibles of the
        lcm-lattice below the top, so one pass runs per meet-irreducible,
        plus one lookup per cut.  The closure is the same set in any order,
        so the cap refuses the same ideals, at the same count.

        The abstract lattice wraps the supports unchecked: they are
        intersection-closed and hold {} and the full set (see the class
        docstring), and each singleton ``{i}`` is the support of ``g_i``, as
        no other minimal generator divides it.  Its meet-irreducibles are
        the kept cuts and the top."""
        ideal = generators if isinstance(generators, MonomialIdeal) else MonomialIdeal(generators)
        _check_lcm_generators(ideal.generators)
        ideal = ideal._minimal_ideal()
        gens = ideal.generators
        n = len(gens)
        cuts = sorted(_level_masks(ideal._level_table()), key=int.bit_count, reverse=True)
        closure = _meet_closure(cuts, (1 << n) - 1, MAX_LCM_ELEMENTS)
        if closure is None:
            raise CapExceededError(f"lcm-lattice reached {MAX_LCM_ELEMENTS + 1} elements, over the cap {MAX_LCM_ELEMENTS}")
        self.generators = gens
        self._abstract = AtomicLattice._trusted(n, _canonical(closure[0]), closure[1])

    @property
    def monomials(self) -> tuple[Monomial, ...]:
        """The elements, in canonical support order: one lcm each."""
        return tuple(_support_lcms(self.generators, self._abstract.sets).values())

    def abstract(self) -> AtomicLattice:
        """The underlying atomic lattice, with generator ``i`` as atom ``i``;
        its elements are the supports in canonical order."""
        return self._abstract

    def monomial_of(self, mask: int) -> Monomial:
        """The element with support ``mask``, one lcm; a float or bool equal
        to a support is not one, as for :class:`AtomicLattice`."""
        if mask not in self._abstract:
            raise NotAnElementError(f"no element has support {_element_str(mask)}")
        return _support_lcms(self.generators, (mask,))[mask]

    def _support(self, m: object) -> Optional[int]:
        """The support of ``m`` if it is an element, else None: one
        divisibility test per generator and at most one lcm.

        ``m`` is an element exactly when its support, the generators
        dividing it, is an element whose lcm is ``m``.  An element ``M`` is
        ``lcm{g_i : i in S}`` for a member ``S`` with ``supp(M) = S`` (the
        first bullet of the class docstring), and an lcm of generators is
        an element."""
        if not isinstance(m, Monomial):
            return None
        s = sum(1 << i for i, g in enumerate(self.generators) if g.divides(m))
        return s if s in self._abstract and _support_lcms(self.generators, (s,))[s] == m else None

    def mask_of(self, m: object) -> int:
        """The support of the element ``m``; a value that is not a
        :class:`Monomial` is not an element."""
        mask = self._support(m)
        if mask is None:
            raise NotAnElementError(f"{shown(m, str)} is not an element of the lcm-lattice")
        return mask

    @property
    def top_monomial(self) -> Monomial:
        return lcm_all(self.generators)

    def hasse_labels(self) -> dict[int, str]:
        """Display labels (monomial strings) keyed by abstract element, for DOT."""
        return {mask: str(m) for mask, m in _support_lcms(self.generators, self._abstract.sets).items()}

    def covers_monomials(self) -> tuple[tuple[Monomial, Monomial], ...]:
        monomial_of = _support_lcms(self.generators, self._abstract.sets)
        return tuple((monomial_of[lo], monomial_of[hi]) for lo, hi in self._abstract.covers())

    def __len__(self) -> int:
        return len(self._abstract)

    def __iter__(self) -> Iterator[Monomial]:
        return iter(self.monomials)

    def __contains__(self, m: object) -> bool:
        return self._support(m) is not None

    def __repr__(self) -> str:
        return f"LcmLattice({len(self.generators)} generators, {len(self)} elements)"


def lcm_lattice(ideal: Union[MonomialIdeal, Iterable[Monomial]]) -> LcmLattice:
    """The lcm-lattice of an ideal's minimal generators (see :class:`LcmLattice`).

    When no generator is dropped, the lattice is built on the ideal's own
    level table, so an ideal that has already read it (for a specific map,
    or as ``delta``) computes no second table."""
    return LcmLattice(ideal)


def recovered_labeling(lat: AtomicLattice, monomial_of: Mapping[int, Monomial]) -> Labeling:
    """The canonical labeling read off an isomorphic copy of an lcm-lattice.

    ``monomial_of`` must assign to every element of ``lat`` the monomial of
    its image under an order-isomorphism onto some lcm-lattice.  Each element
    gets ``gcd{monomial_of[t] : t > p} / monomial_of[p]`` (the empty gcd at
    the top is the top's own monomial, so the top always ends up unlabeled);
    unit labels are dropped.  A ``lat`` that is no :class:`AtomicLattice`,
    a ``monomial_of`` that is no mapping, and an element with no monomial
    (the first such element named) are each a :class:`PreconditionError`; a
    string is parsed, and any other value that is not a :class:`Monomial`
    refused, as :class:`MonomialIdeal` does.
    """
    _require_lattice(lat)
    if not isinstance(monomial_of, Mapping):
        raise PreconditionError(f"monomial_of must be a mapping from elements to monomials, got {shown(monomial_of)}")
    absent = next((p for p in lat.sets if p not in monomial_of), None)
    if absent is not None:
        raise PreconditionError(f"no monomial given for element {_set_str(absent)}")
    monomial_of = {p: _as_monomial(monomial_of[p]) for p in lat.sets}
    assignments = {}
    for p in lat.sets:
        above = [monomial_of[q] for q in lat.filter(p) if q != p]
        g = gcd_all(above) if above else monomial_of[lat.top]
        m = g / monomial_of[p]
        if not m.is_one:
            assignments[p] = m
    return Labeling(lat, assignments)
