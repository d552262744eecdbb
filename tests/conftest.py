"""The one home of the test corpora, the slow independent oracles and the
differential check that compares each fast path with its oracle.

* Oracles restate a definition, or keep the code a fast path replaced; the
  ROADMAP keeps every one.  :func:`worked_example` reads the paper's
  examples from the package fixtures.
* Builders make lattices and labelings.  Random ones draw from a seeded
  ``random.Random``, so failures reproduce.  The labeling builders come in
  three flavours:

  * :func:`random_labeling` — arbitrary labels, no structural guarantee;
  * :func:`chain_condition_labeling` — guaranteed to satisfy the chain
    conditions (all non-top meet-irreducibles labeled, per-variable chains);
  * :func:`overlap_condition_labeling` — guaranteed to satisfy the overlap
    conditions while usually *violating* the chain conditions.

* Named corpora: the ``*_CORPORA`` tables, keyed by the test ids they give,
  and the item streams below them.  Each call builds its items fresh, since
  some tests check that a lattice has not built its lazy tables yet; only
  :func:`lattices_with` is cached.  Test modules define no corpus of their
  own (``tests/test_tooling.py`` checks this).
* :func:`assert_matches_oracle` is the one differential check: the fast
  path and the oracle on every argument tuple, a package error counting as
  an outcome only where the test names its type, and the least counts of
  the outcome kinds the cases must reach.
* :func:`within` is the one wall-clock budget of a block of work.
"""

from __future__ import annotations

import random
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, permutations

import pytest

from lcmlattice import (
    AtomicLattice,
    Error,
    IntervalCriterionReport,
    IntervalWitness,
    Labeling,
    Monomial,
    MonomialParseError,
    NotAnElementError,
    ONE,
    ValidationError,
    atom_generator,
    enumerate_all_lattices,
    enumerate_super_atomic,
    fixtures,
    gcd_all,
    labeling_from_json_dict,
    lcm_all,
    support_labeling,
)
from lcmlattice.classify import _first_incomparable, _unlabeled_meet_irreducible
from lcmlattice.errors import shown
from lcmlattice.ideals import _check_lcm_generators
from lcmlattice.lattice import _canon_key, _set_str, atoms_of, bits_of
from lcmlattice.monomial import MAX_EXPONENT_DIGITS, _variable_key
from lcmlattice.superatomic import _pairs_within


@lru_cache(maxsize=None)
def lattices_with(n: int) -> tuple[AtomicLattice, ...]:
    """Every atomic lattice on n atoms (n <= 4), cached across tests."""
    return tuple(enumerate_all_lattices(n))


def brute_force_isomorphic(p: AtomicLattice, q: AtomicLattice) -> bool:
    """Try every atom bijection.  Slow but independent of the search in
    :func:`lcmlattice.lattice_isomorphic`; only sensible for small n."""
    if p.n != q.n or len(p) != len(q):
        return False
    targets = set(q.sets)
    for perm in permutations(range(p.n)):
        image = set()
        for mask in p.sets:
            out = 0
            rest = mask
            while rest:
                low = rest & -rest
                out |= 1 << perm[low.bit_length() - 1]
                rest ^= low
            image.add(out)
        if image == targets:
            return True
    return False


def pair_scan_validation(n: int, masks) -> tuple[int, ...]:
    """The validation of a family of masks over ``n`` atoms by its
    definition: every required set (empty, singletons, full) that is missing
    and every pair of members whose intersection is missing, scanned over
    all C(m, 2) pairs in canonical order.  Raises the
    :class:`ValidationError` the constructor must raise, with its text and
    payload, or returns the lattice's sets in canonical order.  The
    quadratic check :class:`AtomicLattice` replaced with its closure walk,
    kept as its oracle: the walk lists a subsequence of these pairs."""
    seen = set(masks)
    top = (1 << n) - 1
    missing = sorted({m for m in (0, *(1 << i for i in range(n)), top) if m not in seen}, key=_canon_key)
    non_closed = [(a, b) for a, b in combinations(sorted(seen, key=_canon_key), 2) if a & b not in seen]
    if not missing and not non_closed:
        return tuple(sorted(seen, key=_canon_key))
    raise validation_error(missing, non_closed)


def validation_error(missing: list[int], non_closed: list[tuple[int, int]]) -> ValidationError:
    """The :class:`ValidationError` for these missing required sets and
    non-closed pairs, masks in canonical order: the text names the missing
    sets and the first five pairs, with a "(+K more)" count of the rest."""
    parts = []
    if missing:
        parts.append("missing required sets: " + ", ".join(_set_str(m) for m in missing))
    if non_closed:
        listed = ", ".join(f"{_set_str(a)} & {_set_str(b)}" for a, b in non_closed[:5])
        more = "" if len(non_closed) <= 5 else f" (+{len(non_closed) - 5} more)"
        parts.append("intersections not in family: " + listed + more)
    return ValidationError(
        "; ".join(parts),
        missing_required=[atoms_of(m) for m in missing],
        non_closed_pairs=[(atoms_of(a), atoms_of(b)) for a, b in non_closed],
    )


def join_oracle(lat: AtomicLattice, mask: int) -> int:
    """The least element containing ``mask``, by scanning every element:
    the oracle for :meth:`AtomicLattice.join_mask`."""
    return min((s for s in lat.sets if mask & ~s == 0), key=_canon_key)


def joining_sets_oracle(lat: AtomicLattice, p: int) -> tuple[int, ...]:
    """The subsets of ``p``'s atoms whose join is ``p``, increasing, by
    taking the :func:`join_oracle` of every subset: the empty set joins to
    the bottom, so it is one exactly when ``p`` is.  Walks all 2^|p| subsets
    with no ``join_mask`` or ``joining_sets``, so the oracles built on it
    check those methods from the outside; the oracle for
    :meth:`AtomicLattice.joining_sets`."""
    subsets, sub = [0], p
    while sub:
        subsets.append(sub)
        sub = (sub - 1) & p
    return tuple(sorted(T for T in subsets if join_oracle(lat, T) == p))


def pair_joins_oracle(lat: AtomicLattice) -> dict[int, int]:
    """The :func:`join_oracle` of every atom pair {a, b}, a = b included,
    keyed by ``a | b``: the joins the oracles over atom pairs read, each
    taken once, with no ``join_mask``."""
    return {a | b: join_oracle(lat, a | b) for a in lat.atoms for b in lat.atoms}


def cubic_covers(lat: AtomicLattice) -> tuple[tuple[int, int], ...]:
    """Cover pairs by the literal definition: ``p < q`` with nothing strictly
    between.  The cubic scan :meth:`AtomicLattice.covers` replaced, kept as its
    oracle; same canonical order (by upper element, then lower)."""
    out = []
    for i, q in enumerate(lat.sets):
        below = [p for p in lat.sets[:i] if p & ~q == 0 and p != q]
        for p in below:
            if not any(p & ~r == 0 and r & ~q == 0 and r != p and r != q for r in below):
                out.append((p, q))
    return tuple(sorted(out, key=lambda pq: (pq[1].bit_count(), pq[1], pq[0].bit_count(), pq[0])))


def meet_irreducibles_oracle(lat: AtomicLattice) -> tuple[int, ...]:
    """Meet-irreducibles by the literal definition: p is the top, or no two
    elements strictly above p intersect in p.  Scans every pair above every
    element; the oracle for :meth:`AtomicLattice.meet_irreducibles`, in the
    same canonical order."""
    out = []
    for p in lat.sets:
        above = [q for q in lat.sets if p & ~q == 0 and q != p]
        if p == lat.top or not any(q & r == p for q, r in combinations(above, 2)):
            out.append(p)
    return tuple(out)


def element_generator_oracle(lat: AtomicLattice, labeling: Labeling, p: int) -> Monomial:
    """The product of the labels of the elements not above ``p``, by walking
    every label and adding its exponents.  The loop
    :func:`lcmlattice.element_generator` replaced with per-group popcounts
    on the incidence table, kept as its oracle; a sum past
    ``MAX_EXPONENT_DIGITS`` raises the constructor's ``PreconditionError``."""
    acc: dict[str, int] = {}
    for q, m in labeling.items():
        if p & ~q:
            for v, e in m.items():
                acc[v] = acc.get(v, 0) + e
    return Monomial(acc)


def subset_weak_generators(lat: AtomicLattice, labeling: Labeling) -> tuple[Monomial, ...]:
    """``delta(a)`` straight from the definition: the gcd, over every element
    ``p >= a`` and every atom subset ``T`` joining to ``p``, of
    ``lcm{x(b) : b in T}``.  Walks all 2^|p| subsets of each element, so it is
    only sensible for small n; the oracle for :func:`lcmlattice.weak_ideal`."""
    x_of = {a: atom_generator(lat, labeling, a) for a in lat.atoms}
    per_element = {
        p: gcd_all(lcm_all(x_of[b] for b in bits_of(T)) for T in joining_sets_oracle(lat, p))
        for p in lat.sets
        if p != 0
    }
    return tuple(gcd_all(term for p, term in per_element.items() if a & ~p == 0) for a in lat.atoms)


def specific_map_oracle(lat: AtomicLattice, atom_monomials: tuple[Monomial, ...]):
    """Is g(p) = lcm of the atom monomials below p an isomorphism onto the
    lcm-lattice of those monomials?  By the definition: refuse the
    degenerate tuples the lcm-lattice build refuses (a unit generator),
    build the lcm-lattice of the minimal
    generators (:func:`pairwise_minimal_generators`) by
    :func:`subset_lcm_lattice` (no level mask is read), then
    check size, injectivity, membership and order reflection (order is
    preserved upward by construction), with an O(m^2) divisibility scan.
    Returns ``(verdict, witness)``; the oracle for the level-mask decision in
    :mod:`lcmlattice.classify`, whose false verdicts carry this same witness."""
    gens = pairwise_minimal_generators(atom_monomials)
    _check_lcm_generators(gens)
    ll = set(subset_lcm_lattice(gens)[0])
    if len(ll) != len(lat):
        return False, f"lcm-lattice has {len(ll)} elements, the lattice has {len(lat)}"
    g = {p: lcm_all(atom_monomials[b.bit_length() - 1] for b in bits_of(p)) for p in lat.sets}
    seen: dict[Monomial, int] = {}
    for p in lat.sets:
        if g[p] in seen:
            return False, f"map collision: {_set_str(seen[g[p]])} and {_set_str(p)} both map to {g[p]}"
        if g[p] not in ll:
            return False, f"{_set_str(p)} maps to {g[p]}, which is not in the lcm-lattice"
        seen[g[p]] = p
    for p in lat.sets:
        for q in lat.sets:
            if g[p].divides(g[q]) and p & ~q:
                return False, (
                    f"order not reflected: image of {_set_str(p)} divides image of {_set_str(q)} "
                    f"but {_set_str(p)} is not below {_set_str(q)}"
                )
    return True, None


def sorting_exponent_levels(generators: tuple[Monomial, ...]) -> dict[str, dict[int, int]]:
    """The exponent-level table of ``generators`` by one sort per variable
    of its whole column of exponents: the code the one-pass
    ``ideals._exponent_levels`` and the table ``ideals._refine`` hands over
    replaced.  Per variable of the generators, each exponent ``t`` in
    increasing order maps to the generators ``i`` with ``e_v(g_i) <= t``."""
    exps = [dict(g._exps) for g in generators]
    table = {}
    for v in {v for e in exps for v in e}:
        column = [e.get(v, 0) for e in exps]
        levels: dict[int, int] = {}
        below = 0
        for i, e in sorted(enumerate(column), key=lambda ie: ie[1]):
            below |= 1 << i
            levels[e] = below
        table[v] = levels
    return table


def pairwise_minimal_generators(generators: tuple[Monomial, ...]) -> tuple[Monomial, ...]:
    """Generators with duplicates and multiples removed, input order kept, by
    the pairwise divisibility scan that
    :attr:`lcmlattice.MonomialIdeal.minimal_generators` replaced: a
    generator goes when another one properly divides it or equals it and
    comes first.  O(k^2) ``Monomial.divides``; kept as the oracle."""
    return tuple(
        g
        for i, g in enumerate(generators)
        if not any((h != g and h.divides(g)) or (h == g and j < i) for j, h in enumerate(generators) if j != i)
    )


def eager_lcm_lattice(generators: tuple[Monomial, ...]) -> dict:
    """Everything an :class:`lcmlattice.LcmLattice` on the minimal
    ``generators`` answers, built at once: the supports of
    :func:`subset_lcm_lattice`, each element the ``lcm_all`` of the
    generators in its support, the lookups both ways, the display labels, the
    abstract lattice through the validating constructor and the divisibility
    covers.  The oracle of the accessors, which take their lcms when read."""
    supports = sorted(set(subset_lcm_lattice(generators)[1].values()), key=_canon_key)
    monomials = tuple(lcm_all(generators[b.bit_length() - 1] for b in bits_of(s)) for s in supports)
    return {
        "monomials": monomials,
        "mask_of": dict(zip(monomials, supports)),
        "monomial_of": dict(zip(supports, monomials)),
        "hasse_labels": {s: str(m) for s, m in zip(supports, monomials)},
        "abstract": AtomicLattice(len(generators), supports),
        "covers": divisibility_covers(monomials),
    }


def subset_lcm_lattice(generators: tuple[Monomial, ...]) -> tuple[tuple[Monomial, ...], dict[Monomial, int]]:
    """The lcm-lattice of a generator tuple by its definition: every lcm of a
    subset (the closure of {1} under lcm with each generator), with each
    element's support the mask of the generators dividing it.  Returns the
    elements in canonical support order and the support of each.  The build
    :class:`lcmlattice.LcmLattice` replaced, kept as its oracle."""
    elements = {ONE}
    for g in generators:
        elements.update(e.lcm(g) for e in tuple(elements))
    support = {m: sum(1 << i for i, g in enumerate(generators) if g.divides(m)) for m in elements}
    return tuple(sorted(elements, key=lambda m: _canon_key(support[m]))), support


def divisibility_covers(monomials: tuple[Monomial, ...]) -> tuple[tuple[Monomial, Monomial], ...]:
    """Cover pairs ``(lo, hi)`` of divisibility on distinct ``monomials``:
    ``lo`` properly divides ``hi`` with no element strictly between.  Ordered
    by upper element, then lower, in the given order of ``monomials``."""
    idx = range(len(monomials))
    above = [sum(1 << j for j in idx if j != i and monomials[i].divides(monomials[j])) for i in idx]
    below = [sum(1 << i for i in idx if above[i] >> j & 1) for j in idx]
    return tuple(
        (monomials[i], monomials[j]) for j in idx for i in idx if above[i] >> j & 1 and not above[i] & below[j]
    )


def literal_super_atomic_oracle(lat: AtomicLattice) -> bool:
    """Super-atomic by the literal definition: every atom set joining to an
    element of two or more atoms holds exactly one pair that already joins
    to it.  Walks all 2^|p| atom subsets of each element, so it is only
    sensible for small n; the oracle for :func:`lcmlattice.is_super_atomic`.
    Every join is a :func:`join_oracle`, taken once per atom pair."""
    pair_join = pair_joins_oracle(lat)
    for p in lat.sets:
        if p == 0 or p.bit_count() == 1:
            continue
        for T in joining_sets_oracle(lat, p):
            pairs = 0
            for pr in _pairs_within(T):
                if pair_join[pr] == p:
                    pairs += 1
                    if pairs > 1:
                        break
            if pairs != 1:
                return False
    return True


def supp_characterization_oracle(lat: AtomicLattice) -> bool:
    """The support characterization decided with joins: every element p of
    two or more atoms has a pair {a, b} of atoms joining to p with both
    supp(p) - {a} and supp(p) - {b} in the family.  The join-based version
    of :func:`lcmlattice.is_super_atomic_via_supp`, kept as its oracle."""
    for p in lat.sets:
        if p.bit_count() < 2:
            continue
        removable = [b for b in bits_of(p) if (p ^ b) in lat]
        if not any(join_oracle(lat, a | b) == p for a, b in combinations(removable, 2)):
            return False
    return True


def supp_scan_oracle(lat: AtomicLattice) -> bool:
    """The support characterization with one scan of the earlier elements per
    pair: at each element p of two or more atoms, a pair {a, b} of the atoms
    b with supp(p) - {b} in the family joins to p when no element before p
    contains both.  O(m^2) set tests; the scan
    :func:`lcmlattice.is_super_atomic_via_supp` replaced with one walk over
    incidence columns, kept as its oracle."""
    sets = lat.sets
    members = set(sets)
    for i, p in enumerate(sets):
        if p.bit_count() < 2:
            continue
        removable = [b for b in bits_of(p) if (p ^ b) in members]
        for a, b in combinations(removable, 2):
            pr = a | b
            for q in sets[:i]:
                if pr & ~q == 0:
                    break  # a and b join below p
            else:
                break  # a and b join to p
        else:
            return False
    return True


def joining_pairs_oracle(lat: AtomicLattice) -> dict[int, list[int]]:
    """Each element's atom pairs that join to it, found element by element
    by joining every pair of its own atoms.  The oracle for the joining
    pairs of ``superatomic._atom_pairs``, which takes no join: one AND of
    two incidence rows per atom pair.  The joins are
    :func:`pair_joins_oracle`'s."""
    pair_join = pair_joins_oracle(lat)
    return {p: [pr for pr in _pairs_within(p) if pair_join[pr] == p] for p in lat.sets}


def bit_loop_atom_rows(lat: AtomicLattice) -> list[int]:
    """The incidence table one (element, atom) incidence at a time: bit i of
    row ``a`` is set when the i-th element contains atom ``a + 1``.  The bit
    loop ``AtomicLattice._atom_rows`` replaced with byte transposition, kept
    as its oracle."""
    rows = [0] * lat.n
    for i, s in enumerate(lat.sets):
        bit = 1 << i
        while s:
            low = s & -s
            rows[low.bit_length() - 1] |= bit
            s ^= low
    return rows


def loop_atoms_of(mask: int) -> tuple[int, ...]:
    """The 1-based atom indices of a mask, one set bit at a time, and the
    refusal of a negative int: the loop :func:`atoms_of` replaced with byte
    tables, kept as its oracle."""
    if mask < 0:
        raise NotAnElementError(f"{shown(mask)} is not a set of atoms")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


_ATOM_NAME = re.compile(r"a([1-9][0-9]*)")


def regex_variable_key(name: str):
    """The render key by a regex for ``a<k>`` names: the one
    ``monomial._variable_key`` replaced with string tests, kept as its
    oracle."""
    m = _ATOM_NAME.fullmatch(name)
    if m:
        return (0, int(m.group(1)), name)
    return (1, 0, name)


def sorting_render(m: Monomial) -> str:
    """``str(m)`` as it was rendered from exponents kept sorted by name: the
    pairs sorted again with ``monomial._variable_key`` of each name through
    a lambda per term.  The oracle of the render through the cached key."""
    pairs = sorted(sorted(m._exps.items()), key=lambda it: _variable_key(it[0]))
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in pairs) or "1"


_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_EXPONENT = re.compile(r"[1-9][0-9]*")


def grammar_loop_parse(text: str) -> Monomial:
    """:meth:`Monomial.parse` by its grammar loop: a name, then an optional
    ``^`` and exponent, then ``*`` or the end, each exponent summed as it is
    read.  The parser ``Monomial.parse`` replaced with one match of a
    compiled pattern, kept as its oracle: the same monomial, or the same
    error, text and position.  A sum past the cap is the constructor's
    error for the first variable to pass it, raised once the whole text
    parses."""
    if not isinstance(text, str):
        raise MonomialParseError(f"expected a string, got {shown(text)}", 0)
    if text == "1":
        return ONE
    acc: dict[str, int] = {}
    over = None
    pos = 0
    while True:
        m = _NAME.match(text, pos)
        if not m:
            raise MonomialParseError("expected a variable name", pos)
        name = m.group()
        pos = m.end()
        exp = 1
        if pos < len(text) and text[pos] == "^":
            pos += 1
            m = _EXPONENT.match(text, pos)
            if not m:
                raise MonomialParseError("expected a positive exponent after '^'", pos)
            if m.end() - pos > MAX_EXPONENT_DIGITS:
                raise MonomialParseError(f"exponent has more than {MAX_EXPONENT_DIGITS} digits", pos)
            exp = int(m.group())
            pos = m.end()
        acc[name] = acc.get(name, 0) + exp
        if over is None and acc[name] >= 10**MAX_EXPONENT_DIGITS:
            over = name
        if pos == len(text):
            break
        if text[pos] != "*":
            raise MonomialParseError(f"unexpected character {shown(text[pos])}", pos)
        pos += 1
    if over is not None:
        Monomial({over: acc[over]})  # refused by the constructor, with its text
    return Monomial(acc)


def interval_count(lat: AtomicLattice, lo: int, hi: int) -> int:
    """N([lo, hi]) by scanning every element: the oracle for the interval
    counts of ``superatomic._atom_pairs``."""
    return sum(1 for q in lat.sets if lo & ~q == 0 and q & ~hi == 0)


def strong_interval_criterion_oracle(lat: AtomicLattice) -> tuple[bool, str | None]:
    """The strong interval criterion on a super-atomic lattice by its triple
    loop: at each element p with generating pair {a_i, a_j}, for every atom
    a_k and then every atom a_r of p, three joins and three interval counts.
    The loop :func:`lcmlattice.check_strong_interval_criterion` replaced
    with one table over atom pairs, kept as its oracle: ``(verdict,
    witness)``, with the same witness text.  Every join is a
    :func:`join_oracle`, read from :func:`pair_joins_oracle`."""
    n_top = {q: interval_count(lat, q, lat.top) for q in lat.sets}
    pair_join = pair_joins_oracle(lat)
    joining = joining_pairs_oracle(lat)
    for p in lat.sets:
        if p.bit_count() < 2:
            continue
        pair = joining[p][0]
        ai = pair & -pair
        aj = pair ^ ai
        for ak in bits_of(p):
            n_ik = n_top[pair_join[ai | ak]]
            n_jk = n_top[pair_join[aj | ak]]
            for ar in bits_of(p):
                n_rk = n_top[pair_join[ar | ak]]
                if n_ik > n_rk and n_jk > n_rk:
                    return False, (
                        f"at element {_set_str(p)}: both members of the "
                        f"generating pair ({ai.bit_length()},{aj.bit_length()}) give strictly larger "
                        f"intervals than atom {ar.bit_length()} does, against atom {ak.bit_length()}"
                    )
    return True, None


def chain_conditions_oracle(lat: AtomicLattice, labeling: Labeling):
    """The chain conditions read through :attr:`Monomial.variables`, each
    label's variables in render order.  The check
    :func:`lcmlattice.check_strong_conditions` replaced with one that reads
    the stored exponents, kept as its oracle: ``(verdict, witness)``."""
    unlabeled = _unlabeled_meet_irreducible(lat, labeling)
    if unlabeled:
        return False, unlabeled
    by_var: dict[str, list[int]] = {}
    for p, m in labeling.items():
        for v in m.variables:
            by_var.setdefault(v, []).append(p)
    for v in sorted(by_var):
        pair = _first_incomparable(by_var[v])
        if pair:
            return False, f"variable {v} labels incomparable elements {pair}"
    return True, None


def overlap_conditions_oracle(lat: AtomicLattice, labeling: Labeling):
    """The overlap conditions by gcd and exact quotient, over every labeled
    pair: each incomparable pair with a non-unit gcd, then each label divided
    by that gcd, then a gcd against every label to list the entangled
    elements.  :func:`lcmlattice.check_weak_conditions` walks only the pairs
    that share a variable, read off the per-variable carriers of the label
    groups, and tests ``divides``; this is its oracle: ``(verdict,
    witness)``."""
    unlabeled = _unlabeled_meet_irreducible(lat, labeling)
    if unlabeled:
        return False, unlabeled
    labeled = list(labeling.items())
    for (p, mp), (q, mq) in combinations(labeled, 2):
        if p & ~q == 0 or q & ~p == 0:
            continue
        shared = mp.gcd(mq)
        if shared.is_one:
            continue
        for hi, lo, m_hi in ((p, q, mp), (q, p, mq)):
            if (m_hi / shared).is_one:
                return False, (
                    f"label of {_set_str(hi)} is contained in its overlap with the label of {_set_str(lo)}"
                )
            pair = _first_incomparable([s for s, ms in labeled if s != lo and not m_hi.gcd(ms).is_one])
            if pair:
                return False, f"elements entangled with the label of {_set_str(hi)} are not a chain: {pair}"
    return True, None


def weak_interval_criterion_oracle(lat: AtomicLattice) -> IntervalCriterionReport:
    """The weak interval criterion with an :class:`IntervalWitness` built for
    every candidate tried, keeping the one that works or else the last.  The
    loop :func:`lcmlattice.check_weak_interval_criterion` replaced with one
    that builds only the kept witness, kept as its oracle.  Every join is
    a :func:`join_oracle`, read from :func:`pair_joins_oracle`."""
    n_top = {q: interval_count(lat, q, lat.top) for q in lat.sets}
    pair_join = pair_joins_oracle(lat)
    joining = joining_pairs_oracle(lat)
    witnesses = []
    for p in lat.sets:
        if p == 0 or p.bit_count() == 1:
            continue
        outside = [a for a in lat.atoms if not a & p]
        last = None
        satisfied = None
        for pr in joining[p]:
            lo = pr & -pr
            for r in (lo, pr ^ lo):
                bad = next((k for k in outside if n_top[pair_join[r | k]] >= n_top[p]), None)
                w = IntervalWitness(
                    element=atoms_of(p),
                    satisfied=bad is None,
                    pair=(lo.bit_length(), (pr ^ lo).bit_length()),
                    chosen=r.bit_length(),
                    violating=None if bad is None else bad.bit_length(),
                )
                if bad is None:
                    satisfied = w
                    break
                last = w
            if satisfied:
                break
        witnesses.append(satisfied or last or IntervalWitness(element=atoms_of(p), satisfied=False))
    return IntervalCriterionReport(
        hypothesis_holds=all(w.satisfied for w in witnesses),
        witnesses=tuple(witnesses),
    )


def worked_example(name: str) -> Labeling:
    """The labeling of one of the paper's worked examples, read fresh from
    the package's fixture ``name`` (``"fig2"``, ``"fig3"``, ...); its
    lattice is ``.lattice``."""
    return labeling_from_json_dict(fixtures.load(name))


def flat_lattice(n: int) -> AtomicLattice:
    """The lattice {0, atoms, top} on n atoms."""
    return AtomicLattice(n, [0, *(1 << i for i in range(n)), (1 << n) - 1])


def interval_lattice(n: int) -> AtomicLattice:
    """The intervals [i..j] of atoms 1..n, with the empty set: super-atomic,
    and its top has all n atoms."""
    return AtomicLattice(n, [0, *((2 << j) - (1 << i) for i in range(n) for j in range(i, n))])


def boolean_lattice(n: int) -> AtomicLattice:
    return AtomicLattice(n, range(1 << n))


def random_lattice(rng: random.Random, n: int, extra: int | None = None) -> AtomicLattice:
    """A random atomic lattice: required sets, a few random subsets, then
    intersection closure."""
    full = (1 << n) - 1
    sets = {0, full} | {1 << i for i in range(n)}
    if extra is None:
        extra = rng.randint(0, max(1, 2 ** n // 3))
    for _ in range(extra):
        sets.add(rng.randint(1, full))
    changed = True
    while changed:
        changed = False
        for a in list(sets):
            for b in list(sets):
                if (a & b) not in sets:
                    sets.add(a & b)
                    changed = True
    return AtomicLattice(n, sets)


def sized_random_lattice(rng: random.Random, n: int, size: int) -> AtomicLattice:
    """A random atomic lattice of ``size`` to ``size * 1.1`` elements, as the
    ``wide-generators`` benchmark draws its sparse ones: random subsets are
    added, closing under intersection after each, until the family is large
    enough; a draw that overshoots the band starts over."""
    full = (1 << n) - 1
    while True:
        sets = {0, full} | {1 << i for i in range(n)}
        while len(sets) < size:
            new = rng.randint(1, full)
            sets |= {new & s for s in sets} | {new}
        if len(sets) <= size * 1.1:
            return AtomicLattice(n, sets)


def benchmark_shaped_lattices(seed: int) -> list[AtomicLattice]:
    """B8, then three :func:`sized_random_lattice` each on 8, 9 and 10 atoms
    with 40, 70 and 100 elements, drawn from ``random.Random(seed)``: the
    Boolean and sparse shapes of the ``wide-generators`` benchmark."""
    rng = random.Random(seed)
    sparse = [sized_random_lattice(rng, n, size) for n, size in ((8, 40), (9, 70), (10, 100)) for _ in range(3)]
    return [boolean_lattice(8), *sparse]


def graph_lattice(rng: random.Random, n: int, density: float) -> AtomicLattice:
    """{0, atoms, the edges of a random graph on the atoms, top}, each atom
    pair an edge with probability ``density``.  An edge is the join of its
    two atoms, and every other pair of atoms joins to the top."""
    edges = [(1 << i) | (1 << j) for i, j in combinations(range(n), 2) if rng.random() < density]
    return AtomicLattice(n, [0, *(1 << i for i in range(n)), *edges, (1 << n) - 1])


def wide_weak_criterion_lattices(seed: int) -> list[AtomicLattice]:
    """Lattices on 8 to 20 atoms, past the reach of the per-candidate weak
    criterion oracle: B10 to B12, flat on 12 to 20 atoms, the sparse ones of
    :func:`benchmark_shaped_lattices`, and 60 :func:`graph_lattice` on 8 to
    16 atoms, drawn from ``random.Random(seed)``.  The flat lattices pass
    the criterion, the Boolean and sparse ones fail it, and the graph
    lattices give both verdicts: an edge passes when one of its atoms is on
    no other edge."""
    rng = random.Random(seed)
    graphs = [graph_lattice(rng, rng.randint(8, 16), rng.choice((0.05, 0.1, 0.2))) for _ in range(60)]
    return [
        *map(boolean_lattice, (10, 11, 12)),
        *map(flat_lattice, (12, 16, 20)),
        *benchmark_shaped_lattices(seed)[1:],
        *graphs,
    ]


def random_lattices(rng: random.Random, count: int, atoms: tuple[int, int] = (2, 7)):
    """``count`` random lattices on ``atoms[0]`` to ``atoms[1]`` atoms, each
    drawn from ``rng`` when it is reached."""
    for _ in range(count):
        yield random_lattice(rng, rng.randint(*atoms))


def seeded_random_lattices(count: int, seed: int, atoms: tuple[int, int] = (2, 7)) -> list[AtomicLattice]:
    """:func:`random_lattices` from a fresh ``random.Random(seed)``: the same
    for a given seed."""
    return list(random_lattices(random.Random(seed), count, atoms))


def random_monomial(rng: random.Random, variables: list[str], max_exp: int = 3) -> Monomial:
    chosen = rng.sample(variables, k=rng.randint(1, min(3, len(variables))))
    return Monomial({v: rng.randint(1, max_exp) for v in chosen})


def random_labeling(rng: random.Random, lat: AtomicLattice, variables=None) -> Labeling:
    """Arbitrary labels on a random subset of non-top, non-bottom elements."""
    if variables is None:
        variables = ["x", "y", "z", "w"]
    candidates = [p for p in lat.sets if p not in (0, lat.top)]
    k = rng.randint(0, len(candidates))
    table = {p: random_monomial(rng, variables) for p in rng.sample(candidates, k=k)}
    return Labeling(lat, table)


def chain_condition_labeling(rng: random.Random, lat: AtomicLattice) -> Labeling:
    """Label every non-top meet-irreducible (and sometimes more) so that each
    variable's support is a chain; mostly via fresh per-element variables,
    with an occasional shared variable threaded along a chain."""
    table: dict[int, Monomial] = {}
    fresh = 0
    for p in lat.meet_irreducibles():
        if p == lat.top:
            continue
        fresh += 1
        table[p] = Monomial({f"v{fresh}": rng.randint(1, 3)})
    others = [p for p in lat.sets if p not in table and p != lat.top and p != 0]
    for p in rng.sample(others, k=rng.randint(0, min(2, len(others)))):
        fresh += 1
        table[p] = Monomial({f"v{fresh}": rng.randint(1, 3)})
    if table and rng.random() < 0.7:
        order = list(table)
        rng.shuffle(order)
        chain: list[int] = []
        for p in order:
            if all(p & ~q == 0 or q & ~p == 0 for q in chain):
                chain.append(p)
        if len(chain) >= 2:
            for p in chain:
                table[p] = table[p] * Monomial({"w": rng.randint(1, 2)})
    return Labeling(lat, table)


def overlap_condition_labeling(rng: random.Random, lat: AtomicLattice) -> Labeling:
    """Label every non-top meet-irreducible with a fresh variable, then make
    one incomparable pair share an extra common variable.  The shared variable
    breaks the chain conditions but keeps both tangle sets to a single
    element, so the overlap conditions still hold."""
    table: dict[int, Monomial] = {}
    fresh = 0
    mi = [p for p in lat.meet_irreducibles() if p != lat.top]
    for p in mi:
        fresh += 1
        table[p] = Monomial({f"v{fresh}": rng.randint(1, 3)})
    incomparable = [(p, q) for i, p in enumerate(mi) for q in mi[i + 1 :] if p & ~q and q & ~p]
    if incomparable:
        p, q = rng.choice(incomparable)
        shared = Monomial({"c": rng.randint(1, 2)})
        table[p] = table[p] * shared
        table[q] = table[q] * shared
    return Labeling(lat, table)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


# -- named corpora ---------------------------------------------------------------


def up_to(make, top: int) -> list[AtomicLattice]:
    """``make(n)`` for n = 1 to ``top``: the Boolean, flat or interval
    lattices up to ``top`` atoms."""
    return [make(n) for n in range(1, top + 1)]


def small_lattices() -> list[AtomicLattice]:
    """Every atomic lattice with n <= 4 (555 of them), from the cache."""
    return [lat for n in (1, 2, 3, 4) for lat in lattices_with(n)]


def super_atomic_and_near_misses(*sizes: int):
    """Each super-atomic lattice on n atoms, for each n of ``sizes``, then
    each copy of it with one non-required meet-irreducible removed (still a
    lattice, never super-atomic)."""
    for lat in (lat for n in sizes for lat in enumerate_super_atomic(n)):
        yield lat
        for m in lat.meet_irreducibles():
            if m.bit_count() >= 2 and m != lat.top:
                yield AtomicLattice(lat.n, [s for s in lat.sets if s != m])


def intervals64_and_near_miss() -> list[AtomicLattice]:
    """The interval lattice at the atom cap, and its copy without {1, 2}."""
    intervals64 = interval_lattice(64)
    return [intervals64, AtomicLattice(64, [m for m in intervals64.sets if m != 0b11])]


def order_lattices() -> list[AtomicLattice]:
    """Fresh lattices for the order queries, one from each way a lattice
    gets its meet-irreducibles.  Validated: 200 random ones on 1 to 6 atoms,
    and the Boolean, flat and interval lattices on 1 to 6 atoms.  Trusted: a
    random relabeling of each random one, and a relabeling of that, which
    carry the tuple; every super-atomic lattice on 2 to 5 atoms (the
    enumeration starts at 2), which walks for its own; and a relabeling of
    each of those, made before its source has a tuple to carry."""
    rng = random.Random(15)

    def relabeled(lats: list[AtomicLattice]) -> list[AtomicLattice]:
        return [lat.relabel(rng.sample(range(1, lat.n + 1), lat.n)) for lat in lats]

    randoms = [random_lattice(rng, rng.randint(1, 6)) for _ in range(200)]
    shapes = [lat for make in (boolean_lattice, flat_lattice, interval_lattice) for lat in up_to(make, 6)]
    once = relabeled(randoms)
    super_atomic = [lat for n in range(2, 6) for lat in enumerate_super_atomic(n)]
    return randoms + shapes + once + relabeled(once) + super_atomic + relabeled(super_atomic)


def wide_lattices() -> list[AtomicLattice]:
    """Validated lattices of the shapes the ``wide-generators`` benchmark
    walks: the Boolean ones on 7 to 9 atoms, the flat ones on 10 to 12, and
    30 random ones on 8 to 10 atoms from a few random subsets each."""
    rng = random.Random(27)
    randoms = [random_lattice(rng, n, rng.randint(5, 40)) for n in (8, 9, 10) for _ in range(10)]
    return [*map(boolean_lattice, (7, 8, 9)), *map(flat_lattice, (10, 11, 12)), *randoms]


def validation_families(rng: random.Random, count: int):
    """``(n, masks)`` for ``count`` families on at most 6 atoms: closed ones,
    closed ones with one set added or one set that is not required removed
    (on 4 to 6 atoms, as every such change on 3 atoms stays closed), closed
    ones without one required set, and arbitrary ones, each as a shuffled
    list with a repeat."""
    for i in range(count):
        kind = i % 5
        n = rng.randint(4, 6) if kind in (1, 2) else rng.randint(1, 6)
        full = (1 << n) - 1
        required = {0, full, *(1 << a for a in range(n))}
        family = set(random_lattice(rng, n).sets)
        if kind == 1 and len(family) <= full:
            family.add(rng.choice([m for m in range(full + 1) if m not in family]))
        elif kind == 2 and family - required:
            family.discard(rng.choice(sorted(family - required)))
        elif kind == 3:
            family.discard(rng.choice(sorted(required)))
        elif kind == 4:
            family = {rng.randint(0, full) for _ in range(rng.randint(0, 1 << n))}
        masks = sorted(family)
        rng.shuffle(masks)
        yield n, masks + masks[:1]


def small_subsets_family(n: int, k: int) -> list[int]:
    """Every subset of at most ``k`` of ``n`` atoms, and the full set: a
    lattice whose meet-irreducibles are its k-subsets and the top, many
    for its size (m = 387 and 211 at n = 10, k = 4)."""
    return [m for m in range(1 << n) if m.bit_count() <= k] + [(1 << n) - 1]


def late_refusals(seed: int, count: int):
    """``(n, masks)`` for ``count`` random lattices on 5 to 8 atoms, each
    once without one member x and then whole.  x is not a required set, and
    the only members strictly between x and the top are two, p and q, with
    p & q = x, so (p, q) is the one pair of the family without x whose
    intersection is missing.  At least three meet-irreducibles below the
    top come no later than the later of p and q in decreasing canonical
    order, so a closure from the top down keeps at least three members
    before it meets the missing intersection."""
    rng = random.Random(seed)
    found = 0
    while found < count:
        n = rng.randint(5, 8)
        lat = random_lattice(rng, n, rng.randint(4, 30))
        top = lat.top
        irreducible = [m for m in meet_irreducibles_oracle(lat) if m != top]
        for x in lat.sets:
            above = [q for q in lat.sets if x & ~q == 0 and q not in (x, top)]
            if x.bit_count() < 2 or x == top or len(above) != 2 or above[0] & above[1] != x:
                continue
            later = min(above, key=_canon_key)
            if sum(_canon_key(m) >= _canon_key(later) for m in irreducible) >= 3:
                yield n, [m for m in lat.sets if m != x]
                yield n, list(lat.sets)
                found += 1
                break


LABELING_BUILDERS = (random_labeling, chain_condition_labeling, overlap_condition_labeling)


def labeled_lattices(rng: random.Random, count: int, make=random_labeling, atoms: tuple[int, int] = (2, 4)):
    """``count`` random lattices, each with a labeling from ``make``, both
    drawn from ``rng`` in turn."""
    for lat in random_lattices(rng, count, atoms):
        yield lat, make(rng, lat)


def seeded_labelings(seed: int, count: int = 150):
    """A random, a chain-condition and an overlap-condition labeling of each
    of ``count`` random lattices on 2 to 6 atoms."""
    rng = random.Random(seed)
    for _ in range(count):
        lat = random_lattice(rng, rng.randint(2, 6))
        for build in LABELING_BUILDERS:
            yield lat, build(rng, lat)


def support_labelings():
    """The support labeling of the flat lattices with n <= 12 and the
    Boolean ones with n <= 7."""
    for lat in up_to(flat_lattice, 12) + up_to(boolean_lattice, 7):
        yield lat, support_labeling(lat)


def benchmark_shaped_labelings(seed: int):
    """Each of the :func:`benchmark_shaped_lattices` with its support
    labeling and one labeling from each of ``LABELING_BUILDERS``, drawn
    from ``random.Random(seed)``."""
    rng = random.Random(seed)
    for lat in benchmark_shaped_lattices(seed):
        yield lat, support_labeling(lat)
        for build in LABELING_BUILDERS:
            yield lat, build(rng, lat)


def swallowing_labelings(seed: int, count: int = 150):
    """Overlap-condition labelings in which one label is multiplied into the
    label of an incomparable element, so that it divides that label."""
    rng = random.Random(seed)
    for _ in range(count):
        lat = random_lattice(rng, rng.randint(3, 6))
        table = dict(overlap_condition_labeling(rng, lat).items())
        incomparable = [pq for pq in combinations(table, 2) if pq[0] & ~pq[1] and pq[1] & ~pq[0]]
        if incomparable:
            small, big = rng.sample(rng.choice(incomparable), 2)
            table[big] = table[big] * table[small]
            yield lat, Labeling(lat, table)


def mixed_labelings(rng: random.Random, rounds: int = 60):
    """``rounds`` random lattices on 2 to 4 atoms, each with a chain-condition
    (35%), an overlap-condition (25%) or a random labeling."""
    for _ in range(rounds):
        lat = random_lattice(rng, rng.randint(2, 4))
        kind = rng.random()
        make = (
            chain_condition_labeling if kind < 0.35 else overlap_condition_labeling if kind < 0.6 else random_labeling
        )
        yield lat, make(rng, lat)


def differential_labelings(rng: random.Random):
    """Every lattice with n <= 3 with four random labelings, a chain-condition
    and an overlap-condition one; then 120 random lattices on 2 to 5 atoms
    with a labeling of a random flavour."""
    for lat in (lat for n in (1, 2, 3) for lat in lattices_with(n)):
        for make in (random_labeling,) * 4 + LABELING_BUILDERS[1:]:
            yield lat, make(rng, lat)
    for _ in range(120):
        lat = random_lattice(rng, rng.randint(2, 5))
        yield lat, rng.choice(LABELING_BUILDERS)(rng, lat)


def support_and_random_labelings(seed: str, lattices):
    """Each lattice with its support labeling and a random labeling drawn
    from ``random.Random(seed)``."""
    rng = random.Random(seed)
    for lat in lattices:
        yield lat, support_labeling(lat)
        yield lat, random_labeling(rng, lat)


def order_not_reflected_labeling() -> tuple[AtomicLattice, Labeling]:
    """A labeling whose strong map g passes the size, injectivity and
    membership checks but does not reflect order: g({2}) = x^2*y^3*z^7
    divides g({3,4}) = x^4*y^3*z^7 while {2} is not below {3,4}.  Random
    labelings on 3 and 4 atoms almost never do this, so this one is kept
    by hand."""
    lat = AtomicLattice.from_sets(4, [[], [1], [2], [3], [4], [1, 2], [3, 4], [1, 2, 3, 4]])
    labels = {(1,): "x^2*z^2", (2,): "y^2*z^2", (3,): "y*z", (4,): "z^2", (1, 2): "x^2*z", (3, 4): "y^2*z^2"}
    return lat, Labeling.from_sets(lat, {**labels, (1, 2, 3, 4): "y^2"})


def decision_labelings(rng: random.Random):
    """Every lattice with n <= 4 with one labeling of each flavour; then 300
    random lattices on 2 to 7 atoms with a labeling of a random flavour;
    then :func:`order_not_reflected_labeling`."""
    for lat in small_lattices():
        for make in LABELING_BUILDERS:
            yield lat, make(rng, lat)
    for _ in range(300):
        lat = random_lattice(rng, rng.randint(2, 7))
        yield lat, rng.choice(LABELING_BUILDERS)(rng, lat)
    yield order_not_reflected_labeling()


def shared_variable_labelings(seed: str, lattices):
    """Each lattice with its support labeling, then two random labelings
    whose labels share the variables x, y, z, with exponents up to 5, drawn
    from ``random.Random(seed)``."""
    rng = random.Random(seed)
    for lat in lattices:
        yield lat, support_labeling(lat)
        for _ in range(2):
            yield lat, Labeling(
                lat, {p: random_monomial(rng, ["x", "y", "z"], max_exp=5) for p in lat.sets if rng.random() < 0.6}
            )


_LABEL_NAMES = ("x", "y", "x_1", "Z9", "_t", "a1", "a10")
_LABEL_PIECES = _LABEL_NAMES + ("*", "^", "0", "1", "9", " ", "é", "\u0663", "\n")


def parse_texts(seed: int, count: int) -> list:
    """Texts for the parser's differential check: the grammar's edge cases
    (dangling and doubled ``*`` and ``^``, zero and leading-zero exponents,
    spaces and non-ASCII characters, exponents of ``MAX_EXPONENT_DIGITS``
    and one more digits, two variables passing the cap in either order),
    then ``count`` seeded labels, each valid or changed by one to three
    pieces of ``_LABEL_PIECES`` inserted, replaced or deleted."""
    rng = random.Random(seed)
    cap = "9" * MAX_EXPONENT_DIGITS
    texts = ["1", "x*", "**", "*x", "x^", "x^0", "x^01", "x^1^2", "x y", " x", "x ", "é", "x*é", "x^\u0663"]
    texts += [5, None, "", "1*x", "x*1", "x\n", f"x^{cap}", f"x^1{cap}", f"x*y^{cap}0", f"x^{cap}*x"]
    texts += ["a*b*a", "x*x", "a10*a2"]
    for first, second in (("x", "y"), ("y", "x")):
        texts += [f"{first}^{cap}*{second}^{cap}*{first}^{cap}*{second}^{cap}", f"{first}^{cap}*{first}^{cap}*!"]
    exponents = [1, 1, 2, 10, 99, int(cap)]
    for _ in range(count):
        terms = [(rng.choice(_LABEL_NAMES), rng.choice(exponents)) for _ in range(rng.randint(1, 5))]
        text = "*".join(v if e == 1 and rng.random() < 0.7 else f"{v}^{e}" for v, e in terms)
        for _ in range(rng.choice([0, 0, 1, 2, 3])):
            at = rng.randint(0, len(text))
            piece = rng.choice(_LABEL_PIECES)
            head, tail = text[:at], text[at + 1 :]
            text = rng.choice([head + piece + text[at:], head + piece + tail, head + tail])
        texts.append(text)
    return texts


# Each corpus with the opening words of the overlap witnesses it must reach
# (None for a true verdict).
CONDITION_CORPORA = {
    "random, chain and overlap labelings, n <= 6": (
        lambda: seeded_labelings(18),
        {None, "meet-irreducible", "label", "elements"},
    ),
    "support labelings, flat n <= 12 and Boolean n <= 7": (support_labelings, {None, "elements"}),
    "a label dividing an incomparable one": (lambda: swallowing_labelings(19), {"label"}),
    "B8 and sparse lattices on 8 to 10 atoms": (
        lambda: benchmark_shaped_labelings(41),
        {None, "meet-irreducible", "label", "elements"},
    ),
}

DETECTOR_CORPORA = {
    "every lattice with n <= 4": small_lattices,
    "300 random lattices with n <= 7": lambda: seeded_random_lattices(300, seed=5),
    "super-atomic n = 5 and near misses": lambda: list(super_atomic_and_near_misses(5)),
    "intervals with n <= 12": lambda: up_to(interval_lattice, 12),
}

JOINING_PAIR_CORPORA = {
    **DETECTOR_CORPORA,
    "Boolean with n <= 8 and flat with n <= 12": lambda: up_to(boolean_lattice, 8) + up_to(flat_lattice, 12),
}

# Each corpus with the set of verdicts it gives.
SUPP_SCAN_CORPORA = {
    "every lattice with n <= 4": (small_lattices, {True, False}),
    "super-atomic with n <= 6": (lambda: [lat for n in range(2, 7) for lat in enumerate_super_atomic(n)], {True}),
    "super-atomic with n <= 5 and near misses": (lambda: list(super_atomic_and_near_misses(2, 3, 4, 5)), {True, False}),
    "300 closed families on 3-8 atoms": (lambda: seeded_random_lattices(300, seed=19, atoms=(3, 8)), {True, False}),
    "intervals64 and its near miss": (intervals64_and_near_miss, {True, False}),
}

FILTER_SIZE_CORPORA = {
    "every lattice with n <= 4": small_lattices,
    "Boolean with n <= 8": lambda: up_to(boolean_lattice, 8),
    "flat with n <= 12": lambda: up_to(flat_lattice, 12),
    "200 random lattices with n <= 7": lambda: seeded_random_lattices(200, seed=11),
}


def random_wide_families(seed: int) -> list[AtomicLattice]:
    """Closed families of a few random subsets on 9 to 64 atoms, so their
    masks span one to eight bytes."""
    rng = random.Random(seed)
    return [random_lattice(rng, n, rng.randint(3, 6)) for n in (9, 12, 16, 17, 24, 31, 40, 48, 57, 63, 64)]


ATOM_ROW_CORPORA = {
    "every lattice with n <= 4": small_lattices,
    "Boolean with n <= 14": lambda: up_to(boolean_lattice, 14),
    "flat on byte boundaries": lambda: [flat_lattice(n) for n in (7, 8, 9, 15, 16, 17, 63, 64)],
    "wide lattices": wide_lattices,
    "200 random lattices with n <= 7": lambda: seeded_random_lattices(200, seed=34),
    "random families on 9 to 64 atoms": lambda: random_wide_families(35),
}


def atom_masks(seed: int) -> list[int]:
    """Every mask below 2^16, 3,000 seeded masks of up to 200 bits, and
    negative ints, which are refused."""
    rng = random.Random(seed)
    wide = [rng.getrandbits(rng.randint(17, 200)) | 1 << 16 for _ in range(3000)]
    return [*range(1 << 16), *wide, -1, -2, -(1 << 70)]


VARIABLE_NAMES = ["a", "a0", "a01", "a1", "a10", "A1", "a_1", "a1b", "_a1", "b1", "a2", "a99", "x", "Z9"]

# Each corpus with the kinds of witness it gives: (satisfied, without a
# joining pair).  On a flat lattice only the top needs one, and with no atom
# outside it, its first pair works.
_EVERY_WITNESS_KIND = {(True, False), (False, False), (False, True)}
WEAK_CRITERION_CORPORA = {
    "every lattice with n <= 4": (small_lattices, _EVERY_WITNESS_KIND),
    "Boolean with n <= 7": (lambda: up_to(boolean_lattice, 7), _EVERY_WITNESS_KIND),
    "200 random lattices with n <= 7": (lambda: seeded_random_lattices(200, seed=18), _EVERY_WITNESS_KIND),
    "flat with 8 <= n <= 12": (lambda: [flat_lattice(n) for n in range(8, 13)], {(True, False)}),
    "B8 and sparse lattices on 8 to 10 atoms": (lambda: benchmark_shaped_lattices(40), _EVERY_WITNESS_KIND),
}

# (lattice, labeling) pairs from shared_variable_labelings, seeded with the
# corpus name.
X_ORACLE_CORPORA = {
    "every lattice with n <= 4": lambda: shared_variable_labelings("every lattice with n <= 4", small_lattices()),
    "Boolean with n <= 6": lambda: shared_variable_labelings("Boolean with n <= 6", up_to(boolean_lattice, 6)),
    "flat with n <= 10": lambda: shared_variable_labelings("flat with n <= 10", up_to(flat_lattice, 10)),
    "100 random lattices with n <= 6": lambda: shared_variable_labelings(
        "100 random lattices with n <= 6", [random_lattice(random.Random(i), 2 + i % 5) for i in range(100)]
    ),
}


# (lattice, labeling) pairs whose x(a), delta(a) and minimal tuples have
# their level tables checked against the sorting oracle.
LEVEL_TABLE_CORPORA = {
    "decision labelings": lambda: decision_labelings(random.Random(33)),
    "wide lattices": lambda: support_and_random_labelings("wide lattices", wide_lattices()),
    "B8": lambda: support_and_random_labelings("B8", [boolean_lattice(8)]),
    "flat with 8 <= n <= 12": lambda: support_and_random_labelings(
        "flat with 8 <= n <= 12", [flat_lattice(n) for n in range(8, 13)]
    ),
}


# -- the differential check --------------------------------------------------------


@dataclass(frozen=True)
class Raised:
    """A package error as an outcome: its type's name, its text and its
    attributes (such as a ``ValidationError``'s ``missing_required``)."""

    kind: str
    text: str
    payload: dict = field(hash=False)


def outcome(call, *args):
    """``call(*args)``, or the :class:`Raised` record of the package error it
    raises.  Any other exception propagates."""
    try:
        return call(*args)
    except Error as exc:
        return Raised(type(exc).__name__, str(exc), dict(vars(exc)))


def assert_matches_oracle(fast, oracle, cases, reach=None) -> list:
    """The one differential check: ``fast(*args)`` and ``oracle(*args)``
    give the same :func:`outcome` for every argument tuple ``args`` of
    ``cases``, in order, and at least one of them is a value.

    ``reach`` maps an outcome kind (a value, or a package error's type
    name) to the least number of oracle outcomes of that kind; a package
    error whose kind it does not name fails the check.  Returns the
    oracle's outcomes, in case order, for any other tally."""
    reach = reach or {}
    outcomes = []
    for i, args in enumerate(cases):
        got = outcome(fast, *args)
        expected = outcome(oracle, *args)
        assert got == expected, f"case {i}"
        assert not isinstance(expected, Raised) or expected.kind in reach, f"case {i}: {expected}"
        outcomes.append(expected)
    assert not all(isinstance(out, Raised) for out in outcomes), "no case gave a value"
    kinds = [out.kind if isinstance(out, Raised) else out for out in outcomes]
    assert all(kinds.count(kind) >= least for kind, least in reach.items()), f"reach {reach} not met"
    return outcomes


@contextmanager
def within(seconds: float):
    """Fail unless the block's wall-clock time is under ``seconds``; the
    failure gives the elapsed time and the bound.  A block that raises
    fails with its own error."""
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"took {elapsed:.3f} s, over the budget of {seconds} s"
