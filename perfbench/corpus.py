"""Seeded corpus generators owned by the benchmark.

Everything here returns plain data: a lattice is ``(n, masks)`` with ``masks``
a sorted list of ints (atom ``i`` is bit ``i-1``), and a labeling is a list of
``(mask, monomial_text)`` pairs.  Workload operations turn that data into
``AtomicLattice`` and ``Labeling`` objects themselves, so per-object caches
start cold on every operation.  Nothing in this module imports the package
under test.

The labeling builders come in three flavours, as in the paper's examples:

* :func:`random_labeling`: arbitrary labels, no structural guarantee;
* :func:`chain_condition_labeling`: every non-top meet-irreducible labeled and
  each variable's support a chain, so the chain conditions hold;
* :func:`overlap_condition_labeling`: meet-irreducibles labeled with fresh
  variables plus one shared variable on an incomparable pair, so the overlap
  conditions hold while the chain conditions usually fail.
"""

from __future__ import annotations

import random
from itertools import combinations


def atoms_of(mask: int) -> list[int]:
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def _closed(sets: set[int]) -> list[int]:
    """Intersection closure, returned in canonical (cardinality, value) order."""
    changed = True
    while changed:
        changed = False
        for a, b in combinations(list(sets), 2):
            if a & b not in sets:
                sets.add(a & b)
                changed = True
    return sorted(sets, key=lambda m: (m.bit_count(), m))


def _required(n: int) -> set[int]:
    return {0, (1 << n) - 1, *(1 << i for i in range(n))}


def random_lattice(rng: random.Random, n: int) -> tuple[int, list[int]]:
    """Required sets plus a random number of random subsets, closed under intersection."""
    full = (1 << n) - 1
    sets = _required(n)
    for _ in range(rng.randint(0, max(1, 2**n // 3))):
        sets.add(rng.randint(1, full))
    return n, _closed(sets)


def sized_random_lattice(rng: random.Random, n: int, size: int) -> tuple[int, list[int]]:
    """A random lattice with ``size`` to ``size * 1.1`` elements: random subsets
    are added, closing under intersection after each, until the family is
    large enough; a draw that overshoots the band starts over."""
    full = (1 << n) - 1
    while True:
        sets = _required(n)
        while len(sets) < size:
            new = rng.randint(1, full)
            sets |= {new & s for s in sets} | {new}
        if len(sets) <= size * 1.1:
            return n, sorted(sets, key=lambda m: (m.bit_count(), m))


def flat_lattice(n: int) -> tuple[int, list[int]]:
    """The lattice {0, atoms, top}: every atom subset of size >= 2 joins to the top."""
    return n, _closed(_required(n))


def boolean_lattice(n: int) -> tuple[int, list[int]]:
    return n, sorted(range(1 << n), key=lambda m: (m.bit_count(), m))


def _pairs_within(mask: int) -> list[int]:
    bits = [1 << (a - 1) for a in atoms_of(mask)]
    return [a | b for a, b in combinations(bits, 2)]


def super_atomic_lattice(rng: random.Random, n: int) -> tuple[int, list[int]]:
    """One random super-atomic lattice on ``n`` atoms.

    Builds levels top down: each set S of a level picks, uniformly among the
    atom pairs of S not contained in another set of the level, the pair that
    generates it, and contributes S minus either member of that pair to the
    next level.  A choice that leaves some set without a valid pair is a dead
    end and the draw restarts.
    """
    top = (1 << n) - 1
    while True:
        family = _required(n)
        level = [top]
        while level[0].bit_count() > 2:
            child = set()
            for S in level:
                opts = [pr for pr in _pairs_within(S) if all(pr & ~T for T in level if T != S)]
                if not opts:
                    break
                pr = rng.choice(opts)
                lo = pr & -pr
                child.update((S ^ lo, S ^ (pr ^ lo)))
            else:
                family |= child
                level = sorted(child)
                continue
            break
        else:
            return n, sorted(family, key=lambda m: (m.bit_count(), m))


# -- labelings ---------------------------------------------------------------


def _monomial(exps: dict[str, int]) -> str:
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in sorted(exps.items()))


def _times(a: str, b: str) -> str:
    acc: dict[str, int] = {}
    for text in (a, b):
        for term in text.split("*"):
            v, _, e = term.partition("^")
            acc[v] = acc.get(v, 0) + int(e or 1)
    return _monomial(acc)


def _upper_covers(masks: list[int]) -> dict[int, list[int]]:
    out = {}
    for p in masks:
        above = [q for q in masks if q != p and p & ~q == 0]
        out[p] = [q for q in above if not any(r != q and r & ~q == 0 for r in above)]
    return out


def meet_irreducibles_below_top(masks: list[int]) -> list[int]:
    """Elements with exactly one upper cover (the top is excluded)."""
    covers = _upper_covers(masks)
    return [p for p in masks if len(covers[p]) == 1]


def support_labeling(lattice: tuple[int, list[int]]) -> list[tuple[int, str]]:
    """Every nonzero element labeled by the product of its atom variables ``a<i>``."""
    _, masks = lattice
    return [(p, "*".join(f"a{i}" for i in atoms_of(p))) for p in masks if p]


RANDOM_VARIABLES = ["x", "y", "z", "w"]


def random_monomial(rng: random.Random) -> str:
    """One to three of ``RANDOM_VARIABLES``, each with an exponent from 1 to 3."""
    chosen = rng.sample(RANDOM_VARIABLES, k=rng.randint(1, 3))
    return _monomial({v: rng.randint(1, 3) for v in chosen})


def random_labeling(
    rng: random.Random, lattice: tuple[int, list[int]], share: float | None = None
) -> list[tuple[int, str]]:
    """Arbitrary labels over ``RANDOM_VARIABLES`` on a random subset of the non-top,
    non-bottom elements: ``share`` of them, or a uniformly random number."""
    n, masks = lattice
    top = (1 << n) - 1
    candidates = [p for p in masks if p not in (0, top)]
    k = rng.randint(0, len(candidates)) if share is None else round(share * len(candidates))
    chosen = rng.sample(candidates, k=k)
    return [(p, random_monomial(rng)) for p in chosen]


def chain_condition_labeling(rng: random.Random, lattice: tuple[int, list[int]]) -> list[tuple[int, str]]:
    """Fresh variables on every non-top meet-irreducible (and up to two more
    elements), sometimes with a shared variable ``w`` threaded along a chain."""
    n, masks = lattice
    top = (1 << n) - 1
    table: dict[int, str] = {}
    fresh = 0
    for p in meet_irreducibles_below_top(masks):
        fresh += 1
        table[p] = _monomial({f"v{fresh}": rng.randint(1, 3)})
    others = [p for p in masks if p not in table and p not in (0, top)]
    for p in rng.sample(others, k=rng.randint(0, min(2, len(others)))):
        fresh += 1
        table[p] = _monomial({f"v{fresh}": rng.randint(1, 3)})
    if table and rng.random() < 0.7:
        order = list(table)
        rng.shuffle(order)
        chain: list[int] = []
        for p in order:
            if all(p & ~q == 0 or q & ~p == 0 for q in chain):
                chain.append(p)
        if len(chain) >= 2:
            for p in chain:
                table[p] = _times(table[p], _monomial({"w": rng.randint(1, 2)}))
    return sorted(table.items())


def overlap_condition_labeling(rng: random.Random, lattice: tuple[int, list[int]]) -> list[tuple[int, str]]:
    """Fresh variables on the non-top meet-irreducibles, then one shared
    variable ``c`` on a random incomparable pair of them."""
    _, masks = lattice
    table: dict[int, str] = {}
    mi = meet_irreducibles_below_top(masks)
    for fresh, p in enumerate(mi, start=1):
        table[p] = _monomial({f"v{fresh}": rng.randint(1, 3)})
    incomparable = [(p, q) for p, q in combinations(mi, 2) if p & ~q and q & ~p]
    if incomparable:
        p, q = rng.choice(incomparable)
        shared = _monomial({"c": rng.randint(1, 2)})
        table[p] = _times(table[p], shared)
        table[q] = _times(table[q], shared)
    return sorted(table.items())


def random_ideal(rng: random.Random, k: int) -> list[str]:
    """``k`` random monomials (duplicates and multiples allowed)."""
    return [random_monomial(rng) for _ in range(k)]


# -- JSON documents ------------------------------------------------------------


def lattice_doc(lattice: tuple[int, list[int]]) -> dict:
    n, masks = lattice
    return {"n": n, "sets": [atoms_of(m) for m in masks]}


def labeling_doc(lattice: tuple[int, list[int]], labels: list[tuple[int, str]]) -> dict:
    return {
        "lattice": lattice_doc(lattice),
        "labels": [{"set": atoms_of(p), "monomial": m} for p, m in labels],
    }
