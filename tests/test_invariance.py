"""Metamorphic relations: checks that follow from the definitions and hold
at any size, run on inputs past the reach of the brute-force oracles in
``conftest.py``.  Each relation is exact; the oracles stay for the sizes
they reach."""

import random

from lcmlattice import check_weak_interval_criterion, is_weak_coordinatization, support_labeling

from conftest import wide_weak_criterion_lattices


def test_weak_criterion_relations_past_the_oracle():
    """On lattices of 8 to 20 atoms, where the per-candidate oracle is not
    run: the verdict is the conjunction of the witnesses' ``satisfied``; it
    does not depend on the order of the atoms, so a random relabeling keeps
    it; and, as the criterion is sufficient, a lattice that passes has a
    support labeling that is a weak coordinatization.  Both verdicts are
    reached."""
    rng = random.Random(44)
    verdicts = set()
    for lat in wide_weak_criterion_lattices(43):
        report = check_weak_interval_criterion(lat)
        holds = report.hypothesis_holds
        assert holds == all(w.satisfied for w in report.witnesses)
        relabeled = lat.relabel(rng.sample(range(1, lat.n + 1), lat.n))
        assert check_weak_interval_criterion(relabeled).hypothesis_holds == holds
        if holds:
            assert is_weak_coordinatization(lat, support_labeling(lat))
        verdicts.add(holds)
    assert verdicts == {True, False}
