import sys

import pytest
from click.testing import CliRunner

from lcmlattice import fixtures, ideals
from lcmlattice.cli import main
from lcmlattice.errors import FormatError
from lcmlattice.fixtures import FIXTURE_IDS, load, run, run_all

# The checks each bundled fixture replays, in replay order.
REPLAYED = {
    "fig1": ["lcm_elements", "lcm_covers", "recovered_labels"],
    "fig2": ["plain_ideal", "classification.is_coordinatization", "classification.is_strong"],
    "fig3": [
        "plain_ideal",
        "weak_ideal",
        "lcm_plain_size",
        "classification.is_coordinatization",
        "classification.is_weak",
    ],
    "fig6": [
        "plain_ideal",
        "weak_ideal",
        "classification.satisfies_A1A2",
        "classification.satisfies_C1C2",
        "classification.is_weak",
    ],
    "fig8": ["superatomic.literal", "superatomic.via_supp", "superatomic.structure"],
    "fig9": [
        "plain_ideal",
        "weak_ideal",
        "classification.satisfies_C1C2",
        "classification.is_weak",
        "weak_interval_criterion",
    ],
    "example-4-3": ["enumeration_exact"],
    "example-5-2": [
        "plain_ideal",
        "classification.is_strong",
        "superatomic.literal",
        "superatomic.via_supp",
        "strong_interval_criterion",
        "cover.new_element",
        "cover.new_element_meet_irreducible",
        "cover.smaller_plain_ideal",
        "cover.smaller_deltas_equal_plain",
        "cover.smaller_lcm_isomorphic",
        "cover.smaller_strong",
        "cover.cover_transfer_agrees",
    ],
}


def test_fixture_ids_are_pinned():
    assert FIXTURE_IDS == (
        "fig1",
        "fig2",
        "fig3",
        "fig6",
        "fig8",
        "fig9",
        "example-4-3",
        "example-5-2",
    )


@pytest.mark.parametrize("fixture_id", FIXTURE_IDS)
def test_each_fixture_passes(fixture_id):
    result = run(fixture_id)
    failed = [c for c in result.checks if not c.passed]
    assert not failed, "\n".join(
        f"{c.name}: expected {c.expected}, got {c.actual}" for c in failed
    )
    assert result.passed


@pytest.mark.parametrize("fixture_id", FIXTURE_IDS)
def test_replay_reports_the_pinned_checks_in_order(fixture_id):
    assert [c.name for c in run(fixture_id).checks] == REPLAYED[fixture_id]


def test_run_all_covers_everything():
    results = run_all()
    assert [r.fixture_id for r in results] == list(FIXTURE_IDS)
    assert sum(len(r.checks) for r in results) >= 30


def test_every_table_row_is_used_by_a_bundled_fixture():
    assert {c.name for r in run_all() for c in r.checks} == set(fixtures._CHECKS)


def _replay_edited(monkeypatch, fixture_id, edit):
    """Replay ``fixture_id`` with ``edit`` applied to its expect block."""
    doc = load(fixture_id)
    edit(doc["expect"])
    monkeypatch.setattr(fixtures, "load", lambda fid: doc)
    return run(fixture_id)


@pytest.mark.parametrize("misspelt", ["plain_idea", "classification.is_strnog"])
def test_unknown_expectation_is_a_format_error(monkeypatch, misspelt):
    def edit(expect):
        *block, name = misspelt.split(".")
        (expect[block[0]] if block else expect)[name] = False

    with pytest.raises(FormatError, match=misspelt):
        _replay_edited(monkeypatch, "fig2", edit)


def test_wrong_expectation_fails_its_check_only(monkeypatch):
    result = _replay_edited(monkeypatch, "fig2", lambda expect: expect["classification"].update(is_strong=True))
    assert [c.name for c in result.checks] == REPLAYED["fig2"]
    assert [c.passed for c in result.checks] == [True, True, False]
    assert (result.checks[-1].expected, result.checks[-1].actual) == ("True", "False")


def test_a_smaller_lattice_that_is_not_covered_fails_the_cover_rows(monkeypatch):
    """With the lattice itself as ``cover.smaller`` there is no cover
    witness: the three rows that need one report None and fail, and
    ``paper-examples`` prints their FAIL lines and exits 1, not an error."""
    real_load = fixtures.load

    def load_edited(fixture_id):
        doc = real_load(fixture_id)
        if fixture_id == "example-5-2":
            doc["expect"]["cover"]["smaller"] = doc["lattice"]
        return doc

    monkeypatch.setattr(fixtures, "load", load_edited)
    checks = {c.name: c for c in run("example-5-2").checks}
    needs_witness = ["cover.new_element", "cover.new_element_meet_irreducible", "cover.cover_transfer_agrees"]
    assert [(checks[n].passed, checks[n].actual) for n in needs_witness] == [(False, "None")] * 3
    res = CliRunner().invoke(main, ["paper-examples"])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit) and res.stderr == ""
    for name in needs_witness:
        assert f"example-5-2: {name}: FAIL (expected {checks[name].expected}, got None)" in res.output


# Labelings each replay groups: the fixture's own, and for example-5-2 also
# its smaller lattice's and the two that check_cover_transfer builds.
GROUPED_LABELINGS = {"fig2": 1, "fig3": 1, "fig6": 1, "fig9": 1, "example-5-2": 4}


@pytest.mark.parametrize("fixture_id", FIXTURE_IDS)
def test_replay_groups_each_labeling_once(fixture_id, monkeypatch):
    """Every row reading a labeling's label groups reads the ones kept on
    the labeling, so a replay groups each labeling it uses once."""
    computed = []
    label_groups = ideals._label_groups

    def counted(lat, lab):
        computed.append(lab._groups is None)
        return label_groups(lat, lab)

    for module in (ideals, sys.modules["lcmlattice.classify"]):  # the package name is the function
        monkeypatch.setattr(module, "_label_groups", counted)
    assert run(fixture_id).passed
    assert sum(computed) == GROUPED_LABELINGS.get(fixture_id, 0)


# Plain ideals x(a) each replay builds: one per labeling for the plain_ideal,
# lcm_plain_size and cover.smaller_* rows, kept on the inputs, and one inside
# each weak_ideal, classify and check_cover_transfer call.  Building afresh
# in every row, the replays took fig3 4 and example-5-2 9.
PLAIN_IDEALS_BUILT = {"fig2": 2, "fig3": 3, "fig6": 3, "fig9": 3, "example-5-2": 7}


@pytest.mark.parametrize("fixture_id", FIXTURE_IDS)
def test_replay_builds_each_plain_ideal_once_for_the_plain_rows(fixture_id, monkeypatch):
    """The rows that read a labeling's plain generators share one ideal,
    built on first use; only the public calls of the other rows build more."""
    built = []
    ideal_from_labeling = ideals.ideal_from_labeling

    def counted(lat, lab):
        built.append(lab)
        return ideal_from_labeling(lat, lab)

    for name in ("ideals", "classify", "fixtures", "support_labeling"):
        monkeypatch.setattr(sys.modules[f"lcmlattice.{name}"], "ideal_from_labeling", counted)
    assert run(fixture_id).passed
    assert len(built) == PLAIN_IDEALS_BUILT.get(fixture_id, 0)


def test_unknown_fixture_rejected():
    with pytest.raises(FormatError):
        load("fig99")
