import json
import re

import click
import pytest
from click.testing import CliRunner

from lcmlattice import AtomicLattice, fixtures
from lcmlattice.cli import main
from lcmlattice.errors import FormatError

from conftest import flat_lattice, interval_lattice

BOOLEAN3_DOC = {"n": 3, "sets": [[], [1], [2], [3], [1, 2], [1, 3], [2, 3], [1, 2, 3]]}

FIG6_DOC = {
    "lattice": BOOLEAN3_DOC,
    "labels": [
        {"set": [1], "monomial": "a"},
        {"set": [2], "monomial": "e"},
        {"set": [3], "monomial": "m"},
        {"set": [1, 2], "monomial": "a*c"},
        {"set": [1, 3], "monomial": "c*m"},
        {"set": [2, 3], "monomial": "e"},
    ],
}

SUPER_DOC = {
    "n": 4,
    "sets": [[], [1], [2], [3], [4], [3, 4], [2, 3], [1, 4], [2, 3, 4], [1, 3, 4], [1, 2, 3, 4]],
}


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def files(tmp_path):
    def write(name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc) if not isinstance(doc, str) else doc)
        return str(p)

    return write


# -- validate -----------------------------------------------------------------


def test_validate_lattice(runner, files):
    res = runner.invoke(main, ["validate", files("lat.json", BOOLEAN3_DOC)])
    assert res.exit_code == 0
    assert "valid lattice: 8 elements on 3 atoms" in res.output


def test_validate_labeling(runner, files):
    res = runner.invoke(main, ["validate", files("lab.json", FIG6_DOC)])
    assert res.exit_code == 0
    assert "valid labeling: 6 labeled of 8 elements" in res.output


def test_validate_labeling_without_labels(runner, files):
    # a Labeling with no labels is falsy; it is still a labeling document
    res = runner.invoke(main, ["validate", files("lab.json", {"lattice": BOOLEAN3_DOC, "labels": []})])
    assert res.exit_code == 0
    assert res.output == "valid labeling: 0 labeled of 8 elements on 3 atoms\n"


def test_validate_invalid_lattice_lists_violations(runner, files):
    bad = {"n": 3, "sets": [[], [1], [2], [1, 2], [1, 3], [2, 3]]}
    res = runner.invoke(main, ["validate", files("bad.json", bad)])
    assert res.exit_code == 1
    assert "missing required sets" in res.stderr and "{3}" in res.stderr
    assert "intersections not in family" in res.stderr


def test_validate_malformed_json(runner, files):
    res = runner.invoke(main, ["validate", files("junk.json", "not json")])
    assert res.exit_code == 1 and "invalid JSON" in res.stderr


# Each command form that reads a file, with how many file arguments it takes.
FILE_COMMANDS = [
    (["validate"], 1),
    (["classify"], 1),
    (["build-ideal"], 1),
    (["lcm-lattice"], 1),
    (["export-dot"], 1),
    (["check-superatomic"], 1),
    (["check-labeling-c"], 1),
    (["check-labeling-c", "--thm53"], 3),
]


@pytest.mark.parametrize("command,count", FILE_COMMANDS, ids=[" ".join(c) for c, _ in FILE_COMMANDS])
def test_non_utf8_file_is_a_format_error(runner, tmp_path, command, count):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe")
    res = runner.invoke(main, [*command, *[str(path)] * count])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert res.stderr == f"Error: {path}: not UTF-8 text: invalid start byte at byte 0\n"


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("[" * 100_000 + "]" * 100_000, id="deep-nesting"),
        pytest.param('{"n": ' + "9" * 5000 + ', "sets": []}', id="long-integer"),
    ],
)
def test_json_the_parser_refuses_is_a_format_error(runner, files, text):
    path = files("odd.json", text)
    res = runner.invoke(main, ["validate", path])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert res.stderr.startswith(f"Error: {path}: invalid JSON: ") and res.stderr.count("\n") == 1


def test_validate_unrecognized_document(runner, files):
    res = runner.invoke(main, ["validate", files("odd.json", {"foo": 1})])
    assert res.exit_code == 1


def test_missing_file_is_io_error(runner, tmp_path):
    res = runner.invoke(main, ["validate", str(tmp_path / "nope.json")])
    assert res.exit_code == 3
    assert "i/o error" in res.stderr


@pytest.mark.parametrize(
    "exc, code, stderr",
    [(FormatError("bad input"), 1, "Error: bad input\n"), (OSError("disk gone"), 3, "i/o error: disk gone\n")],
)
def test_the_group_maps_errors_of_any_command(runner, exc, code, stderr):
    """The error boundary is the command group, not each command: a command
    added to ``main`` gets the same exit codes and one-line messages."""

    def fail():
        raise exc

    main.add_command(click.Command("fail", callback=fail))
    try:
        res = runner.invoke(main, ["fail"])
    finally:
        del main.commands["fail"]
    assert res.exit_code == code and isinstance(res.exception, SystemExit)
    assert res.stderr == stderr


# -- build-ideal ---------------------------------------------------------------


def test_build_ideal_weak(runner, files):
    res = runner.invoke(main, ["build-ideal", files("lab.json", FIG6_DOC), "--weak"])
    assert res.exit_code == 0
    assert res.output == "e^2*m\na*c*m^2\na^2*c*e\n"


def test_build_ideal_plain_is_default(runner, files):
    path = files("lab.json", FIG6_DOC)
    explicit = runner.invoke(main, ["build-ideal", path, "--plain"])
    default = runner.invoke(main, ["build-ideal", path])
    assert explicit.output == default.output == "e^2*m\na*c*m^2\na^2*c*e\n"


def test_build_ideal_empty_labeling_warns(runner, files):
    doc = {"lattice": BOOLEAN3_DOC, "labels": []}
    res = runner.invoke(main, ["build-ideal", files("empty.json", doc), "--plain"])
    assert res.exit_code == 0
    assert res.stdout == "1\n1\n1\n"
    assert "warning" in res.stderr


# -- lcm-lattice ----------------------------------------------------------------


def test_lcm_lattice_json(runner, files, tmp_path):
    path = files("ideal.txt", "a^2*c*d\na*b*d\na*b*c\n")
    res = runner.invoke(main, ["lcm-lattice", path])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["n"] == 3
    assert len(doc["sets"]) == 6
    assert AtomicLattice.from_json_dict(doc)  # validates


def test_lcm_lattice_dot_output(runner, files, tmp_path):
    path = files("ideal.txt", "a^2*c*d\na*b*d\na*b*c\n")
    dot = tmp_path / "out.dot"
    res = runner.invoke(main, ["lcm-lattice", path, "--dot", str(dot)])
    assert res.exit_code == 0
    text = dot.read_text()
    assert 'label="a^2*b*c*d"' in text  # monomial labels
    assert "n0" not in text  # bottom suppressed by default
    runner.invoke(main, ["lcm-lattice", path, "--dot", str(dot), "--with-bottom"])
    assert "n0" in dot.read_text()


def test_lcm_lattice_failed_dot_write_prints_no_lattice(runner, files, tmp_path):
    """The DOT file is written before the lattice JSON is printed, so a
    write that fails exits 3 with nothing on stdout."""
    path = files("ideal.txt", "a^2*c*d\na*b*d\na*b*c\n")
    res = runner.invoke(main, ["lcm-lattice", path, "--dot", str(tmp_path / "missing" / "out.dot")])
    assert res.exit_code == 3 and res.stdout == "" and res.stderr.startswith("i/o error: ")


def test_lcm_lattice_degenerate(runner, files):
    res = runner.invoke(main, ["lcm-lattice", files("empty.txt", "# nothing\n")])
    assert res.exit_code == 1 and "zero ideal" in res.stderr
    res = runner.invoke(main, ["lcm-lattice", files("bad.txt", "a\nb^\n")])
    assert res.exit_code == 1 and "line 2" in res.stderr


def test_lcm_lattice_over_the_element_cap(runner, files):
    """21 independent variables would give 2^21 elements; the build stops
    past ``MAX_LCM_ELEMENTS`` with one line naming the count and the cap."""
    res = runner.invoke(main, ["lcm-lattice", files("ideal.txt", "".join(f"x{i}\n" for i in range(21)))])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit) and res.stdout == ""
    assert re.fullmatch(r"Error: lcm-lattice reached \d+ elements, over the cap 1048576\n", res.stderr)


def test_lcm_lattice_over_the_atom_cap(runner, files):
    """The staircase ``x^i*y^(64-i)`` has 65 minimal generators and only
    2,146 elements, but the printed lattice would have 65 atoms, which the
    lattice loader refuses; the command refuses it before the build."""
    text = "y^64\n" + "".join(f"x^{i}*y^{64 - i}\n" for i in range(1, 64)) + "x^64\n"
    res = runner.invoke(main, ["lcm-lattice", files("ideal.txt", text)])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit) and res.stdout == ""
    assert res.stderr == "Error: more than 64 minimal generators exceed the supported maximum 64 atoms\n"


def test_lcm_lattice_overlong_exponent(runner, files):
    res = runner.invoke(main, ["lcm-lattice", files("ideal.txt", "x^" + "9" * 5000 + "\n")])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert res.stderr == "Error: line 1: exponent has more than 1000 digits (at position 2)\n"


NINES_SUM = "x^" + "9" * 1000 + "*x^" + "9" * 1000


def test_label_summing_past_the_cap_names_its_set(runner, files):
    """Each exponent is within the cap and their sum is not: the error names
    the label's set, as a grammar error in that label would."""
    doc = {"lattice": {"n": 1, "sets": [[], [1]]}, "labels": [{"set": [1], "monomial": NINES_SUM}]}
    res = runner.invoke(main, ["validate", files("lab.json", doc)])
    assert res.exit_code == 1 and res.stdout == ""
    assert res.stderr == "Error: bad monomial for set [1]: exponent of 'x' has more than 1000 digits\n"


def test_a_label_on_no_element_prints_the_plain_refusal(runner, files):
    """``NotAnElementError`` is a ``KeyError``, whose ``str`` would quote
    the message; the CLI prints the message itself."""
    doc = {"lattice": {"n": 3, "sets": [[], [1], [2], [3], [1, 2, 3]]}, "labels": [{"set": [1, 2], "monomial": "a"}]}
    res = runner.invoke(main, ["classify", files("lab.json", doc)])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit) and res.stdout == ""
    assert res.stderr == "Error: labeled set {1,2} is not in the lattice\n"


def test_generator_summing_past_the_cap_names_its_line(runner, files):
    res = runner.invoke(main, ["lcm-lattice", files("ideal.txt", f"a*b\n{NINES_SUM}\n")])
    assert res.exit_code == 1 and res.stdout == ""
    assert res.stderr == "Error: line 2: exponent of 'x' has more than 1000 digits\n"


NINES_4300 = "9" * 4300
BOOLEAN2_DOC = {"n": 2, "sets": [[], [1], [2], [1, 2]]}

# Each input once ended in a traceback or in an error line as long as the input.
OVERSIZED_INPUTS = {
    "build-ideal on two 4,300-digit exponents": (
        "build-ideal",
        "lab.json",
        json.dumps(
            {
                "lattice": BOOLEAN2_DOC,
                "labels": [{"set": [], "monomial": f"x^{NINES_4300}"}, {"set": [2], "monomial": f"x^{NINES_4300}"}],
            }
        ),
    ),
    "classify on a set nested 900 deep": (
        "classify",
        "lab.json",
        '{"lattice": %s, "labels": [{"set": %s, "monomial": "a"}]}'
        % (json.dumps(BOOLEAN3_DOC), "[" * 900 + "]" * 900),
    ),
    "validate on a 4,001-digit n": ("validate", "lat.json", '{"n": 1%s, "sets": []}' % ("0" * 4000)),
    "lcm-lattice on an exponent past the cap": ("lcm-lattice", "ideal.txt", "a*b\nx^1" + "0" * 1000 + "\n"),
    "build-ideal summing two exponents at the cap": (
        "build-ideal",
        "lab.json",
        json.dumps(
            {
                "lattice": BOOLEAN2_DOC,
                "labels": [{"set": [], "monomial": "x^" + "9" * 1000}, {"set": [2], "monomial": "x^" + "9" * 1000}],
            }
        ),
    ),
}


@pytest.mark.parametrize("case", OVERSIZED_INPUTS)
def test_oversized_input_values_give_one_short_error_line(runner, files, case):
    command, name, text = OVERSIZED_INPUTS[case]
    res = runner.invoke(main, [command, files(name, text)])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.stderr and res.stdout == ""
    assert res.stderr.endswith("\n") and res.stderr.count("\n") == 1
    assert res.stderr.startswith("Error: ") and len(res.stderr.encode()) <= 200


def test_label_exponent_at_the_cap_round_trips(runner, files):
    """A label exponent of MAX_EXPONENT_DIGITS digits on the bottom is a
    factor of every generator, so build-ideal prints it back unchanged."""
    label = "x^" + "9" * 1000
    doc = {"lattice": BOOLEAN2_DOC, "labels": [{"set": [], "monomial": label}]}
    res = runner.invoke(main, ["build-ideal", files("lab.json", doc)])
    assert res.exit_code == 0 and res.stderr == ""
    assert res.stdout == f"{label}\n{label}\n"


# -- classify ---------------------------------------------------------------------


def test_classify_fields(runner, files):
    res = runner.invoke(main, ["classify", files("lab.json", FIG6_DOC)])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert list(doc) == [
        "satisfies_A1A2",
        "satisfies_C1C2",
        "is_coordinatization",
        "is_strong",
        "is_weak",
        "witness",
    ]
    assert doc["satisfies_A1A2"] is False
    assert doc["satisfies_C1C2"] is True
    assert doc["is_weak"] is True


def test_classify_label_set_not_a_list(runner, files):
    doc = {"lattice": BOOLEAN3_DOC, "labels": [{"set": 5, "monomial": "a"}]}
    res = runner.invoke(main, ["classify", files("lab.json", doc)])
    assert res.exit_code == 1
    assert '"set" must be a list' in res.stderr
    assert res.exception is None or isinstance(res.exception, SystemExit)


# -- enumerate-superatomic -----------------------------------------------------------


def test_enumerate_stdout(runner):
    res = runner.invoke(main, ["enumerate-superatomic", "--n", "3"])
    assert res.exit_code == 0
    docs = json.loads(res.output)
    assert len(docs) == 3
    assert all(doc["n"] == 3 and len(doc["sets"]) == 7 for doc in docs)


def test_enumerate_count_only(runner):
    res = runner.invoke(main, ["enumerate-superatomic", "--n", "4", "--count-only"])
    assert res.exit_code == 0
    assert res.output == '{\n  "n": 4,\n  "count": 24,\n  "size": 11\n}\n'  # indented by two, one newline


def test_enumerate_writes_directory(runner, tmp_path):
    out = tmp_path / "fams"
    res = runner.invoke(main, ["enumerate-superatomic", "--n", "3", "--out", str(out)])
    assert res.exit_code == 0
    text = (out / "index.json").read_text()
    index = json.loads(text)
    assert text == json.dumps(index, indent=2) + "\n"
    assert index["n"] == 3 and index["count"] == 3 and index["size"] == 7
    assert len(index["files"]) == 3
    for name in index["files"]:
        text = (out / name).read_text()
        doc = json.loads(text)
        assert text == json.dumps(doc, indent=2) + "\n"
        assert AtomicLattice.from_json_dict(doc)


def test_enumerate_bad_n(runner):
    assert runner.invoke(main, ["enumerate-superatomic", "--n", "1"]).exit_code == 1
    assert runner.invoke(main, ["enumerate-superatomic", "--n", "8"]).exit_code == 1
    assert runner.invoke(main, ["enumerate-superatomic"]).exit_code == 2  # --n required


def test_enumerate_refuses_to_list_seven_atoms(runner, tmp_path):
    """Listing n = 7 would hold 2,580,480 lattices at once, so it is refused
    before any work, with or without ``--out``; ``--count-only`` streams
    and still counts them."""
    out = tmp_path / "fams"
    for extra in ([], ["--out", str(out)]):
        res = runner.invoke(main, ["enumerate-superatomic", "--n", "7", *extra])
        assert res.exit_code == 1 and res.stdout == ""
        assert res.stderr == "Error: listing the lattices on 7 atoms exceeds the cap of 6\n"
    assert not out.exists()


def test_enumerate_refuses_to_stream_eight_atoms(runner):
    """``--count-only`` streams up to ``MAX_ENUM_ATOMS`` and refuses more
    before any work."""
    res = runner.invoke(main, ["enumerate-superatomic", "--count-only", "--n", "8"])
    assert res.exit_code == 1 and res.stdout == ""
    assert res.stderr == "Error: enumeration on 8 atoms exceeds the cap of 7\n"


def test_enumerate_count_only_takes_no_out(runner, tmp_path):
    out = tmp_path / "fams"
    res = runner.invoke(main, ["enumerate-superatomic", "--n", "3", "--count-only", "--out", str(out)])
    assert res.exit_code == 2 and "--count-only writes no lattices; drop --out" in res.stderr
    assert not out.exists()


# -- check-superatomic ----------------------------------------------------------------


def test_check_superatomic(runner, files):
    res = runner.invoke(main, ["check-superatomic", files("sup.json", SUPER_DOC)])
    assert res.exit_code == 0
    assert json.loads(res.output) == {"literal": True, "via_supp": True, "agree": True}
    res = runner.invoke(main, ["check-superatomic", files("b3.json", BOOLEAN3_DOC)])
    assert res.exit_code == 0
    assert json.loads(res.output) == {"literal": False, "via_supp": False, "agree": True}


def test_check_superatomic_answers_beyond_the_joining_set_cap(runner, files, monkeypatch):
    def refuse(self, p):
        raise AssertionError("a super-atomic check enumerated joining sets")

    monkeypatch.setattr(AtomicLattice, "joining_sets", refuse)
    intervals20 = files("intervals20.json", interval_lattice(20).to_json_dict())
    res = runner.invoke(main, ["check-superatomic", intervals20])
    assert res.exit_code == 0
    assert json.loads(res.output) == {"literal": True, "via_supp": True, "agree": True}
    res = runner.invoke(main, ["check-labeling-c", intervals20, "--thm52"])
    assert res.exit_code == 0
    assert json.loads(res.output) == {"condition_holds": True, "witness": None}
    res = runner.invoke(main, ["check-superatomic", files("flat17.json", flat_lattice(17).to_json_dict())])
    assert res.exit_code == 0
    assert json.loads(res.output) == {"literal": False, "via_supp": False, "agree": True}


# -- check-labeling-c ------------------------------------------------------------------


def test_check_labeling_default_is_weak_criterion(runner, files):
    path = files("sup.json", SUPER_DOC)
    bare = runner.invoke(main, ["check-labeling-c", path])
    flagged = runner.invoke(main, ["check-labeling-c", path, "--thm51"])
    assert bare.exit_code == flagged.exit_code == 0
    assert bare.output == flagged.output
    doc = json.loads(bare.output)
    assert doc["hypothesis_holds"] is True
    assert all("set" in w and "satisfied" in w for w in doc["witnesses"])


def test_check_labeling_strong_criterion(runner, files):
    res = runner.invoke(main, ["check-labeling-c", files("sup.json", SUPER_DOC), "--thm52"])
    assert res.exit_code == 0
    assert json.loads(res.output) == {"condition_holds": True, "witness": None}
    # not super-atomic: precondition failure is a domain error
    res = runner.invoke(main, ["check-labeling-c", files("b3.json", BOOLEAN3_DOC), "--thm52"])
    assert res.exit_code == 1 and "not super-atomic" in res.stderr


def test_check_labeling_cover_transfer(runner, files):
    smaller = {
        "n": 4,
        "sets": [[], [1], [2], [3], [4], [3, 4], [2, 3], [1, 4], [1, 3, 4], [1, 2, 3, 4]],
    }
    res = runner.invoke(
        main,
        [
            "check-labeling-c",
            "--thm53",
            files("root.json", SUPER_DOC),
            files("larger.json", SUPER_DOC),
            files("smaller.json", smaller),
        ],
    )
    assert res.exit_code == 0
    assert json.loads(res.output) == {
        "deltas_equal_generators": True,
        "strong_on_smaller": True,
        "agree": True,
    }


def test_check_labeling_usage_errors(runner, files):
    path = files("sup.json", SUPER_DOC)
    assert runner.invoke(main, ["check-labeling-c", path, "--thm51", "--thm52"]).exit_code == 2
    assert runner.invoke(main, ["check-labeling-c"]).exit_code == 2
    res = runner.invoke(main, ["check-labeling-c", path, "--thm53", path, path, path])
    assert res.exit_code == 2


# -- paper-examples ---------------------------------------------------------------------


def test_paper_examples_all_pass(runner):
    res = runner.invoke(main, ["paper-examples"])
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert all(line.endswith(": ok") for line in lines[:-1])
    assert "FAIL" not in res.output
    assert lines[-1].endswith("fixtures")
    checks = len(lines) - 1
    assert lines[-1].startswith(f"{checks}/{checks} checks passed")


def test_paper_examples_unknown_expectation_exits_1(runner, monkeypatch):
    doc = fixtures.load("fig2")
    doc["expect"]["plain_idea"] = doc["expect"]["plain_ideal"]
    monkeypatch.setattr(fixtures, "load", lambda fid: doc)
    res = runner.invoke(main, ["paper-examples"])
    assert res.exit_code == 1
    assert "plain_idea" in res.output and "Traceback" not in res.output


# -- export-dot ---------------------------------------------------------------------------


def test_export_dot_lattice(runner, files):
    res = runner.invoke(main, ["export-dot", files("lat.json", BOOLEAN3_DOC)])
    assert res.exit_code == 0
    assert res.output.startswith('digraph "lattice"')
    assert 'label="{1,2,3}"' in res.output
    assert "n0" in res.output  # bottom included unless asked otherwise


def test_export_dot_skip_bottom_and_outfile(runner, files, tmp_path):
    out = tmp_path / "g.dot"
    res = runner.invoke(
        main,
        ["export-dot", files("lat.json", BOOLEAN3_DOC), "--skip-bottom", "-o", str(out), "--name", "b3"],
    )
    assert res.exit_code == 0 and res.output == ""
    text = out.read_text()
    assert text.startswith('digraph "b3"') and "n0" not in text


def test_export_dot_labeling_shows_monomials(runner, files):
    res = runner.invoke(main, ["export-dot", files("lab.json", FIG6_DOC)])
    assert res.exit_code == 0
    assert 'label="{1,2}: a*c"' in res.output
    assert 'label="{1,2,3}"' in res.output  # unlabeled top keeps the bare set


def test_export_dot_labeling_without_labels(runner, files):
    lab = files("lab.json", {"lattice": BOOLEAN3_DOC, "labels": []})
    res = runner.invoke(main, ["export-dot", lab])
    assert res.exit_code == 0
    lat = runner.invoke(main, ["export-dot", files("lat.json", BOOLEAN3_DOC)])
    assert res.output == lat.output


# -- determinism ----------------------------------------------------------------------------


def test_output_is_byte_identical_across_runs(runner, files):
    lab = files("lab.json", FIG6_DOC)
    sup = files("sup.json", SUPER_DOC)
    for args in (
        ["classify", lab],
        ["build-ideal", lab, "--weak"],
        ["enumerate-superatomic", "--n", "4"],
        ["check-labeling-c", sup, "--thm51"],
        ["paper-examples"],
    ):
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == second.exit_code == 0
        assert first.output == second.output
