import pytest

from lcmlattice import AtomicLattice, PreconditionError, hasse_dot

DIAMOND = AtomicLattice.from_sets(2, [[], [1], [2], [1, 2]])


def test_basic_structure():
    text = hasse_dot(DIAMOND)
    assert text.startswith('digraph "lattice" {')
    assert text.endswith("}\n")
    assert "rankdir=BT" in text
    assert 'n0 [label="0"];' in text
    assert 'n3 [label="{1,2}"];' in text
    assert text.count("->") == len(DIAMOND.covers()) == 4
    assert "n1 -> n3;" in text


def test_label_mapping_with_fallback():
    text = hasse_dot(DIAMOND, labels={3: "top monomial"})
    assert 'n3 [label="top monomial"];' in text
    assert 'n1 [label="{1}"];' in text


def test_skip_bottom():
    text = hasse_dot(DIAMOND, skip_bottom=True)
    assert "n0" not in text
    assert text.count("->") == 2  # only the two upper covers remain


def test_quoting():
    text = hasse_dot(DIAMOND, name='a "b" \\ c', labels={0: 'say "hi"'})
    assert 'digraph "a \\"b\\" \\\\ c"' in text
    assert 'n0 [label="say \\"hi\\""];' in text


def test_deterministic():
    assert hasse_dot(DIAMOND) == hasse_dot(DIAMOND)


@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"labels": 5}, "labels must be a mapping from element masks to str, got 5"),
        ({"labels": ["a"]}, "labels must be a mapping from element masks to str, got ['a']"),
        ({"labels": {3: 5}}, "the label of {1,2} must be a str, got 5"),
        ({"name": 5}, "the graph name must be a str, got 5"),
        ({"name": None}, "the graph name must be a str, got None"),
    ],
)
def test_labels_and_name_of_the_wrong_kind_are_package_errors(kwargs, message):
    with pytest.raises(PreconditionError) as info:
        hasse_dot(DIAMOND, **kwargs)
    assert str(info.value) == message


def test_empty_labels_fall_back_to_atom_sets():
    assert hasse_dot(DIAMOND, labels={}) == hasse_dot(DIAMOND)
