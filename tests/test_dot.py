from lcmlattice import AtomicLattice, hasse_dot

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
