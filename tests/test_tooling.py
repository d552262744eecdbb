"""Repository-wide rules that are cheaper to check than to remember."""

import ast
import importlib
import inspect
import io
import re
import sys
import textwrap
import tokenize
import types
from pathlib import Path
from typing import Optional

import pytest

import lcmlattice
from lcmlattice import AtomicLattice, LcmLattice, MonomialIdeal, cli, errors, ideals, lattice, superatomic
from lcmlattice.classify import _extends_to_isomorphism
from lcmlattice.ideals import _refine

from conftest import assert_matches_oracle

PACKAGE = Path(lcmlattice.__file__).parent
TESTS = Path(__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"


def test_no_assert_statements_in_package():
    """Invariants are checked by code that raises a package error; an
    ``assert`` would vanish under ``python -O``."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.relative_to(PACKAGE)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert found == []


def _module_level_imports(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's own top-level imports, with their line.
    A star import binds its module's literal ``__all__``, which
    :func:`test_star_imports_only_in_the_package_init` checks, so it names
    nothing here."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    return bound


def _literal_all(tree: ast.Module) -> Optional[list[str]]:
    """The module's ``__all__`` if it is assigned a list of string literals,
    else None (no ``__all__``, or a computed one)."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            elts = getattr(node.value, "elts", None)
            if elts is not None and all(isinstance(e, ast.Constant) and isinstance(e.value, str) for e in elts):
                return [e.value for e in elts]
    return None


def test_no_unused_imports_in_package():
    """Every module-level import is used in its module or re-exported
    through a literal ``__all__``; a computed one re-exports none."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | set(_literal_all(tree) or ())
        found += [
            f"{path.relative_to(PACKAGE)}:{line}: {name}"
            for name, line in _module_level_imports(tree).items()
            if name not in used
        ]
    assert found == []


# The package's public names at the time its ``__all__`` became the union of
# its modules' own lists; a change to this set is a change of the public API.
PUBLIC_NAMES = """
    AtomicLattice CapExceededError CoverTransferReport CoverWitness DegenerateIdealError Error FormatError
    IntervalCriterionReport IntervalWitness Labeling LabelingClassification LcmLattice Monomial MonomialIdeal
    MonomialParseError NotAnElementError NotDivisibleError ONE PreconditionError ValidationError atom_generator
    atoms_of check_cover_transfer check_strong_conditions check_strong_interval_criterion
    check_superatomic_structure check_weak_conditions check_weak_interval_criterion classify cover_witness
    element_generator enumerate_all_lattices enumerate_super_atomic gcd_all hasse_dot ideal_from_labeling
    is_coordinatization is_strong_coordinatization is_super_atomic is_super_atomic_via_supp
    is_weak_coordinatization iter_super_atomic_families labeling_from_json_dict lattice_isomorphic lcm_all
    lcm_lattice load_labeling mask_of parse_ideal_text recovered_labeling render_ideal_text super_atomic_size
    support_labeling verify_labeling_recovery verify_new_element_meet_irreducible weak_generator weak_ideal
""".split()


def _star_imported_modules() -> list[str]:
    """The package modules ``__init__.py`` star-imports, in its order."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [
        node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and [a.name for a in node.names] == ["*"]
    ]


def test_the_package_exports_the_union_of_its_modules_public_names():
    """``lcmlattice.__all__`` is the sorted union of the star-imported
    modules' own lists, which are every package module with a literal
    ``__all__``; the set is the 57 names above, and no helper such as
    ``bits_of``, ``shown`` or ``ECHO_LIMIT`` leaks into it."""
    modules = [sys.modules[f"lcmlattice.{name}"] for name in _star_imported_modules()]
    declaring = sorted(
        path.stem for path in PACKAGE.glob("*.py") if _literal_all(ast.parse(path.read_text())) is not None
    )
    assert sorted(_star_imported_modules()) == declaring
    assert lcmlattice.__all__ == sorted(name for module in modules for name in module.__all__)
    assert len(PUBLIC_NAMES) == 57 and lcmlattice.__all__ == sorted(PUBLIC_NAMES)
    assert {"bits_of", "shown", "ECHO_LIMIT"}.isdisjoint(vars(lcmlattice))


def test_no_public_name_is_declared_twice():
    """With star imports a name in two modules' ``__all__`` would be bound
    by the later import alone, silently; each name has one home."""
    homes: dict[str, list[str]] = {}
    for name in _star_imported_modules():
        for public in sys.modules[f"lcmlattice.{name}"].__all__:
            homes.setdefault(public, []).append(name)
    assert {public: where for public, where in homes.items() if len(where) > 1} == {}


def test_every_exported_name_is_its_modules_own_object():
    """The package binds each public name to the object its module
    defines; a class or function is defined there, not re-exported from
    another module.  ``from lcmlattice import *`` binds the same objects."""
    star: dict[str, object] = {}
    exec("from lcmlattice import *", star)
    for name in _star_imported_modules():
        module = sys.modules[f"lcmlattice.{name}"]
        for public in module.__all__:
            obj = vars(module)[public]
            assert getattr(lcmlattice, public) is obj and star[public] is obj, public
            if isinstance(obj, (type, types.FunctionType)):
                assert obj.__module__ == module.__name__, public


def test_the_package_name_classify_is_the_function():
    """``lcmlattice.classify`` is the public function, kept under its
    module's name on purpose; the module is reached through ``sys.modules``."""
    module = sys.modules["lcmlattice.classify"]
    assert isinstance(lcmlattice.classify, types.FunctionType)
    assert lcmlattice.classify is module.classify


def test_star_imports_only_in_the_package_init():
    """A star import binds whatever its module exports, so only the
    package's ``__init__.py`` uses one, and only from a sibling module whose
    ``__all__`` is a literal list; every other module names its imports."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom) or [a.name for a in node.names] != ["*"]:
                continue
            source = PACKAGE / f"{node.module}.py"
            if path != PACKAGE / "__init__.py" or node.level != 1 or not source.exists():
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}")
            elif _literal_all(ast.parse(source.read_text())) is None:
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}: {node.module} has no literal __all__")
    assert found == []


def test_every_cap_is_in_the_readme_limits_table():
    """Each module-level ``MAX_*`` cap is documented as ``module.NAME`` in
    the README "Limits" table, so a new cap cannot go undocumented."""
    caps = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        caps += [
            f"{path.stem}.{target.id}"
            for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name) and re.fullmatch(r"MAX_[A-Z0-9_]+", target.id)
        ]
    limits = README.read_text().split("## Limits", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"^\| `([\w.]+)` \|", limits, flags=re.MULTILINE))
    assert caps and [cap for cap in caps if cap not in documented] == []


# Every function that may skip AtomicLattice validation, with the private
# name it uses.  Each builds a family that is valid by construction; the JSON
# loaders, ``from_sets`` and the CLI must always validate.
UNVALIDATED_LATTICE_BUILDERS = {
    "lattice.AtomicLattice.__init__": "_fill",
    "lattice.AtomicLattice._trusted": "_fill",
    "lattice.AtomicLattice.relabel": "_trusted",
    "ideals.LcmLattice.__init__": "_trusted",
    "superatomic.enumerate_super_atomic": "_trusted",
    "superatomic.enumerate_all_lattices": "_trusted",
}


# Every function that may call ``Monomial._trusted``, which checks no name
# and no exponent.  The arithmetic and the generator builders combine
# exponents that are already valid; ``parse`` is the one that reads outside
# text, and it validates every name and exponent in its grammar loop first.
# ``ideals._product_outside`` is the one place summed label exponents are
# wrapped, each sum checked against the digit cap first.  The constructor and
# any new loader must always validate.
TRUSTED_MONOMIAL_BUILDERS = {
    "monomial.Monomial.__mul__",
    "monomial.Monomial.lcm",
    "monomial.Monomial.gcd",
    "monomial.Monomial.__truediv__",
    "monomial.Monomial.parse",
    "ideals._product_outside",
    "ideals._refine",
}


# Every function that may call ``MonomialIdeal._with_levels``, which coerces
# no generator and takes the level table it is handed on trust.  Each hands
# over a tuple of monomials the package built: the generators ``x(a)``, the
# generators ``delta(a)`` with the table their joins give, and a minimal
# tuple.  The constructor and any loader must always coerce.
TRUSTED_IDEAL_BUILDERS = {
    "ideals.ideal_from_labeling",
    "ideals._refine",
    "ideals.MonomialIdeal._minimal_ideal",
}


def _unchecked_builder_uses(node: ast.AST, scope: str, found: dict[str, set[str]]) -> None:
    """Record, per enclosing function, each ``._trusted``, ``._fill`` or
    ``._with_levels`` the code mentions: as ``Monomial._trusted`` when it is
    read off the name ``Monomial``, as ``MonomialIdeal._with_levels`` off
    any value, as the bare attribute (a lattice builder) otherwise."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            _unchecked_builder_uses(child, f"{scope}.{child.name}", found)
            continue
        if isinstance(child, ast.Attribute) and child.attr in ("_trusted", "_fill", "_with_levels"):
            on_monomial = isinstance(child.value, ast.Name) and child.value.id == "Monomial"
            owner = "Monomial." if on_monomial else "MonomialIdeal." if child.attr == "_with_levels" else ""
            found.setdefault(scope, set()).add(owner + child.attr)
        _unchecked_builder_uses(child, scope, found)


def _unchecked_builders() -> dict[str, set[str]]:
    found: dict[str, set[str]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        _unchecked_builder_uses(ast.parse(path.read_text()), module, found)
    return found


def test_only_closed_by_construction_paths_skip_lattice_validation():
    """``AtomicLattice._trusted`` checks nothing, so only the functions listed
    above may reach it; a loader that used it would accept any family."""
    others = {"Monomial._trusted", "MonomialIdeal._with_levels"}
    lattice_uses = {scope: attrs - others for scope, attrs in _unchecked_builders().items()}
    assert {scope: attrs for scope, attrs in lattice_uses.items() if attrs} == {
        scope: {attr} for scope, attr in UNVALIDATED_LATTICE_BUILDERS.items()
    }


def test_only_listed_builders_skip_monomial_validation():
    """``Monomial._trusted`` checks nothing, so only the functions listed
    above may reach it; a loader that used it without parsing first would
    accept any name and exponent."""
    found = _unchecked_builders()
    assert {scope for scope, attrs in found.items() if "Monomial._trusted" in attrs} == TRUSTED_MONOMIAL_BUILDERS


def test_only_listed_builders_hand_an_ideal_its_level_table():
    """``MonomialIdeal._with_levels`` coerces nothing and trusts the table it
    is handed, so only the functions listed above may reach it; a loader
    that used it would keep a value that is no monomial, or a wrong table."""
    found = _unchecked_builders()
    assert {scope for scope, attrs in found.items() if "MonomialIdeal._with_levels" in attrs} == TRUSTED_IDEAL_BUILDERS


def _raised_name(exc: ast.expr) -> str:
    """The dotted name of what a ``raise`` statement raises."""
    target = exc.func if isinstance(exc, ast.Call) else exc
    return ast.unparse(target)


def test_package_raises_only_package_errors():
    """Every ``raise`` names a class from ``lcmlattice.errors`` (so callers
    can catch ``lcmlattice.Error``) or a ``click`` exception in the CLI."""
    package_errors = {
        name for name, obj in vars(errors).items() if isinstance(obj, type) and issubclass(obj, errors.Error)
    }
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            name = _raised_name(node.exc)
            if name not in package_errors and not name.startswith("click."):
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno}: {name}")
    assert found == []


def _echoes_repr(node: ast.AST) -> bool:
    """An f-string field with ``!r``, or a ``repr(...)`` call."""
    if isinstance(node, ast.FormattedValue):
        return node.conversion == ord("r")
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "repr"


def test_raise_messages_echo_values_through_the_renderer():
    """An error message echoes a caller's value through ``errors.shown``,
    which cuts it to a fixed length; ``!r`` or ``repr`` would echo the
    whole value, however long, or raise on an int past the digit limit."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                found += [
                    f"{path.relative_to(PACKAGE)}:{sub.lineno}" for sub in ast.walk(node.exc) if _echoes_repr(sub)
                ]
    assert found == []


TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_targets() -> list[tuple[str, str]]:
    """``(module, qualified name)`` of each ``TARGETS`` entry, read from the
    tracer's source without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return [(entry.elts[1].value, entry.elts[2].value) for entry in node.value.elts]
    raise LookupError("no TARGETS list in the tracer")


def test_every_tracer_target_resolves():
    """The benchmark tracer looks these names up to wrap them; a renamed or
    moved function would make every traced benchmark run fail."""
    missing = []
    targets = _tracer_targets()
    for modname, qualname in targets:
        module = importlib.import_module(modname)
        cls_name, _, attr = qualname.rpartition(".")
        owner = vars(module).get(cls_name) if cls_name else module
        if owner is None or attr not in vars(owner):
            missing.append(f"{modname}:{qualname}")
    assert targets and missing == []


def _names_used(code: types.CodeType) -> set[str]:
    """Global and attribute names a function's code refers to, nested
    comprehensions and generator expressions included."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _names_used(const)
    return names


def test_supp_detector_stays_independent_of_the_literal_one():
    """The two super-atomic detectors serve as each other's oracle, so the
    support characterization must not reach the literal detector's tables.
    It keeps its own incidence columns: it takes no join and reads neither
    the lattice's incidence table, its element index nor the
    meet-irreducibles it holds."""
    names = _names_used(superatomic.is_super_atomic_via_supp.__code__)
    literal = {"_atom_pairs", "_super_atomic_joining_pairs", "is_super_atomic"}
    lattice = {"join_mask", "_above", "_atom_rows", "_rows", "_element_index", "_index", "_join_cache", "_mi"}
    assert names & (literal | lattice) == set()


def test_level_mask_readers_take_no_join_and_no_monomial_closure():
    """The specific-map decision reads level masks and the
    meet-irreducibles; the lcm-lattice build closes the level masks under
    intersection and takes no lcm (the monomials are taken when read, one
    lcm per element); the minimal generators come from one divisibility
    pass that reads no level table, so the build's atom refusal builds
    none; ``delta`` joins each level mask and walks no element.  The
    decision builds no lcm-lattice, so it neither counts minimal generators
    nor reads a cap: both size refusals belong to the build, the element
    cap read by ``LcmLattice.__init__`` and the atom cap by
    ``MonomialIdeal._minimal_ideal``, the one place that decides it."""
    decision = _names_used(_extends_to_isomorphism.__code__)
    assert decision & {"join_mask", "lcm", "lcm_all", "minimal_generators"} == set()
    assert [name for name in decision if name.startswith("MAX_")] == []
    build = _names_used(LcmLattice.__init__.__code__)
    assert build & {"divides", "join_mask", "lcm", "lcm_all"} == set()
    assert "MAX_LCM_ELEMENTS" in build and "MAX_ATOMS" in _names_used(MonomialIdeal._minimal_ideal.__code__)
    minimal = _names_used(ideals._minimal_generators.__code__)
    assert "divides" in minimal and minimal & {"lcm", "gcd"} == set()
    for reader in (ideals._minimal_generators, MonomialIdeal.minimal_generators.fget, MonomialIdeal._minimal_ideal):
        assert _names_used(reader.__code__) & {"_level_table", "_levels", "_exponent_levels"} == set(), reader
    assert _names_used(_refine.__code__) & {"sets", "bit_count"} == set()


def test_an_lcm_lattice_keeps_only_its_generators_and_supports():
    """Each element is stored once, as its support; its monomial is taken
    when read, so the lattice holds no lookup to keep in step."""
    assert LcmLattice.__slots__ == ("generators", "_abstract")


def test_the_lcm_lattice_command_reads_no_cap():
    """``lcmlat lcm-lattice`` refuses what the build refuses, with its text:
    the command names no ``MAX_*`` and the CLI module imports none, so the
    API and the CLI cannot apply a cap differently."""
    names = _names_used(cli.lcm_lattice_cmd.callback.__code__)
    assert [name for name in names if name.startswith("MAX_")] == []
    assert [name for name in vars(cli) if name.startswith("MAX_")] == []


def _is_cache(node: ast.expr) -> bool:
    """``cache``, ``lru_cache`` or ``functools.<either>``, called or not,
    and a call of such a call, as ``lru_cache(maxsize=k)(f)``."""
    while isinstance(node, ast.Call):
        node = node.func
    return (getattr(node, "id", None) or getattr(node, "attr", None)) in ("cache", "lru_cache")


# The memos allowed to outlive a call, as (module, name).
_KEPT_MEMOS = {("monomial.py", "_render_key")}


def test_no_memo_outlives_a_call():
    """No package function is decorated with ``functools.cache`` or
    ``lru_cache``, and no module-level assignment wraps one: the benchmark
    rebuilds its inputs for every operation, so a memo that survived the
    call would time a different program.  A ``cache(...)`` made inside a
    function body, as ``classify`` makes one per call, is allowed.

    One module-level memo is allowed by name: ``monomial._render_key``, the
    sort key of a variable name.  It memoizes a pure function of the name
    alone, so what it holds depends on no lattice, labeling or ideal, and it
    is bounded.  Rendering sorts every term by it, and dropping it costs
    speed: rendering the 552 generators ``x(a)`` and ``delta(a)`` of one
    ``wide-generators`` pass took 4.4 ms without it against 2.9 ms with it
    (Python 3.11.7, 2 shared CPUs, best of 5)."""
    for text in ("cache(f)", "functools.lru_cache(f)", "lru_cache(maxsize=4)(f)", "functools.cache"):
        assert _is_cache(ast.parse(text, mode="eval").body), text
    assert not _is_cache(ast.parse("sorted(f)(g)", mode="eval").body)
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        decorated = [
            (node.lineno, node.name)
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(map(_is_cache, node.decorator_list))
        ]
        wrapped = [
            (node.lineno, getattr(target, "id", None))
            for node in tree.body
            if isinstance(node, ast.Assign) and _is_cache(node.value)
            for target in node.targets
        ]
        module = str(path.relative_to(PACKAGE))
        found += [f"{module}:{line}" for line, name in decorated + wrapped if (module, name) not in _KEPT_MEMOS]
    assert found == []


def test_specific_map_decision_reads_meet_irreducibles_not_a_closure():
    """Strong and weak are decided as MI(L) ⊆ cuts ⊆ L; the one closure of
    the cuts is the lcm-lattice build's."""
    names = _names_used(_extends_to_isomorphism.__code__)
    assert "meet_irreducibles" in names and "_intersection_closure" not in names
    assert not hasattr(ideals, "_intersection_closure")


def test_meet_irreducibles_have_one_algorithm_the_closure_walk():
    """A lattice answers with the tuple its constructor handed over, or the
    one the validating constructor finds through ``_decide``: the
    meet-closure, with the closure walk over its budget.  Neither takes a
    join, builds a cover relation or asks for an element's upper covers, so
    a second algorithm cannot come back."""
    answer = _names_used(AtomicLattice.meet_irreducibles.__code__)
    decide = _names_used(AtomicLattice._decide.__code__)
    assert "_decide" in answer and {"_meet_closure", "_closure_walk"} <= decide
    assert (answer | decide) & {"join_mask", "covers", "upper_covers", "_upper_covers_of"} == set()


def test_the_top_down_closure_reads_no_incidence_table():
    """The closure that validates most families and finds their
    meet-irreducibles works on masks alone: it reads no incidence row and
    takes no join, so the m-bit rows stay off the path of a valid family."""
    names = _names_used(lattice._meet_closure.__code__)
    assert names & {"_atom_rows", "_rows", "_above", "join_mask"} == set()


def test_each_lattice_kernel_is_written_once():
    """Validation and the meet-irreducibles of an enumerated lattice take
    one decision, ``_decide``, the only code that reaches the closure and
    the walk or multiplies out their budget; it and the lcm-lattice build
    close their members through ``_meet_closure``, and the build holds no
    closure loop of its own.  The super-atomic test and both interval
    criteria read the pairs of atoms through ``_atom_pairs``, and neither
    criterion ANDs incidence rows itself.  The helpers each kernel replaced
    are gone."""
    for function in (AtomicLattice.__init__, AtomicLattice.meet_irreducibles):
        names = _names_used(function.__code__)
        assert "_decide" in names and names & {"_meet_closure", "_closure_walk"} == set(), function.__qualname__
    for function in (AtomicLattice._decide, LcmLattice.__init__):
        assert "_meet_closure" in _names_used(function.__code__), function.__qualname__
    budgeted = [
        function.name
        for function in ast.walk(ast.parse((PACKAGE / "lattice.py").read_text()))
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Name) and node.id == "_CLOSURE_BUDGET"
    ]
    assert budgeted == ["_decide"]
    build = ast.parse(textwrap.dedent(inspect.getsource(LcmLattice.__init__)))
    assert not any(isinstance(node, (ast.For, ast.comprehension)) for node in ast.walk(build))
    assert "_atom_pairs" in _names_used(superatomic._super_atomic_joining_pairs.__code__)
    for criterion in (lcmlattice.check_weak_interval_criterion, lcmlattice.check_strong_interval_criterion):
        assert "_atom_rows" not in _names_used(criterion.__code__), criterion.__name__
    assert not hasattr(lattice, "_irreducible_members")
    assert not hasattr(superatomic, "_joining_pairs")
    assert not hasattr(sys.modules["lcmlattice.support_labeling"], "_pair_sizes")


def test_no_lattice_generator_sets_lattice_state():
    """A generator runs only as far as its caller reads it, so state it
    sets depends on how it was read: no generator in ``lattice.py``
    assigns an attribute."""
    tree = ast.parse((PACKAGE / "lattice.py").read_text())
    generators = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in ast.walk(node))
    ]
    assigned = [
        f"{gen.name}:{target.lineno}"
        for gen in generators
        for node in ast.walk(gen)
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Attribute)
    ]
    assert generators and assigned == []


def test_lattice_module_names_no_pair_scan():
    """Validation explains a refusal from its closure walk, one pair per
    failing step; ``lattice.py`` names no ``combinations``, so the C(m, 2)
    scan over every pair of members cannot come back."""
    tree = ast.parse((PACKAGE / "lattice.py").read_text())
    names = {getattr(node, "id", None) or getattr(node, "attr", None) for node in ast.walk(tree)}
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "combinations" not in names | imported


def test_generator_path_kernels_loop_in_c():
    """The weak criterion reads N([p, top]) off the atom-pair table, so it
    names no ``_above``; the incidence table and ``atoms_of`` are built by
    byte operations that run in C, so neither holds a ``while`` loop over
    bits."""
    assert "_above" not in _names_used(lcmlattice.check_weak_interval_criterion.__code__)
    tree = ast.parse((PACKAGE / "lattice.py").read_text())
    kernels = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    for name in ("_atom_rows", "atoms_of"):
        assert not any(isinstance(node, ast.While) for node in ast.walk(kernels[name])), name


def test_overlap_check_names_no_pair_scan():
    """The overlap check walks, for each labeled element, only the later
    elements whose labels share a variable with its own, read off the
    per-variable carriers the chain check reads too.  It names no
    ``combinations``, so the C(L, 2) scan over every labeled pair cannot
    come back."""
    names = _names_used(lcmlattice.check_weak_conditions.__code__)
    assert "combinations" not in names and "_carriers" in names


def test_isomorphism_search_reads_meet_irreducibles_not_covers():
    """The search prunes with the meet-irreducibles alone; it asks for no
    cover relation and no atom's upper covers."""
    names = _names_used(lcmlattice.lattice_isomorphic.__code__)
    assert "meet_irreducibles" in names
    assert names & {"covers", "upper_covers", "_upper_covers_of", "_atom_signature"} == set()


def _top_level_scopes_mentioning(name: str) -> set[str]:
    """``module.function`` (or ``module.Class``, or ``module`` for module-level
    code) of each top-level definition whose code names ``name``, as a bare
    name or as an attribute."""
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts).removesuffix(".__init__")
        for node in ast.parse(path.read_text()).body:
            if any(getattr(n, "id", None) == name or getattr(n, "attr", None) == name for n in ast.walk(node)):
                found.add(f"{module}.{node.name}" if hasattr(node, "name") else module)
    return found


def test_only_classify_words_a_false_specific_map():
    """The predicates take the level-mask decision alone; building an
    lcm-lattice to word the verdict is for ``classify`` only."""
    assert _top_level_scopes_mentioning("_specific_map_witness") == {"classify.classify"}


def test_one_json_parser_and_one_text_reader():
    """Input text reaches ``json.loads`` and ``read_text`` only through the
    two readers that turn their failures into a ``FormatError`` naming the
    file; ``fixtures.load`` reads the package's own data.  Output JSON is
    written by ``lattice._json_text`` alone."""
    assert _top_level_scopes_mentioning("loads") == {"lattice._parse_json", "fixtures.load"}
    assert _top_level_scopes_mentioning("read_text") == {"ideals._read_text", "fixtures.load"}
    assert _top_level_scopes_mentioning("dumps") == {"lattice._json_text"}


def test_the_other_lattice_refusal_has_one_home():
    """Only ``ideals._label_groups`` words the refusal of a labeling of
    another lattice; every entry point taking a lattice and a labeling
    reaches it there."""
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if any(isinstance(n, ast.Constant) and "different lattice" in str(n.value) for n in ast.walk(node)):
                found.add(f"{path.stem}.{node.name}" if hasattr(node, "name") else path.stem)
    assert found == {"ideals._label_groups"}


def _corpus_names(source: str) -> list[str]:
    """The module-level ``*_CORPORA`` tables and ``_*corpus`` builders that
    ``source`` defines, by a plain or annotated assignment or a ``def``."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if re.fullmatch(r"\w+_CORPORA|_\w*corpus", name)]


def test_corpora_live_in_conftest():
    """No test module but ``conftest.py`` defines a module-level ``*_CORPORA``
    table or a ``_*corpus`` builder: the corpora have one home, so they
    cannot regrow file by file."""
    sample = "A_CORPORA: dict = {}\nasync def _a_corpus(): pass\nB_CORPORA, b = {}, 1\ndef _helper(): pass\n"
    assert _corpus_names(sample) == ["A_CORPORA", "_a_corpus", "B_CORPORA"]
    modules = [path for path in sorted(TESTS.glob("*.py")) if path.name != "conftest.py"]
    assert [f"{path.name}: {name}" for path in modules for name in _corpus_names(path.read_text())] == []


def test_the_differential_check_counts_a_shared_error_only_where_named():
    """Two sides that raise the same package error agree only on a kind
    that ``reach`` names, and never on every case."""

    def refuse(n):
        raise errors.PreconditionError("refused")

    with pytest.raises(AssertionError, match="case 0"):
        assert_matches_oracle(refuse, refuse, [(1,)])
    with pytest.raises(AssertionError, match="no case gave a value"):
        assert_matches_oracle(refuse, refuse, [(1,)], reach={"PreconditionError": 1})
    with pytest.raises(AssertionError, match="reach"):
        assert_matches_oracle(abs, abs, [(1,)], reach={"PreconditionError": 1})
    assert assert_matches_oracle(abs, abs, [(-1,), (2,)], reach={1: 1, 2: 1}) == [1, 2]


_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """Code lines of a Python file, or of every ``*.py`` under a directory:
    lines that hold a token other than a comment or a newline, leaving out
    module, class and function docstrings.  A token over several lines (a
    multi-line string that is not a docstring) counts on each of them."""
    if path.is_dir():
        return sum(code_lines(p) for p in path.rglob("*.py"))
    text = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


CODE_LINES_SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a comment

# a comment line


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a multi-line
string that is code"""
        return text
'''


def test_code_lines_counts_code_not_docstrings_comments_or_blanks(tmp_path):
    """The one line counter behind the code-size figures: here ``import os``,
    ``class A:``, ``def f(self):``, the two lines of the string assigned to
    ``text`` and ``return text``."""
    (tmp_path / "sample.py").write_text(CODE_LINES_SAMPLE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "more.py").write_text("x = 1\n\n# done\n")
    assert code_lines(tmp_path / "sample.py") == 6
    assert code_lines(tmp_path) == 7
