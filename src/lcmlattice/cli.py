"""Command-line interface.

Exit codes, used consistently by every subcommand: 0 success, 1 domain
failure (invalid input data, or a result contradicting an asserted truth),
2 usage error, 3 I/O error.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Optional

import click

from .classify import classify as classify_labeling
from .dot import _default_label, hasse_dot
from .errors import Error, FormatError
from .fixtures import run_all
from .ideals import (
    Labeling,
    MonomialIdeal,
    _read_json,
    _read_text,
    ideal_from_labeling,
    labeling_from_json_dict,
    lcm_lattice,
    load_labeling,
    parse_ideal_text,
    render_ideal_text,
    weak_ideal,
)
from .lattice import AtomicLattice, _json_text
from .superatomic import (
    enumerate_super_atomic,
    is_super_atomic,
    is_super_atomic_via_supp,
    iter_super_atomic_families,
    super_atomic_size,
)
from .support_labeling import (
    check_cover_transfer,
    check_strong_interval_criterion,
    check_weak_interval_criterion,
)

IO_ERROR_EXIT = 3


class _Main(click.Group):
    """The one error boundary of every command: package errors exit 1 and
    I/O errors exit 3.  Each command keeps its own callback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except Error as exc:
            raise click.ClickException(str(exc))
        except OSError as exc:
            click.echo(f"i/o error: {exc}", err=True)
            sys.exit(IO_ERROR_EXIT)


def _load_lattice(path: str) -> AtomicLattice:
    return AtomicLattice.from_json_dict(_read_json(path))


def _load_document(path: str) -> tuple[AtomicLattice, Optional[Labeling]]:
    """A lattice file gives ``(lattice, None)``; a labeling file gives its lattice and itself."""
    doc = _read_json(path)
    if isinstance(doc, dict) and "labels" in doc:
        labeling = labeling_from_json_dict(doc, base_dir=Path(path).parent)
        return labeling.lattice, labeling
    if isinstance(doc, dict) and "sets" in doc:
        return AtomicLattice.from_json_dict(doc), None
    raise FormatError(f'{path}: expected a lattice ("sets") or labeling ("labels") document')


def _load_ideal(path: str) -> MonomialIdeal:
    return parse_ideal_text(_read_text(path))


def _emit_json(doc) -> None:
    click.echo(_json_text(doc), nl=False)


@click.group(cls=_Main)
def main():
    """Monomial ideals from labeled atomic lattices, and back."""


@main.command()
@click.argument("path", type=click.Path())
def validate(path):
    """Validate a lattice or labeling JSON file."""
    lat, labeling = _load_document(path)
    if labeling is not None:
        click.echo(f"valid labeling: {len(labeling)} labeled of {len(lat)} elements on {lat.n} atoms")
    else:
        click.echo(f"valid lattice: {len(lat)} elements on {lat.n} atoms")


@main.command("build-ideal")
@click.argument("labeling_file", type=click.Path())
@click.option("--plain", "mode", flag_value="plain", default=True, help="Generators x(a) (default).")
@click.option("--weak", "mode", flag_value="weak", help="Refined generators delta(a).")
def build_ideal(labeling_file, mode):
    """Print the generated ideal, one generator per atom, in atom order."""
    labeling = load_labeling(labeling_file)
    lat = labeling.lattice
    ideal = ideal_from_labeling(lat, labeling) if mode == "plain" else weak_ideal(lat, labeling)
    if ideal.has_unit_generator:
        click.echo("warning: some generators are the unit monomial (too few labels)", err=True)
    click.echo(render_ideal_text(ideal), nl=False)


@main.command("lcm-lattice")
@click.argument("ideal_file", type=click.Path())
@click.option("--dot", "dot_file", type=click.Path(), help="Also write a DOT Hasse diagram here.")
@click.option("--with-bottom", is_flag=True, help="Keep the bottom element in the DOT output.")
def lcm_lattice_cmd(ideal_file, dot_file, with_bottom):
    """Print the (abstract) lcm-lattice of an ideal as lattice JSON."""
    ll = lcm_lattice(_load_ideal(ideal_file))
    abstract = ll.abstract()
    if dot_file:  # written first, so a failed write prints no lattice
        text = hasse_dot(abstract, labels=ll.hasse_labels(), name="lcm-lattice", skip_bottom=not with_bottom)
        Path(dot_file).write_text(text)
    _emit_json(abstract.to_json_dict())


@main.command()
@click.argument("labeling_file", type=click.Path())
def classify(labeling_file):
    """Classify a labeling; prints the five booleans plus diagnostics."""
    labeling = load_labeling(labeling_file)
    _emit_json(classify_labeling(labeling.lattice, labeling).to_json_dict())


@main.command("enumerate-superatomic")
@click.option("--n", "n", type=int, required=True, help="Atom count (2..6, or 2..7 with --count-only).")
@click.option("--count-only", is_flag=True, help="Stream and count without materializing.")
@click.option("--out", "out_dir", type=click.Path(), help="Write one lattice JSON per output plus an index file.")
def enumerate_superatomic(n, count_only, out_dir):
    """Enumerate all super-atomic lattices on n atoms."""
    if count_only and out_dir:
        raise click.UsageError("--count-only writes no lattices; drop --out")
    if count_only:
        count = sum(1 for _ in iter_super_atomic_families(n))
        _emit_json({"n": n, "count": count, "size": super_atomic_size(n)})
        return
    lats = enumerate_super_atomic(n)
    if out_dir:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        width = max(5, len(str(len(lats))))
        files = []
        for i, lat in enumerate(lats):
            name = f"superatomic-n{n}-{i:0{width}d}.json"
            (out / name).write_text(lat.to_json())
            files.append(name)
        index = {"n": n, "count": len(lats), "size": super_atomic_size(n), "files": files}
        (out / "index.json").write_text(_json_text(index))
        click.echo(f"wrote {len(lats)} lattices to {out}")
    else:
        _emit_json([lat.to_json_dict() for lat in lats])


@main.command("check-superatomic")
@click.argument("lattice_file", type=click.Path())
def check_superatomic(lattice_file):
    """Run both super-atomic detectors; nonzero exit if they disagree."""
    lat = _load_lattice(lattice_file)
    literal = is_super_atomic(lat)
    via_supp = is_super_atomic_via_supp(lat)
    _emit_json({"literal": literal, "via_supp": via_supp, "agree": literal == via_supp})
    if literal != via_supp:
        sys.exit(1)


@main.command("check-labeling-c")
@click.argument("lattice_file", type=click.Path(), required=False)
@click.option("--thm51", is_flag=True, help="Weak interval criterion report (the default).")
@click.option("--thm52", is_flag=True, help="Strong interval criterion (super-atomic lattices).")
@click.option(
    "--thm53",
    nargs=3,
    type=click.Path(),
    metavar="R_FILE P_FILE Q_FILE",
    help="Cover-transfer criterion for root R, middle P covering Q.",
)
def check_labeling_c(lattice_file, thm51, thm52, thm53):
    """Interval-count criteria for the canonical support labeling."""
    if sum((thm51, thm52, bool(thm53))) > 1:
        raise click.UsageError("choose at most one of --thm51, --thm52, --thm53")
    if thm53:
        if lattice_file is not None:
            raise click.UsageError("--thm53 takes its three lattices as flag arguments; drop the positional one")
        root, larger, smaller = (_load_lattice(f) for f in thm53)
        report = check_cover_transfer(root, larger, smaller)
        _emit_json(report.to_json_dict())
        if not report.agree:
            sys.exit(1)
        return
    if lattice_file is None:
        raise click.UsageError("a lattice file is required")
    lat = _load_lattice(lattice_file)
    if thm52:
        holds, witness = check_strong_interval_criterion(lat)
        _emit_json({"condition_holds": holds, "witness": witness})
    else:
        _emit_json(check_weak_interval_criterion(lat).to_json_dict())


@main.command("paper-examples")
def paper_examples():
    """Replay every bundled fixture; nonzero exit on any mismatch."""
    results = run_all()
    failures = 0
    total = 0
    for result in results:
        for check in result.checks:
            total += 1
            if check.passed:
                click.echo(f"{result.fixture_id}: {check.name}: ok")
            else:
                failures += 1
                click.echo(
                    f"{result.fixture_id}: {check.name}: FAIL (expected {check.expected}, got {check.actual})"
                )
    click.echo(f"{total - failures}/{total} checks passed across {len(results)} fixtures")
    if failures:
        sys.exit(1)


@main.command("export-dot")
@click.argument("path", type=click.Path())
@click.option("-o", "--out", "out_file", type=click.Path(), help="Write here instead of stdout.")
@click.option("--skip-bottom", is_flag=True, help="Drop the bottom element from the diagram.")
@click.option("--name", default="lattice", show_default=True, help="DOT graph name.")
def export_dot(path, out_file, skip_bottom, name):
    """Render a lattice (or labeled lattice) file as a DOT Hasse diagram."""
    lat, labeling = _load_document(path)
    labels = None if labeling is None else {p: f"{_default_label(p)}: {m}" for p, m in labeling.items()}
    text = hasse_dot(lat, labels=labels, name=name, skip_bottom=skip_bottom)
    if out_file:
        Path(out_file).write_text(text)
    else:
        click.echo(text, nl=False)


if __name__ == "__main__":
    main()
