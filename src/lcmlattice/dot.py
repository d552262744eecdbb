"""Graphviz DOT rendering of lattice Hasse diagrams.

The writer emits plain DOT text (no graphviz dependency) with ``rankdir=BT``
so diagrams read bottom-up like the usual Hasse picture.  Output is fully
deterministic: nodes appear in canonical lattice order and edges in canonical
cover order.
"""

from __future__ import annotations

from typing import Mapping, Optional

from .errors import PreconditionError, shown
from .lattice import AtomicLattice, _require_lattice, _set_str

__all__ = ["hasse_dot"]


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _default_label(mask: int) -> str:
    return "0" if mask == 0 else _set_str(mask)


def hasse_dot(
    lat: AtomicLattice,
    labels: Optional[Mapping[int, str]] = None,
    name: str = "lattice",
    skip_bottom: bool = False,
) -> str:
    """Render the Hasse diagram of ``lat`` as DOT text.

    ``labels`` may map element masks to display text; elements it does not
    cover fall back to their atom-set form.  ``skip_bottom`` drops the bottom
    element and its edges, the way lattice diagrams are usually drawn.
    A ``labels`` that is not a mapping, a label or a ``name`` that is not a
    ``str`` is a :class:`PreconditionError`.
    """
    _require_lattice(lat)
    if labels is None:
        labels = {}
    elif not isinstance(labels, Mapping):
        raise PreconditionError(f"labels must be a mapping from element masks to str, got {shown(labels)}")
    if not isinstance(name, str):
        raise PreconditionError(f"the graph name must be a str, got {shown(name)}")
    lines = [f"digraph {_quote(name)} {{", "  rankdir=BT;", '  node [shape=plaintext, fontname="Helvetica"];']
    for m in lat.sets:
        if skip_bottom and m == 0:
            continue
        text = labels.get(m)
        if text is not None and not isinstance(text, str):
            raise PreconditionError(f"the label of {_set_str(m)} must be a str, got {shown(text)}")
        lines.append(f"  n{m} [label={_quote(_default_label(m) if text is None else text)}];")
    for lo, hi in lat.covers():
        if skip_bottom and lo == 0:
            continue
        lines.append(f"  n{lo} -> n{hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"
