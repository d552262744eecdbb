"""Call tracing installed from outside the package under test.

The tracer wraps public functions and methods of each layer (module) of
``lcmlattice``.  Modules import each other's functions by name, so a wrapped
function replaces every attribute, in every loaded ``lcmlattice`` module,
that refers to the original object (``lcmlattice.classify.lcm_lattice`` as
well as ``lcmlattice.ideals.lcm_lattice``).  Methods are wrapped on their
class.

Each wrapped call pushes a frame on one stack; on return its duration is
added to its parent's child time, so self time is duration minus the time
its wrapped children took.  Coarse calls also record a span (id, name,
start, end, parent span id, operation id) kept in memory; hot calls
(``Monomial`` methods, ``join_mask`` and friends, which run up to millions of
times) are only aggregated as call counts and self time.  An exception that
leaves a wrapped call is counted once per layer, at the outermost wrapped
call of that layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# (layer, module, qualified name, record a span?)
HOT, SPAN = False, True
TARGETS = [
    ("monomial", "lcmlattice.monomial", "Monomial.__init__", HOT),
    ("monomial", "lcmlattice.monomial", "Monomial.parse", HOT),
    ("monomial", "lcmlattice.monomial", "Monomial.lcm", HOT),
    ("monomial", "lcmlattice.monomial", "Monomial.gcd", HOT),
    ("monomial", "lcmlattice.monomial", "Monomial.divides", HOT),
    ("monomial", "lcmlattice.monomial", "Monomial.__mul__", HOT),
    ("monomial", "lcmlattice.monomial", "Monomial.__truediv__", HOT),
    ("monomial", "lcmlattice.monomial", "lcm_all", HOT),
    ("monomial", "lcmlattice.monomial", "gcd_all", HOT),
    ("lattice", "lcmlattice.lattice", "AtomicLattice.__init__", HOT),
    ("lattice", "lcmlattice.lattice", "AtomicLattice.join_mask", HOT),
    ("lattice", "lcmlattice.lattice", "AtomicLattice.joining_sets", HOT),
    ("lattice", "lcmlattice.lattice", "AtomicLattice.covers", HOT),
    ("lattice", "lcmlattice.lattice", "AtomicLattice.upper_covers", HOT),
    ("lattice", "lcmlattice.lattice", "AtomicLattice.meet_irreducibles", HOT),
    ("lattice", "lcmlattice.lattice", "lattice_isomorphic", SPAN),
    ("ideals", "lcmlattice.ideals", "Labeling.__init__", HOT),
    ("ideals", "lcmlattice.ideals", "labeling_from_json_dict", SPAN),
    ("ideals", "lcmlattice.ideals", "load_labeling", SPAN),
    ("ideals", "lcmlattice.ideals", "element_generator", HOT),
    ("ideals", "lcmlattice.ideals", "atom_generator", HOT),
    ("ideals", "lcmlattice.ideals", "ideal_from_labeling", SPAN),
    ("ideals", "lcmlattice.ideals", "weak_generator", SPAN),
    ("ideals", "lcmlattice.ideals", "weak_ideal", SPAN),
    ("ideals", "lcmlattice.ideals", "lcm_lattice", SPAN),
    ("classify", "lcmlattice.classify", "classify", SPAN),
    ("classify", "lcmlattice.classify", "check_strong_conditions", SPAN),
    ("classify", "lcmlattice.classify", "check_weak_conditions", SPAN),
    ("classify", "lcmlattice.classify", "is_coordinatization", SPAN),
    ("classify", "lcmlattice.classify", "is_strong_coordinatization", SPAN),
    ("classify", "lcmlattice.classify", "is_weak_coordinatization", SPAN),
    ("classify", "lcmlattice.classify", "verify_labeling_recovery", SPAN),
    ("superatomic", "lcmlattice.superatomic", "enumerate_super_atomic", SPAN),
    ("superatomic", "lcmlattice.superatomic", "iter_super_atomic_families", HOT),
    ("superatomic", "lcmlattice.superatomic", "is_super_atomic", HOT),
    ("superatomic", "lcmlattice.superatomic", "is_super_atomic_via_supp", HOT),
    ("support_labeling", "lcmlattice.support_labeling", "support_labeling", SPAN),
    ("support_labeling", "lcmlattice.support_labeling", "check_weak_interval_criterion", SPAN),
    ("support_labeling", "lcmlattice.support_labeling", "check_strong_interval_criterion", HOT),
    ("support_labeling", "lcmlattice.support_labeling", "check_cover_transfer", SPAN),
    ("fixtures", "lcmlattice.fixtures", "run_all", SPAN),
    ("fixtures", "lcmlattice.fixtures", "run", SPAN),
    ("dot", "lcmlattice.dot", "hasse_dot", SPAN),
]

GENERATORS = {"superatomic.iter_super_atomic_families"}


class Tracer:
    """Per-function statistics, spans and work counters for one process."""

    def __init__(self):
        self.enabled = False
        self.stack: list[list] = []  # frames: [child_s, layer, span_id]
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.errors: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self.spans: list[list] = []
        self.op_id = None
        self.op_lattice_size = None
        self._undo: list = []

    # -- operation context -------------------------------------------------

    def begin_op(self, op_id) -> None:
        self.op_id = op_id
        self.op_lattice_size = None

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- frames --------------------------------------------------------------

    def _enter(self, layer: str, name: str, span: bool):
        span_id = len(self.spans) if span else None
        if span:
            parent = next((f[2] for f in reversed(self.stack) if f[2] is not None), None)
            self.spans.append([span_id, name, 0.0, 0.0, parent, self.op_id])
        frame = [0.0, layer, span_id]
        self.stack.append(frame)
        return frame

    def _leave(self, frame, name: str, start: float, end: float, failed: bool) -> None:
        self.stack.pop()
        dur = end - start
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - frame[0]
        if self.stack:
            self.stack[-1][0] += dur
        if frame[2] is not None:
            rec = self.spans[frame[2]]
            rec[2], rec[3] = start, end
        if failed and not (self.stack and self.stack[-1][1] == frame[1]):
            self.errors[frame[1]] = self.errors.get(frame[1], 0) + 1

    def wrap(self, layer: str, name: str, fn, span: bool):
        tr = self
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.enabled:
                return fn(*args, **kwargs)
            frame = tr._enter(layer, name, span)
            failed = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = perf_counter()
                tr._leave(frame, name, start, end, failed)
            if after is not None:
                after(tr, args, result)
            return result

        return wrapper

    def wrap_generator(self, layer: str, name: str, fn):
        """Time a generator from its first step to its last as one frame and
        count the items it yields.  Work the consumer does between items is
        part of that frame (for ``sum`` and ``set``, the package's consumers,
        it is small); wrapped calls it makes count as children."""
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            if not tr.enabled:
                return it
            return tr._steps(layer, name, it)

        return wrapper

    def _steps(self, layer, name, it):
        frame = self._enter(layer, name, False)
        items = 0
        failed = True
        start = perf_counter()
        try:
            for item in it:
                items += 1
                yield item
            failed = False
        finally:
            self._leave(frame, name, start, perf_counter(), failed)
            self.count(name + ".items", items)

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        cli = importlib.import_module("lcmlattice.cli")  # loads every layer, so all names get patched
        for layer, modname, qualname, span in TARGETS:
            module = sys.modules[modname]
            name = f"{layer}.{qualname.rsplit('.', 1)[-1]}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(layer, name, raw.__func__, span))
                else:
                    new = self.wrap(layer, name, raw, span)
                setattr(cls, attr, new)
                self._undo.append((cls, attr, raw))
                continue
            original = getattr(module, qualname)
            if name in GENERATORS:
                new = self.wrap_generator(layer, name, original)
            else:
                new = self.wrap(layer, name, original, span)
            for modname2, mod in list(sys.modules.items()):
                if modname2 == "lcmlattice" or modname2.startswith("lcmlattice."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, new)
                            self._undo.append((mod, attr, original))
        for cmd_name, cmd in cli.main.commands.items():
            original = cmd.callback
            cmd.callback = self.wrap("cli", f"cli.{cmd_name}", original, SPAN)
            self._undo.append((cmd, "callback", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ---------------------------------------------------------------

    def self_s(self, *names: str) -> float:
        return sum(self.stats.get(n, (0, 0.0, 0.0))[2] for n in names)

    def total_s(self, *names: str) -> float:
        return sum(self.stats.get(n, (0, 0.0, 0.0))[1] for n in names)

    def calls(self, *names: str) -> int:
        return sum(self.stats.get(n, (0, 0.0, 0.0))[0] for n in names)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, op_id in self.spans:
                fh.write(
                    json.dumps({"id": span_id, "name": name, "start": start, "end": end, "parent": parent, "op": op_id})
                    + "\n"
                )


# Work counters taken from a wrapped call's arguments and result.


def _after_construct(tr: Tracer, args, result) -> None:
    if tr.op_lattice_size is None:
        tr.op_lattice_size = len(args[0].sets)


def _after_joining_sets(tr: Tracer, args, result) -> None:
    tr.count("lattice.joining_sets_out", len(result))


def _after_isomorphic(tr: Tracer, args, result) -> None:
    tr.count("lattice.isomorphic_found", result is not None)


def _after_lcm_lattice(tr: Tracer, args, result) -> None:
    tr.count("ideals.lcm_lattice_elements", len(result))
    tr.count("ideals.lcm_lattice_target", tr.op_lattice_size or 0)


_AFTER = {
    "lattice.__init__": _after_construct,
    "lattice.joining_sets": _after_joining_sets,
    "lattice.lattice_isomorphic": _after_isomorphic,
    "ideals.lcm_lattice": _after_lcm_lattice,
}
