"""The four benchmark workloads.

Each workload builds its inputs at set-up from the seed, then runs *passes*:
one pass is the workload's whole seeded schedule, every operation timed on
its own and its output checked outside the timed region.  Operations rebuild
their ``AtomicLattice`` and ``Labeling`` from plain data, so per-object caches
start cold every time, as they do for a user loading a file.

Output checks come in two kinds.  Invariants hold for any seed (for example,
``delta(a)`` divides ``x(a)``).  For the recorded seed, outputs are also
compared with the digests in ``digests.json``, taken at the commit that
introduced the benchmark.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate
import corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURE_DATA = SRC / "lcmlattice" / "fixtures" / "data"
DIGESTS = HERE / "digests.json"

CLASSIFY_FIELDS = ("satisfies_A1A2", "satisfies_C1C2", "is_coordinatization", "is_strong", "is_weak")


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


def exponents(text: str) -> dict[str, int]:
    """Exponent map of a rendered monomial, parsed independently of the package."""
    if text == "1":
        return {}
    out: dict[str, int] = {}
    for term in text.split("*"):
        v, _, e = term.partition("^")
        out[v] = out.get(v, 0) + int(e or 1)
    return out


def divides(a: str, b: str) -> bool:
    eb = exponents(b)
    return all(e <= eb.get(v, 0) for v, e in exponents(a).items())


class Tally:
    """Operations attempted and failed, and the time of each operation.

    With a ``calibration`` function (returning a kernel time, see
    ``calibrate.py``), timings are scaled by the machine-speed factor measured
    at least every ``SEGMENT_S`` of timed work; ``raw_times`` and
    ``raw_other_s`` keep the unscaled figures.
    """

    def __init__(self, calibration=None):
        self.times: dict[str, list[float]] = {}  # operation id -> its time in each pass
        self.raw_times: dict[str, list[float]] = {}
        self.other_s: list[float] = []  # per pass: timed work that is no operation
        self.raw_other_s: list[float] = []
        self.factors: list[float] = []
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0  # failures that are not a documented defect
        self.reasons: list[str] = []
        self.calibration = calibration
        self._pending: list[tuple] = []
        self._other = [0.0, 0.0]
        if calibration is not None:
            self._kernel_s = calibration()
            self._kernel_at = perf_counter()

    def time(self, item_id, seconds: float) -> None:
        """Add timed work: one operation, or with ``item_id`` None work that is no operation."""
        self._pending.append((item_id, seconds))
        self.ops += item_id is not None
        if self.calibration is not None and perf_counter() - self._kernel_at >= calibrate.SEGMENT_S:
            self._flush()

    def _flush(self) -> None:
        factor = 1.0
        if self.calibration is not None:
            k = self.calibration()
            factor = calibrate.REFERENCE_S / ((self._kernel_s + k) / 2)
            self._kernel_s, self._kernel_at = k, perf_counter()
            self.factors.append(factor)
        for item_id, seconds in self._pending:
            if item_id is None:
                self._other[0] += seconds * factor
                self._other[1] += seconds
            else:
                self.times.setdefault(item_id, []).append(seconds * factor)
                self.raw_times.setdefault(item_id, []).append(seconds)
        self._pending.clear()

    def end_pass(self) -> None:
        self._flush()
        self.other_s.append(self._other[0])
        self.raw_other_s.append(self._other[1])
        self._other = [0.0, 0.0]

    def record(self, item_id: str, reason, known=None) -> None:
        """Count one attempted operation; ``known`` maps an operation id to the
        start of the one failure reason that is a documented defect."""
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            documented = (known or {}).get(item_id)
            self.unexpected += documented is None or not reason.startswith(documented)
            if len(self.reasons) < 5:
                self.reasons.append(f"{item_id}: {reason}")


class NullTracer:
    enabled = False

    def begin_op(self, op_id) -> None:
        pass


NULL_TRACER = NullTracer()


class Workload:
    """One seeded schedule of operations; subclasses define run and check."""

    name = ""
    # Operation id -> start of the failure reason of a defect recorded in
    # README.md, present at the commit that introduced the benchmark.  Such a
    # failure still counts in ``failed``; any other failure of that operation
    # is unexpected.
    known_defects: dict[str, str] = {}
    # Measures the machine speed that timings are scaled by (see calibrate.py).
    calibration = staticmethod(calibrate.kernel_s)

    def __init__(self, seed: int, workdir: Path, digests: dict | None):
        """``workdir`` is this process's scratch directory; ``digests`` is the
        parsed ``digests.json``, or None while recording it."""
        self.digests = digests
        self.expected = None
        if digests is not None and digests["seed"] == seed:
            self.expected = digests["workloads"].get(self.name, {})
        self.rng = random.Random(f"{self.name}/{seed}")
        self.items: list[tuple[str, object]] = []
        self.sample = None  # one passing (item_id, payload, output), for the self-test
        self.recorded: dict | None = None

    def run(self, payload):
        raise NotImplementedError

    def check(self, payload, out):
        """Invariant checks; return a failure reason or None."""
        return None

    def digest_value(self, payload, out):
        """The part of an output that the recorded digest covers, or None if
        this operation has no recorded digest."""
        raise NotImplementedError

    def corrupt(self, payload, out):
        """A copy of a passing output altered so that ``check`` must reject it."""
        raise NotImplementedError

    def verify(self, item_id, payload, out):
        reason = self.check(payload, out)
        if reason is not None or self.expected is None:
            return reason
        value = self.digest_value(payload, out)
        if value is None:
            return None
        want = self.expected.get(item_id)
        if want is None:
            return "no recorded digest for this operation"
        if digest(value) != want:
            return "output differs from the digest recorded for this seed"
        return None

    def pass_items(self, tally: Tally, tr=NULL_TRACER) -> list[tuple[str, object]]:
        """The ``(item_id, payload)`` operations of one pass."""
        return self.items

    def run_pass(self, tally: Tally, tr=NULL_TRACER) -> None:
        for item_id, payload in self.pass_items(tally, tr):
            tr.begin_op(item_id)
            start = perf_counter()
            try:
                out = self.run(payload)
                reason = None
            except Exception as exc:  # any raise is a failed operation, counted below
                out, reason = None, f"raised {type(exc).__name__}: {exc}"
            tally.time(item_id, perf_counter() - start)
            traced, tr.enabled = tr.enabled, False
            if reason is None:
                reason = self.verify(item_id, payload, out)
                if self.recorded is not None:
                    value = self.digest_value(payload, out)
                    if value is not None:
                        self.recorded[item_id] = digest(value)
            tr.enabled = traced
            tally.record(item_id, reason, self.known_defects)
            if reason is None and self.sample is None:
                self.sample = (item_id, payload, out)
        tally.end_pass()

    def finish(self, tally: Tally, tr=NULL_TRACER) -> dict:
        """Work done once per run after the passes; returns extra report values."""
        return {}

    def self_test(self) -> str | None:
        """Feed one corrupted output to the checker; it must count as a failure."""
        if self.sample is None:
            return "no passing operation to corrupt"
        item_id, payload, out = self.sample
        tally = Tally()
        tally.record(item_id, self.verify(item_id, payload, self.corrupt(payload, out)))
        if tally.failed != 1:
            return f"corrupted output of {item_id} passed the checks"
        return None


def _build(payload):
    import lcmlattice as L

    (n, masks), labels = payload[0], payload[1]
    lat = L.AtomicLattice(n, masks)
    return L, lat, L.Labeling(lat, labels)


class ClassifySmall(Workload):
    """The exploration loop: classify many small labelings.

    Super-atomic lattices on 5 and 6 atoms with their support labeling, and
    random intersection-closed lattices on 4..6 atoms with a random, a
    chain-condition and an overlap-condition labeling each.  Monomial
    arithmetic, ``lcm_lattice`` and ``lattice_isomorphic`` dominate; the
    workload never touches ``superatomic`` or ``cli``.
    """

    name = "classify-small"
    SUPER_ATOMIC = {5: 30, 6: 30}
    # atoms -> element counts of the random lattices, 20 per atom count; fixed
    # sizes and label density keep the cost of a pass nearly the same for every seed
    RANDOM_SIZES = {4: (8, 10, 12, 14), 5: (10, 14, 18, 22), 6: (12, 18, 24, 30)}
    RANDOM_PER_N = 20
    LABEL_SHARE = 0.5

    def __init__(self, seed, workdir, digests):
        super().__init__(seed, workdir, digests)
        import lcmlattice  # noqa: F401  (set-up pays the import)

        rng = self.rng
        for n, k in self.SUPER_ATOMIC.items():
            for i in range(k):
                lat = corpus.super_atomic_lattice(rng, n)
                self.items.append((f"sa{n}-{i}-support", (lat, corpus.support_labeling(lat), "support")))
        kinds = (
            ("random", lambda rng, lat: corpus.random_labeling(rng, lat, self.LABEL_SHARE)),
            ("chain", corpus.chain_condition_labeling),
            ("overlap", corpus.overlap_condition_labeling),
        )
        for n, sizes in self.RANDOM_SIZES.items():
            for i in range(self.RANDOM_PER_N):
                lat = corpus.sized_random_lattice(rng, n, sizes[i % len(sizes)])
                for kind, make in kinds:
                    self.items.append((f"rand{n}-{i}-{kind}", (lat, make(rng, lat), kind)))
        rng.shuffle(self.items)

    def run(self, payload):
        L, lat, lab = _build(payload)
        return L.classify(lat, lab)

    def check(self, payload, c):
        if c.satisfies_A1A2 and not c.is_strong:
            return "satisfies_A1A2 without is_strong"
        if c.satisfies_C1C2 and not c.is_weak:
            return "satisfies_C1C2 without is_weak"
        if c.is_strong and not c.is_coordinatization:
            return "is_strong without is_coordinatization"
        false_fields = {f for f in CLASSIFY_FIELDS if not getattr(c, f)}
        if set(c.witness or ()) != false_fields:
            return f"witness fields {sorted(c.witness or ())} != false fields {sorted(false_fields)}"
        kind = payload[2]
        if kind == "chain" and not c.satisfies_A1A2:
            return "chain-condition labeling fails satisfies_A1A2"
        if kind == "overlap" and not c.satisfies_C1C2:
            return "overlap-condition labeling fails satisfies_C1C2"
        return None

    def digest_value(self, payload, c):
        return [[getattr(c, f) for f in CLASSIFY_FIELDS], sorted(c.witness or ())]

    def corrupt(self, payload, c):
        return dataclasses.replace(c, satisfies_A1A2=True, is_strong=False)


class WideGenerators(Workload):
    """Refined generators on a few wide lattices.

    Flat {0, atoms, top} lattices on 10..12 atoms, Boolean lattices B7..B9 and
    sparse random lattices on 8..10 atoms, each with its support labeling and
    one random labeling of half its elements.  ``joining_sets``, ``join_mask``, ``covers`` and the
    ``weak_ideal`` path do most of the work; ``classify``, ``lcm_lattice`` and
    the isomorphism search are never called.
    """

    name = "wide-generators"
    FLAT = (10, 11, 12)
    BOOLEAN = (7, 8, 9)
    SPARSE = {8: 40, 9: 70, 10: 100}  # atoms -> elements; three lattices each
    # Fixed sizes and label density keep the cost of a pass nearly the same for every seed.
    LABEL_SHARE = 0.5

    def __init__(self, seed, workdir, digests):
        super().__init__(seed, workdir, digests)
        import lcmlattice  # noqa: F401

        rng = self.rng
        lattices = [(f"flat{n}", corpus.flat_lattice(n)) for n in self.FLAT]
        lattices += [(f"bool{n}", corpus.boolean_lattice(n)) for n in self.BOOLEAN]
        for n, size in self.SPARSE.items():
            lattices += [(f"sparse{n}-{i}", corpus.sized_random_lattice(rng, n, size)) for i in range(3)]
        for key, lat in lattices:
            self.items.append((f"{key}-support", (lat, corpus.support_labeling(lat))))
            self.items.append((f"{key}-random", (lat, corpus.random_labeling(rng, lat, self.LABEL_SHARE))))
        rng.shuffle(self.items)

    def run(self, payload):
        L, lat, lab = _build(payload)
        plain = L.ideal_from_labeling(lat, lab)
        weak = L.weak_ideal(lat, lab)
        strong_ok, _ = L.check_strong_conditions(lat, lab)
        weak_ok, _ = L.check_weak_conditions(lat, lab)
        criterion = L.check_weak_interval_criterion(lat)
        return {
            "plain": [str(g) for g in plain.generators],
            "weak": [str(g) for g in weak.generators],
            "strong_conditions": strong_ok,
            "weak_conditions": weak_ok,
            "weak_criterion": criterion.hypothesis_holds,
        }

    def check(self, payload, out):
        n = payload[0][0]
        if len(out["plain"]) != n or len(out["weak"]) != n:
            return f"expected {n} generators, got {len(out['plain'])} plain and {len(out['weak'])} refined"
        for i, (x, d) in enumerate(zip(out["plain"], out["weak"]), start=1):
            if not divides(d, x):
                return f"delta(a{i}) = {d} does not divide x(a{i}) = {x}"
        if out["strong_conditions"] and not out["weak_conditions"]:
            return "chain conditions hold but overlap conditions fail"
        return None

    def digest_value(self, payload, out):
        return out

    def corrupt(self, payload, out):
        return {**out, "weak": [out["weak"][0] + "*zz9"] + out["weak"][1:]}


class Enumerate(Workload):
    """The write side: materialize and check every super-atomic lattice.

    One pass calls ``enumerate_super_atomic(6)`` (23,040 validated lattices),
    runs ``is_super_atomic_via_supp`` on each, and ``is_super_atomic`` plus
    ``check_strong_interval_criterion`` on a seeded 5% sample.  An operation
    is one lattice; its latency is the time of its checks, and ops_per_s
    counts the enumeration time as well.  After the passes the run counts the
    n = 7 families once through the click entry point.
    """

    name = "enumerate"
    N = 6
    COUNT = 23040
    SIZE = 22  # elements of every super-atomic lattice on 6 atoms
    SAMPLE = 1152
    N7_COUNT = 2580480

    def __init__(self, seed, workdir, digests):
        super().__init__(seed, workdir, digests)
        import lcmlattice  # noqa: F401

        self.sampled = frozenset(self.rng.sample(range(self.COUNT), self.SAMPLE))
        self.families_checked = False

    def pass_items(self, tally, tr=NULL_TRACER):
        """Enumerate the lattices (timed work that is no operation); each is one operation."""
        import lcmlattice as L

        tr.begin_op("enumerate")
        start = perf_counter()
        try:
            lats = L.enumerate_super_atomic(self.N)
        except Exception as exc:  # a failed enumeration fails every lattice it should have produced
            lats, error = [], f"raised {type(exc).__name__}: {exc}"
        else:
            error = None
        tally.time(None, perf_counter() - start)
        traced, tr.enabled = tr.enabled, False
        if error is None and len(lats) != self.COUNT:
            error = f"enumerated {len(lats)} lattices, expected {self.COUNT}"
        if error is None and not self.families_checked:
            self.families_checked = True
            # The enumeration does not depend on the seed, so this digest is checked for every seed.
            families = digest([list(lat.sets) for lat in lats])
            if self.digests is not None and families != self.digests["enumerate_families"]:
                error = "enumerated families differ from the recorded digest"
            self.families = families
        tr.enabled = traced
        if error is not None:
            for _ in range(self.COUNT):
                tally.record("enumerate", error)
            return []
        return [(f"lattice{i}", (i, lat)) for i, lat in enumerate(lats)]

    def run(self, payload):
        import lcmlattice as L

        i, lat = payload
        out = [L.is_super_atomic_via_supp(lat)]
        if i in self.sampled:
            out += [L.is_super_atomic(lat), L.check_strong_interval_criterion(lat)[0]]
        return out

    def check(self, payload, out):
        size = len(payload[1])
        if size != self.SIZE:
            return f"lattice has {size} elements, expected {self.SIZE}"
        if not out[0]:
            return "is_super_atomic_via_supp is false on an enumerated lattice"
        if len(out) > 1 and out[1] != out[0]:
            return "the two super-atomic detectors disagree"
        return None

    def digest_value(self, payload, out):
        """Only the sampled lattices, which get the strong interval criterion, have a digest."""
        return out if len(out) > 1 else None

    def corrupt(self, payload, out):
        return [not out[0], *out[1:]]

    def finish(self, tally, tr=NULL_TRACER):
        from click.testing import CliRunner

        from lcmlattice.cli import main

        tr.begin_op("count-n7")
        start = perf_counter()
        res = CliRunner().invoke(main, ["enumerate-superatomic", "--count-only", "--n", "7"])
        elapsed = perf_counter() - start
        reason = None
        if res.exit_code != 0:
            reason = f"exit code {res.exit_code}: {res.exception!r}"
        elif json.loads(res.output).get("count") != self.N7_COUNT:
            reason = f"n = 7 count is not {self.N7_COUNT}: {res.output.strip()}"
        tally.record("count-n7", reason)
        return {"count_n7_s": elapsed}


class CliOneshot(Workload):
    """One ``lcmlat`` subprocess per operation, run one at a time.

    A seeded schedule covers all nine subcommands on inputs written at
    set-up from the bundled fixtures and small corpus lattices, plus a fixed
    set of malformed inputs that must end in exit code 1, 2 or 3 without a
    traceback.  On inputs this small, interpreter start, import and click
    dispatch dominate.
    """

    name = "cli-oneshot"
    calibration = staticmethod(calibrate.child_kernel_s)
    known_defects = {"malformed-label-set-int": "exit code 1 with a traceback on stderr: TypeError: "}

    def __init__(self, seed, workdir, digests):
        super().__init__(seed, workdir, digests)
        import lcmlattice.cli  # noqa: F401

        rng = self.rng
        os.chdir(workdir)  # subprocess arguments and outputs use paths relative to it

        def write(name, doc):
            Path(name).write_text(doc if isinstance(doc, str) else json.dumps(doc, indent=2) + "\n")
            return name

        def fixture(fid):
            return json.loads((FIXTURE_DATA / f"{fid}.json").read_text())

        ex52 = fixture("example-5-2")
        rand5 = corpus.random_lattice(rng, 5)
        rand4 = corpus.random_lattice(rng, 4)
        sa5 = corpus.super_atomic_lattice(rng, 5)
        fig1_ideal = "\n".join(fixture("fig1")["ideal"]) + "\n"
        fig3 = fixture("fig3")
        fig6 = fixture("fig6")
        lab_chain = write("chain.json", corpus.labeling_doc(rand5, corpus.chain_condition_labeling(rng, rand5)))
        lab_random = write("random.json", corpus.labeling_doc(rand4, corpus.random_labeling(rng, rand4)))
        lab_overlap = write("overlap.json", corpus.labeling_doc(rand5, corpus.overlap_condition_labeling(rng, rand5)))
        lab_fig3 = write("fig3.json", {"lattice": fig3["lattice"], "labels": fig3["labels"]})
        lab_fig6 = write("fig6.json", {"lattice": fig6["lattice"], "labels": fig6["labels"]})
        lat_rand = write("rand5.json", corpus.lattice_doc(rand5))
        lat_sa = write("sa5.json", corpus.lattice_doc(sa5))
        lat_52 = write("ex52.json", ex52["lattice"])
        lat_52_small = write("ex52-smaller.json", ex52["expect"]["cover"]["smaller"])
        ideal_rand = write("random-ideal.txt", "\n".join(corpus.random_ideal(rng, rng.randint(3, 5))) + "\n")
        ideal_rand2 = write("random-ideal-2.txt", "\n".join(corpus.random_ideal(rng, rng.randint(3, 5))) + "\n")
        ideal_fig1 = write("fig1-ideal.txt", fig1_ideal)
        bad_json = write("bad.json", '{"n": 3, "sets": [[], [1]')
        not_closed = write("not-closed.json", {"n": 4, "sets": [[], [1], [2], [3], [4], [1, 2, 3], [2, 3, 4], [1, 2, 3, 4]]})
        bad_monomial = write("bad-monomial.txt", "x*y\nz^\n")
        set_int = write(
            "set-int.json",
            {"lattice": fig6["lattice"], "labels": [{"set": 5, "monomial": "x"}]},
        )

        schedule = [
            ("validate-labeling", ["validate", lab_chain], 0),
            ("validate-lattice", ["validate", lat_rand], 0),
            ("build-ideal-weak", ["build-ideal", lab_fig6, "--weak"], 0),
            ("build-ideal-plain", ["build-ideal", lab_chain, "--plain"], 0),
            ("lcm-lattice-dot", ["lcm-lattice", ideal_rand, "--dot", "ideal.dot"], 0),
            ("lcm-lattice-fig1", ["lcm-lattice", ideal_fig1], 0),
            ("classify-random", ["classify", lab_random], 0),
            ("classify-overlap", ["classify", lab_overlap], 0),
            ("classify-fig3", ["classify", lab_fig3], 0),
            ("enumerate-n4", ["enumerate-superatomic", "--n", "4"], 0),
            ("enumerate-count-n5", ["enumerate-superatomic", "--count-only", "--n", "5"], 0),
            ("enumerate-out-n3", ["enumerate-superatomic", "--n", "3", "--out", "enum-out"], 0),
            ("check-superatomic-sa5", ["check-superatomic", lat_sa], 0),
            ("check-superatomic-random", ["check-superatomic", lat_rand], 0),
            ("check-labeling-thm52", ["check-labeling-c", lat_sa, "--thm52"], 0),
            ("check-labeling-thm51", ["check-labeling-c", lat_rand], 0),
            ("check-labeling-thm53", ["check-labeling-c", "--thm53", lat_52, lat_52, lat_52_small], 0),
            ("validate-fixture", ["validate", lab_fig3], 0),
            ("build-ideal-weak-corpus", ["build-ideal", lab_overlap, "--weak"], 0),
            ("lcm-lattice-random-2", ["lcm-lattice", ideal_rand2], 0),
            ("classify-chain", ["classify", lab_chain], 0),
            ("check-superatomic-ex52", ["check-superatomic", lat_52], 0),
            ("export-dot-fig6", ["export-dot", lab_fig6], 0),
            ("paper-examples", ["paper-examples"], 0),
            ("export-dot-labeling", ["export-dot", lab_overlap], 0),
            ("export-dot-lattice", ["export-dot", lat_sa, "--skip-bottom"], 0),
            ("malformed-bad-json", ["validate", bad_json], 1),
            ("malformed-not-closed", ["validate", not_closed], 1),
            ("malformed-bad-monomial", ["lcm-lattice", bad_monomial], 1),
            ("malformed-label-set-int", ["classify", set_int], 1),
        ]
        rng.shuffle(schedule)
        self.items = [(item_id, (args, code)) for item_id, args, code in schedule]
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.in_process = None  # set in traced runs: also invoke each command through click
        self.tracebacks = 0
        self.walls: list[float] = []  # subprocess wall times, without the in-process invocation

    def run(self, payload):
        args, _ = payload
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "lcmlattice.cli", *args],
            capture_output=True,
            env=self.env,
            timeout=60,
        )
        self.walls.append(perf_counter() - start)
        if self.in_process is not None:
            self.in_process(args)
        out = {"code": proc.returncode, "stdout": proc.stdout.decode(), "stderr": proc.stderr.decode()}
        self.tracebacks += "Traceback" in out["stderr"]
        return out

    def check(self, payload, out):
        args, want = payload
        if "Traceback" in out["stderr"]:
            return f"exit code {out['code']} with a traceback on stderr: " + out["stderr"].strip().splitlines()[-1]
        if out["code"] != want:
            return f"exit code {out['code']}, expected {want}"
        if want != 0:
            return None
        stdout, command = out["stdout"], args[0]
        if command == "classify":
            doc = json.loads(stdout)
            if doc["satisfies_A1A2"] and not doc["is_strong"]:
                return "satisfies_A1A2 without is_strong"
            if doc["satisfies_C1C2"] and not doc["is_weak"]:
                return "satisfies_C1C2 without is_weak"
            if doc["is_strong"] and not doc["is_coordinatization"]:
                return "is_strong without is_coordinatization"
        elif command == "check-superatomic" and not json.loads(stdout)["agree"]:
            return "the two super-atomic detectors disagree"
        elif args[:2] == ["enumerate-superatomic", "--count-only"] and json.loads(stdout)["count"] != 480:
            return "n = 5 count is not 480"
        elif command == "paper-examples":
            done, _, total = stdout.splitlines()[-1].split()[0].partition("/")
            if done != total:
                return "a bundled fixture check failed"
        return None

    def digest_value(self, payload, out):
        """Stdout of a well-formed command; a malformed input's message text may change."""
        return out["stdout"] if payload[1] == 0 else None

    def corrupt(self, payload, out):
        return {**out, "stderr": out["stderr"] + "Traceback (most recent call last):\n"}
