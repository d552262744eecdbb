"""Run one workload in this process and print its figures as one JSON line.

Started by ``run.py``, once per set-up measurement and once per timed or
traced run, so every workload gets a fresh interpreter.  Modes:

* ``--setup-only``: build the inputs, report when set-up ended, exit;
* default: run whole passes until ``--seconds`` have elapsed (at least
  ``TAIL_PASSES`` passes), then the workload's one-off finish step and the
  checker self-test;
* ``--trace``: one pass plus the finish step untraced, traced and untraced
  again, and the per-layer figures of the traced part;
* ``--record``: one untraced pass that writes this seed's output digests
  into ``digests.json`` (only for a deliberate change of expected outputs).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from math import ceil, floor
from time import perf_counter

import calibrate
import workloads as W

WORKLOADS = {cls.name: cls for cls in (W.ClassifySmall, W.WideGenerators, W.Enumerate, W.CliOneshot)}
# Every timed run makes at least this many passes.  A workload with fewer than
# MEDIAN_TAIL_OPS operations per pass takes op_tail_ms over the operation times
# of exactly this many passes, so its percentile is the same on every machine.
TAIL_PASSES = 3
MEDIAN_TAIL_OPS = 200


def tail_percentile(n: int) -> float:
    """The highest percentile, to one decimal, with at least ten of n values beyond it."""
    return floor(1000 * (n - 10) / n) / 10 if n > 20 else 50.0


def percentile(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of values beyond it."""
    rank = max(1, ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def timed(wl, seconds: float) -> dict:
    """Whole passes until ``seconds`` have elapsed, and at least ``TAIL_PASSES``.

    Machine speed drifts (see ``calibrate.py``) and load comes in bursts, so
    timings are calibrated and an operation's time is the median of its
    times across passes.  ops_per_s divides the operations of a pass by the
    sum of those medians (plus, for ``enumerate``, the median time of the
    enumeration itself).  See ``tail_samples`` for op_tail_ms.
    """
    tally = W.Tally(calibration=wl.calibration)
    start = perf_counter()
    while True:
        wl.run_pass(tally)
        if len(tally.other_s) >= TAIL_PASSES and perf_counter() - start >= seconds:
            break
    extra = wl.finish(tally)
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "unexpected_failures": tally.unexpected,
        "failure_examples": tally.reasons,
        "self_test": wl.self_test(),
        "passes": len(tally.other_s),
        "speed_factor": statistics.median(tally.factors),
        **latency_figures(tally.times, tally.other_s),
        "raw": latency_figures(tally.raw_times, tally.raw_other_s),
        "peak_rss_mb": rss_kb / 1024,
        **extra,
    }


def tail_samples(times: dict[str, list[float]]) -> list[float]:
    """The values op_tail_ms is a percentile of.

    With ``MEDIAN_TAIL_OPS`` or more operations per pass, each operation's
    median time: at most the costliest 5% lie beyond the percentile, and the
    median drops the milliseconds that preemption on a busy machine adds to
    single times, which would otherwise be the tail of sub-millisecond
    operations.  With fewer, a tail of medians would not be a tail (p66.6 of
    30 operations), so every time of the first ``TAIL_PASSES`` passes counts.
    """
    if len(times) >= MEDIAN_TAIL_OPS:
        return sorted(statistics.median(t) for t in times.values())
    return sorted(s for t in times.values() for s in t[:TAIL_PASSES])


def latency_figures(times: dict[str, list[float]], other_s: list[float]) -> dict:
    per_op = sorted(statistics.median(t) for t in times.values())
    samples = tail_samples(times)
    tail_pct = tail_percentile(len(samples))
    tail, beyond = percentile(samples, tail_pct)
    return {
        "operations": len(per_op),
        "ops_per_s": len(per_op) / (sum(per_op) + statistics.median(other_s)),
        "op_p50_ms": 1000 * statistics.median(per_op),
        "op_tail_ms": 1000 * tail,
        "tail_pct": tail_pct,
        "tail_beyond": beyond,
        "tail_samples": len(samples),
        "tail_of_medians": len(times) >= MEDIAN_TAIL_OPS,
    }


def _wall(cmd: list[str], env=None) -> float:
    start = perf_counter()
    subprocess.run(cmd, check=True, capture_output=True, env=env, timeout=60)
    return perf_counter() - start


def traced(wl, tr) -> dict:
    if isinstance(wl, W.CliOneshot):
        from click.testing import CliRunner

        from lcmlattice.cli import main

        runner = CliRunner()
        wl.in_process = lambda args: runner.invoke(main, args)

    def kernel_s() -> float:
        return statistics.median(wl.calibration() for _ in range(3))

    def calibrated_s(tally, tracer) -> float:
        """Wall time of one pass and the finish step, calibrated by the kernel runs around it."""
        before = kernel_s()
        start = perf_counter()
        wl.run_pass(tally, tracer)
        wl.finish(tally, tracer)
        elapsed = perf_counter() - start
        return elapsed * calibrate.REFERENCE_S / ((before + kernel_s()) / 2)

    # The same work runs untraced (wrappers not installed), traced, and
    # untraced again.  Each run is calibrated, and the untraced figure is the
    # mean of the runs before and after, so neither machine drift nor warm-up
    # reads as tracing overhead.
    untraced_s = calibrated_s(W.Tally(), W.NULL_TRACER)
    cli = isinstance(wl, W.CliOneshot)
    if cli:
        wl.walls, wl.tracebacks = [], 0  # keep the traced pass's figures only
    tally = W.Tally()
    tr.install()
    tr.enabled = True
    traced_s = calibrated_s(tally, tr)
    tr.enabled = False
    tr.uninstall()
    if cli:
        walls, tracebacks = list(wl.walls), wl.tracebacks
    untraced_s = (untraced_s + calibrated_s(W.Tally(), W.NULL_TRACER)) / 2

    # CLI start-up costs, measured the same way in every workload.  A command's
    # own cost is its wall time minus that of importing the CLI module.
    def median_wall(*cmd: str) -> float:
        return statistics.median(_wall([sys.executable, *cmd], env) for _ in range(5))

    env = {**os.environ, "PYTHONPATH": str(W.SRC)}
    interpreter = median_wall("-c", "pass")
    imported = median_wall("-c", "import lcmlattice.cli")
    metrics = layer_metrics(tr)
    metrics["cli.interpreter_s"] = interpreter
    metrics["cli.import_s"] = imported - interpreter
    if cli:
        metrics["cli.command_s"] = statistics.median(walls) - imported
        metrics["cli.traceback_count"] = tracebacks
    metrics["trace.traced_s"] = traced_s
    metrics["trace.untraced_s"] = untraced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    return {
        "ops": tally.ops,
        "spans": len(tr.spans),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "unexpected_failures": tally.unexpected,
        "failure_examples": tally.reasons,
        "self_test": None,
        "metrics": metrics,
    }


def layer_metrics(tr) -> dict:
    """Per-layer figures for one traced pass.  ``_s`` values are self time
    unless the metric names a single entry point (``run_all``, ``hasse_dot``)."""
    monomial_arith = ("monomial.lcm", "monomial.gcd", "monomial.__mul__", "monomial.__truediv__", "monomial.divides")
    monomial_all = (*monomial_arith, "monomial.__init__", "monomial.parse", "monomial.lcm_all", "monomial.gcd_all")
    covers = ("lattice.covers", "lattice.upper_covers", "lattice.meet_irreducibles")
    iso_calls = tr.calls("lattice.lattice_isomorphic")
    lcm_target = tr.counters.get("ideals.lcm_lattice_target", 0)
    criteria = (
        "support_labeling.check_weak_interval_criterion",
        "support_labeling.check_strong_interval_criterion",
        "support_labeling.check_cover_transfer",
    )
    classify_views = (
        "classify.classify",
        "classify.is_coordinatization",
        "classify.is_strong_coordinatization",
        "classify.is_weak_coordinatization",
        "classify.verify_labeling_recovery",
    )
    cli_commands = [name for name in tr.stats if name.startswith("cli.")]
    m = {
        "monomial.init_calls": tr.calls("monomial.__init__"),
        "monomial.arith_calls": tr.calls(*monomial_arith),
        "monomial.self_s": tr.self_s(*monomial_all),
        "lattice.construct_calls": tr.calls("lattice.__init__"),
        "lattice.construct_s": tr.self_s("lattice.__init__"),
        "lattice.join_mask_calls": tr.calls("lattice.join_mask"),
        "lattice.join_mask_s": tr.self_s("lattice.join_mask"),
        "lattice.joining_sets_calls": tr.calls("lattice.joining_sets"),
        "lattice.joining_sets_out": tr.counters.get("lattice.joining_sets_out", 0),
        "lattice.joining_sets_s": tr.self_s("lattice.joining_sets"),
        "lattice.covers_s": tr.self_s(*covers),
        "lattice.isomorphic_calls": iso_calls,
        "lattice.isomorphic_s": tr.self_s("lattice.lattice_isomorphic"),
        "lattice.isomorphic_found_ratio": tr.counters.get("lattice.isomorphic_found", 0) / iso_calls if iso_calls else 0.0,
        "ideals.labeling_s": tr.self_s("ideals.__init__", "ideals.labeling_from_json_dict", "ideals.load_labeling"),
        "ideals.plain_s": tr.self_s("ideals.element_generator", "ideals.atom_generator", "ideals.ideal_from_labeling"),
        "ideals.weak_s": tr.self_s("ideals.weak_ideal", "ideals.weak_generator"),
        "ideals.lcm_lattice_calls": tr.calls("ideals.lcm_lattice"),
        "ideals.lcm_lattice_s": tr.self_s("ideals.lcm_lattice"),
        "ideals.lcm_lattice_elements": tr.counters.get("ideals.lcm_lattice_elements", 0),
        "ideals.lcm_lattice_overbuild": (
            tr.counters.get("ideals.lcm_lattice_elements", 0) / lcm_target if lcm_target else 0.0
        ),
        "classify.calls": tr.calls("classify.classify"),
        "classify.self_s": tr.self_s(*classify_views),
        "classify.conditions_s": tr.self_s("classify.check_strong_conditions", "classify.check_weak_conditions"),
        "superatomic.families": tr.counters.get("superatomic.iter_super_atomic_families.items", 0),
        "superatomic.enumerate_s": tr.self_s("superatomic.enumerate_super_atomic", "superatomic.iter_super_atomic_families"),
        "superatomic.detect_literal_s": tr.self_s("superatomic.is_super_atomic"),
        "superatomic.detect_supp_s": tr.self_s("superatomic.is_super_atomic_via_supp"),
        "support_labeling.labeling_s": tr.self_s("support_labeling.support_labeling"),
        "support_labeling.criterion_calls": tr.calls(*criteria),
        "support_labeling.criterion_s": tr.self_s(*criteria),
        "cli.interpreter_s": 0.0,
        "cli.import_s": 0.0,
        "cli.command_s": 0.0,
        "cli.traceback_count": 0,
        "cli.dispatch_s": tr.self_s(*cli_commands),
        "fixtures.run_all_s": tr.total_s("fixtures.run_all"),
        "dot.hasse_dot_s": tr.total_s("dot.hasse_dot"),
    }
    for layer in ("monomial", "lattice", "ideals", "classify", "superatomic", "support_labeling", "cli", "fixtures", "dot"):
        m[f"{layer}.errors"] = tr.errors.get(layer, 0)
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=12.0)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--trace", action="store_true")
    mode.add_argument("--record", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(W.SRC))
    workdir = W.ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        digests = None if args.record else json.loads(W.DIGESTS.read_text())
        wl = WORKLOADS[args.workload](args.seed, workdir, digests)
        setup_done = time.monotonic()
        if args.setup_only:
            calibrate.kernel()  # warm-up
            result = {"kernel_s": calibrate.kernel_s()}
        elif args.record:
            wl.recorded = {}
            tally = W.Tally()
            wl.run_pass(tally)
            for reason in tally.reasons:
                print(f"not recorded: {reason}", file=sys.stderr)
            record(args.workload, args.seed, wl)
            result = {}
        elif args.trace:
            from tracer import Tracer

            tr = Tracer()
            result = traced(wl, tr)
            spans = W.ROOT / ".perfbench_work" / f"spans-{args.workload}-{args.seed}.jsonl"
            tr.write_spans(spans)
            result["spans_file"] = str(spans.relative_to(W.ROOT))
        else:
            result = timed(wl, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_done"] = setup_done
    print(json.dumps(result))
    return 0


def record(name: str, seed: int, wl) -> None:
    doc = json.loads(W.DIGESTS.read_text()) if W.DIGESTS.exists() else {"seed": seed, "workloads": {}}
    if doc["seed"] != seed:
        raise SystemExit(f"digests.json holds seed {doc['seed']}; record with that seed")
    doc["workloads"][name] = wl.recorded
    if isinstance(wl, W.Enumerate):
        doc["enumerate_families"] = wl.families
    W.DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
