"""Benchmark entry point: one workload per call, each in fresh processes.

Run from the repository root::

    python3 perfbench/run.py --workload classify-small --seed 0 --seconds 10 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of one timed run; with
``--trace 1`` the per-layer metrics of a separate traced run.  Report lines
come first (run environment, every figure with its unit); the last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("classify-small", "wide-generators", "enumerate", "cli-oneshot")
SETUP_RUNS = 9  # set-up is measured in this many fresh processes per run; the median is reported
WORKER_TIMEOUT_S = 150


def environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg_1m": os.getloadavg()[0],
    }


def worker(args: argparse.Namespace, *extra: str) -> dict:
    """Run ``worker.py`` in a fresh interpreter; return its JSON and its set-up time."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        *extra,
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: worker failed with exit code {proc.returncode}: {' '.join(cmd)}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result.pop("setup_done") - started
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description="lcmlattice benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=12)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "lcmlattice" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'lcmlattice'}", file=sys.stderr)
        return 2

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    print(f"env: {json.dumps(environment())}")
    print(f"run: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")

    if args.trace:
        res = worker(args, "--trace")
        figures, declared = res["metrics"], bench["per_layer"]
    else:
        setups, raw_setups = measure_setup(args)
        res = worker(args)
        figures = {**res, "setup_s": statistics.median(setups)}
        declared = bench["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in figures]
    if missing:
        raise SystemExit(f"perfbench: metrics declared in BENCHMARK.json but not measured: {missing}")
    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in declared}
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")

    if args.trace:
        print(f"traced: {res['ops']} operations, {res['spans']} spans written to {res['spans_file']}")
    else:
        raw = res["raw"]
        basis = "operation medians" if res["tail_of_medians"] else "operation times of the first passes"
        print(
            f"latencies: {res['passes']} passes of {res['operations']} operations, each operation's median "
            f"time across them; op_tail_ms is p{res['tail_pct']:g} of {res['tail_samples']} {basis}, "
            f"{res['tail_beyond']} beyond it"
        )
        print(
            f"calibration: median speed factor {res['speed_factor']:.4f}; uncalibrated "
            f"ops_per_s={raw['ops_per_s']:.6g} op_p50_ms={raw['op_p50_ms']:.6g} "
            f"op_tail_ms={raw['op_tail_ms']:.6g} setup_s={statistics.median(raw_setups):.6g}"
        )
        print(f"setup_s runs: {' '.join(f'{s:.4f}' for s in setups)}")
        if "count_n7_s" in res:
            print(f"count_n7_s (uncalibrated) {res['count_n7_s']:.6g} s")
        print(f"self-test: {res['self_test'] or 'corrupted output counted as a failure'}")
    error_rate = res["failed"] / res["attempted"]
    print(f"error_rate   {error_rate:>12.6g} ({res['failed']} failed of {res['attempted']} attempted)")
    for reason in res["failure_examples"]:
        print(f"  failure: {reason}")

    correct = res["unexpected_failures"] == 0 and res["self_test"] is None
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}))
    return 0


def measure_setup(args: argparse.Namespace) -> tuple[list[float], list[float]]:
    """Set-up times of fresh processes, each calibrated by the kernel time it
    measured itself once set up (the process may run on either CPU)."""
    calibrated, raw = [], []
    for _ in range(SETUP_RUNS):
        res = worker(args, "--setup-only")
        raw.append(res["setup_s"])
        calibrated.append(res["setup_s"] * calibrate.REFERENCE_S / res["kernel_s"])
    return calibrated, raw


if __name__ == "__main__":
    sys.exit(main())
