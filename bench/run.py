"""Benchmark of the treeboundary package, one workload at a time.

Run from the root of a checkout:

    python3 bench/run.py --workload certify --seed 1 --seconds 45 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced pass; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--workload all`` runs the four workloads in turn and prefixes each
metric in that line with its workload's name.
The package is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2.

Each workload runs in fresh child processes, one at a time: a few that
only set up (for the median set-up time) and then the measured one.
Children run with numpy's thread pools pinned to one thread and with a
wall-clock cap, so the whole run ends within three minutes.
See ``bench/NOTES.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)
SETUPS = 9               # set-ups per run; setup_s is their median
RUN_CAP_S = 170.0        # hard wall-clock cap of one invocation
LOOP_DEADLINE_S = 140.0  # children start no operation after this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


class Runner:
    """Starts the workload's child processes one at a time."""

    def __init__(self, args, root: Path):
        self.args = args
        self.root = root
        self.src = root / "src"
        self.start = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=str(self.src), PYTHONHASHSEED="0")
        self.env.update({var: "1" for var in THREAD_VARS})

    def child(self, mode: str) -> dict:
        a = self.args
        remaining = self.start + RUN_CAP_S - time.monotonic()
        if remaining <= 1:
            raise BenchError("no time left for another child process")
        t0 = time.monotonic()
        cmd = [sys.executable, str(Path(__file__).resolve().parent / "child.py"),
               "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
               "--mode", mode, "--t0", repr(t0), "--deadline", repr(self.start + LOOP_DEADLINE_S),
               "--src", str(self.src)] + (["--tiny"] if a.tiny else [])
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.root, capture_output=True, text=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} child exceeded the wall-clock cap") from None
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"{mode} child exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def _failures(res: dict) -> list[str]:
    lines = []
    for kind, n in sorted(res["failed_by_class"].items()):
        why = res["errors"].get(kind) or res["errors"].get(kind + " check") or "wrong output"
        lines.append(f"  failed {kind}: {n}  ({why})")
    if res["cut_short"]:
        lines.append("  the run's deadline cut the last pass short")
    return lines


def run_untraced(runner: Runner) -> dict:
    setups = [runner.child("setup")["setup_s"] for _ in range(SETUPS - 1)]
    res = runner.child("run")
    setups.append(res["setup_s"])
    values = dict(res["metrics"], setup_s=statistics.median(setups))
    n, failed = res["attempted"], res["failed"]
    beyond = n - int(0.99 * n)
    notes = {
        "setup_s": f"median of {len(setups)} set-ups: " + ", ".join(f"{s:.3f}" for s in sorted(setups)),
        "ops_per_s": f"{n} ops in {res['passes']} passes over {res['op_time_s']:.2f} s of operation time",
        "latency_p50_ms": f"{n} samples",
        "latency_p99_ms": f"{n} samples, {beyond} beyond",
        "peak_rss_mb": "ru_maxrss of the measured child",
        "ok_ratio": f"failed {failed} of {n}, failed_ratio {failed / n:.4f}",
    }
    print(f"workload {runner.args.workload}, seed {runner.args.seed}: closed loop, one caller")
    for name, unit in END_TO_END:
        print(f"  {name:16} {values[name]:14.6f} {unit:6} {notes[name]}")
    for line in _failures(res):
        print(line)
    return {
        "correct": res["wrong"] == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END},
    }


def run_traced(runner: Runner) -> dict:
    res = runner.child("trace")
    print(f"workload {runner.args.workload}, seed {runner.args.seed}: traced pass of "
          f"{res['attempted']} ops, plan sha256 {res['ops_sha256']}")
    for line in res["report"]:
        print("  " + line)
    for name, metric in res["metrics"].items():
        print(f"  {name:48} {metric['value']:16.6f} {metric['unit']}")
    for line in _failures(res):
        print(line)
    return {
        "correct": res["wrong"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": res["metrics"],
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True,
                    help="one workload, or all four in turn (each under its own cap)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "treeboundary" / "__init__.py").is_file():
        print(f"no src/treeboundary under {root}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    results = {}
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        runner = Runner(argparse.Namespace(**dict(vars(args), workload=workload)), root)
        try:
            results[workload] = run_traced(runner) if args.trace else run_untraced(runner)
        except BenchError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
