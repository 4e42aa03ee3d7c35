"""One workload in one fresh interpreter: set up, run, check, report JSON.

Modes:

* ``setup``: import the package, build the workload's set-up objects,
  print the set-up time and exit.
* ``run``: after set-up, run whole passes of the plan in a closed loop
  (one caller, each call issued when the previous one returned): at
  least ``MIN_OPS`` operations, and the number of passes whose operation
  time comes nearest to ``--seconds``.  Only the library call sits
  inside each timed interval; the check of its output runs between
  calls.
* ``trace``: one untraced pass, then the tracer is installed and one
  traced pass reports per-layer metrics and the tracing overhead.

Set-up time is measured from the parent's clock reading just before it
started this process (``--t0``, CLOCK_MONOTONIC, shared by processes),
so it includes interpreter start-up and ``import treeboundary``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import resource
import signal
import sys
import time
from collections import Counter
from pathlib import Path

import execute
import tracer as tracing
from workloads import generate

OP_CAP_S = 20.0   # an operation running longer is stopped and counted as failed
MIN_OPS = 1000    # enough operations that p99 has ten samples beyond it

# per-layer metrics of the traced run: (name, unit)
PER_LAYER = [
    ("words.Word.calls", "count"), ("words.Word.self_s", "s"),
    ("words.mul.calls", "count"), ("words.mul.self_s", "s"),
    ("words.sphere.calls", "count"), ("words.sphere.cells", "count"), ("words.sphere.self_s", "s"),
    ("cylinders.CylinderUnion.calls", "count"), ("cylinders.CylinderUnion.self_s", "s"),
    ("cylinders.and.calls", "count"), ("cylinders.and.pairs", "count"),
    ("cylinders.and.out_cylinders", "count"), ("cylinders.and.out_per_pair", "ratio"),
    ("cylinders.and.self_s", "s"),
    ("cylinders.and.self_s.n_lt64", "s"), ("cylinders.and.self_s.n_64-255", "s"),
    ("cylinders.and.self_s.n_ge256", "s"),
    ("cylinders.sub.calls", "count"), ("cylinders.sub.out_cylinders", "count"), ("cylinders.sub.self_s", "s"),
    ("cylinders.or.self_s", "s"), ("cylinders.contains.self_s", "s"),
    ("cylinders.BoundaryPoint.calls", "count"), ("cylinders.BoundaryPoint.self_s", "s"),
    ("action.act_cylinder.calls", "count"), ("action.act_cylinder.self_s", "s"),
    ("action.act_cylinder.self_s.g_le4", "s"), ("action.act_cylinder.self_s.g_5-8", "s"),
    ("action.act_cylinder.self_s.g_ge9", "s"),
    ("action.act_cylinder.out_cylinders", "count"), ("action.act_cylinder.words_per_out", "ratio"),
    ("action.act_point.calls", "count"), ("action.act_point.self_s", "s"),
    ("action.rn_table.calls", "count"), ("action.rn_table.cells", "count"), ("action.rn_table.self_s", "s"),
    ("action.fixed_points.self_s", "s"),
    ("fullgroup.build_swap.calls", "count"), ("fullgroup.build_swap.self_s", "s"),
    ("fullgroup.build_swap.pieces", "count"),
    ("fullgroup.verify_swap.calls", "count"), ("fullgroup.verify_swap.self_s", "s"),
    ("fullgroup.verify_swap.self_s.steps_le4", "s"), ("fullgroup.verify_swap.self_s.steps_5-8", "s"),
    ("fullgroup.verify_swap.self_s.steps_9-12", "s"),
    ("fullgroup.verify_swap.child_s", "s"), ("fullgroup.verify_swap.act_cylinder_s", "s"),
    ("fullgroup.apply.calls", "count"), ("fullgroup.apply.self_s", "s"),
    ("fullgroup.apply.self_s.dev_lt16", "s"), ("fullgroup.apply.self_s.dev_16-63", "s"),
    ("fullgroup.apply.self_s.dev_ge64", "s"),
    ("fullgroup.extend_to.calls", "count"), ("fullgroup.apply.steps_materialized", "count"),
    ("fullgroup.transitivity_check.calls", "count"), ("fullgroup.transitivity_check.self_s", "s"),
    ("ratios.find_witness.calls", "count"), ("ratios.find_witness.self_s", "s"),
    ("ratios.find_witness.stages", "count"), ("ratios.find_witness.found_cylinders", "count"),
    ("ratios.classify.self_s", "s"), ("ratios.realized_rn_values.self_s", "s"),
    ("sampling.sample.calls", "count"), ("sampling.sample.failed", "count"),
    ("sampling.sample.draws", "count"), ("sampling.sample.distinct", "count"),
    ("sampling.sample.self_s", "s"),
    ("sampling.sample.self_s.depth_le16", "s"), ("sampling.sample.self_s.depth_17-63", "s"),
    ("sampling.sample.self_s.depth_ge64", "s"),
    ("sampling.sample.draws_per_s", "1/s"),
    ("sampling.frequency.self_s", "s"), ("sampling.empirical_rn.self_s", "s"),
    ("sampling.chi_square.self_s", "s"),
    ("cli.main.calls", "count"), ("cli.main.failed", "count"), ("cli.main.self_s", "s"),
    ("cli.main.out_bytes", "bytes"),
    ("bench.ops", "count"), ("bench.trace_overhead", "ratio"),
]


class OpTimeout(BaseException):
    """Raised by the alarm inside an operation that exceeded OP_CAP_S."""


def _alarm(signum, frame):
    raise OpTimeout()


class Loop:
    """Runs passes of prepared operations and keeps the tallies."""

    def __init__(self, plan, calls, env):
        self.plan, self.calls, self.env = plan, calls, env
        self.latencies: list[float] = []
        self.failed = Counter()
        self.errors: dict[str, str] = {}
        self.wrong = 0
        self.verdicts: dict[int, bool] = {}
        self.digests: dict[int, object] = {}
        self.cut_short = False  # the run's deadline stopped a pass early

    def run_pass(self, deadline: float, tracer=None) -> float:
        """One pass over the plan; returns the summed operation time."""
        total = 0.0
        for i, (op, call) in enumerate(zip(self.plan.ops, self.calls)):
            if time.monotonic() > deadline:
                self.cut_short = True
                break
            signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
            exc = None
            if tracer is not None:
                tracer.begin("op." + op[0])
            start = time.perf_counter()
            try:
                out = call()
            except (Exception, OpTimeout) as e:  # a failed operation is a result, not a crash
                out, exc = None, e
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.end()
            signal.setitimer(signal.ITIMER_REAL, 0)
            total += elapsed
            self.latencies.append(elapsed)
            if exc is not None:
                self.failed[op[0]] += 1
                self.errors.setdefault(op[0], f"{type(exc).__name__}: {exc}")
                continue
            if i not in self.verdicts:
                try:
                    ok = execute.check(op, out, self.env, random.Random(i))
                except Exception as e:  # a malformed output fails its check
                    ok = False
                    self.errors.setdefault(op[0] + " check", f"{type(e).__name__}: {e}")
                self.verdicts[i], self.digests[i] = ok, execute.digest(op, out)
            else:
                ok = self.verdicts[i] and execute.digest(op, out) == self.digests[i]
            if not ok:
                self.wrong += 1
                self.failed[op[0]] += 1
        return total


def nearest_rank(sorted_values: list[float], q: float) -> float:
    """The smallest value with at least a share q of the values at or below it.

    Unlike interpolating quantiles, this gives the same answer for one
    pass and for any number of copies of it, so the figure does not jump
    with the number of whole passes a run happens to complete.
    """
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(loop: Loop, op_time: float, setup_s: float, passes: int) -> dict:
    lat = sorted(loop.latencies)
    attempted, failed = len(lat), sum(loop.failed.values())
    return {
        "attempted": attempted,
        "failed": failed,
        "wrong": loop.wrong,
        "failed_by_class": dict(loop.failed),
        "errors": loop.errors,
        "passes": passes,
        "cut_short": loop.cut_short,
        "op_time_s": op_time,
        "setup_s": setup_s,
        "metrics": {
            "ops_per_s": attempted / op_time,
            "latency_p50_ms": nearest_rank(lat, 0.50) * 1e3,
            "latency_p99_ms": nearest_rank(lat, 0.99) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": (attempted - failed) / attempted,
        },
    }


def per_layer(tr, ops: int, traced_s: float, untraced_s: float) -> dict:
    derived = {
        "cylinders.and.out_per_pair": _ratio(tr.counts["cylinders.and.out_cylinders"], tr.counts["cylinders.and.pairs"]),
        "action.act_cylinder.words_per_out": _ratio(tr.counts["action.act_cylinder.words"],
                                                    tr.counts["action.act_cylinder.out_cylinders"]),
        "sampling.sample.draws_per_s": _ratio(tr.counts["sampling.sample.draws"], tr.incl_s["sampling.sample"]),
        "fullgroup.verify_swap.child_s": tr.incl_s["fullgroup.verify_swap"] - tr.self_s["fullgroup.verify_swap"],
        "fullgroup.verify_swap.act_cylinder_s": tr.edges[("fullgroup.verify_swap", "action.act_cylinder")],
        "bench.ops": ops,
        "bench.trace_overhead": _ratio(traced_s, untraced_s),
    }
    out = {}
    for name, unit in PER_LAYER:
        if name in derived:
            value = derived[name]
        elif name.endswith(".calls"):
            value = tr.calls[name[: -len(".calls")]]
        elif name.endswith(".self_s"):
            value = tr.self_s[name[: -len(".self_s")]]
        elif ".self_s." in name:
            value = tr.times[name]
        else:
            value = tr.counts[name]
        out[name] = {"value": value, "unit": unit}
    return out


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def span_report(tr, top: int = 25) -> list[str]:
    lines = [f"{'span':44} {'calls':>9} {'self_s':>10} {'incl_s':>10}"]
    ranked = sorted(tr.self_s, key=lambda k: -tr.self_s[k])[:top]
    for name in ranked:
        lines.append(f"{name:44} {tr.calls[name]:9d} {tr.self_s[name]:10.4f} {tr.incl_s[name]:10.4f}")
    verify = [(c, t) for (parent, c), t in tr.edges.items() if parent == "fullgroup.verify_swap"]
    if verify:
        total = tr.incl_s["fullgroup.verify_swap"] - tr.self_s["fullgroup.verify_swap"]
        lines.append("child time of fullgroup.verify_swap:")
        for child, t in sorted(verify, key=lambda ct: -ct[1]):
            lines.append(f"  {child:42} {t:10.4f} s  {100 * t / total if total else 0:5.1f} %")
    return lines


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--deadline", type=float, required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    package = Path(execute.action.__file__).resolve().parent
    if package.parent != Path(args.src).resolve():
        print(f"treeboundary imported from {package}, not from {args.src}", file=sys.stderr)
        return 2
    plan = generate(args.workload, args.seed, args.tiny)
    env = execute.Env(plan)
    calls = [execute.prepare(op, env) for op in plan.ops]
    setup_s = time.monotonic() - args.t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    signal.signal(signal.SIGALRM, _alarm)
    loop = Loop(plan, calls, env)
    if args.mode == "run":
        # whole passes, as many as come nearest to --seconds of operation time
        op_time, pass_time, passes = 0.0, 0.0, 0
        min_ops = 0 if args.tiny else MIN_OPS
        while ((passes == 0 or op_time + pass_time / 2 < args.seconds or len(loop.latencies) < min_ops)
               and time.monotonic() < args.deadline):
            pass_time = loop.run_pass(args.deadline)
            op_time += pass_time
            passes += 1
        print(json.dumps(end_to_end(loop, op_time, setup_s, passes)))
        return 0

    untraced = loop.run_pass(args.deadline)
    tr = tracing.Tracer()
    tracing.install(tr)
    traced_loop = Loop(plan, calls, env)
    traced_loop.verdicts, traced_loop.digests = loop.verdicts, loop.digests
    traced = traced_loop.run_pass(args.deadline, tr)
    print(json.dumps({
        "attempted": len(traced_loop.latencies),
        "failed": sum(traced_loop.failed.values()),
        "wrong": traced_loop.wrong,
        "failed_by_class": dict(traced_loop.failed),
        "errors": traced_loop.errors,
        "cut_short": traced_loop.cut_short,
        "ops_sha256": hashlib.sha256(repr(plan.ops).encode()).hexdigest(),
        "report": span_report(tr),
        "metrics": per_layer(tr, len(plan.ops), traced, untraced),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
