"""Self-test of the benchmark itself, on tiny inputs.

Run from the root of a checkout (about a minute):

    python3 bench/selftest.py

It checks, for every workload: that a plan is a pure function of the
seed and that another seed changes it; that the untraced run prints
every end-to-end metric of BENCHMARK.json with its unit and finds no
wrong output; that the traced run prints every per-layer metric with
its unit; that two traced runs on one seed run the same operations and
give identical call and size counts; and that another seed keeps the
metric names.  Last, that the benchmark refuses to run, with a nonzero
exit code and no result line, where there is no ``src/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, generate  # noqa: E402


class SelfTestFailure(AssertionError):
    pass


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SelfTestFailure(what)


def run(workload: str, seed: int, trace: int, cwd: Path | None = None) -> tuple[int, list[str]]:
    script = (cwd / BENCH.name if cwd else BENCH) / "run.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=175, cwd=cwd)
    return proc.returncode, proc.stdout.strip().splitlines()


def result(workload: str, seed: int, trace: int) -> tuple[dict, list[str]]:
    code, lines = run(workload, seed, trace)
    expect(code == 0 and lines, f"{workload} seed {seed} trace {trace} exited with {code}")
    return json.loads(lines[-1]), lines


def plan_hash(lines: list[str]) -> str:
    return next(line.split("sha256 ")[1] for line in lines if "plan sha256" in line)


def units(res: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in res["metrics"].items()}


def counts(res: dict) -> dict[str, int]:
    return {name: m["value"] for name, m in res["metrics"].items() if m["unit"] in ("count", "bytes")}


def main() -> int:
    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in WORKLOADS:
        for tiny in (True, False):
            a, b, c = generate(w, 1, tiny), generate(w, 1, tiny), generate(w, 2, tiny)
            expect(a == b, f"{w}: one seed gave two plans")
            expect(a.ops != c.ops, f"{w}: another seed gave the same operations")

        res, _ = result(w, 1, 0)
        expect(units(res) == end_to_end, f"{w}: end-to-end metrics or units differ from BENCHMARK.json")
        expect(res["correct"] and res["attempted"] >= 1, f"{w}: wrong outputs in the untraced run")

        first, lines1 = result(w, 1, 1)
        second, lines2 = result(w, 1, 1)
        other, lines3 = result(w, 2, 1)
        expect(units(first) == per_layer, f"{w}: per-layer metrics or units differ from BENCHMARK.json")
        expect(plan_hash(lines1) == plan_hash(lines2), f"{w}: one seed ran different operations")
        expect(counts(first) == counts(second), f"{w}: call or size counts differ between runs on one seed")
        expect(plan_hash(lines1) != plan_hash(lines3), f"{w}: another seed ran the same operations")
        expect(units(other) == per_layer, f"{w}: another seed changed the metric names")
        print(f"{w}: ok ({res['attempted']} ops untraced, {first['attempted']} traced)")

    with tempfile.TemporaryDirectory(prefix=".bench_selftest_", dir=Path.cwd()) as tmp:
        shutil.copy(Path.cwd() / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run("certify", 1, 0, cwd=Path(tmp))
        expect(code != 0 and not lines, "the benchmark ran without src/")
    print("selftest ok")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SelfTestFailure as exc:
        print(f"selftest FAILED: {exc}", file=sys.stderr)
        sys.exit(1)
