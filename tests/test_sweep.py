"""The command line's bytes on fixed families of cases, pinned by hash.

Each family is a fixed list of argument vectors, run in process.  The exit
code and standard output of every case are hashed, in order, into one sha256
per family.  ``sweep_golden.json`` beside this file holds that hash and a
two-byte digest of every case, so a mismatch names the first case whose
bytes changed.  The families:

* ``act``: ``act --word`` in text and json, for every element g and base
  word w with |g|, |w| <= 3, on (3,0), (1,1), (0,2) and (4,0);
* ``measure``: ``measure --union`` in text and json on 100 unions per
  presentation, drawn from a fixed seed: one to six draws, each a base of
  depth at most 3 or, now and then, its whole sibling family, so that
  nested, repeated and mergeable bases all occur;
* ``witness``: ``ratio witness`` in json for lambda = n**k, 1 <= |k| <= 4,
  on the whole boundary and on every single cylinder of depth 1 and 2;
* ``witness_unions``: ``ratio witness`` in json for 1 <= |k| <= 8 on 12
  unions per presentation, drawn from a fixed seed: two to four bases of
  depth 1 to 3.  Beside a union's first base another of its bases may
  cover the cylinder a stage lands on, which no single cylinder reaches.
  ``--max-cells 4096`` keeps the listings short: a witness with more
  ``rn_checks`` cells exits 3, and that refusal is pinned too;
* ``rn``: ``rn`` in text and json for every element g with |g| <= 2, at
  depths |g| + 1 and |g| + 2;
* ``kmap``: ``kmap build`` and ``verify`` in json at ``--max-step 2`` for
  every pair of words x, y of one length, 1 or 2, and ``kmap apply`` at the
  points x and y then j = 0, 1 or 3 corridor letters then the periodic
  extension, and at the two corridor ends;
* ``ergodic``: ``ergodic check`` in text and json for m = 0 to 3;
* ``classify``: ``classify`` in text and json on eight presentations;
* ``errors``: a fixed list of inputs that exit 2 or 3.  Their standard
  error is pinned too, except for the flags argparse refuses, whose
  wording differs between Python versions.

The sweep pins bytes only; the oracles in ``conftest.py`` judge correctness.
A change that alters output on purpose re-records just the families it
meant to change, and says so::

    PYTHONPATH=src python tests/test_sweep.py act measure
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

from treeboundary import Presentation, Word, periodic_extension
from treeboundary.cli import main

from conftest import brute_force_sphere

GOLDEN = Path(__file__).with_name("sweep_golden.json")
PRESENTATIONS = [(3, 0), (1, 1), (0, 2), (4, 0)]


def _spell(p: Presentation, codes) -> str:
    return " ".join(p.tokens[c] for c in codes) or "e"


def _lam(p: Presentation, k: int) -> str:
    return str(p.branching ** k) if k > 0 else f"1/{p.branching ** -k}"


def _words(p: Presentation, max_len: int) -> list[str]:
    return [_spell(p, codes) for m in range(max_len + 1) for codes in brute_force_sphere(p, m)]


def _act() -> list[list[str]]:
    cases = []
    for s, t in PRESENTATIONS:
        words = _words(Presentation(s, t), 3)
        cases += [["act", "--s", str(s), "--t", str(t), "--g", g, "--word", w, "--format", fmt]
                  for g in words for w in words for fmt in ("text", "json")]
    return cases


def _measure() -> list[list[str]]:
    rng, cases = random.Random(21), []
    for s, t in PRESENTATIONS:
        p = Presentation(s, t)
        by_depth = [brute_force_sphere(p, m) for m in range(4)]
        for _ in range(100):
            bases = []
            for _ in range(rng.randint(1, 6)):
                codes = rng.choice(by_depth[rng.choice((1, 1, 2, 2, 2, 3, 3, 3, 0))])
                # a base's whole sibling family, now and then, so that it merges into the parent
                family = [codes[:-1] + (z,) for z in range(p.degree)
                          if codes[:-1] + (z,) in by_depth[len(codes)]] if codes and rng.random() < 0.2 else [codes]
                bases += family
            text = json.dumps([_spell(p, codes) for codes in bases])
            cases += [["measure", "--s", str(s), "--t", str(t), "--union", text, "--format", fmt]
                      for fmt in ("text", "json")]
    return cases


def _witness() -> list[list[str]]:
    cases = []
    for s, t in PRESENTATIONS:
        p = Presentation(s, t)
        for base in _words(p, 2):
            for k in (1, 2, 3, 4, -1, -2, -3, -4):
                cases.append(["ratio", "witness", "--s", str(s), "--t", str(t), "--lambda", _lam(p, k),
                              "--E", json.dumps([base]), "--format", "json"])
    return cases


def _witness_unions() -> list[list[str]]:
    rng, cases = random.Random(25), []
    for s, t in PRESENTATIONS:
        p = Presentation(s, t)
        by_depth = [brute_force_sphere(p, m) for m in range(4)]
        for _ in range(12):
            bases = [_spell(p, rng.choice(by_depth[rng.randint(1, 3)])) for _ in range(rng.randint(2, 4))]
            cases += [["ratio", "witness", "--s", str(s), "--t", str(t), "--lambda", _lam(p, k),
                       "--E", json.dumps(bases), "--format", "json", "--max-cells", "4096"]
                      for k in (*range(1, 9), *range(-1, -9, -1))]
    return cases


def _rn() -> list[list[str]]:
    cases = []
    for s, t in PRESENTATIONS:
        p = Presentation(s, t)
        for m in range(3):
            cases += [["rn", "--s", str(s), "--t", str(t), "--g", _spell(p, codes), "--depth", str(depth),
                       "--format", fmt]
                      for codes in brute_force_sphere(p, m) for depth in (m + 1, m + 2) for fmt in ("text", "json")]
    return cases


def _kmap() -> list[list[str]]:
    cases = []
    for s, t in PRESENTATIONS:
        p, pa = Presentation(s, t), ["--s", str(s), "--t", str(t)]
        for m in (1, 2):
            heads = brute_force_sphere(p, m)
            for x in heads:
                for y in heads:
                    xy = ["--x", _spell(p, x), "--y", _spell(p, y)]
                    cases += [["kmap", sub, *pa, *xy, "--max-step", "2", "--format", "json"]
                              for sub in ("build", "verify")]
                    # the corridor after x repeats b^-1 a, and the one after y a^-1 b
                    a, b = x[-1], y[-1]
                    sides = ((x, (p.inverse_code(b), a)), (y, (p.inverse_code(a), b)))
                    # a swap that closes (a == b) has no corridor
                    points = [f"{_spell(p, head)} | {_spell(p, corridor)}"
                              for head, corridor in sides] if a != b else []
                    points += [str(periodic_extension(Word(p, head + (corridor * 2)[:j])))
                               for head, corridor in sides for j in ((0, 1, 3) if a != b else (0,))]
                    cases += [["kmap", "apply", *pa, *xy, "--point", point] for point in points]
    return cases


def _ergodic() -> list[list[str]]:
    return [["ergodic", "check", "--s", str(s), "--t", str(t), "--m", str(m), "--format", fmt]
            for s, t in PRESENTATIONS for m in range(4) for fmt in ("text", "json")]


def _classify() -> list[list[str]]:
    return [["classify", "--s", str(s), "--t", str(t), "--format", fmt]
            for s, t in (*PRESENTATIONS, (2, 1), (5, 0), (0, 3), (1, 2)) for fmt in ("text", "json")]


def _errors() -> list[list[str]]:
    p30, p11 = ["--s", "3", "--t", "0"], ["--s", "1", "--t", "1"]
    invalid = [
        ["measure", "--s", "1", "--t", "0", "--word", "a1"],
        ["measure", "--s", "-1", "--t", "2", "--word", "a1"],
        ["measure", *p30, "--word", "a4"],
        ["measure", *p30, "--word", "b1"],
        ["measure", *p11, "--word", "a1'"],
        ["measure", *p30, "--word", "a1", "--union", '["a1"]'],
        ["measure", *p30],
        ["measure", *p30, "--union", "[a1"],
        ["measure", *p30, "--union", '"a1"'],
        ["measure", *p30, "--union", "[1]"],
        ["act", *p30, "--g", "a1"],
        ["act", *p30, "--g", "a1", "--point", "a1 a2"],
        ["act", *p30, "--g", "a1", "--point", "a1 | a1"],
        ["act", *p30, "--g", "a1", "--point", "a1 | e"],
        ["act", *p11, "--g", "b1", "--point", "b1 | b1'"],
        ["rn", *p30, "--g", "a1 a2", "--depth", "2"],
        ["rn", *p30, "--g", "e", "--depth", "0"],
        ["kmap", "build", *p30, "--x", "a1", "--y", "a1 a2"],
        ["kmap", "verify", *p30, "--x", "e", "--y", "e"],
        ["kmap", "build", *p30, "--x", "a1", "--y", "a2", "--max-step", "0"],
        ["kmap", "apply", *p30, "--x", "a1", "--y", "a2", "--point", "a1"],
        ["ergodic", "check", *p30, "--m", "-1"],
        ["group", "sphere", *p30, "--m", "-1"],
        ["ratio", "values", *p30, "--max-len", "2", "--depth", "2"],
        ["ratio", "values", *p30, "--max-len", "-1", "--depth", "2"],
        ["ratio", "witness", *p30, "--lambda", "3"],
        ["ratio", "witness", *p30, "--lambda", "1"],
        ["ratio", "witness", *p30, "--lambda", "0"],
        ["ratio", "witness", *p30, "--lambda", "-2"],
        ["ratio", "witness", *p30, "--lambda", "2/3"],
        ["ratio", "witness", *p30, "--lambda", "x"],
        ["ratio", "witness", *p30, "--lambda", "1/0"],
        ["ratio", "witness", *p30, "--lambda", "2", "--E", "[]"],
        ["ratio", "witness", *p30, "--lambda", "2", "--E", "{}"],
        ["ratio", "witness", *p30, "--lambda", "2", "--E", '["a4"]'],
        ["sample", *p30, "--depth", "0", "--n-samples", "5"],
        ["sample", *p30, "--depth", "3", "--n-samples", "0"],
        # argparse refuses these, so only the exit code is pinned
        ["measure", "--t", "0", "--word", "a1"],
        ["measure", *p30, "--word", "a1", "--format", "xml"],
        ["rn", *p30, "--g", "a1", "--depth", "two"],
        ["bogus"],
    ]
    exceeded = [
        ["group", "sphere", *p30, "--m", "30"],
        ["group", "sphere", *p30, "--m", "3", "--max-cells", "11"],
        ["group", "sphere", *p30, "--m", "20000", "--count"],
        ["group", "ck-matrix", *p30, "--max-cells", "8"],
        ["measure", *p30, "--word", " ".join(["a1 a2"] * 8000)],
        ["act", *p30, "--g", "a1 a2 a3", "--word", "a3", "--max-cells", "1"],
        ["rn", *p30, "--g", "a1", "--depth", "30"],
        ["rn", *p30, "--g", "a1", "--depth", "4", "--max-cells", "20"],
        ["kmap", "build", *p30, "--x", "a1", "--y", "a2", "--max-step", "50", "--max-cells", "100"],
        ["kmap", "verify", *p30, "--x", "a1 a2", "--y", "a2 a1", "--max-cells", "10"],
        ["kmap", "build", *p30, "--x", "a1", "--y", "a2", "--max-step", "20000"],
        ["ergodic", "check", *p30, "--m", "30"],
        ["ergodic", "check", *p30, "--m", "3", "--max-cells", "11"],
        ["ratio", "values", *p30, "--max-len", "20000", "--depth", "20001"],
        ["ratio", "witness", *p30, "--lambda", "1073741824"],
        ["ratio", "witness", *p30, "--lambda", "1/1024", "--E", '["a2"]', "--max-cells", "100"],
        ["ratio", "witness", *p30, "--lambda", "1" + "0" * 5000],
        ["ratio", "witness", *p30, "--lambda", "1e5000"],
        ["ratio", "witness", *p30, "--lambda", "2", "--max-cells", "1" + "0" * 5000],
        ["sample", *p30, "--depth", "100", "--n-samples", "200000"],
        ["sample", *p30, "--depth", "3", "--n-samples", "10", "--max-cells", "29"],
    ]
    cases = []
    for argv in invalid + exceeded:
        fixed = "--format" in argv or argv == ["bogus"]
        cases += [argv] if fixed else [[*argv, "--format", fmt] for fmt in ("text", "json")]
    return cases


FAMILIES = {"act": _act, "classify": _classify, "ergodic": _ergodic, "errors": _errors, "kmap": _kmap,
            "measure": _measure, "rn": _rn, "witness": _witness, "witness_unions": _witness_unions}


def _run(argv: list[str]) -> bytes:
    """One case as bytes: its arguments, exit code and standard output, then
    its standard error when it has any, unless argparse refused the flags."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, errors = main(argv), [err.getvalue()]
        except SystemExit as exc:
            code, errors = exc.code, []
    return "\0".join([*argv, str(code), out.getvalue(), *filter(None, errors)]).encode() + b"\1"


def _sweep(name: str) -> tuple[list[list[str]], str, bytes]:
    """The family's cases, its sha256 and the two-byte digest of every case."""
    cases, total, digests = FAMILIES[name](), hashlib.sha256(), bytearray()
    for argv in cases:
        data = _run(argv)
        total.update(data)
        digests += hashlib.sha256(data).digest()[:2]
    return cases, total.hexdigest(), bytes(digests)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_sweep_bytes_are_unchanged(name):
    golden = json.loads(GOLDEN.read_text())[name]
    cases, sha, digests = _sweep(name)
    if sha == golden["sha256"]:
        return
    recorded = base64.b64decode(golden["digests"])
    assert len(cases) == golden["cases"], f"{name}: {len(cases)} cases, {golden['cases']} recorded"
    first = next((i for i in range(len(cases)) if digests[2 * i:2 * i + 2] != recorded[2 * i:2 * i + 2]), None)
    where = "no case digest differs" if first is None else f"first differing case #{first}: {cases[first]}"
    pytest.fail(f"{name}: sweep hash changed; {where}")


if __name__ == "__main__":
    table = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for name in sys.argv[1:] or sorted(FAMILIES):
        cases, sha, digests = _sweep(name)
        table[name] = {"cases": len(cases), "sha256": sha, "digests": base64.b64encode(digests).decode()}
        print(f"{name}: {len(cases)} cases, sha256 {sha}")
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
