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
  on the whole boundary and on every single cylinder of depth 1 and 2.

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

from treeboundary import Presentation
from treeboundary.cli import main

from conftest import brute_force_sphere

GOLDEN = Path(__file__).with_name("sweep_golden.json")
PRESENTATIONS = [(3, 0), (1, 1), (0, 2), (4, 0)]


def _words(p: Presentation, max_len: int) -> list[str]:
    return [" ".join(p.tokens[c] for c in codes) or "e"
            for m in range(max_len + 1) for codes in brute_force_sphere(p, m)]


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
            text = json.dumps([" ".join(p.tokens[c] for c in codes) or "e" for codes in bases])
            cases += [["measure", "--s", str(s), "--t", str(t), "--union", text, "--format", fmt]
                      for fmt in ("text", "json")]
    return cases


def _witness() -> list[list[str]]:
    cases = []
    for s, t in PRESENTATIONS:
        p = Presentation(s, t)
        for base in _words(p, 2):
            for k in (1, 2, 3, 4, -1, -2, -3, -4):
                lam = str(p.branching ** k) if k > 0 else f"1/{p.branching ** -k}"
                cases.append(["ratio", "witness", "--s", str(s), "--t", str(t), "--lambda", lam,
                              "--E", json.dumps([base]), "--format", "json"])
    return cases


FAMILIES = {"act": _act, "measure": _measure, "witness": _witness}


def _run(argv: list[str]) -> bytes:
    """One case as bytes: its arguments, exit code and standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return "\0".join([*argv, str(code), out.getvalue()]).encode() + b"\1"


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
