"""Turn a plan into library calls, and check each output independently.

``Env`` builds the set-up objects (presentations, the query swap pool,
the sets union pool).  ``prepare`` gives each operation a zero-argument
callable that makes exactly the library call being measured; library
functions are looked up on their modules at call time, so the tracer's
rebinding applies to them.  ``check`` judges an output with the
independent answers in ``oracles``; ``digest`` condenses an output so
that a repeat of the same operation can be compared with the checked
first result.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import treeboundary.action as action
import treeboundary.cli as cli
import treeboundary.fullgroup as fullgroup
import treeboundary.ratios as ratios
import treeboundary.sampling as sampling
from treeboundary.cylinders import BoundaryPoint, Cylinder, CylinderUnion
from treeboundary.words import Presentation, Word

import oracles as o
from workloads import corridor_point


class Env:
    """Library objects built during set-up."""

    def __init__(self, plan):
        self.pres = {}
        self.plan_swaps, self.plan_unions = plan.swaps, plan.unions
        self.swaps = []
        for st, x, y, max_step in plan.swaps:
            p = self.presentation(st)
            self.swaps.append(fullgroup.build_swap(Word(p, x), Word(p, y), max_step))
        self.unions = [self.union(st, bases) for st, bases in plan.unions]
        self.batches = {}

    def presentation(self, st) -> Presentation:
        if st not in self.pres:
            self.pres[st] = Presentation(*st)
        return self.pres[st]

    def word(self, st, codes) -> Word:
        return Word(self.presentation(st), tuple(codes))

    def point(self, st, point) -> BoundaryPoint:
        return BoundaryPoint(self.word(st, point[0]), self.word(st, point[1]))

    def union(self, st, bases) -> CylinderUnion:
        return CylinderUnion(self.presentation(st), tuple(Cylinder(self.word(st, b)) for b in bases))


class CliFailed(RuntimeError):
    """The command line exited with a nonzero code."""


def run_cli(argv) -> str:
    """Run the command line in-process; its standard output, or CliFailed."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects a flag
            code = exc.code if isinstance(exc.code, int) else 2
    if code != 0:
        raise CliFailed(f"exit {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _swap(x, y, steps):
    k = fullgroup.build_swap(x, y, steps)
    return k, fullgroup.verify_swap(k)


def _sample(env, p, depth, count, seed, slot):
    batch = sampling.sample(p, depth, count, seed)
    if slot is not None:
        env.batches[slot] = batch
    return batch


def prepare(op, env: Env):
    """A zero-argument callable making the operation's library call."""
    kind, st = op[0], op[1]
    if kind == "cli":
        argv = op[1]
        return lambda: run_cli(argv)
    p = env.presentation(st)
    w = lambda codes: env.word(st, codes)  # noqa: E731
    if kind == "swap":
        x, y, steps = w(op[2]), w(op[3]), op[4]
        return lambda: _swap(x, y, steps)
    if kind == "act_cylinder":
        g, cyl = w(op[2]), Cylinder(w(op[3]))
        return lambda: action.act_cylinder(g, cyl)
    if kind == "rn_table":
        g, depth = w(op[2]), op[3]
        return lambda: action.rn_table(g, depth)
    if kind == "transitivity":
        return lambda: fullgroup.transitivity_check(p, op[2])
    if kind == "rn_values":
        return lambda: ratios.realized_rn_values(p, op[2], op[3])
    if kind == "classify":
        return lambda: ratios.classify(p)
    if kind == "apply":
        k, point = env.swaps[op[2]], env.point(st, op[3])
        return lambda: k.apply(point)
    if kind == "act_point":
        g, point = w(op[2]), env.point(st, op[3])
        return lambda: action.act_point(g, point)
    if kind == "fixed_points":
        g = w(op[2])
        return lambda: action.fixed_points(g)
    if kind == "parse_point":
        text = op[2]
        return lambda: BoundaryPoint.parse(text, p)
    if kind in ("or", "and", "sub", "contains"):
        a, b = env.unions[op[2]], env.unions[op[3]]
        return {
            "or": lambda: a | b,
            "and": lambda: a & b,
            "sub": lambda: a - b,
            "contains": lambda: a.contains(b),
        }[kind]
    if kind == "complement":
        a = env.unions[op[2]]
        return lambda: a.complement()
    if kind == "measure":
        a = env.unions[op[2]]
        return lambda: a.measure
    if kind == "witness":
        lam = Fraction(p.branching) ** op[2]
        ambient = env.union(st, op[3])
        return lambda: ratios.find_witness(lam, ambient, p)
    if kind == "sample":
        depth, count, seed, slot = op[2:]
        return lambda: _sample(env, p, depth, count, seed, slot)
    slot = op[2]
    if kind == "cell_counts":
        return lambda: env.batches[slot].cell_counts(op[3])
    if kind == "chi_square":
        return lambda: sampling.chi_square(env.batches[slot], op[3])
    if kind == "frequency":
        region = env.union(st, op[3])
        return lambda: env.batches[slot].frequency(region)
    if kind == "empirical_rn":
        g = w(op[3])
        return lambda: sampling.empirical_rn(g, env.batches[slot], 1)
    raise ValueError(f"unknown operation kind {kind!r}")


# -- digests ---------------------------------------------------------------------


def _bases(union) -> tuple:
    return tuple(c.base.codes for c in union.cylinders)


def _pt(q) -> tuple:
    return q.prefix.codes, q.cycle.codes


def digest(op, out):
    kind = op[0]
    if kind == "swap":
        k, report = out
        return k.step_count, report.ok, tuple(pc.element.codes for pc in k.forward_pieces())
    if kind in ("act_cylinder", "or", "and", "sub", "complement"):
        return _bases(out)
    if kind == "rn_table":
        return tuple((c.base.codes, v) for c, v in out.entries)
    if kind == "rn_values":
        return frozenset(out)
    if kind == "classify":
        return out.label, out.ok
    if kind in ("apply", "act_point", "parse_point"):
        return _pt(out)
    if kind == "fixed_points":
        return frozenset(_pt(q) for q in out)
    if kind == "witness":
        return _bases(out.found), _bases(out.image), out.net_element.codes
    if kind in ("sample", "cell_counts"):
        counts = out.counts if kind == "sample" else out
        return hash(frozenset((w.codes, c) for w, c in counts.items()))
    if kind == "empirical_rn":
        return tuple((e.cell.base.codes, e.estimate, e.exact) for e in out)
    if kind == "cli":
        return hash(out)
    return out


# -- checks --------------------------------------------------------------------------


def check(op, out, env: Env, rng: random.Random) -> bool:
    """Whether the output is right, judged without the code under test."""
    kind = op[0]
    if kind == "cli":
        return check_cli(op[1], out, rng)
    p = o.Pres(*op[1])
    return CHECKS[kind](p, op, out, env, rng)


def _swap_steps(x, y, max_step) -> int:
    if x == y:
        return 0
    return 1 if x[-1] == y[-1] else max_step


def check_swap(p, op, out, env, rng):
    x, y, steps = op[2], op[3], op[4]
    k, report = out
    if not report.ok or k.step_count != _swap_steps(x, y, steps):
        return False
    for j in range(1, k.step_count + 1):
        for piece in k.pieces_at_step(j):
            dom, el, img = piece.domain.base.codes, piece.element.codes, piece.image.base.codes
            if el != o.swap_element(p, x, y, j) or img != o.mul(p, el, dom) or len(img) != len(dom):
                return False
    st = op[1]
    for side in "xy":
        for dev in {0, max(0, k.step_count - 1)}:
            point = corridor_point(rng, p, x, y, side, dev)
            image = k.apply(env.point(st, point))
            want = o.swap_image(p, x, y, o.normal_point(p, *point))
            if _pt(image) != want or _pt(k.apply(image)) != o.normal_point(p, *point):
                return False
    return True


def _union_matches_image(p, g, w, bases, rng) -> bool:
    """Canonical form, closed-form measure, and membership by preimage."""
    if not o.is_canonical(p, bases):
        return False
    if o.union_measure(p, bases) != o.image_measure(p, o.cylinder_image(p, g, w)):
        return False
    depth = max([len(g) + len(w) + 1] + [len(b) for b in bases])
    samples = [o.extensions_random(p, b, depth, rng) for b in rng.sample(bases, min(10, len(bases)))]
    samples += [o.extensions_random(p, (), depth, rng) for _ in range(10)]
    for tau in samples:
        inside = any(tau[: len(b)] == b for b in bases)
        if inside != o.in_image_by_preimage(p, g, w, tau):
            return False
    return True


def check_act_cylinder(p, op, out, env, rng):
    return _union_matches_image(p, op[2], op[3], _bases(out), rng)


def _rn_rows_ok(p, g, depth, rows) -> bool:
    cells = [c for c, _ in rows]
    if len(cells) != len(set(cells)) or set(cells) != set(o.extensions(p, (), depth)):
        return False
    return all(v == Fraction(p.n) ** o.scaling_exponent(p, g, c) for c, v in rows)


def check_rn_table(p, op, out, env, rng):
    return _rn_rows_ok(p, op[2], op[3], [(c.base.codes, v) for c, v in out.entries])


def _rn_values(p, max_len):
    return {Fraction(p.n) ** k for k in range(-max_len, max_len + 1)}


def check_rn_values(p, op, out, env, rng):
    return set(out) == _rn_values(p, op[2])


def check_classify(p, op, out, env, rng):
    return out.label == f"III_{{1/{p.n}}}" and out.ok


def check_apply(p, op, out, env, rng):
    _, x, y, _ = env.plan_swaps[op[2]]
    point = op[3]
    return _pt(out) == o.swap_image(p, x, y, o.normal_point(p, *point))


def check_act_point(p, op, out, env, rng):
    return _pt(out) == o.act_point(p, op[2], *o.normal_point(p, *op[3]))


def check_fixed_points(p, op, out, env, rng):
    g = op[2]
    k = 0
    while len(g) - 2 * k >= 2 and g[k] == p.inv(g[len(g) - 1 - k]):
        k += 1
    core = g[k:len(g) - k]
    expected = 0 if len(core) == 1 and core[0] == p.inv(core[0]) else 2
    points = {_pt(q) for q in out}
    return len(points) == expected and all(o.act_point(p, g, *q) == q for q in points)


def check_parse_point(p, op, out, env, rng):
    return _pt(out) == o.parse_point(p, op[2])


def check_set_operation(p, op, out, env, rng):
    """Set operations against the truncations of the plan's raw bases."""
    a = tuple(env.plan_unions[op[2]][1])
    b = tuple(env.plan_unions[op[3]][1]) if len(op) > 3 else ()
    result = _bases(out) if isinstance(out, CylinderUnion) else ()
    depth = max(len(c) for c in a + b + result) + 1
    ta, tb = o.truncations(p, a, depth), o.truncations(p, b, depth)
    kind = op[0]
    if kind == "contains":
        return out == (tb <= ta)
    if kind == "measure":
        return out == len(ta) * o.measure(p, depth)
    if not o.is_canonical(p, result):
        return False
    want = {
        "or": lambda: ta | tb,
        "and": lambda: ta & tb,
        "sub": lambda: ta - tb,
        "complement": lambda: set(o.extensions(p, (), depth)) - ta,
    }[kind]()
    return o.truncations(p, result, depth) == want


def _witness_ok(p, lam, ambient, found, image, mover) -> bool:
    if not found or not image:
        return False
    depth = max(len(c) for c in ambient + found + image)
    te = o.truncations(p, ambient, depth)
    if not o.truncations(p, found, depth) <= te or not o.truncations(p, image, depth) <= te:
        return False
    moved = []
    for f in found:
        for cell in o.extensions(p, f, max(len(f), len(mover) + 1)):
            if Fraction(p.n) ** o.scaling_exponent(p, mover, cell) != lam:
                return False
            moved.append(o.mul(p, mover, cell))
    depth = max(len(c) for c in moved + list(image))
    return o.truncations(p, moved, depth) == o.truncations(p, image, depth)


def check_witness(p, op, out, env, rng):
    lam = Fraction(p.n) ** op[2]
    ambient = tuple(tuple(b) for b in op[3])
    return out.lam == lam and _witness_ok(p, lam, ambient, _bases(out.found), _bases(out.image),
                                          out.net_element.codes)


def check_sample(p, op, out, env, rng):
    depth, count = op[2], op[3]
    counts = {w.codes: c for w, c in out.counts.items()}
    return (out.depth == depth and out.count == count and sum(counts.values()) == count
            and all(len(w) == depth and o.is_reduced(p, w) for w in counts))


def _batch(env, op):
    return {w.codes: c for w, c in env.batches[op[2]].counts.items()}


def _aggregate(counts, m):
    out = {}
    for w, c in counts.items():
        out[w[:m]] = out.get(w[:m], 0) + c
    return out


def check_cell_counts(p, op, out, env, rng):
    return {w.codes: c for w, c in out.items()} == _aggregate(_batch(env, op), op[3])


def check_chi_square(p, op, out, env, rng):
    counts = _batch(env, op)
    m, fixed = op[3], op[4]
    total = sum(counts.values())
    observed = _aggregate(counts, m)
    cells = o.extensions(p, (), m)
    stat = sum((observed.get(c, 0) - float(o.measure(p, m)) * total) ** 2 / (float(o.measure(p, m)) * total)
               for c in cells)
    got, dof, threshold = out
    if dof != len(cells) - 1 or not math.isclose(got, stat, rel_tol=1e-9, abs_tol=1e-9):
        return False
    return got < threshold if fixed else True


def check_frequency(p, op, out, env, rng):
    counts = _batch(env, op)
    region = op[3]
    hits = sum(c for w, c in counts.items() if any(w[: len(b)] == tuple(b) for b in region))
    return out == Fraction(hits, sum(counts.values()))


def check_empirical_rn(p, op, out, env, rng):
    counts = _batch(env, op)
    g, total = op[3], sum(counts.values())
    if [e.cell.base.codes for e in out] != o.extensions(p, (), 1):
        return False
    for e in out:
        cell = e.cell.base.codes
        exact = o.image_measure(p, o.cylinder_image(p, g, cell)) / o.measure(p, 1)
        in_cell = sum(c for w, c in counts.items() if w[:1] == cell)
        in_image = sum(c for w, c in counts.items() if o.in_image_by_preimage(p, g, cell, w))
        estimate = None if in_cell == 0 else Fraction(in_image, total) / Fraction(in_cell, total)
        if e.exact != exact or e.estimate != estimate:
            return False
    return True


CHECKS = {
    "swap": check_swap,
    "act_cylinder": check_act_cylinder,
    "rn_table": check_rn_table,
    "transitivity": lambda p, op, out, env, rng: out is True,
    "rn_values": check_rn_values,
    "classify": check_classify,
    "apply": check_apply,
    "act_point": check_act_point,
    "fixed_points": check_fixed_points,
    "parse_point": check_parse_point,
    **dict.fromkeys(("or", "and", "sub", "contains", "complement", "measure"), check_set_operation),
    "witness": check_witness,
    "sample": check_sample,
    "cell_counts": check_cell_counts,
    "chi_square": check_chi_square,
    "frequency": check_frequency,
    "empirical_rn": check_empirical_rn,
}


# -- command-line outputs -----------------------------------------------------------------


def _flags(argv) -> dict[str, str]:
    out = {}
    for i, arg in enumerate(argv):
        if arg.startswith("--"):
            nxt = argv[i + 1] if i + 1 < len(argv) else ""
            out[arg[2:]] = "" if nxt.startswith("--") else nxt
    return out


def check_cli(argv, text: str, rng: random.Random) -> bool:
    f = _flags(argv)
    p = o.Pres(int(f["s"]), int(f["t"]))
    word = lambda key: o.parse_word(p, f[key])  # noqa: E731
    command = argv[0] if argv[0] in ("measure", "act", "rn", "classify", "sample") else argv[:2]
    if command == "measure":
        if "word" in f:
            return Fraction(text.strip()) == o.measure(p, len(word("word")))
        bases = {o.parse_word(p, b) for b in json.loads(f["union"])}
        depth = max(len(b) for b in bases)
        return Fraction(text.strip()) == len(o.truncations(p, bases, depth)) * o.measure(p, depth)
    if command == ("group", "sphere"):
        m = int(f["m"])
        return int(text) == (1 if m == 0 else p.degree * p.n ** (m - 1))
    if command == ("group", "ck-matrix"):
        payload = json.loads(text)
        letters = [o.word_text(p, (c,)) for c in range(p.degree)]
        matrix = [[0 if v == p.inv(u) else 1 for v in range(p.degree)] for u in range(p.degree)]
        return payload == {"letters": letters, "matrix": matrix}
    if command == "act":
        g = word("g")
        if "point" in f:
            return o.parse_point(p, text) == o.act_point(p, g, *o.parse_point(p, f["point"]))
        bases = [o.parse_word(p, b) for b in text.strip().split(",")]
        return _union_matches_image(p, g, word("word"), bases, rng)
    if command == "rn":
        g, depth = word("g"), int(f["depth"])
        rows = json.loads(text)
        if any(r["exponent"] != o.scaling_exponent(p, g, o.parse_word(p, r["cell"])) for r in rows):
            return False
        return _rn_rows_ok(p, g, depth, [(o.parse_word(p, r["cell"]), Fraction(r["value"])) for r in rows])
    if argv[0] == "kmap":
        x, y = word("x"), word("y")
        steps = _swap_steps(x, y, int(f.get("max-step", "4")))
        if argv[1] == "apply":
            want = o.swap_image(p, x, y, o.parse_point(p, f["point"]))
            return o.parse_point(p, text) == want
        payload = json.loads(text)
        if argv[1] == "verify":
            return payload["ok"] is True and payload["step_count"] == steps
        residual = "0" if steps in (0, 1) else str(o.measure(p, len(x) + steps))
        pieces_ok = all(
            o.mul(p, o.parse_word(p, pc["element"]), o.parse_word(p, pc["domain"])) == o.parse_word(p, pc["image"])
            for pc in payload["pieces"])
        return payload["step_count"] == steps and payload["residual_measure"] == residual and pieces_ok
    if command == ("ergodic", "check"):
        return text.strip() == "true"
    if command == ("ratio", "values"):
        return {Fraction(v) for v in text.split()} == _rn_values(p, int(f["max-len"]))
    if command == ("ratio", "witness"):
        payload = json.loads(text)
        ambient = tuple(o.parse_word(p, b) for b in json.loads(f["E"]))
        lam = Fraction(f["lambda"])
        parse = lambda key: tuple(o.parse_word(p, b) for b in payload[key])  # noqa: E731
        return Fraction(payload["lambda"]) == lam and _witness_ok(
            p, lam, ambient, parse("F"), parse("tF"), o.parse_word(p, payload["net_element"]))
    if command == "classify":
        payload = json.loads(text)
        evidence = payload["evidence"]
        return payload["type"] == f"III_{{1/{p.n}}}" and all(
            evidence[k] is True for k in ("freeness", "transitivity", "ratio_witnesses"))
    if command == "sample":
        depth, count = int(f["depth"]), int(f["n-samples"])
        if f.get("format") == "csv":
            lines = text.splitlines()
            return len(lines) == count and all(
                len(o.parse_word(p, line)) == depth and o.word_text(p, o.parse_word(p, line)) == line
                for line in set(lines))
        payload = json.loads(text)
        freq = payload["frequencies"]
        return payload["count"] == count and sum(c for c, _ in freq.values()) == count and all(
            len(o.parse_word(p, w)) == depth for w in freq)
    raise ValueError(f"no check for command {argv!r}")
