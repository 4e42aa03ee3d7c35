"""Seeded workload plans as plain data.

``generate(name, seed, tiny)`` returns a ``Plan``: the set-up objects
(swap pools, union pools) and one *pass*, a list of operations in a
shuffled but seed-determined order.  Nothing here imports the package;
the child process turns the plan into library objects during set-up.

Each workload is stratified: the classes of operation (kind, size,
presentation) and their counts are fixed, and the seed draws only the
concrete words, points and sets inside each class.  So every seed gives
the same mix of work and the figures stay comparable across seeds.

Operations are tuples ``(kind, presentation, *arguments)``; words are
tuples of letter codes and points are ``(prefix, cycle)`` code pairs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from oracles import Pres, corridor_letter, extensions, extensions_random, is_reduced, point_text, word_text

PRESENTATIONS = ((3, 0), (1, 1), (0, 2), (4, 0))

# the README's commands, run verbatim through the command line in every workload
README_COMMANDS = (
    ("measure", "--s", "3", "--t", "0", "--word", "a1 a2"),
    ("group", "sphere", "--s", "3", "--t", "0", "--m", "2", "--count"),
    ("group", "ck-matrix", "--s", "0", "--t", "2", "--format", "json"),
    ("act", "--s", "3", "--t", "0", "--g", "a1", "--word", "a1"),
    ("rn", "--s", "3", "--t", "0", "--g", "a1", "--depth", "2", "--format", "json"),
    ("kmap", "build", "--s", "3", "--t", "0", "--x", "a1", "--y", "a2", "--max-step", "4", "--format", "json"),
    ("kmap", "verify", "--s", "3", "--t", "0", "--x", "a1", "--y", "a2", "--format", "json"),
    ("kmap", "apply", "--s", "3", "--t", "0", "--x", "a1", "--y", "a2", "--point", "a1 a3 | a2 a3"),
    ("ergodic", "check", "--s", "1", "--t", "1", "--m", "2"),
    ("ratio", "values", "--s", "3", "--t", "0", "--max-len", "2", "--depth", "4"),
    ("ratio", "witness", "--s", "3", "--t", "0", "--lambda", "2", "--E", '["a2"]', "--format", "json"),
    ("classify", "--s", "3", "--t", "0"),
    ("sample", "--s", "3", "--t", "0", "--depth", "2", "--n-samples", "1000", "--seed", "7", "--format", "csv"),
)

WORKLOADS = ("certify", "query", "sets", "sample")


@dataclass
class Plan:
    name: str
    seed: int
    swaps: list = field(default_factory=list)    # query pool: (p, x, y, max_step)
    unions: list = field(default_factory=list)   # sets pool: (p, bases)
    ops: list = field(default_factory=list)


# -- random words and points ------------------------------------------------------


def rand_word(rng: random.Random, p: Pres, length: int) -> tuple[int, ...]:
    return extensions_random(p, (), length, rng)


def extend(rng: random.Random, p: Pres, word, extra: int) -> tuple[int, ...]:
    return extensions_random(p, word, len(word) + extra, rng)


def rand_cycle(rng: random.Random, p: Pres, after: tuple[int, ...], max_len: int = 3) -> tuple[int, ...]:
    """A cycle that repeats reducibly and joins the word ``after`` reducibly."""
    while True:
        cycle = extend(rng, p, after[-1:], rng.randint(1, max_len))[len(after[-1:]):]
        if is_reduced(p, after + cycle + cycle):
            return cycle


def rand_point(rng: random.Random, p: Pres, max_prefix: int = 6) -> tuple:
    prefix = rand_word(rng, p, rng.randint(0, max_prefix))
    return prefix, rand_cycle(rng, p, prefix)


def distinct_last_pair(rng: random.Random, p: Pres, m: int) -> tuple:
    while True:
        x, y = rand_word(rng, p, m), rand_word(rng, p, m)
        if x[-1] != y[-1]:
            return x, y


def same_last_pair(rng: random.Random, p: Pres, m: int) -> tuple:
    while True:
        x, y = rand_word(rng, p, m), rand_word(rng, p, m)
        if x != y and x[-1] == y[-1]:
            return x, y


def corridor_point(rng: random.Random, p: Pres, x, y, side: str, depth: int) -> tuple:
    """A point that follows the swap's corridor for exactly ``depth`` letters."""
    codes = list(x if side == "x" else y)
    for j in range(1, depth + 1):
        codes.append(corridor_letter(p, x, y, side, j))
    stop = corridor_letter(p, x, y, side, depth + 1)
    codes.append(rng.choice([z for z in range(p.degree) if z != stop and z != p.inv(codes[-1])]))
    prefix = extend(rng, p, codes, rng.randint(0, 3))
    return prefix, rand_cycle(rng, p, prefix)


def pres_args(p: Pres) -> tuple[str, ...]:
    return ("--s", str(p.s), "--t", str(p.t))


def ladder(lo: int, hi: int, count: int) -> list[int]:
    """``count`` integers spread evenly from lo to hi inclusive."""
    if count == 1:
        return [hi]
    return sorted({round(lo + (hi - lo) * i / (count - 1)) for i in range(count)})


# -- certify ------------------------------------------------------------------------

# (step ceiling, word depth at which the ceiling is run): the slowest verify
# takes about a second on the seed (depth 3 on the degree-3 presentations)
CEILINGS = {(3, 0): (10, 3), (1, 1): (10, 3), (0, 2): (6, 2), (4, 0): (6, 2)}
ACT_CEILINGS = {(3, 0): 10, (1, 1): 10, (0, 2): 7, (4, 0): 7}
# The latency distribution is shaped so that p50 and p99 each land inside
# one class of equal cost, and not on a steep stretch where a small shift
# in the ranks moves the figure a lot.  p99: above it only the four ceiling
# verifies, then twelve verifies of (4,0) pairs at depth 2 with 5 steps,
# and every other class is cheaper.  p50: verifies of (3,0) pairs at depth
# 2 with 2 steps span the middle; on (3,0) all such pairs are alike up to
# renaming the letters, so their cost does not depend on the draw.  Counts
# are per draw; DRAWS below scales every class alike.
SHAPED_REPS = {((4, 0), 2, 5): 12, ((3, 0), 2, 2): 150}


def swap_steps(p: Pres, m: int, ceiling: int, ceiling_depth: int) -> list[int]:
    """Step counts run at word depth m: a ladder from 2, the ceiling at one depth."""
    if p.degree == 3:
        steps = list(range(2, 10 if m == 1 else 8, 2))
    else:
        steps = list(range(2, 6 if m < 3 else 5))
    return steps + ([ceiling] if m == ceiling_depth else [])


def certify(plan: Plan, rng: random.Random, tiny: bool) -> None:
    ops = plan.ops
    for st in PRESENTATIONS:
        p = Pres(*st)
        ceiling, ceiling_depth = (3, 1) if tiny else CEILINGS[st]
        for m in (1, 2, 3):
            for steps in swap_steps(p, m, ceiling, ceiling_depth):
                # verify cost grows like n**(steps + m): run the cheap classes more often
                reps = max(1, round(16 / p.n ** max(0, steps + m - 3)))
                reps = 1 if tiny else SHAPED_REPS.get((st, m, steps), reps)
                for _ in range(reps):
                    ops.append(("swap", st, *distinct_last_pair(rng, p, m), steps))
            for _ in range(1 if tiny else 4):
                x = rand_word(rng, p, m)
                ops.append(("swap", st, x, x, ceiling))
                if m >= 2:
                    ops.append(("swap", st, *same_last_pair(rng, p, m), ceiling))
        for length in range(1, (3 if tiny else ACT_CEILINGS[st]) + 1):
            # cylinder depths 0..3 twice each: refinement cost depends on the depth
            depths = (1,) if tiny or length >= ACT_CEILINGS[st] - 2 else (0, 1, 2, 3) * 2
            for depth in depths:
                ops.append(("act_cylinder", st, rand_word(rng, p, length), rand_word(rng, p, depth)))
        for length in range(1, 4 if not tiny else 2):
            for depth in range(length + 1, length + 4):
                for _ in range(1 if tiny else 3):
                    ops.append(("rn_table", st, rand_word(rng, p, length), depth))
        for m, reps in ((1, 6), (2, 1)):
            for _ in range(1 if tiny else reps):
                ops.append(("transitivity", st, m))
        for max_len, depth, reps in ((1, 2, 6), (2, 3, 2), (2, 4, 1)):
            for _ in range(1 if tiny else reps):
                ops.append(("rn_values", st, max_len, depth))
        ops.append(("classify", st))
        # scaled-up command-line variants of the README commands
        pa = pres_args(p)
        x, y = distinct_last_pair(rng, p, 2)
        verify_steps = min(ceiling, 6 if p.degree == 3 else 4)
        g = rand_word(rng, p, 3 if tiny else ACT_CEILINGS[st] - 2)
        cli = [
            ("kmap", "verify", *pa, "--x", word_text(p, x), "--y", word_text(p, y),
             "--max-step", str(verify_steps), "--format", "json"),
            ("kmap", "build", *pa, "--x", word_text(p, x), "--y", word_text(p, y),
             "--max-step", str(2 * ceiling), "--format", "json"),
            ("act", *pa, "--g", word_text(p, g), "--word", word_text(p, rand_word(rng, p, 1))),
            ("rn", *pa, "--g", word_text(p, rand_word(rng, p, 2)), "--depth", "5", "--format", "json"),
            ("ergodic", "check", *pa, "--m", "2"),
            ("ratio", "values", *pa, "--max-len", "2", "--depth", "4"),
            ("classify", *pa, "--format", "json"),
        ]
        for _ in range(1 if tiny else 10):
            cli.append(("measure", *pa, "--word", word_text(p, rand_word(rng, p, rng.randint(1, 6)))))
            cli.append(("group", "sphere", *pa, "--m", str(rng.randint(1, 12)), "--count"))
        ops.extend(("cli", argv) for argv in cli)


# -- query ----------------------------------------------------------------------------

# deepest corridor depth queried on each presentation's deep swap
DEEP = {(3, 0): 200, (1, 1): 96, (0, 2): 96, (4, 0): 96}


def query(plan: Plan, rng: random.Random, tiny: bool) -> None:
    ops = plan.ops
    for st in PRESENTATIONS:
        p = Pres(*st)
        deepest = 24 if tiny else DEEP[st]
        pool = [(1, deepest), (2, 64 if not tiny else 16), (3, 40 if not tiny else 8)]
        for m, max_dev in pool:
            x, y = distinct_last_pair(rng, p, m)
            index = len(plan.swaps)
            plan.swaps.append((st, x, y, max_dev + 2))
            for side in "xy":
                for dev in ladder(0, 15, 2 if tiny else 8):
                    ops.append(("apply", st, index, corridor_point(rng, p, x, y, side, dev)))
                if max_dev >= 64:
                    for dev in ladder(16, 63, 2 if tiny else 6):
                        ops.append(("apply", st, index, corridor_point(rng, p, x, y, side, dev)))
                    for dev in ladder(64, max_dev, 1 if tiny else 5):
                        ops.append(("apply", st, index, corridor_point(rng, p, x, y, side, dev)))
                else:
                    for dev in ladder(16, max_dev, 2 if tiny else 4):
                        ops.append(("apply", st, index, corridor_point(rng, p, x, y, side, dev)))
            ends = [(x, (p.inv(y[-1]), x[-1])), (y, (p.inv(x[-1]), y[-1]))]
            for point in ends:
                ops.append(("apply", st, index, point))
            for _ in range(1 if tiny else 6):
                while True:
                    point = rand_point(rng, p)
                    head = (point[0] + point[1] * (m + 1))[:m]
                    if head not in (x, y):
                        break
                ops.append(("apply", st, index, point))
        # a closed swap: x and y end in the same letter
        x, y = same_last_pair(rng, p, 2)
        index = len(plan.swaps)
        plan.swaps.append((st, x, y, 4))
        for side in "xy":
            for _ in range(1 if tiny else 4):
                prefix = extend(rng, p, x if side == "x" else y, rng.randint(1, 6))
                ops.append(("apply", st, index, (prefix, rand_cycle(rng, p, prefix))))
        for length in range(1, (4 if tiny else 30) + 1):
            ops.append(("act_point", st, rand_word(rng, p, length), rand_point(rng, p)))
        for length in range(1, (3 if tiny else 12) + 1):
            ops.append(("fixed_points", st, rand_word(rng, p, length)))
        for _ in range(2 if tiny else 16):
            prefix, cycle = rand_point(rng, p)
            # an unnormalized spelling: repeated cycle and a copy of it in the prefix
            text_prefix = prefix + cycle * rng.randint(0, 2)
            text_cycle = cycle * rng.randint(1, 3)
            ops.append(("parse_point", st, point_text(p, (text_prefix, text_cycle))))
        pa = pres_args(p)
        x, y = distinct_last_pair(rng, p, 2)
        for dev in ladder(8, 40, 1 if tiny else 3):
            point = corridor_point(rng, p, x, y, rng.choice("xy"), dev)
            ops.append(("cli", ("kmap", "apply", *pa, "--x", word_text(p, x), "--y", word_text(p, y),
                                "--point", point_text(p, point))))
        for _ in range(1 if tiny else 3):
            g = rand_word(rng, p, 20)
            ops.append(("cli", ("act", *pa, "--g", word_text(p, g), "--point",
                                point_text(p, rand_point(rng, p)))))


# -- sets ---------------------------------------------------------------------------------

# (depth, keep probability) of the union pool: four small, two medium and two
# large unions; on the degree-4 presentations the depth-6 ones hold ~480 cylinders
UNION_CLASSES = ((3, 0.6), (3, 0.6), (4, 0.5), (4, 0.5), (5, 0.5), (5, 0.5), (6, 0.5), (6, 0.5))
UNION_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5), (6, 7), (0, 4), (1, 5), (2, 6), (3, 7))
# Witness exponents k of n**k.  E is one depth-2 cylinder plus up to two
# depth-3 ones; the construction starts from E's first cylinder, so its
# cost depends little on the draw.  Beyond these exponents the seed's
# find_witness refines exponentially (seconds to minutes), see NOTES.md.
WITNESS_K = {
    (3, 0): (1, 2, 3, 4, 5, 6, -1, -2, -3, -4, -5, -6),
    (1, 1): (1, 2, 3, 4, 5, 6, -1, -2, -3, -4, -5, -6),
    (0, 2): (1, 2, 3, 4, 5, -1, -2, -3),
    (4, 0): (1, 2, 3, 4, 5, -1, -2, -3),
}


def rand_union(rng: random.Random, p: Pres, depth: int, keep: float) -> list:
    bases = [w for w in extensions(p, (), depth) if rng.random() < keep]
    return bases or [rand_word(rng, p, depth)]


def sets(plan: Plan, rng: random.Random, tiny: bool) -> None:
    ops = plan.ops
    classes = ((3, 0.6), (4, 0.5)) if tiny else UNION_CLASSES
    pairs = ((0, 1),) if tiny else UNION_PAIRS
    for st in PRESENTATIONS:
        p = Pres(*st)
        first = len(plan.unions)
        for depth, keep in classes:
            plan.unions.append((st, rand_union(rng, p, depth, keep)))
        for a in range(first, len(plan.unions)):
            ops.append(("complement", st, a))
            ops.append(("measure", st, a))
        for i, j in pairs:
            a, b = first + i, first + j
            ops.append(("or", st, a, b))
            for kind in ("and", "sub", "contains"):
                ops.append((kind, st, a, b))
                ops.append((kind, st, b, a))
        for k in (1, -2) if tiny else WITNESS_K[st]:
            for _ in range(1 if tiny or abs(k) >= 5 else 2):
                ambient = [rand_word(rng, p, 2)] + [rand_word(rng, p, 3) for _ in range(rng.randint(0, 2))]
                ops.append(("witness", st, k, ambient))
        pa = pres_args(p)
        for _ in range(1 if tiny else 12):
            bases = rand_union(rng, p, rng.randint(2, 4), 0.4)
            ops.append(("cli", ("measure", *pa, "--union", json_list(p, bases))))
        for k in (1, -2) if tiny else (1, -1, 3, -3):
            ambient = [rand_word(rng, p, rng.randint(1, 2)) for _ in range(2)]
            ops.append(("cli", ("ratio", "witness", *pa, "--lambda", str(Fraction(p.n) ** k),
                                "--E", json_list(p, ambient), "--format", "json")))


def json_list(p: Pres, bases) -> str:
    return "[" + ", ".join(f'"{word_text(p, b)}"' for b in bases) + "]"


# -- sample ---------------------------------------------------------------------------------

SAMPLE_DEPTHS = (2, 4, 8, 12, 16, 24, 32, 40, 48, 64, 80)
SAMPLE_COUNTS = (50, 400, 1500)
BATCH_DEPTHS = (6, 12, 24)        # batches reused by the derived operations
FIXED_SEEDS = {(3, 0): 11, (1, 1): 12, (0, 2): 13, (4, 0): 14}


def sample(plan: Plan, rng: random.Random, tiny: bool) -> None:
    ops = plan.ops
    depths = (2, 16, 40, 64) if tiny else SAMPLE_DEPTHS
    counts = (50,) if tiny else SAMPLE_COUNTS
    slot = sum(1 for op in ops if op[0] == "sample" and op[5] is not None)
    for st in PRESENTATIONS:
        p = Pres(*st)
        for depth in depths:
            for count in counts:
                ops.append(("sample", st, depth, count, rng.randrange(2**31), None))
        for _ in range(0 if tiny else 20):
            ops.append(("sample", st, rng.choice((2, 3, 4)), 100, rng.randrange(2**31), None))
        # batches for the derived operations; depths stay below the int64 limit
        for depth in BATCH_DEPTHS[:1] if tiny else BATCH_DEPTHS:
            ops.append(("sample", st, depth, 200 if tiny else 1000, rng.randrange(2**31), slot))
            for m in (1, 2):
                ops.append(("cell_counts", st, slot, m))
                ops.append(("chi_square", st, slot, m, False))
            for _ in range(1 if tiny else 3):
                region = [rand_word(rng, p, rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
                ops.append(("frequency", st, slot, region))
                ops.append(("empirical_rn", st, slot, rand_word(rng, p, rng.randint(1, 3))))
            slot += 1
        # chi-square against the 0.999 threshold at a fixed sampler seed
        ops.append(("sample", st, 6, 4000, FIXED_SEEDS[st], slot))
        ops.append(("chi_square", st, slot, 1, True))
        ops.append(("chi_square", st, slot, 2, True))
        slot += 1
        pa = pres_args(p)
        for depth, count, fmt in ((12, 500, "csv"), (24, 200, "json"), (80, 100, "csv")):
            ops.append(("cli", ("sample", *pa, "--depth", str(depth), "--n-samples", str(count),
                                "--seed", str(rng.randrange(2**31)), "--format", fmt)))


GENERATORS = {"certify": certify, "query": query, "sets": sets, "sample": sample}
# Independent draws of every class in one pass.  More distinct inputs make
# the percentiles depend less on which inputs a seed happens to draw; the
# mix, and so the classes p50 and p99 land in, stays the same.  query's
# draws would each build another swap pool in set-up, so it keeps one and
# repeats its cheap passes instead.
DRAWS = {"certify": 3, "query": 1, "sets": 2, "sample": 2}


def generate(name: str, seed: int, tiny: bool = False) -> Plan:
    rng = random.Random(f"{name}:{seed}")
    plan = Plan(name, seed)
    for _ in range(1 if tiny else DRAWS[name]):
        GENERATORS[name](plan, rng, tiny)
    plan.ops.extend(("cli", argv) for argv in README_COMMANDS)
    rng.shuffle(plan.ops)
    # a derived sampling operation must come after the batch it reads
    if name == "sample":
        producers = [op for op in plan.ops if op[0] == "sample" and op[5] is not None]
        rest = [op for op in plan.ops if not (op[0] == "sample" and op[5] is not None)]
        plan.ops = producers + rest
    return plan
