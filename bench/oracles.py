"""Independent answers for checking the program's outputs.

Everything here works on plain tuples of letter codes and never calls
into ``treeboundary``: reduction by a stack of codes, cylinder images by
the cancellation length, swap images from the corridor description in
the ``fullgroup`` docstring, set operations on truncation sets, and
measures from the closed formula.  Letter codes follow the package's
documented order ``a1 .. as, b1, b1', .., bt, bt'``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


class Pres:
    """Generator counts of a presentation with the letter arithmetic."""

    def __init__(self, s: int, t: int):
        self.s, self.t = s, t
        self.degree = s + 2 * t
        self.n = self.degree - 1

    def inv(self, c: int) -> int:
        return c if c < self.s else self.s + ((c - self.s) ^ 1)


def reduce(p: Pres, codes) -> tuple[int, ...]:
    out: list[int] = []
    for c in codes:
        if out and out[-1] == p.inv(c):
            out.pop()
        else:
            out.append(c)
    return tuple(out)


def inverse(p: Pres, codes) -> tuple[int, ...]:
    return tuple(p.inv(c) for c in reversed(codes))


def mul(p: Pres, *words) -> tuple[int, ...]:
    return reduce(p, itertools.chain(*words))


def is_reduced(p: Pres, codes) -> bool:
    return all(0 <= c < p.degree for c in codes) and all(
        b != p.inv(a) for a, b in zip(codes, codes[1:]))


def measure(p: Pres, length: int) -> Fraction:
    """Measure of one cylinder over a word of the given length."""
    if length == 0:
        return Fraction(1)
    return Fraction(1, p.degree * p.n ** (length - 1))


def union_measure(p: Pres, bases) -> Fraction:
    return sum((measure(p, len(b)) for b in bases), Fraction(0))


def extensions(p: Pres, base, depth: int) -> list[tuple[int, ...]]:
    """Reduced words of length ``depth`` that start with ``base``."""
    level = [tuple(base)]
    for _ in range(depth - len(base)):
        level = [w + (z,) for w in level for z in range(p.degree) if not w or z != p.inv(w[-1])]
    return level


def extensions_random(p: Pres, base, depth: int, rng) -> tuple[int, ...]:
    """One reduced word of length ``depth`` starting with ``base``, drawn by ``rng``."""
    codes = list(base)
    while len(codes) < depth:
        codes.append(rng.choice([z for z in range(p.degree) if not codes or z != p.inv(codes[-1])]))
    return tuple(codes)


def truncations(p: Pres, bases, depth: int) -> set[tuple[int, ...]]:
    out: set[tuple[int, ...]] = set()
    for b in bases:
        out.update(extensions(p, b, depth))
    return out


def is_canonical(p: Pres, bases) -> bool:
    """Prefix-free, no complete sibling family, sorted shortlex."""
    bases = [tuple(b) for b in bases]
    if bases != sorted(bases, key=lambda b: (len(b), b)):
        return False
    pool = set(bases)
    if len(pool) != len(bases) or not all(is_reduced(p, b) for b in bases):
        return False
    if any(b[:i] in pool for b in bases for i in range(len(b))):
        return False
    for parent in {b[:-1] for b in bases if b}:
        family = extensions(p, parent, len(parent) + 1)
        if all(c in pool for c in family):
            return False
    return True


# -- words as text ------------------------------------------------------------


def parse_word(p: Pres, text: str) -> tuple[int, ...]:
    text = text.strip()
    if text in ("", "e"):
        return ()
    codes = []
    for tok in text.split():
        prime = tok.endswith("'")
        i = int(tok[1:-1] if prime else tok[1:])
        if tok[0] == "a" and not prime and 1 <= i <= p.s:
            codes.append(i - 1)
        elif tok[0] == "b" and 1 <= i <= p.t:
            codes.append(p.s + 2 * (i - 1) + prime)
        else:
            raise ValueError(f"bad token {tok!r}")
    return reduce(p, codes)


def word_text(p: Pres, codes) -> str:
    if not codes:
        return "e"
    out = []
    for c in codes:
        if c < p.s:
            out.append(f"a{c + 1}")
        else:
            k = c - p.s
            out.append(f"b{k // 2 + 1}" + ("'" if k % 2 else ""))
    return " ".join(out)


# -- eventually periodic points -------------------------------------------------


def normal_point(p: Pres, prefix, cycle) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Shortest prefix and primitive cycle of the infinite word prefix cycle^inf.

    The input must spell a reduced infinite word.
    """
    prefix, cycle = tuple(prefix), tuple(cycle)
    for d in range(1, len(cycle) + 1):
        if len(cycle) % d == 0 and cycle == cycle[:d] * (len(cycle) // d):
            cycle = cycle[:d]
            break
    while prefix and prefix[-1] == cycle[-1]:
        prefix, cycle = prefix[:-1], cycle[-1:] + cycle[:-1]
    return prefix, cycle


def letter_at(prefix, cycle, i: int) -> int:
    return prefix[i] if i < len(prefix) else cycle[(i - len(prefix)) % len(cycle)]


def act_point(p: Pres, g, prefix, cycle):
    """g . (prefix cycle^inf), normalized."""
    codes = tuple(prefix)
    while len(codes) <= len(g):
        codes += tuple(cycle)
    return normal_point(p, mul(p, g, codes), cycle)


def parse_point(p: Pres, text: str):
    pre, cyc = text.split("|", 1)
    return normal_point(p, parse_word(p, pre), parse_word(p, cyc))


def point_text(p: Pres, point) -> str:
    return f"{word_text(p, point[0])} | {word_text(p, point[1])}"


# -- swaps ----------------------------------------------------------------------


def swap_element(p: Pres, x, y, j: int) -> tuple[int, ...]:
    """Translation of the step-j pieces: y (x_last^-1 y_last)^(j-1) x^-1."""
    mid = (p.inv(x[-1]), y[-1])
    return mul(p, y, mid * (j - 1), inverse(p, x))


def corridor_letter(p: Pres, x, y, side: str, j: int) -> int:
    """Letter the step-j corridor continues with on the x or the y side."""
    if side == "x":
        return p.inv(y[-1]) if j % 2 else x[-1]
    return p.inv(x[-1]) if j % 2 else y[-1]


def corridor_depth(p: Pres, x, y, prefix, cycle, cap: int = 256) -> int:
    """How many corridor letters a point follows after x or y (0 outside)."""
    m = len(x)
    head = tuple(letter_at(prefix, cycle, i) for i in range(m))
    if x == y or head not in (x, y) or x[-1] == y[-1]:
        return 0
    side = "x" if head == x else "y"
    j = 1
    while j <= cap and letter_at(prefix, cycle, m + j - 1) == corridor_letter(p, x, y, side, j):
        j += 1
    return j - 1


def swap_image(p: Pres, x, y, point):
    """Image of a normalized point under the swap of the cylinders over x and y."""
    prefix, cycle = point
    m = len(x)
    head = tuple(letter_at(prefix, cycle, i) for i in range(m))
    if x == y or head not in (x, y):
        return point
    side = "x" if head == x else "y"
    if x[-1] == y[-1]:
        g = swap_element(p, x, y, 1)
        return act_point(p, g if side == "x" else inverse(p, g), prefix, cycle)
    ends = {
        normal_point(p, x, (p.inv(y[-1]), x[-1])): normal_point(p, y, (p.inv(x[-1]), y[-1])),
    }
    ends.update({v: k for k, v in ends.items()})
    if point in ends:
        return ends[point]
    j = 1
    while letter_at(prefix, cycle, m + j - 1) == corridor_letter(p, x, y, side, j):
        j += 1
    g = swap_element(p, x, y, j)
    return act_point(p, g if side == "x" else inverse(p, g), prefix, cycle)


# -- cylinder images --------------------------------------------------------------


def cylinder_image(p: Pres, g, w):
    """Closed form of g . C(w): ("cyl", base), ("co", base) or ("full", ())."""
    gw = mul(p, g, w)
    cancelled = (len(g) + len(w) - len(gw)) // 2
    if cancelled < len(w):
        return "cyl", gw
    if not w:
        return "full", ()
    return "co", mul(p, gw, (p.inv(w[-1]),))


def image_measure(p: Pres, image) -> Fraction:
    kind, base = image
    if kind == "full":
        return Fraction(1)
    return measure(p, len(base)) if kind == "cyl" else 1 - measure(p, len(base))


def in_image_by_preimage(p: Pres, g, w, tau) -> bool:
    """Whether the truncation tau lies in g . C(w): g^-1 tau starts with w."""
    return mul(p, inverse(p, g), tau)[: len(w)] == tuple(w)


def scaling_exponent(p: Pres, g, cell) -> int:
    """Power of n by which g scales a cell deeper than g."""
    return len(cell) - len(mul(p, g, cell))
