"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's own algorithms:
enumeration by filtering raw products, reduction by cancelling random
adjacent pairs until none remain, set images by membership tests on
deep truncations, and measures by summing over a fine partition.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from treeboundary import BoundaryPoint, Cylinder, CylinderUnion, Presentation, Word, build_swap, rn_value

PRESENTATIONS = [Presentation(3, 0), Presentation(1, 1), Presentation(0, 2), Presentation(4, 0)]


@pytest.fixture(params=PRESENTATIONS, ids=lambda p: f"s{p.s}t{p.t}")
def presentation(request):
    return request.param


def brute_force_sphere(p: Presentation, m: int) -> list[tuple[int, ...]]:
    """All reduced length-m code tuples by filtering the full product."""
    out = []
    for codes in itertools.product(range(p.degree), repeat=m):
        if all(codes[i + 1] != p.inverse_code(codes[i]) for i in range(m - 1)):
            out.append(codes)
    return out


def naive_reduce(codes: tuple[int, ...], p: Presentation, rng: random.Random) -> tuple[int, ...]:
    """Reduce by cancelling randomly chosen adjacent inverse pairs."""
    work = list(codes)
    while True:
        spots = [i for i in range(len(work) - 1) if work[i + 1] == p.inverse_code(work[i])]
        if not spots:
            return tuple(work)
        i = rng.choice(spots)
        del work[i:i + 2]


def truncation_measure(region: CylinderUnion, depth: int) -> Fraction:
    """Measure via the depth-``depth`` partition; independent of set algebra."""
    p = region.presentation
    total = Fraction(0)
    for codes in brute_force_sphere(p, depth):
        w = Word(p, codes)
        if any(w.startswith(cyl.base) for cyl in region):
            total += Cylinder(w).measure
    return total


def image_by_membership(g: Word, base: Word, depth: int) -> set[tuple[int, ...]]:
    """Depth-``depth`` truncations of the image of the cylinder over ``base``.

    A truncation tau deep enough belongs to the image exactly when
    g^-1 tau starts with the base word.
    """
    p = g.presentation
    assert depth > len(g) + len(base)
    hit = set()
    for codes in brute_force_sphere(p, depth):
        tau = Word(p, codes)
        if (~g * tau).startswith(base):
            hit.add(codes)
    return hit


def union_truncations(region: CylinderUnion, depth: int) -> set[tuple[int, ...]]:
    p = region.presentation
    return {
        codes
        for codes in brute_force_sphere(p, depth)
        if any(Word(p, codes).startswith(cyl.base) for cyl in region)
    }


def pairwise_transitivity(p: Presentation, m: int, max_step: int = 2) -> bool:
    """Transitivity by a swap for every ordered pair of distinct depth-m words, each
    judged from its pieces alone: every piece keeps its measure, and on each side the
    domains (images) and the residual corridor are pairwise disjoint cylinders inside
    C(x) (C(y)) whose measures sum to its measure, so they tile it."""

    def measure(codes):
        return Fraction(1, p.degree * (p.degree - 1) ** (len(codes) - 1))

    words = [Word(p, codes) for codes in brute_force_sphere(p, m)]
    for x in words:
        for y in words:
            if x == y:
                continue
            k = build_swap(x, y, max_step)
            pieces = k.forward_pieces()
            if not all(pc.domain.measure == pc.image.measure for pc in pieces):
                return False
            for side, head in enumerate((x.codes, y.codes)):
                tiles = [(pc.image if side else pc.domain).base.codes for pc in pieces]
                tiles += [k.residual[side].base.codes] if k.residual else []
                if any(a[:len(b)] == b or b[:len(a)] == a for a, b in itertools.combinations(tiles, 2)):
                    return False
                if any(t[:len(head)] != head for t in tiles) or sum(map(measure, tiles)) != measure(head):
                    return False
    return True


def enumerated_rn_values(p: Presentation, max_len: int, depth: int) -> set[Fraction]:
    """Scaling values of every element of length <= max_len on every depth-``depth`` cell."""
    cells = [Cylinder(Word(p, codes)) for codes in brute_force_sphere(p, depth)]
    return {
        rn_value(Word(p, codes), cell)
        for length in range(max_len + 1)
        for codes in brute_force_sphere(p, length)
        for cell in cells
    }


def refined_rn_cells(found: CylinderUnion, mover: Word) -> list[tuple[tuple[int, ...], int]]:
    """The scaling exponent of ``mover`` cell by cell, as ``(cell codes, exponent)``.

    Each cylinder of ``found`` is refined to the cells one letter deeper than
    ``mover`` (or kept, when already deeper).  On such a cell ``u`` the image
    of the cell is the cell over ``mover * u``, so the scaling is
    ``n ** (len(u) - len(mover * u))``; the product is reduced letter by letter.
    """
    p = found.presentation
    cells = []
    for cyl in found:
        level = [cyl.base.codes]
        for _ in range(len(mover) + 1 - cyl.depth):
            level = [codes + (z,) for codes in level for z in range(p.degree)
                     if not codes or z != p.inverse_code(codes[-1])]
        for codes in level:
            product = list(mover.codes)
            for z in codes:
                if product and product[-1] == p.inverse_code(z):
                    product.pop()
                else:
                    product.append(z)
            cells.append((codes, len(codes) - len(product)))
    return cells


def random_reduced_word(rng: random.Random, p: Presentation, length: int) -> Word:
    codes: list[int] = []
    while len(codes) < length:
        choices = [z for z in range(p.degree) if not codes or z != p.inverse_code(codes[-1])]
        codes.append(rng.choice(choices))
    return Word(p, tuple(codes))


def random_boundary_point(rng: random.Random, p: Presentation,
                          max_prefix: int = 4, max_cycle: int = 3) -> BoundaryPoint:
    prefix = random_reduced_word(rng, p, rng.randrange(0, max_prefix + 1))
    length = rng.randrange(1, max_cycle + 1)
    cycle: list[int] = []
    for i in range(length):
        banned = set()
        if cycle:
            banned.add(p.inverse_code(cycle[-1]))
        elif prefix:
            banned.add(p.inverse_code(prefix.last_code))
        if i == length - 1 and cycle:
            banned.add(p.inverse_code(cycle[0]))
        choices = [z for z in range(p.degree) if z not in banned]
        if i == length - 1 and not cycle:
            # single-letter cycle must repeat reducibly
            choices = [z for z in choices if z != p.inverse_code(z)]
            if not choices:
                return random_boundary_point(rng, p, max_prefix, max_cycle)
        cycle.append(rng.choice(choices))
    return BoundaryPoint(prefix, Word(p, tuple(cycle)))


def random_union(rng: random.Random, p: Presentation,
                 max_depth: int = 3, max_parts: int = 3) -> CylinderUnion:
    parts = [
        Cylinder(random_reduced_word(rng, p, rng.randrange(1, max_depth + 1)))
        for _ in range(rng.randrange(1, max_parts + 1))
    ]
    return CylinderUnion(p, tuple(parts))
