"""Left translation on the boundary and its exact scaling tables.

A group element acts on an infinite reduced word by left multiplication
and reduction.  On a cylinder over ``w`` the action of ``g`` depends
only on the cancellation length ``c``, the number of letters of ``w``
cancelled in ``g * w``: the image is one cylinder or the complement of
one cylinder, and on cells deeper than ``g`` the measure is scaled by
``branching ** (2c - len(g))``, the Busemann cocycle of the tree.

Convention used throughout: the value attached to a cell C for an
element g is measure(g.C) / measure(C), i.e. the derivative of the
pushforward set map E -> measure(g.E) with respect to the base measure,
evaluated anywhere on C.  Composition then satisfies the chain rule
value(gh, C) = value(g, h.C) * value(h, C).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cylinders import BoundaryPoint, Cylinder, CylinderUnion
from .words import DEFAULT_CELL_LIMIT, Presentation, Word, sphere


def act_point(g: Word, point: BoundaryPoint) -> BoundaryPoint:
    """The boundary point g . point, normalized."""
    if g.presentation != point.presentation:
        raise ValueError("element and point from different presentations")
    codes = point.prefix.codes
    cycle = point.cycle.codes
    # unroll far enough that reduction cannot reach into the repeating part
    codes += cycle * max(0, (len(g) - len(codes)) // len(cycle) + 1)
    moved = g * Word._reduced(g.presentation, codes)  # a normalized point's letters are reduced
    return BoundaryPoint(moved, point.cycle)


def _cancellation(g: Word, w: Word) -> int:
    """Number of leading letters of ``w`` cancelled in the product ``g * w``."""
    if g.presentation != w.presentation:
        raise ValueError("words from different presentations")
    gc, wc, inverse = g.codes, w.codes, g.presentation.inverse_codes
    c, bound = 0, min(len(gc), len(wc))
    while c < bound and gc[-1 - c] == inverse[wc[c]]:
        c += 1
    return c


def image_size(g: Word, w: Word) -> int:
    """The number of cylinders in ``act_cylinder(g, Cylinder(w))``: one, or, when ``g`` cancels all ``c = len(w) > 0``
    letters of ``w``, the ``n + (len(g) - c) * (n - 1)`` of a complement, ``n`` the branching number."""
    n, c = g.presentation.branching, _cancellation(g, w)
    return n + (len(g) - c) * (n - 1) if w and c == len(w) else 1


def act_cylinder(g: Word, cyl: Cylinder) -> CylinderUnion:
    """The exact image of a cylinder over ``w``, in closed form.

    If ``g`` cancels ``c < len(w)`` letters of ``w``, it is the cylinder over ``g * w = g[:len(g) - c] w[c:]``;
    otherwise, for nonempty ``w``, the complement of the cylinder over ``g * w[:-1] = g[:len(g) - c + 1]``."""
    p, w = g.presentation, cyl.base.codes
    c = _cancellation(g, cyl.base)  # which checks that g and the cylinder share a presentation
    if c < len(w):  # cancellation stopped at c, so the two pieces join reduced: one cylinder is canonical
        return CylinderUnion._canonical(p, (g.codes[:len(g) - c] + w[c:],))
    if not w:
        return CylinderUnion.full(p)
    return CylinderUnion._canonical(p, (g.codes[:len(g) - c + 1],)).complement()


def rn_exponent(g: Word, base: Word) -> int:
    """Power of the branching number by which g scales the cell over ``base``:
    the Busemann cocycle ``2c - len(g)``, with ``c`` the cancellation length."""
    if len(base) <= len(g):
        raise ValueError("cell must be deeper than the acting word")
    return 2 * _cancellation(g, base) - len(g)


def rn_value(g: Word, cyl: Cylinder) -> Fraction:
    return Fraction(g.presentation.branching) ** rn_exponent(g, cyl.base)


@dataclass(frozen=True)
class RNTable:
    """Scaling factors of one element on every cell of a fixed depth.

    The cells partition the boundary and every value is an exact power
    of the branching number.
    """

    element: Word
    depth: int
    entries: tuple[tuple[Cylinder, Fraction], ...]

    @property
    def presentation(self) -> Presentation:
        return self.element.presentation

    def restrict(self, base: Word) -> tuple[tuple[Cylinder, Fraction], ...]:
        """Entries whose cell lies inside the cylinder over ``base``."""
        return tuple((cell, v) for cell, v in self.entries if cell.base.startswith(base))

    def to_json(self) -> list[dict]:
        # value and exponent depend only on the first len(g) letters of a cell
        g, printed = self.element, {}
        rows = []
        for cell, value in self.entries:
            head = cell.base.codes[:len(g)]
            if head not in printed:
                printed[head] = str(value), rn_exponent(g, cell.base)
            text, exponent = printed[head]
            rows.append({"cell": str(cell.base), "value": text, "exponent": exponent})
        return rows


def rn_table(g: Word, depth: int, limit: int | None = DEFAULT_CELL_LIMIT) -> RNTable:
    """The scaling table of ``g`` on the depth-``depth`` cell partition."""
    if depth <= len(g):
        raise ValueError("table depth must exceed the length of the element")
    # the exponent depends only on the first len(g) letters of a cell
    n, values = Fraction(g.presentation.branching), {}
    entries = []
    for y in sphere(g.presentation, depth, limit):
        head = y.codes[:len(g)]
        if head not in values:
            values[head] = n ** rn_exponent(g, y)
        entries.append((Cylinder(y), values[head]))
    return RNTable(g, depth, tuple(entries))


def cyclic_core(g: Word) -> tuple[Word, Word]:
    """Write g as u * core * ~u with the core cyclically reduced."""
    codes, inverse, k = g.codes, g.presentation.inverse_codes, 0
    while len(codes) - 2 * k >= 2 and codes[k] == inverse[codes[len(codes) - 1 - k]]:
        k += 1
    return g.prefix(k), Word._reduced(g.presentation, codes[k:len(codes) - k])  # a subword of g


def fixed_points(g: Word) -> frozenset[BoundaryPoint]:
    """Boundary points fixed by ``g``, always a set of at most two.

    A nontrivial element fixes at most the two ends of its translation
    axis, reached by conjugating the periodic ends of its cyclically
    reduced core.  When the core is a single order-two letter the element
    inverts an edge of the tree and fixes no end at all.
    """
    if len(g) == 0:
        raise ValueError("the identity fixes everything; pass a nontrivial element")
    p = g.presentation
    u, core = cyclic_core(g)
    if len(core) == 1 and core.codes[0] == p.inverse_code(core.codes[0]):
        return frozenset()
    return frozenset({BoundaryPoint(u, core), BoundaryPoint(u, ~core)})
