"""Measure-preserving involutions that swap two same-depth cylinders.

``build_swap(x, y)`` returns the automorphism of the boundary that
exchanges the cylinders over x and y and fixes everything else.  With
``a`` and ``b`` the last letters of x and y, it exchanges two corridors
letter by letter: the x-corridor ``x b^-1 a b^-1 a ...`` and the
y-corridor ``y a^-1 b a^-1 b ...``.

* Step j translates every child ``C(x c[:j-1] z)`` of the x-corridor's
  first j-1 letters ``c[:j-1]``, except the one continuing the
  corridor, onto ``C(y d[:j-1] z)`` on the y-corridor.  The translation
  is ``(y d[:j-1]) (x c[:j-1])^-1``, which reduces to
  ``y (a^-1 b)^(j-1) x^-1``; the uncovered corridor shrinks by a factor
  of the branching number per step.
* The corridors pinch down to a single eventually periodic point, which
  is mapped explicitly to its mirror on the y-side.

When x and y share their last letter the first step already covers the
whole x-cylinder and the construction closes.  The map is made a global
involution by mirroring every piece on the y-side with the inverse
translation.  Each piece moves its domain by one fixed group element
and preserves its measure exactly, so the map lies in the
measure-preserving part of the full group of the translation action.

The swap holds a code table, built on first read up to a step bound: each
step's element and its pieces' domain and image codes, which verification and
the transitivity certificate read; pieces are built only for output.  Evaluation
at a point reads no table: the corridor letters it follows name its step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .action import act_cylinder, act_point
from .cylinders import BoundaryPoint, Cylinder, _disjoint, _normalise
from .words import DEFAULT_CELL_LIMIT, Presentation, Word, sphere

DEFAULT_MAX_STEP = 32
_Tile = tuple[tuple[int, ...], tuple[int, ...]]  # one piece's domain and image codes in the code table


@dataclass(frozen=True)
class Piece:
    """One translation piece: domain cylinder, acting element, exact image."""

    domain: Cylinder
    element: Word
    image: Cylinder


class PiecewiseTranslation:
    """Involution of the boundary swapping the cylinders over x and y.

    Use :func:`build_swap` to construct one.  The code table holds ``max_step``
    steps of the corridor exchange (one when the swap closes, none for the
    identity); ``apply`` evaluates the map at any eventually periodic point,
    however deep it follows a corridor, and never reads the table.  The
    corridor ends, ``exceptional``, are also normalized on first read:
    building and verifying make no ``BoundaryPoint``.
    """

    def __init__(self, x: Word, y: Word, max_step: int = DEFAULT_MAX_STEP):
        if x.presentation != y.presentation:
            raise ValueError("words from different presentations")
        if len(x) != len(y):
            raise ValueError("swap requires words of equal length")
        if len(x) == 0:
            raise ValueError("swap requires nonempty words")
        if max_step < 1:
            raise ValueError("need at least one step")
        self.x = x
        self.y = y
        self.m = len(x)
        self.presentation = p = x.presentation
        a, b = x.last_code, y.last_code
        # the two letters each corridor repeats, after x and after y: reduced cycles when a != b
        self._corridors = ((p.inverse_code(b), a), (p.inverse_code(a), b))
        self.closed = a == b
        self.is_identity = x == y
        self._max_step = max_step

    # -- construction -----------------------------------------------------

    @cached_property
    def exceptional(self) -> dict[BoundaryPoint, BoundaryPoint]:
        """The two corridor ends, each mapped to the other; none when the swap closes."""
        ends = [BoundaryPoint(head, Word._reduced(self.presentation, pair))
                for head, pair in zip((self.x, self.y), self._corridors) if not self.closed]
        return dict(zip(ends, reversed(ends)))

    @cached_property
    def _table(self) -> tuple[tuple[Word, tuple[_Tile, ...]], ...]:
        """Each step's element and its pieces' codes, built on first read by ``_pieces``."""
        return tuple(self._pieces(j) for j in range(1, self.step_count + 1))

    @property
    def _tiles(self) -> list[_Tile]:
        return [tile for _, tiles in self._table for tile in tiles]

    def _head(self, side: int, n: int) -> Word:
        """x (side 0) or y (side 1) then the first n letters of its corridor, a path that never backtracks."""
        first, second = self._corridors[side]
        letters = (first, second) * (n // 2) + (first,) * (n % 2)
        return Word._reduced(self.presentation, (self.x, self.y)[side].codes + letters)

    def _pieces(self, j: int) -> tuple[Word, tuple[_Tile, ...]]:
        dom, img = self._head(0, j - 1).codes, self._head(1, j - 1).codes
        corridor_letter = self._corridors[0][(j - 1) % 2]
        # z follows the x-head and is not the corridor letter, so it also follows the y-head
        tiles = tuple((dom + (z,), img + (z,)) for z in self.presentation.followers(dom) if z != corridor_letter)
        return self.step_element(j), tiles

    def _cylinder(self, codes: tuple[int, ...]) -> Cylinder:
        return Cylinder(Word._reduced(self.presentation, codes))

    @property
    def step_count(self) -> int:
        """Steps in the code table, unbuilt: none for the identity, one when closed, else ``max_step``."""
        return 0 if self.is_identity else 1 if self.closed else self._max_step

    @property
    def table_letters(self) -> int:
        """Letters in the domains, elements and images of the forward and backward
        pieces, without building them: an open swap's step j has ``n - 1`` pieces
        with domain and image of length ``m + j`` and element of length
        ``2(m + j - 1)``; a closed swap has one step of ``n`` pieces."""
        if self.is_identity:
            return 0
        n = self.presentation.branching
        if self.closed:
            return 2 * n * (2 * (self.m + 1) + len(self.step_element(1)))
        return 4 * (n - 1) * self.step_count * (2 * self.m + self.step_count)

    def _residual_at(self, j: int) -> tuple[Cylinder, Cylinder]:
        return Cylinder(self._head(0, j)), Cylinder(self._head(1, j))

    @property
    def residual(self) -> tuple[Cylinder, Cylinder] | None:
        """Uncovered corridor (x side, y side) after the last step, or None when closed."""
        return None if self.closed else self._residual_at(self.step_count)

    def residual_history(self) -> list[tuple[Cylinder, Cylinder]]:
        return [] if self.closed else [self._residual_at(j) for j in range(1, self.step_count + 1)]

    def forward_pieces(self) -> list[Piece]:
        return [piece for j in range(1, self.step_count + 1) for piece in self.pieces_at_step(j)]

    def backward_pieces(self) -> list[Piece]:
        """The forward pieces mirrored: each image moved back by the inverse element."""
        return [Piece(pc.image, ~pc.element, pc.domain) for pc in self.forward_pieces()]

    def pieces_at_step(self, j: int) -> tuple[Piece, ...]:
        if not 1 <= j <= self.step_count:
            raise ValueError(f"step {j} is outside 1..{self.step_count}")
        element, tiles = self._table[j - 1]
        return tuple(Piece(self._cylinder(dom), element, self._cylinder(img)) for dom, img in tiles)

    def step_element(self, j: int) -> Word:
        """The translation used at step j, at any j >= 1: ``(y d[:j-1]) (x c[:j-1])^-1``
        for the corridors c after x and d after y, i.e. ``y (x_m^-1 y_m)^(j-1) x^-1``, reduced
        as written since x_m != y_m; a closed swap has no corridor and uses ``y x^-1`` at every step."""
        if self.is_identity:
            raise ValueError("the identity swap has no steps")
        if j < 1:
            raise ValueError(f"steps are numbered from 1, got {j}")
        if self.closed:
            return self.y * ~self.x
        return Word._reduced(self.presentation, self.y.codes + self._corridors[1] * (j - 1) + (~self.x).codes)

    # -- evaluation --------------------------------------------------------

    def apply(self, point: BoundaryPoint) -> BoundaryPoint:
        """Evaluate the swap at an eventually periodic point."""
        if point.presentation != self.presentation:
            raise ValueError("point from a different presentation")
        if self.is_identity:
            return point
        head = point.truncate(self.m)
        if head != self.x and head != self.y:
            return point
        mapped = self.exceptional.get(point)
        if mapped is not None:
            return mapped
        side = 0 if head == self.x else 1
        corridor = self._corridors[side]
        # only the exceptional point follows its corridor forever
        j = 0
        while point.letter_code_at(self.m + j) == corridor[j % 2]:
            j += 1
        element = self.step_element(j + 1)
        return act_point(element if side == 0 else ~element, point)

    # -- reporting ---------------------------------------------------------

    def to_json(self) -> dict:
        residual = self.residual
        return {
            "x": str(self.x),
            "y": str(self.y),
            "step_count": self.step_count,
            "closed": self.closed,
            "pieces": [{"domain": str(p.domain.base), "element": str(p.element), "image": str(p.image.base)}
                       for p in self.forward_pieces() + self.backward_pieces()],
            "exceptional": [[str(a), str(b)] for a, b in sorted(
                self.exceptional.items(), key=lambda kv: str(kv[0]))],
            "residual": None if residual is None else str(residual[0].base),
            "residual_measure": "0" if residual is None else str(residual[0].measure),
        }


def build_swap(x: Word, y: Word, max_step: int = DEFAULT_MAX_STEP) -> PiecewiseTranslation:
    """The measure-preserving involution exchanging the cylinders over x and y."""
    return PiecewiseTranslation(x, y, max_step)


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class SwapReport:
    """Outcome of the structural verification of one swap."""

    x: str
    y: str
    step_count: int
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json(self) -> dict:
        return {
            "x": self.x,
            "y": self.y,
            "step_count": self.step_count,
            "ok": self.ok,
            "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in self.checks],
        }


def _tiles_support(k: PiecewiseTranslation) -> bool:
    """Whether the forward domains plus the residual corridor tile C(x), and
    the images plus the residual image tile C(y), read from the code table."""
    tiles = k._tiles + ([] if k.closed else [(k._head(0, k.step_count).codes, k._head(1, k.step_count).codes)])
    # one cylinder is a canonical union: every sibling family has two members or more
    return all(_normalise(k.presentation, (tile[side] for tile in tiles)) == (head.codes,)
               for side, head in enumerate((k.x, k.y)))


def verify_swap(k: PiecewiseTranslation) -> SwapReport:
    """Structural verification of a swap; failures are reported, not raised.

    Checks, all in exact arithmetic: piece domains and images are pairwise disjoint; each
    piece preserves measure, its domain and image lying at one depth (measure falls strictly
    with depth); the pieces plus the residual corridor tile the two swapped cylinders exactly;
    each step leaves the corridor one level deeper, one branching factor lighter; and
    every piece genuinely acts by its single group element, both ways (so the swap agrees
    with a translation wherever it is defined).
    """
    tiles = k._tiles
    # the backward pieces are the forward ones read the other way (image, inverse
    # element, domain), so both disjointness checks test the same two lists
    disjoint = _disjoint(dom for dom, _ in tiles) and _disjoint(img for _, img in tiles)
    checks = [
        Check("domains_disjoint", disjoint),
        Check("images_disjoint", disjoint),
        Check("pieces_preserve_measure", all(len(dom) == len(img) for dom, img in tiles)),
    ]

    if k.is_identity:
        checks.append(Check("covers_support", not tiles, "identity swap has no pieces"))
    else:
        checks.append(Check("covers_support", _tiles_support(k)))
        residual_ok = k.closed or all(len(k._head(0, j)) == len(k._head(1, j)) == k.m + j
                                      for j in range(1, k.step_count + 1))
        detail = "geometric decay with ratio 1/branching" if residual_ok else "unexpected residual mass"
        checks.append(Check("residual_measures", residual_ok, detail))

    # each image must be exactly the one cylinder, a canonical union as it stands
    translation_ok = all(act_cylinder(g, k._cylinder(dom))._lex == (img,)
                         and act_cylinder(inverse, k._cylinder(img))._lex == (dom,)
                         for g, step in k._table for inverse in (~g,) for dom, img in step)
    checks.append(Check("pieces_act_by_group_elements", translation_ok))
    return SwapReport(str(k.x), str(k.y), k.step_count, tuple(checks))


def transitivity_check(p: Presentation, m: int, limit: int | None = DEFAULT_CELL_LIMIT) -> bool:
    """Whether the swaps carry every depth-m cylinder onto every other.

    Certified by the swaps from the first depth-m cylinder onto each other
    one: swaps are involutions, so their orbits chain.  Each must preserve
    measure and tile the two cylinders, read from its code table.  ``limit``
    bounds the sphere words.  Depth zero is vacuously transitive.
    """
    if m < 0:
        raise ValueError("depth must be nonnegative")
    if m == 0:
        return True
    first, *others = sphere(p, m, limit)
    for y in others:
        # two steps exclude each corridor letter once
        k = build_swap(first, y, 2)
        if not (all(len(dom) == len(img) for dom, img in k._tiles) and _tiles_support(k)):
            return False
    return True
