"""Measure-preserving involutions that swap two same-depth cylinders.

``build_swap(x, y)`` returns the automorphism of the boundary that
exchanges the cylinders over x and y and fixes everything else.  It is
assembled from countably many pieces, each a single left translation:

* Step 1 translates by ``y * ~x`` on every child of the x-cylinder
  except the one continuing with the inverse of y's last letter; those
  children land on the matching children of the y-cylinder.
* Each later step dives one level down the one uncovered child (the
  corridor), translating its remaining children by a longer alternating
  element; the corridor shrinks by a factor of the branching number per
  step.
* The corridors pinch down to a single eventually periodic point, which
  is mapped explicitly to its mirror on the y-side.

When x and y share their last letter the first step already covers the
whole x-cylinder and the construction closes.  The map is made a global
involution by mirroring every piece on the y-side with the inverse
translation.  Each piece moves its domain by one fixed group element
and preserves its measure exactly, so the map lies in the
measure-preserving part of the full group of the translation action.

Pieces are materialized up to a step bound and extended on demand when
a point evaluation needs a deeper one; extension is guarded by a lock
and the resulting pieces do not depend on evaluation order.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction

from .action import act_cylinder, act_point
from .cylinders import BoundaryPoint, Cylinder, CylinderUnion
from .words import Presentation, Word, sphere

DEFAULT_MAX_STEP = 32

# evaluating the swap at a point never needs more steps than the point's
# deviation from the corridor; this bound only guards against misuse
_EXTENSION_CEILING = 100_000


@dataclass(frozen=True)
class Piece:
    """One translation piece: domain cylinder, acting element, exact image."""

    domain: Cylinder
    element: Word
    image: Cylinder


class PiecewiseTranslation:
    """Involution of the boundary swapping the cylinders over x and y.

    Use :func:`build_swap` to construct one.  ``apply`` evaluates the map
    at any eventually periodic point; pieces beyond the materialized step
    count are generated on demand.
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
        self.presentation = x.presentation
        self._steps_forward: list[tuple[Piece, ...]] = []
        self._steps_backward: list[tuple[Piece, ...]] = []
        # residual corridor pair (x side, y side) after each materialized step
        self._residuals: list[tuple[Cylinder, Cylinder]] = []
        self.closed = False
        self.exceptional: dict[BoundaryPoint, BoundaryPoint] = {}
        self._lock = threading.Lock()

        if x == y:
            self.closed = True
        else:
            p = self.presentation
            self._x_last = x.last_code
            self._y_last = y.last_code
            if self._x_last != self._y_last:
                corridor_in = BoundaryPoint(x, Word(p, (p.inverse_code(self._y_last), self._x_last)))
                corridor_out = BoundaryPoint(y, Word(p, (p.inverse_code(self._x_last), self._y_last)))
                self.exceptional = {corridor_in: corridor_out, corridor_out: corridor_in}
            self._extend_locked(max_step)

    # -- construction -----------------------------------------------------

    @property
    def step_count(self) -> int:
        return len(self._steps_forward)

    @property
    def is_identity(self) -> bool:
        return self.x == self.y

    @property
    def residual(self) -> tuple[Cylinder, Cylinder] | None:
        """Current uncovered corridor (x side, y side), or None when closed."""
        if self.closed:
            return None
        return self._residuals[-1]

    def residual_history(self) -> list[tuple[Cylinder, Cylinder]]:
        return list(self._residuals)

    def forward_pieces(self) -> list[Piece]:
        return [piece for step in self._steps_forward for piece in step]

    def backward_pieces(self) -> list[Piece]:
        return [piece for step in self._steps_backward for piece in step]

    def pieces_at_step(self, j: int) -> tuple[Piece, ...]:
        return self._steps_forward[j - 1]

    def step_element(self, j: int) -> Word:
        """The translation used at step j: y (x_m^-1 y_m)^(j-1) x^-1, reduced."""
        if self.is_identity:
            raise ValueError("the identity swap has no steps")
        p = self.presentation
        mid = Word(p, (p.inverse_code(self._x_last),)) * Word(p, (self._y_last,))
        return self.y * mid ** (j - 1) * ~self.x

    def _extend_locked(self, target_step: int) -> None:
        p = self.presentation
        while not self.closed and self.step_count < target_step:
            j = self.step_count + 1
            if j == 1:
                parent_dom, parent_img = Cylinder(self.x), Cylinder(self.y)
            else:
                parent_dom, parent_img = self._residuals[-1]
            element = self.step_element(j)
            if self._x_last == self._y_last:
                skip_dom = None
            elif j % 2 == 1:
                skip_dom = p.inverse_code(self._y_last)
            else:
                skip_dom = self._x_last
            pieces = []
            for z in parent_dom.allowed_codes():
                if z == skip_dom:
                    continue
                domain = Cylinder(parent_dom.base.append_code(z))
                pieces.append(Piece(domain, element, Cylinder(element * domain.base)))
            self._steps_forward.append(tuple(pieces))
            self._steps_backward.append(tuple(
                Piece(piece.image, ~piece.element, piece.domain) for piece in pieces
            ))
            if skip_dom is None:
                self.closed = True
            else:
                skip_img = p.inverse_code(self._x_last) if j % 2 == 1 else self._y_last
                self._residuals.append((
                    Cylinder(parent_dom.base.append_code(skip_dom)),
                    Cylinder(parent_img.base.append_code(skip_img)),
                ))

    def extend_to(self, target_step: int) -> None:
        with self._lock:
            self._extend_locked(target_step)

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
        steps = self._steps_forward if head == self.x else self._steps_backward
        j = 0
        while True:
            if j == len(steps):
                if self.closed:
                    raise AssertionError("closed swap failed to cover a point in its support")
                if j >= _EXTENSION_CEILING:
                    raise RuntimeError("step extension ceiling reached")
                self.extend_to(j + 1)
            for piece in steps[j]:
                base = piece.domain.base
                if all(point.letter_code_at(i) == c for i, c in enumerate(base.codes)):
                    return act_point(piece.element, point)
            j += 1

    # -- reporting ---------------------------------------------------------

    def to_json(self) -> dict:
        residual = self.residual
        return {
            "x": str(self.x),
            "y": str(self.y),
            "step_count": self.step_count,
            "closed": self.closed,
            "pieces": [
                {"domain": str(p.domain.base), "element": str(p.element), "image": str(p.image.base)}
                for p in self.forward_pieces() + self.backward_pieces()
            ],
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


def _pairwise_disjoint(cylinders: list[Cylinder]) -> bool:
    bases = sorted(cyl.base.codes for cyl in cylinders)
    for a, b in zip(bases, bases[1:]):
        if b[: len(a)] == a:
            return False
    return True


def _tiles_support(k: PiecewiseTranslation) -> bool:
    """Whether the forward pieces plus the residual corridor tile C(x), and
    their images plus the residual image tile C(y)."""
    p = k.presentation
    residual = k.residual
    extra_dom = (residual[0],) if residual else ()
    extra_img = (residual[1],) if residual else ()
    fwd = k.forward_pieces()
    cover_x = CylinderUnion(p, tuple(pc.domain for pc in fwd) + extra_dom)
    cover_y = CylinderUnion(p, tuple(pc.image for pc in fwd) + extra_img)
    return cover_x == CylinderUnion(p, (Cylinder(k.x),)) and cover_y == CylinderUnion(p, (Cylinder(k.y),))


def verify_swap(k: PiecewiseTranslation) -> SwapReport:
    """Structural verification of a swap; failures are reported, not raised.

    Checks, all in exact arithmetic: piece domains and images are
    pairwise disjoint; each piece preserves measure; the pieces plus the
    residual corridor tile the two swapped cylinders exactly; the
    corridor shrinks by exactly one branching factor per step; and every
    piece genuinely acts by its single group element (so the swap agrees
    with a translation wherever it is defined).
    """
    p = k.presentation
    checks: list[Check] = []
    fwd = k.forward_pieces()
    bwd = k.backward_pieces()

    checks.append(Check(
        "domains_disjoint",
        _pairwise_disjoint([pc.domain for pc in fwd]) and _pairwise_disjoint([pc.domain for pc in bwd]),
    ))
    checks.append(Check(
        "images_disjoint",
        _pairwise_disjoint([pc.image for pc in fwd]) and _pairwise_disjoint([pc.image for pc in bwd]),
    ))

    mp = all(pc.domain.measure == pc.image.measure for pc in fwd + bwd)
    checks.append(Check("pieces_preserve_measure", mp))

    if k.is_identity:
        checks.append(Check("covers_support", not fwd and not bwd, "identity swap has no pieces"))
    else:
        checks.append(Check("covers_support", _tiles_support(k)))

        n = p.branching

        def expected(j: int) -> Fraction:
            return Fraction(1, p.degree) * Fraction(1, n) ** (k.m + j - 1)

        hist = k.residual_history()
        residual_ok = all(
            cx.measure == expected(j) and cy.measure == expected(j)
            for j, (cx, cy) in enumerate(hist, start=1)
        )
        checks.append(Check(
            "residual_measures",
            residual_ok,
            "geometric decay with ratio 1/branching" if residual_ok else "unexpected residual mass",
        ))

    translation_ok = all(
        act_cylinder(pc.element, pc.domain) == CylinderUnion(p, (pc.image,))
        for pc in fwd + bwd
    )
    checks.append(Check("pieces_act_by_group_elements", translation_ok))

    return SwapReport(str(k.x), str(k.y), k.step_count, tuple(checks))


def transitivity_check(p: Presentation, m: int, max_step: int = 2) -> bool:
    """Whether the swaps carry every depth-m cylinder onto every other.

    Certified by exact measure bookkeeping for each ordered pair: the
    forward pieces plus the residual corridor must tile the source
    cylinder, and their images plus the residual image must tile the
    target.  Depth zero is vacuously transitive.
    """
    if m < 0:
        raise ValueError("depth must be nonnegative")
    if m == 0:
        return True
    words = sphere(p, m)
    for x in words:
        for y in words:
            k = build_swap(x, y, max_step)
            if k.is_identity:
                continue
            measure_ok = all(pc.domain.measure == pc.image.measure for pc in k.forward_pieces())
            if not (measure_ok and _tiles_support(k)):
                return False
    return True
