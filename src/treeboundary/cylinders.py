"""Cylinder sets on the space of infinite reduced words, with exact measure.

A cylinder is the set of infinite reduced words extending a fixed finite
word; the empty word gives the whole boundary.  The distinguished
probability measure splits the total mass evenly over the ``degree``
depth-one cylinders and then evenly over the ``branching`` children at
every deeper level, so a depth-m cylinder has mass ``1/sphere_size(m)``,
``(1/degree) * (1/branching)**(m-1)``.  All measures are exact rationals;
no floating point enters any computation here.

Finite unions of cylinders form the computable set algebra used by the
rest of the package.  A union is kept in canonical form: no base word is
a prefix of another, complete sibling families are merged into their
parent, and the bases are sorted shortlex.  Canonical bases are the
maximal cylinders inside the union, so a cylinder lies in the union
exactly when some base is a prefix of its base word.  In lexicographic
order a word sorts directly before every word below it, so that question
is one binary search: only the nearest base at or before the word can
be its prefix.  Intersection, containment and membership are built from
this lookup, and the complement from the set of prefixes of the bases.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Sequence

from .words import Presentation, Word, sphere_size


@dataclass(frozen=True)
class Cylinder:
    """All infinite reduced words beginning with ``base``."""

    base: Word

    @property
    def presentation(self) -> Presentation:
        return self.base.presentation

    @property
    def depth(self) -> int:
        return len(self.base)

    @property
    def measure(self) -> Fraction:
        return Fraction(1, sphere_size(self.presentation, self.depth))

    def children(self) -> tuple["Cylinder", ...]:
        p, codes = self.presentation, self.base.codes
        return tuple(Cylinder(Word._reduced(p, codes + (z,))) for z in p.followers(codes))

    def descendants(self, depth: int) -> list["Cylinder"]:
        """All sub-cylinders at the given absolute depth (>= own depth), in
        lexicographic order."""
        p = self.presentation
        return [Cylinder(Word._reduced(p, codes)) for codes in p.extensions(self.base.codes, depth)]

    def __str__(self) -> str:
        return str(self.base)


@dataclass(frozen=True)
class CylinderUnion:
    """A finite union of cylinders, always held in canonical form."""

    presentation: Presentation
    cylinders: tuple[Cylinder, ...]
    # the canonical bases again, in lexicographic order
    _lex: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = self.presentation
        given: dict[tuple[int, ...], Cylinder] = {}
        for cyl in self.cylinders:
            if cyl.presentation != p:
                raise ValueError("cylinder from a different presentation")
            given[cyl.base.codes] = cyl
        # in lexicographic order a base sorts directly before the bases below
        # it, so only the last kept base can lie above the next one, and a
        # complete sibling family can only sit at the top of the stack: the last
        # ``size`` bases, all children, the last of them ending in one of the two highest letters
        kept: list[tuple[int, ...]] = []
        for base in sorted(given):
            if kept and base[: len(kept[-1])] == kept[-1]:
                continue
            kept.append(base)
            while kept[-1]:
                parent, size = kept[-1][:-1], p.branching if len(kept[-1]) > 1 else p.degree
                if (kept[-1][-1] < p.degree - 2 or len(kept) < size or kept[-size][:-1] != parent
                        or any(len(b) != len(parent) + 1 for b in kept[-size:])):
                    break
                kept[-size:] = [parent]
        # a stable sort by length turns lexicographic order into shortlex
        canonical = tuple(given[b] if b in given else Cylinder(Word._reduced(p, b)) for b in sorted(kept, key=len))
        object.__setattr__(self, "cylinders", canonical)
        object.__setattr__(self, "_lex", tuple(kept))

    def _covers(self, codes: tuple[int, ...]) -> bool:
        """Whether some base is a prefix of ``codes``: only the last base
        at or before it in lexicographic order can be."""
        i = bisect_right(self._lex, codes)
        return i > 0 and codes[: len(self._lex[i - 1])] == self._lex[i - 1]

    @classmethod
    def empty(cls, p: Presentation) -> "CylinderUnion":
        return cls(p, ())

    @classmethod
    def full(cls, p: Presentation) -> "CylinderUnion":
        return cls(p, (Cylinder(p.identity()),))

    @property
    def is_empty(self) -> bool:
        return not self.cylinders

    @property
    def measure(self) -> Fraction:
        return sum((cyl.measure for cyl in self.cylinders), Fraction(0))

    def __iter__(self) -> Iterator[Cylinder]:
        return iter(self.cylinders)

    def __or__(self, other: "CylinderUnion") -> "CylinderUnion":
        self._check(other)
        return CylinderUnion(self.presentation, self.cylinders + other.cylinders)

    def __and__(self, other: "CylinderUnion") -> "CylinderUnion":
        self._check(other)
        mine = tuple(cyl for cyl in self.cylinders if other._covers(cyl.base.codes))
        theirs = tuple(cyl for cyl in other.cylinders if self._covers(cyl.base.codes))
        return CylinderUnion(self.presentation, mine + theirs)

    def __sub__(self, other: "CylinderUnion") -> "CylinderUnion":
        self._check(other)
        return self & other.complement()

    def contains(self, other: "CylinderUnion | Cylinder") -> bool:
        self._check(other)
        cylinders = (other,) if isinstance(other, Cylinder) else other.cylinders
        return all(self._covers(cyl.base.codes) for cyl in cylinders)

    def complement(self) -> "CylinderUnion":
        """Every child of a proper prefix of a base that is not itself a prefix."""
        p = self.presentation
        if not self._lex:
            return CylinderUnion.full(p)
        inner = {b[:i] for b in self._lex for i in range(len(b))}
        prefixes = inner.union(self._lex)
        outside = [child for q in inner for z in p.followers(q) if (child := q + (z,)) not in prefixes]
        return CylinderUnion(p, tuple(Cylinder(Word._reduced(p, b)) for b in outside))

    def covers_word(self, word: Word) -> bool:
        """Whether every boundary word with this finite prefix lies inside.

        Only valid when the union's bases are no deeper than the word.
        """
        self._check(word)
        if self.cylinders and self.cylinders[-1].depth > len(word):
            raise ValueError("union is finer than the given truncation depth")
        return self._covers(word.codes)

    def bases(self) -> list[str]:
        return [str(cyl.base) for cyl in self.cylinders]

    @classmethod
    def parse(cls, p: Presentation, bases: Sequence[str]) -> "CylinderUnion":
        if not isinstance(bases, (list, tuple)) or not all(isinstance(b, str) for b in bases):
            raise ValueError("a union is a JSON array of base words")
        return cls(p, tuple(Cylinder(Word.parse(b, p)) for b in bases))

    def _check(self, other: "CylinderUnion | Cylinder | Word") -> None:
        if self.presentation != other.presentation:
            raise ValueError("unions from different presentations")

    def __str__(self) -> str:
        return "{" + ", ".join(self.bases()) + "}"


@dataclass(frozen=True)
class BoundaryPoint:
    """An eventually periodic infinite reduced word: prefix then repeating cycle.

    The representation is normalized on construction to the shortest
    possible prefix and a primitive cycle, so structural equality decides
    equality of the underlying infinite words.
    """

    prefix: Word
    cycle: Word

    def __post_init__(self):
        if self.prefix.presentation != self.cycle.presentation:
            raise ValueError("prefix and cycle from different presentations")
        if len(self.cycle) == 0:
            raise ValueError("cycle must be nonempty")
        p = self.prefix.presentation
        cyc = self.cycle.codes
        if cyc[0] == p.inverse_code(cyc[-1]):
            raise ValueError("cycle does not repeat reducibly")
        if self.prefix and cyc[0] == p.inverse_code(self.prefix.codes[-1]):
            raise ValueError("prefix does not join the cycle reducibly")
        # primitive cycle: the shortest period that divides the length
        period = next(d for d in range(1, len(cyc) + 1) if len(cyc) % d == 0 and cyc == cyc[:d] * (len(cyc) // d))
        cyc = cyc[:period]
        # shortest prefix: drop the trailing letters that repeat the cycle backwards, rotating it once
        pre, fold = self.prefix.codes, 0
        while fold < len(pre) and pre[-1 - fold] == cyc[-1 - fold % period]:
            fold += 1
        turn = period - fold % period
        pre, cyc = pre[:len(pre) - fold], cyc[turn:] + cyc[:turn]
        # a prefix of the given prefix, and a rotation of a cyclically reduced cycle
        object.__setattr__(self, "prefix", Word._reduced(p, pre))
        object.__setattr__(self, "cycle", Word._reduced(p, cyc))

    @property
    def presentation(self) -> Presentation:
        return self.prefix.presentation

    def letter_code_at(self, i: int) -> int:
        if i < len(self.prefix):
            return self.prefix.codes[i]
        return self.cycle.codes[(i - len(self.prefix)) % len(self.cycle)]

    def truncate(self, m: int) -> Word:
        if m < 0:
            raise ValueError("depth must be nonnegative")
        pre, cyc = self.prefix.codes, self.cycle.codes
        return Word._reduced(self.presentation, (pre + cyc * ((m - len(pre)) // len(cyc) + 1))[:m])

    def cylinder_at(self, m: int) -> Cylinder:
        """The unique depth-``m`` cylinder containing the point."""
        if m < 1:
            raise ValueError("depth must be at least 1")
        return Cylinder(self.truncate(m))

    def __str__(self) -> str:
        return f"{self.prefix} | {self.cycle}"

    @classmethod
    def parse(cls, text: str, p: Presentation) -> "BoundaryPoint":
        if "|" not in text:
            raise ValueError("boundary point must look like 'prefix | cycle'")
        pre, cyc = text.split("|", 1)
        return cls(Word.parse(pre, p), Word.parse(cyc, p))


def periodic_extension(word: Word) -> BoundaryPoint:
    """The canonical eventually periodic point extending a finite word.

    Appends the lexicographically first valid cycle: a single free letter
    when one can follow, otherwise the first valid two-letter cycle.
    """
    p = word.presentation
    first = p.followers(word.codes)
    # a free letter may follow itself; a letter of order two needs a partner
    free = [z for z in first if p.inverse_code(z) != z]
    cycle = free[:1] or [first[0], p.followers(first[:1])[0]]
    return BoundaryPoint(word, Word._reduced(p, tuple(cycle)))
