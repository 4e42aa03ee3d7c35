"""Cylinder sets on the space of infinite reduced words, with exact measure.

A cylinder is the set of infinite reduced words extending a fixed finite
word; the empty word gives the whole boundary.  The distinguished
probability measure splits the total mass evenly over the ``degree``
depth-one cylinders and then evenly over the ``branching`` children at
every deeper level, so a depth-m cylinder has mass ``1/sphere_size(m)``,
``(1/degree) * (1/branching)**(m-1)``.  All measures are exact rationals;
no floating point enters any computation here.

Finite unions of cylinders form the computable set algebra used by the
rest of the package.  A union is kept in canonical form, its maximal
cylinders: no base word is a prefix of another, and complete sibling
families are merged into their parent.  It stores the bases' letter codes
in lexicographic order, and builds its shortlex ``Cylinder`` view only for
output.  In that order a word sorts directly before every word below it,
so whether a cylinder lies in the union is one binary search: only the
nearest base at or before its base word can be a prefix of it.
Intersection, containment and membership are built from this lookup, and
the complement from the set of prefixes of the bases.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import pairwise
from typing import Iterable, Iterator, Sequence

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
        return tuple(self.descendants(self.depth + 1))

    def descendants(self, depth: int) -> list["Cylinder"]:
        """All sub-cylinders at absolute depth ``depth``, at least the own depth, in lexicographic order."""
        p = self.presentation
        return [Cylinder(Word._reduced(p, codes)) for codes in p.extensions(self.base.codes, depth)]

    def __str__(self) -> str:
        return str(self.base)


def _normalise(p: Presentation, bases: Iterable[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """The canonical bases of the union of the cylinders over ``bases``, in lexicographic order."""
    # in lexicographic order a base sorts directly before the bases below it, so
    # only the last kept base can lie above the next one, and a complete sibling
    # family can only sit at the top of the stack: the last ``size`` bases, all
    # children, the last of them ending in one of the two highest letters
    kept: list[tuple[int, ...]] = []
    for base in sorted(set(bases)):
        if kept and base[: len(kept[-1])] == kept[-1]:
            continue
        kept.append(base)
        while kept[-1]:
            parent, size = kept[-1][:-1], p.branching if len(kept[-1]) > 1 else p.degree
            if (kept[-1][-1] < p.degree - 2 or len(kept) < size or kept[-size][:-1] != parent
                    or any(len(b) != len(parent) + 1 for b in kept[-size:])):
                break
            kept[-size:] = [parent]
    return tuple(kept)


def _disjoint(bases: Iterable[tuple[int, ...]]) -> bool:
    """Whether no base is a prefix of another: in lexicographic order only the next base can lie below one."""
    return all(b[: len(a)] != a for a, b in pairwise(sorted(bases)))


@dataclass(frozen=True, init=False)
class CylinderUnion:
    """A finite union of cylinders, held as its canonical bases' codes in lexicographic order."""

    presentation: Presentation
    _lex: tuple[tuple[int, ...], ...]

    def __init__(self, presentation: Presentation, cylinders: Iterable[Cylinder]):
        bases = [cyl.base for cyl in cylinders]
        if any(b.presentation != presentation for b in bases):
            raise ValueError("cylinder from a different presentation")
        vars(self).update(presentation=presentation, _lex=_normalise(presentation, (b.codes for b in bases)))

    @classmethod
    def _canonical(cls, p: Presentation, lex: tuple[tuple[int, ...], ...]) -> "CylinderUnion":
        """The union over ``lex``, already canonical bases in lexicographic order: not normalised again."""
        union = object.__new__(cls)
        vars(union).update(presentation=p, _lex=lex)
        return union

    @cached_property
    def cylinders(self) -> tuple[Cylinder, ...]:
        """The canonical cylinders in shortlex order, built on first read."""
        # a stable sort by length turns lexicographic order into shortlex
        return tuple(Cylinder(Word._reduced(self.presentation, b)) for b in sorted(self._lex, key=len))

    def _covers(self, codes: tuple[int, ...]) -> bool:
        """Whether some base is a prefix of ``codes``: only the last base
        at or before it in lexicographic order can be."""
        i = bisect_right(self._lex, codes)
        return i > 0 and codes[: len(self._lex[i - 1])] == self._lex[i - 1]

    @classmethod
    def empty(cls, p: Presentation) -> "CylinderUnion":
        return cls._canonical(p, ())

    @classmethod
    def full(cls, p: Presentation) -> "CylinderUnion":
        return cls._canonical(p, ((),))

    @property
    def is_empty(self) -> bool:
        return not self._lex

    @property
    def depth(self) -> int:
        """The depth of the deepest base, 0 for the empty union."""
        return max(map(len, self._lex), default=0)

    @property
    def measure(self) -> Fraction:
        return sum((Fraction(1, sphere_size(self.presentation, len(b))) for b in self._lex), Fraction(0))

    def __iter__(self) -> Iterator[Cylinder]:
        return iter(self.cylinders)

    def __or__(self, other: "CylinderUnion") -> "CylinderUnion":
        self._check(other)
        return CylinderUnion._canonical(self.presentation, _normalise(self.presentation, self._lex + other._lex))

    def __and__(self, other: "CylinderUnion") -> "CylinderUnion":
        """The bases of each union that the other covers: each is a maximal cylinder
        of the intersection, so together they are its canonical bases."""
        self._check(other)
        both = {*filter(other._covers, self._lex), *filter(self._covers, other._lex)}
        return CylinderUnion._canonical(self.presentation, tuple(sorted(both)))

    def __sub__(self, other: "CylinderUnion") -> "CylinderUnion":
        return self & other.complement()

    def contains(self, other: "CylinderUnion | Cylinder") -> bool:
        self._check(other)
        bases = (other.base.codes,) if isinstance(other, Cylinder) else other._lex
        return all(self._covers(b) for b in bases)

    def complement(self) -> "CylinderUnion":
        """Every child of a proper prefix of a base that is not itself a prefix.  Each
        proper prefix keeps a child inside, so no sibling family is complete."""
        p = self.presentation
        if not self._lex:
            return CylinderUnion.full(p)
        inner = {b[:i] for b in self._lex for i in range(len(b))}
        prefixes = inner.union(self._lex)
        outside = [child for q in inner for z in p.followers(q) if (child := q + (z,)) not in prefixes]
        return CylinderUnion._canonical(p, tuple(sorted(outside)))

    def covers_word(self, word: Word) -> bool:
        """Whether every boundary word with this finite prefix lies inside.

        Only valid when the union's bases are no deeper than the word.
        """
        self._check(word)
        if self.depth > len(word):
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
