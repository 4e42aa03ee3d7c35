"""Reduced words in a free product of cyclic groups.

The group has ``s`` generators of order two and ``t`` generators of
infinite order, subject to no other relations.  Every element has a
unique reduced spelling (no letter adjacent to its inverse), and the
Cayley graph with respect to these generators is the homogeneous tree
in which every vertex has ``s + 2t`` neighbours.

Letters are stored as small integer codes in the fixed order
``a1 < ... < as < b1 < b1' < ... < bt < bt'`` where a prime marks an
inverse.  Enumeration and serialization follow this order throughout,
so all output is reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

DEFAULT_CELL_LIMIT = 10**7


class ResourceLimitError(RuntimeError):
    """An enumeration would exceed the configured cell budget."""


def clip(value: object) -> str:
    """``value`` as text for an error message: its first 40 characters, marked when cut."""
    text = str(value)
    return text if len(text) <= 40 else text[:40] + "..."


@dataclass(frozen=True)
class Presentation:
    """Generator counts: ``s`` of order two, ``t`` of infinite order."""

    s: int
    t: int

    def __post_init__(self):
        if self.s < 0 or self.t < 0:
            raise ValueError("generator counts must be nonnegative")
        if self.s + 2 * self.t < 3:
            raise ValueError("need s + 2t >= 3 so the tree branches")

    @property
    def degree(self) -> int:
        """Valence of every vertex of the Cayley tree: s + 2t."""
        return self.s + 2 * self.t

    @property
    def branching(self) -> int:
        """Continuations of a nonempty reduced word: degree - 1."""
        return self.degree - 1

    # -- letter codes ------------------------------------------------------
    #
    # Codes 0..s-1 are the order-two generators a1..as.  Codes s..s+2t-1
    # alternate b_j, b_j' so that flipping the low bit inverts a letter.

    def inverse_code(self, code: int) -> int:
        if code < self.s:
            return code
        return self.s + ((code - self.s) ^ 1)

    @cached_property
    def inverse_codes(self) -> tuple[int, ...]:
        """``inverse_code`` of every letter code, indexed by code."""
        return tuple(self.inverse_code(c) for c in range(self.degree))

    @cached_property
    def _successors(self) -> list[tuple[int, ...] | None]:
        return [None] * (self.degree + 1)  # one row per letter and one for the empty word, each built on first use

    def followers(self, codes: tuple[int, ...]) -> tuple[int, ...]:
        """The letter codes that may extend ``codes`` to a reduced word, ascending
        (every code for the empty word): the successor table of the boundary shift."""
        u = codes[-1] if codes else self.degree
        row = self._successors[u]
        if row is None:  # the one statement of the tree's shape: every letter may follow u but u's inverse
            cut = self.inverse_codes[u] if codes else self.degree
            row = self._successors[u] = (*range(cut), *range(cut + 1, self.degree))
        return row

    def extensions(self, codes: tuple[int, ...], depth: int) -> list[tuple[int, ...]]:
        """Every reduced code tuple of length ``depth`` that starts with ``codes``,
        in lexicographic order."""
        if depth < len(codes):
            raise ValueError(f"depth {depth} is shorter than the {len(codes)} letters given")
        level = [codes]
        for _ in range(depth - len(codes)):
            level = [c + (z,) for c in level for z in self.followers(c)]
        return level

    @cached_property
    def tokens(self) -> tuple[str, ...]:
        """The token of every letter code, indexed by code."""
        return (tuple(f"a{i}" for i in range(1, self.s + 1))
                + tuple(f"b{j}{mark}" for j in range(1, self.t + 1) for mark in ("", "'")))

    def code_of_token(self, token: str) -> int:
        kind, rest = token[:1], token[1:]
        inverse = rest.endswith("'")
        if inverse:
            rest = rest[:-1]
        if kind not in ("a", "b") or not (rest.isascii() and rest.isdigit()):
            raise ValueError(f"bad letter token {clip(token)!r}")
        count, index = (self.s if kind == "a" else self.t), rest.lstrip("0")
        # an index with more digits than the generator count is out of range, and left unread
        i = int(index or "0") if len(index) <= len(str(count)) else 0
        if (kind == "a" and inverse) or not 1 <= i <= count:
            raise ValueError(f"bad letter token {clip(token)!r} for {self}")
        return i - 1 if kind == "a" else self.s + 2 * (i - 1) + inverse

    def identity(self) -> "Word":
        return Word(self, ())

    def generator(self, code: int) -> "Word":
        if not 0 <= code < self.degree:
            raise ValueError(f"letter code {code} out of range for {self}")
        return Word(self, (code,))


def _reduce_codes(codes: Iterable[int], p: Presentation) -> tuple[int, ...]:
    inverse, stack = p.inverse_codes, []
    for c in codes:
        if stack and stack[-1] == inverse[c]:
            stack.pop()
        else:
            stack.append(c)
    return tuple(stack)


@dataclass(frozen=True)
class Word:
    """A reduced word; the empty word is the identity.

    Words are immutable values with structural equality, so they can key
    dictionaries and sets.  ``*`` multiplies (with reduction) and ``~`` inverts.
    Letters are checked in ``Word(p, codes)``, ``parse``, ``generator`` and ``append_code``;
    words the library builds reduced by construction are not checked again.
    """

    presentation: Presentation
    codes: tuple[int, ...]

    def __post_init__(self):
        inverse = self.presentation.inverse_codes
        degree = len(inverse)
        forbidden = -1
        for c in self.codes:
            if not 0 <= c < degree:
                raise ValueError(f"letter code {c} out of range for {self.presentation}")
            if c == forbidden:
                raise ValueError("word is not reduced")
            forbidden = inverse[c]

    @classmethod
    def _reduced(cls, p: Presentation, codes: tuple[int, ...]) -> "Word":
        """The word over codes already known to be reduced, unchecked."""
        word = object.__new__(cls)
        object.__setattr__(word, "presentation", p)
        object.__setattr__(word, "codes", codes)
        return word

    def __hash__(self) -> int:
        return hash(self.codes)  # equal words have equal codes; __eq__ still compares the presentation

    def __len__(self) -> int:
        return len(self.codes)

    def __bool__(self) -> bool:
        return bool(self.codes)

    def __mul__(self, other: "Word") -> "Word":
        if self.presentation != other.presentation:
            raise ValueError("words from different presentations")
        return Word._reduced(self.presentation, _reduce_codes(self.codes + other.codes, self.presentation))

    def __invert__(self) -> "Word":
        inverse = self.presentation.inverse_codes
        return Word._reduced(self.presentation, tuple(inverse[c] for c in reversed(self.codes)))

    def startswith(self, other: "Word") -> bool:
        return self.presentation == other.presentation and self.codes[: len(other.codes)] == other.codes

    @property
    def last_code(self) -> int:
        if not self.codes:
            raise ValueError("empty word has no last letter")
        return self.codes[-1]

    def prefix(self, m: int) -> "Word":
        return Word._reduced(self.presentation, self.codes[:m])

    def append_code(self, code: int) -> "Word":
        return Word(self.presentation, self.codes + (code,))

    def __str__(self) -> str:
        if not self.codes:
            return "e"
        tokens = self.presentation.tokens
        return " ".join([tokens[c] for c in self.codes])

    def __repr__(self) -> str:
        return f"Word({self})"

    @classmethod
    def parse(cls, text: str, p: Presentation) -> "Word":
        text = text.strip()
        if text in ("", "e"):
            return p.identity()
        codes = [p.code_of_token(tok) for tok in text.split()]
        return cls(p, _reduce_codes(codes, p))


def sphere_size(p: Presentation, m: int) -> int:
    """Number of reduced words of length exactly ``m``."""
    if m < 0:
        raise ValueError("length must be nonnegative")
    if m == 0:
        return 1
    return p.degree * p.branching ** (m - 1)


def sphere(p: Presentation, m: int, limit: int | None = DEFAULT_CELL_LIMIT) -> list[Word]:
    """All reduced words of length ``m``, in lexicographic letter order."""
    # the size is at least 2**m, so a long length is refused without the power
    if limit is not None and (m >= limit.bit_length() or sphere_size(p, m) > limit):
        raise ResourceLimitError(f"sphere of length {clip(m)} has more than {clip(limit)} words")
    return [Word._reduced(p, codes) for codes in p.extensions((), m)]


def cuntz_krieger_matrix(p: Presentation) -> list[list[int]]:
    """Allowed-successor matrix of the reduced-word shift.

    Rows and columns are indexed by the letters in canonical order and
    entry (u, v) is 1 exactly when v may follow u in a reduced word,
    i.e. v is not the inverse of u.  Every row sums to degree - 1.
    """
    rows = [[0] * p.degree for _ in range(p.degree)]
    for u, row in enumerate(rows):
        for v in p.followers((u,)):
            row[v] = 1
    return rows
