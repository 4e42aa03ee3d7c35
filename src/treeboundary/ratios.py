"""Realized scaling values and constructive ratio-set witnesses.

Every translation scales the measure on sufficiently deep cells by an
integer power of the branching number n, so the candidate ratio values
are exactly the powers n**k.  ``find_witness`` certifies that a target
power is an essential value inside any positive-measure cylinder union
E: it produces a positive-measure F inside E and a group element t with
t(F) inside E and the scaling of t identically n**k on F.  Because the
arithmetic is exact, the certificate works for every tolerance at once.

A witness chains |k| stages of one factor of n.  With g the first
generator, a stage from C(c) swaps it into g's shadow, onto C(w) for the
first word w from g of c's length, cancels g to land on C(s), s = w[1:] z,
and swaps back onto C(c) unless its set covers C(s).  Only the first piece
of each swap is used, in closed form, so the stage lands on one cylinder,
s or c z' one letter deeper.  Stage 1 starts from E's first shortest base
c_1 and every later stage from the cylinder the one before landed on,
which covers C(s) only when s = c, and then every later stage repeats it.
So c_2 ... c_{k+1} are prefixes of one word, found in O(k) letters, and the
stage movers c_{i+1} d_i c_i^-1 (d_i = z^-1 or z'^-1 z^-1) telescope to
t = c_{k+1} d_k ... d_1 c_1^-1, reduced once; F = t^-1(C(c_{k+1})), and
negative powers invert t.  No swap is built; the stages are written from
the chain only for output.  The scaling is checked by one Busemann cocycle
per cylinder of F.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import pairwise

from .action import _cancellation, act_cylinder, act_point, fixed_points
from .cylinders import Cylinder, CylinderUnion
from .fullgroup import transitivity_check
from .words import Presentation, Word, _reduce_codes, clip, sphere_size


def power_exponent(value: Fraction, n: int) -> int | None:
    """The integer k with value == n**k, or None if there is none."""
    if value <= 0:
        return None
    num, den = value.numerator, value.denominator
    if num != 1 and den != 1:
        return None
    # the side that is not 1 holds the power, and says its sign
    rest, sign = (num, 1) if den == 1 else (den, -1)
    # n**j has binary length floor(j log2 n) + 1: only j within one of ceil((length - 1) / log2 n) can match
    k = math.ceil((rest.bit_length() - 1) / math.log2(n))
    return next((sign * j for j in range(max(k - 1, 0), k + 2) if n ** j == rest), None)


def realized_rn_values(p: Presentation, max_len: int, depth: int) -> set[Fraction]:
    """All scaling values of elements up to ``max_len`` on depth-``depth`` cells:
    ``n**k`` for ``|k| <= max_len``, since a length-l element scales its cells
    by ``n**(2c - l)`` for every cancellation length c in 0..l."""
    if max_len < 0:
        raise ValueError("the maximal element length must be nonnegative")
    if depth <= max_len:
        raise ValueError("depth must exceed the maximal element length")
    n = Fraction(p.branching)
    return {n ** k for k in range(-max_len, max_len + 1)}


@dataclass(frozen=True)
class WitnessStage:
    """One unit factor of the witness map: swap in, cancel a generator, swap back.  The swaps are
    kept as their ``(x, y)`` words; the second is the identity, ``(x, x)``, when the stage lands on x."""

    into_shadow: tuple[Word, Word]
    generator: Word
    back_into: tuple[Word, Word]

    def to_json(self) -> dict:
        (x1, y1), (x2, y2) = self.into_shadow, self.back_into
        return {
            "k1": {"x": str(x1), "y": str(y1)},
            "g": str(self.generator),
            "k2": "id" if x2 == y2 else {"x": str(x2), "y": str(y2)},
        }

    def inverted(self) -> "WitnessStage":
        return WitnessStage(self.back_into, ~self.generator, self.into_shadow)


def _next_letter(p: Presentation, u: int, v: int) -> int:
    """The first letter that may follow the letter u, other than the inverse of v."""
    return next(z for z in p.followers((u,)) if z != p.inverse_code(v))


def _landing(p: Presentation, c: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """w and s of the stage from C(c): w is c when it starts with g, the first generator,
    else the first |c| letters of g f g f ..., f g's first follower; s is w[1:] z, z the
    first letter that may follow c other than the inverse of w's last."""
    w = c if c[0] == 0 else ((0, p.followers((0,))[0]) * len(c))[:len(c)]
    return w, w[1:] + (_next_letter(p, c[-1], w[-1]),)


def _stage(p: Presentation, c: tuple[int, ...], landed: tuple[int, ...]) -> WitnessStage:
    """The stage from C(c) that lands on C(landed): it swaps back onto c unless it landed on s."""
    (w, s), word = _landing(p, c), lambda codes: Word._reduced(p, codes)
    return WitnessStage((word(c), word(w)), word((0,)), (word(s), word(s if len(landed) == len(c) else c)))


@dataclass(frozen=True)
class Witness:
    """Certificate that ``lam`` is an essential scaling value inside ``ambient``.

    ``net_element`` scales every cylinder of F by exactly ``lam``, checked by
    one cocycle per cylinder, so the deviation from the target is zero and the
    certificate holds for every positive tolerance simultaneously.  The forward
    chain is kept as c_1, ``first``, and c_{|k|+1}, ``last``: c_2 is the first
    ``second`` letters of ``last``, and each later c_i one more, up to all of it.
    """

    lam: Fraction
    ambient: CylinderUnion
    found: CylinderUnion
    image: CylinderUnion
    net_element: Word
    first: Word
    last: Word
    second: int

    @cached_property
    def stages(self) -> tuple[WitnessStage, ...]:
        """The |k| stages, written from the chain on first read; for k < 0, the inverse chain."""
        p = self.found.presentation
        k = power_exponent(self.lam, p.branching)
        chain = [self.first.codes, *(self.last.codes[:self.second + i] for i in range(abs(k)))]
        stages = [_stage(p, c, landed) for c, landed in pairwise(chain)]
        return tuple(stages) if k > 0 else tuple(st.inverted() for st in reversed(stages))

    def _check_depth(self, cyl: Cylinder) -> int:
        """Depth at which ``rn_checks`` lists the cells of a cylinder of F."""
        return max(cyl.depth, len(self.net_element) + 1)

    @property
    def rn_check_count(self) -> int:
        """Number of cells ``to_json`` lists under ``rn_checks``, in closed form."""
        p = self.found.presentation
        return sum(sphere_size(p, self._check_depth(c)) // sphere_size(p, c.depth) for c in self.found)

    @property
    def stage_letter_count(self) -> int:
        """Letters in the words of ``stages``, in closed form: ``4|c_i| + 1`` for the stage from C(c_i),
        |c_1| = ``len(first)`` and |c_i| = min(``second`` + i - 2, ``len(last)``) for 2 <= i <= |k|."""
        k = abs(power_exponent(self.lam, self.found.presentation.branching))
        second, top = self.second, len(self.last)
        growing = min(k - 1, top - second + 1)  # the stages i >= 2 with second + i - 2 <= len(last)
        return 4 * (len(self.first) + growing * second + growing * (growing - 1) // 2 + (k - 1 - growing) * top) + k

    def to_json(self) -> dict:
        # the target value, listed on the cells of F deeper than the mover
        p, text = self.found.presentation, str(self.lam)
        rn_checks = [{"cell": str(Word._reduced(p, codes)), "value": text}
                     for cyl in self.found for codes in p.extensions(cyl.base.codes, self._check_depth(cyl))]
        out = {
            "lambda": text,
            "E": self.ambient.bases(),
            "F": self.found.bases(),
            "tF": self.image.bases(),
            "net_element": str(self.net_element),
            "deviation": "0",
            "stages": [st.to_json() for st in self.stages],
            "rn_checks": rn_checks,
        }
        if len(self.stages) == 1:
            out.update(self.stages[0].to_json())
        return out


def _check_scaling(f: CylinderUnion, mover: Word, k: int) -> None:
    """Check that ``mover`` scales every cylinder of F by ``n**k``, one cocycle per cylinder.

    On the cylinder over ``w`` the cocycle ``n**(2c - len(mover))`` is
    constant exactly when the cancellation length ``c`` stops inside ``w``
    or uses up the whole mover; otherwise the cells below ``w`` disagree.
    """
    for cyl in f:
        c = _cancellation(mover, cyl.base)
        if c == cyl.depth < len(mover) or 2 * c - len(mover) != k:
            raise AssertionError("witness scaling is not constant at the target value")


def find_witness(lam: Fraction, ambient: CylinderUnion, p: Presentation) -> Witness:
    """A constructive certificate that ``lam``, a nonzero, non-unit power of the branching
    number, is realized inside ``ambient``.  It is fully deterministic: E's bases are read in
    canonical order and generators in letter order, so the same inputs give the same witness."""
    if ambient.presentation != p:
        raise ValueError("ambient set from a different presentation")
    if ambient.is_empty:
        raise ValueError("ambient set must have positive measure")
    lam, n = Fraction(lam), p.branching
    k = power_exponent(lam, n)
    if k is None or k == 0:
        raise ValueError(f"target value {clip(lam)} is not a nontrivial power of the branching number {n}")

    inverse, g, f = p.inverse_code, 0, p.followers((0,))[0]
    first = min(ambient._lex, key=len) or (g,)  # c_1, or g when E is the whole boundary
    s = _landing(p, first)[1]
    covers = ambient.contains(Cylinder(Word._reduced(p, s)))
    chain = list(s) if covers else [*first, _next_letter(p, s[-1], first[-1])]
    moves = [inverse(s[-1])] + ([] if covers else [inverse(chain[-1])])  # d_1, as every d_i, last letter first
    # a later stage lands on C(s) only when s = w[1:] z is c: when z is c's last letter and c follows
    # R = g g g ... in all its letters (c starts with g, so w = c) or R = f g f g ... in all but its last
    # (w = g f g f ...); ``lead`` counts the first letters of c that follow R
    second, from_g = len(chain), chain[0] == g
    ref = (g, g) if from_g else (f, g)
    lead = next((j for j, a in enumerate(chain) if a != ref[j % 2]), len(chain))
    for i in range(1, abs(k)):
        m, e = len(chain), chain[-1]
        z = _next_letter(p, e, e if from_g else ref[m % 2])  # w's last letter
        if z == e and lead >= m - (not from_g):  # the chain stops, and every later stage repeats this one
            moves += [inverse(z)] * (abs(k) - i)
            break
        chain.append(_next_letter(p, z, e))
        moves += [inverse(z), inverse(chain[-1])]
        lead += lead == m and chain[-1] == ref[m % 2]

    # t = c_{k+1} d_k ... d_1 c_1^-1, reduced once; F = t^-1(t(F)), t(F) the cylinder the last stage lands on
    last = Word._reduced(p, tuple(chain))
    mover = Word._reduced(p, _reduce_codes([*chain, *reversed(moves), *(inverse(c) for c in reversed(first))], p))
    image, found = CylinderUnion._canonical(p, (last.codes,)), act_cylinder(~mover, Cylinder(last))

    if not ambient.contains(found) or not ambient.contains(image):
        raise AssertionError("witness containment failed")
    if k < 0:
        # the inverse chain maps the image back onto F
        found, image, mover = image, found, ~mover
    _check_scaling(found, mover, k)
    return Witness(lam, ambient, found, image, mover, Word._reduced(p, first), last, second)


@dataclass(frozen=True)
class ClassificationReport:
    """Type label for a presentation plus the computed evidence bundle."""

    presentation: Presentation
    label: str
    freeness_ok: bool
    transitivity_ok: bool
    witness_ok: bool
    detail: dict

    @property
    def ok(self) -> bool:
        return self.freeness_ok and self.transitivity_ok and self.witness_ok

    def to_json(self) -> dict:
        return {
            "s": self.presentation.s,
            "t": self.presentation.t,
            "degree": self.presentation.degree,
            "n": self.presentation.branching,
            "type": self.label,
            "evidence": {
                "freeness": self.freeness_ok,
                "transitivity": self.transitivity_ok,
                "ratio_witnesses": self.witness_ok,
                **self.detail,
            },
            "ratio_values": {
                "nonzero": f"integer powers of {self.presentation.branching}",
                "zero_included": True,
                "zero_note": "zero is part of the value set by definition; it is not witnessed constructively",
            },
            "notes": "hyperfiniteness of the associated factor is outside the scope of this tool",
        }


def classify(p: Presentation) -> ClassificationReport:
    """Label the boundary action and bundle the computed evidence.

    Freeness is sampled over every generator letter (each fixes at most
    two boundary points, a null set); ergodicity of the swap group is
    certified by depth-1 and depth-2 transitivity; and witnesses for the
    scaling values n and 1/n are built on the full boundary.
    """
    n = p.branching
    fixed_counts = {}
    freeness_ok = True
    for code in range(p.degree):
        g = p.generator(code)
        pts = fixed_points(g)
        fixed_counts[str(g)] = len(pts)
        if len(pts) > 2 or any(act_point(g, q) != q for q in pts):
            freeness_ok = False

    transitivity_ok = all(transitivity_check(p, m) for m in (1, 2))

    full = CylinderUnion.full(p)
    witness_ok = True
    witness_detail = {}
    for lam in (Fraction(n), Fraction(1, n)):
        try:
            w = find_witness(lam, full, p)
            witness_detail[str(lam)] = {"F": w.found.bases(), "measure": str(w.found.measure)}
        except (ValueError, AssertionError) as exc:
            witness_ok = False
            witness_detail[str(lam)] = {"error": str(exc)}

    label = f"III_{{1/{n}}}"
    detail = {"fixed_point_counts": fixed_counts, "witnesses": witness_detail}
    return ClassificationReport(p, label, freeness_ok, transitivity_ok, witness_ok, detail)
