"""Realized scaling values and constructive ratio-set witnesses.

Every translation scales the measure on sufficiently deep cells by an
integer power of the branching number n, so the candidate ratio values
are exactly the powers n**k.  ``find_witness`` certifies that a target
power is an essential value inside any positive-measure cylinder union
E: it produces a positive-measure F inside E, a map t assembled from
two cylinder swaps and one generator, with F and t(F) both inside E and
the scaling of t identically equal to the target on F.  Because the
arithmetic is exact, the certificate works for every tolerance at once.

The witness construction for a single factor of n:

* take the first generator g and the first cylinder C of E (C(g) when
  E is the whole boundary);
* move C into g's shadow by the first translation piece of its swap onto
  the first same-depth cylinder starting with g (C itself if C does);
* cancel g from the front, which multiplies measure by exactly n there;
* if the result has left E, move it back by the first piece of its swap
  onto C.

Only the first piece of each swap is used, and the corridor rule gives
its element and image in closed form, so no swap is built.  On the
restricted set the composite acts by one group element, the stage's
mover, and lands on one cylinder.  Larger powers chain unit stages,
each inside the cylinder the previous one lands on; negative powers
invert the chain.  After the stages the movers' codes are reduced once
into the net mover t, and F is computed once, as t^-1(t(F)) for the
cylinder t(F) the last stage lands on.  Containment is then checked on
cylinders and the scaling by one Busemann cocycle per cylinder of F, in
exact arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .action import _cancellation, act_cylinder, act_point, fixed_points
from .cylinders import Cylinder, CylinderUnion
from .fullgroup import _first_piece, transitivity_check
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
    """One unit factor of the witness map: swap in, cancel a generator, swap back.

    The two swaps are kept as their ``(x, y)`` words; ``mover`` is the single
    group element by which the whole stage acts on the stage's restricted set.
    """

    into_shadow: tuple[Word, Word]
    generator: Word
    back_into: tuple[Word, Word]
    mover: Word

    def to_json(self) -> dict:
        (x1, y1), (x2, y2) = self.into_shadow, self.back_into
        return {
            "k1": {"x": str(x1), "y": str(y1)},
            "g": str(self.generator),
            "k2": "id" if x2 == y2 else {"x": str(x2), "y": str(y2)},
        }

    def inverted(self) -> "WitnessStage":
        return WitnessStage(self.back_into, ~self.generator, self.into_shadow, ~self.mover)


@dataclass(frozen=True)
class Witness:
    """Certificate that ``lam`` is an essential scaling value inside ``ambient``.

    ``net_element`` scales every cylinder of F by exactly ``lam``, checked by
    one cocycle per cylinder, so the deviation from the target is zero and the
    certificate holds for every positive tolerance simultaneously.
    """

    lam: Fraction
    ambient: CylinderUnion
    found: CylinderUnion
    image: CylinderUnion
    stages: tuple[WitnessStage, ...]
    net_element: Word

    def _check_depth(self, cyl: Cylinder) -> int:
        """Depth at which ``rn_checks`` lists the cells of a cylinder of F."""
        return max(cyl.depth, len(self.net_element) + 1)

    @property
    def rn_check_count(self) -> int:
        """Number of cells ``to_json`` lists under ``rn_checks``, in closed form."""
        p = self.found.presentation
        return sum(sphere_size(p, self._check_depth(c)) // sphere_size(p, c.depth) for c in self.found)

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


def _preimage(element: Word, cyl: Cylinder) -> CylinderUnion:
    """The preimage of a cylinder under ``element``: its image under the inverse, canonical as it stands."""
    return act_cylinder(~element, cyl)


def _unit_stage(ambient: CylinderUnion, p: Presentation) -> tuple[WitnessStage, Cylinder]:
    """A witness stage for one factor of n inside ``ambient``, and the one
    cylinder its mover lands on."""
    gen_code = 0
    g = Word(p, (gen_code,))
    # E's first cylinder in shortlex order, or C(g), the first depth-one cylinder, when E is the whole boundary
    c = Word._reduced(p, min(ambient._lex, key=len)) or g

    # into g's shadow by the first piece of the swap of c onto w (the identity when c starts with g);
    # the first word from g alternates g and its first follower, whose first follower is g again
    path = (gen_code, p.followers((gen_code,))[0]) * len(c)
    w = c if c.codes[0] == gen_code else Word._reduced(p, path[:len(c)])
    u, q1 = _first_piece(c, w)

    # back onto c by the first piece of that swap, unless g^-1 already moved it into E
    shifted = ~g * q1.base
    if ambient.contains(Cylinder(shifted)):
        back, v, landed = shifted, p.identity(), Cylinder(shifted)
    else:
        back, (v, landed) = c, _first_piece(shifted, c)
    return WitnessStage((c, w), g, (shifted, back), v * ~g * u), landed


def find_witness(lam: Fraction, ambient: CylinderUnion, p: Presentation) -> Witness:
    """A constructive certificate that ``lam`` is realized inside ``ambient``.

    ``lam`` must be a nonzero, non-unit power of the branching number.
    The search is fully deterministic: cylinders of E are visited in
    canonical order and generators in letter order, so the same inputs
    always produce the same witness.
    """
    if ambient.presentation != p:
        raise ValueError("ambient set from a different presentation")
    if ambient.is_empty:
        raise ValueError("ambient set must have positive measure")
    lam = Fraction(lam)
    n = p.branching
    k = power_exponent(lam, n)
    if k is None or k == 0:
        raise ValueError(f"target value {clip(lam)} is not a nontrivial power of the branching number {n}")

    stages, image = [], ambient
    for _ in range(abs(k)):
        stage, landed = _unit_stage(image, p)
        stages.append(stage)
        image = CylinderUnion._canonical(p, (landed.base.codes,))  # one cylinder is canonical
    # t: the stage movers' codes reduced once; F = t^-1(t(F)), with t(F) the cylinder the last stage lands on
    mover = Word._reduced(p, _reduce_codes([c for st in reversed(stages) for c in st.mover.codes], p))
    found = _preimage(mover, landed)

    if not ambient.contains(found) or not ambient.contains(image):
        raise AssertionError("witness containment failed")
    if k < 0:
        # the inverse chain maps the image back onto F
        stages = [st.inverted() for st in reversed(stages)]
        found, image, mover = image, found, ~mover
    _check_scaling(found, mover, k)
    return Witness(lam, ambient, found, image, tuple(stages), mover)


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
