import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from treeboundary import (
    Cylinder,
    CylinderUnion,
    Presentation,
    Word,
    act_cylinder,
    classify,
    find_witness,
    power_exponent,
    realized_rn_values,
    rn_value,
)

import treeboundary.ratios as ratios

from conftest import PRESENTATIONS, enumerated_rn_values, random_union, refined_rn_cells

P30 = Presentation(3, 0)


def test_power_exponent():
    assert power_exponent(Fraction(8), 2) == 3
    assert power_exponent(Fraction(1, 9), 3) == -2
    assert power_exponent(Fraction(1), 2) == 0
    assert power_exponent(Fraction(6), 2) is None
    assert power_exponent(Fraction(1, 6), 2) is None
    assert power_exponent(Fraction(2, 3), 2) is None
    assert power_exponent(Fraction(0), 2) is None


def power_exponent_by_division(value: Fraction, n: int) -> int | None:
    """The exponent as it was found before the closed form: one factor of n
    stripped per step."""
    if value <= 0:
        return None
    num, den = value.numerator, value.denominator
    if num != 1 and den != 1:
        return None
    rest, sign = (num, 1) if den == 1 else (den, -1)
    k = 0
    while rest % n == 0:
        rest //= n
        k += 1
    return sign * k if rest == 1 else None


@given(st.integers(2, 7), st.integers(0, 2000), st.sampled_from([(1, 0), (1, 1), (1, -1)]) | st.tuples(
    st.integers(2, 60), st.just(0)), st.booleans())
def test_power_exponent_matches_stripping_factors(n, k, shape, reciprocal):
    # n**k, n**k + 1, n**k - 1 and n**k * m, or their reciprocals
    factor, offset = shape
    value = Fraction(n ** k * factor + offset)
    if reciprocal and value:
        value = 1 / value
    assert power_exponent(value, n) == power_exponent_by_division(value, n)


def test_realized_values_examples():
    assert realized_rn_values(P30, 1, 3) == {Fraction(2), Fraction(1), Fraction(1, 2)}
    assert realized_rn_values(P30, 2, 4) >= {Fraction(4), Fraction(1, 4)}
    assert realized_rn_values(P30, 0, 1) == {Fraction(1)}
    with pytest.raises(ValueError):
        realized_rn_values(P30, 2, 2)


@pytest.mark.parametrize("max_len", range(4))
def test_realized_values_match_enumeration(presentation, max_len):
    for depth in (max_len + 1, max_len + 2):
        assert realized_rn_values(presentation, max_len, depth) == enumerated_rn_values(presentation, max_len, depth)


def test_realized_values_are_symmetric_powers(presentation):
    n = presentation.branching
    values = realized_rn_values(presentation, 2, 3)
    for v in values:
        assert power_exponent(v, n) is not None
        assert 1 / v in values


def check_witness(witness, ambient, lam):
    """Independent validity check: containment, positive mass, exact scaling."""
    p = ambient.presentation
    assert witness.found.measure > 0
    assert ambient.contains(witness.found)
    assert ambient.contains(witness.image)
    moved = CylinderUnion.empty(p)
    for cyl in witness.found:
        moved = moved | act_cylinder(witness.net_element, cyl)
    assert moved == witness.image
    for cyl in witness.found:
        for sub in cyl.descendants(max(cyl.depth, len(witness.net_element) + 1)):
            assert rn_value(witness.net_element, sub) == lam


def test_witness_unit_example():
    ambient = CylinderUnion.parse(P30, ["a2"])
    witness = find_witness(Fraction(2), ambient, P30)
    check_witness(witness, ambient, Fraction(2))
    data = witness.to_json()
    assert data["lambda"] == "2"
    assert data["g"] == "a1"
    assert data["k1"] == {"x": "a2", "y": "a1"}
    assert data["k2"] == {"x": "a3", "y": "a2"}
    assert data["F"] == ["a2 a3 a1"]
    assert Fraction(witness.found.measure) == Fraction(1, 12)
    json.dumps(data)


def test_witness_inverse_example():
    ambient = CylinderUnion.parse(P30, ["a2"])
    witness = find_witness(Fraction(1, 2), ambient, P30)
    check_witness(witness, ambient, Fraction(1, 2))
    forward = find_witness(Fraction(2), ambient, P30)
    assert witness.found == forward.image
    assert witness.image == forward.found


def test_witness_chained_example():
    ambient = CylinderUnion.parse(P30, ["a2"])
    witness = find_witness(Fraction(4), ambient, P30)
    check_witness(witness, ambient, Fraction(4))
    assert len(witness.stages) == 2


def test_witness_identity_k2_when_image_stays_inside():
    ambient = CylinderUnion.full(P30)
    witness = find_witness(Fraction(2), ambient, P30)
    check_witness(witness, ambient, Fraction(2))
    assert witness.to_json()["k2"] == "id"
    assert witness.found.bases() == ["a1 a2"]
    assert witness.image.bases() == ["a2"]


def test_witness_deterministic():
    rng = random.Random(61)
    ambient = random_union(rng, P30)
    a = find_witness(Fraction(2), ambient, P30)
    b = find_witness(Fraction(2), ambient, P30)
    assert a.to_json() == b.to_json()


def test_witness_group_closure():
    """Exponents j and k both witnessed implies j + k witnessed, |j|,|k| <= 2."""
    ambient = CylinderUnion.parse(P30, ["a2"])
    n = P30.branching
    for j in range(-2, 3):
        for k in range(-2, 3):
            if j == 0 or k == 0 or j + k == 0:
                continue
            lam = Fraction(n) ** (j + k)
            chained = find_witness(lam, ambient, P30)
            check_witness(chained, ambient, lam)
            assert len(chained.stages) == abs(j + k)
    # the two-step witness develops inside the image of the unit witness
    fwd = find_witness(Fraction(n), ambient, P30)
    assert fwd.image.contains(find_witness(Fraction(n) ** 2, ambient, P30).image)


def test_witness_random_ambients(presentation):
    rng = random.Random(71)
    n = presentation.branching
    for _ in range(6):
        ambient = random_union(rng, presentation)
        for lam in (Fraction(n), Fraction(1, n), Fraction(n) ** 2):
            witness = find_witness(lam, ambient, presentation)
            check_witness(witness, ambient, lam)


def test_witness_rejects_bad_targets():
    ambient = CylinderUnion.full(P30)
    with pytest.raises(ValueError):
        find_witness(Fraction(1), ambient, P30)
    with pytest.raises(ValueError):
        find_witness(Fraction(3), ambient, P30)
    with pytest.raises(ValueError):
        find_witness(Fraction(2), CylinderUnion.empty(P30), P30)


# one depth-2 cylinder per presentation, used as E beside the whole boundary
DEPTH_TWO = {(3, 0): "a3 a1", (1, 1): "b1' a1", (0, 2): "b2 b1", (4, 0): "a3 a1"}


def ambients(p):
    return CylinderUnion.full(p), CylinderUnion.parse(p, [DEPTH_TWO[p.s, p.t]])


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, -1, -2, -3, -4, -5])
def test_cylinder_values_match_the_refinement(presentation, k):
    lam = Fraction(presentation.branching) ** k
    for ambient in ambients(presentation):
        witness = find_witness(lam, ambient, presentation)
        refined = refined_rn_cells(witness.found, witness.net_element)
        assert len(refined) == witness.rn_check_count
        for codes, exponent in refined:
            assert exponent == k
        # listing the 177,147 cells of (4,0) at k = -5 takes seconds; the smaller
        # cases run the same listing code
        if len(refined) <= 20000:
            listed = witness.to_json()["rn_checks"]
            assert [row["cell"] for row in listed] == [str(Word(presentation, c)) for c, _ in refined]
            assert {row["value"] for row in listed} == {str(lam)}


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 11, -1, -2, -3, -5, -11])
def test_stage_letter_count_counts_the_stage_words(presentation, k):
    lam = Fraction(presentation.branching) ** k
    for ambient in ambients(presentation):
        witness = find_witness(lam, ambient, presentation)
        words = [word for stage in witness.stages for word in (*stage.into_shadow, stage.generator, *stage.back_into)]
        assert witness.stage_letter_count == sum(map(len, words))


def test_cylinder_value_needs_a_constant_cocycle():
    mover = Word.parse("a3 a2", P30)
    # a2 a3 cancels all of the mover, a1 none of it: constant on each cylinder, 4 and 1/4
    assert ratios._check_scaling(CylinderUnion.parse(P30, ["a2 a3"]), mover, 2) is None
    assert ratios._check_scaling(CylinderUnion.parse(P30, ["a1"]), mover, -2) is None
    # all of a2 cancels but not all of the mover: its cells scale by 1 and by 4
    with pytest.raises(AssertionError, match="not constant"):
        ratios._check_scaling(CylinderUnion.parse(P30, ["a2"]), mover, 0)
    # constant, but not at the target
    for base, wrong in (("a1", 2), ("a2 a3", -2)):
        with pytest.raises(AssertionError, match="not constant"):
            ratios._check_scaling(CylinderUnion.parse(P30, [base]), mover, wrong)


def count_cocycles(monkeypatch) -> list:
    """Record every cancellation length the witness layer computes itself, and
    refuse refinement into cells."""
    calls = []
    cancellation = ratios._cancellation

    def counting(g, w):
        calls.append(w)
        return cancellation(g, w)

    monkeypatch.setattr(ratios, "_cancellation", counting)
    monkeypatch.setattr(Cylinder, "descendants", None)
    return calls


@pytest.mark.parametrize("k", [1, 3, -1, -3])
def test_one_cocycle_per_cylinder_of_f(presentation, monkeypatch, k):
    calls = count_cocycles(monkeypatch)
    for ambient in ambients(presentation):
        calls.clear()
        witness = find_witness(Fraction(presentation.branching) ** k, ambient, presentation)
        assert calls == [c.base for c in witness.found]


def test_deep_witness_does_no_per_cell_work(monkeypatch):
    p = Presentation(4, 0)
    calls = count_cocycles(monkeypatch)
    witness = find_witness(Fraction(1, 3 ** 6), CylinderUnion.parse(p, ["a3 a1"]), p)
    assert len(calls) == len(witness.found.cylinders) == 1
    # the refinement the certificate no longer runs: 3**13 cells
    assert witness.rn_check_count == 3 ** 13


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, -1, -2, -3, -4, -5, -6])
def test_witness_pulls_f_back_once(presentation, monkeypatch, k):
    # F is the one pull-back, by the inverse of the net mover, of the cylinder the last
    # stage lands on; for k < 0 that pull-back is t(F)
    pulled, act_cylinder = [], ratios.act_cylinder

    def pulling(g, cyl):
        pulled.append((g, act_cylinder(g, cyl)))
        return pulled[-1][1]

    monkeypatch.setattr(ratios, "act_cylinder", pulling)
    for ambient in ambients(presentation):
        pulled.clear()
        witness = find_witness(Fraction(presentation.branching) ** k, ambient, presentation)
        forward = ~witness.net_element if k > 0 else witness.net_element
        assert pulled == [(forward, witness.found if k > 0 else witness.image)]


def test_classify_labels():
    assert classify(P30).label == "III_{1/2}"
    assert classify(Presentation(0, 2)).label == "III_{1/3}"
    assert classify(Presentation(1, 1)).label == "III_{1/2}"


def test_classify_evidence_bundle(presentation):
    report = classify(presentation)
    assert report.ok
    data = report.to_json()
    assert data["type"] == f"III_{{1/{presentation.branching}}}"
    assert data["evidence"]["freeness"] is True
    assert data["evidence"]["transitivity"] is True
    assert data["evidence"]["ratio_witnesses"] is True
    assert "hyperfiniteness" in data["notes"]
    json.dumps(data)
