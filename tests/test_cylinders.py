import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from treeboundary import (
    BoundaryPoint,
    Cylinder,
    CylinderUnion,
    Presentation,
    Word,
    act_cylinder,
    periodic_extension,
    sphere,
)

from conftest import (
    PRESENTATIONS,
    brute_force_sphere,
    random_boundary_point,
    random_reduced_word,
    random_union,
    truncation_measure,
    union_truncations,
)

P30 = Presentation(3, 0)
P11 = Presentation(1, 1)


def cyl(text, p=P30):
    return Cylinder(Word.parse(text, p))


def test_measure_examples():
    assert cyl("a1").measure == Fraction(1, 3)
    assert cyl("a1 a2").measure == Fraction(1, 6)
    assert cyl("e").measure == 1
    assert Cylinder(Word.parse("b1 b1", Presentation(0, 2))).measure == Fraction(1, 12)


def test_children_examples():
    assert [str(c.base) for c in cyl("a1").children()] == ["a1 a2", "a1 a3"]
    root = cyl("e")
    assert len(root.children()) == P30.degree
    assert sum(c.measure for c in cyl("a1").children()) == Fraction(1, 3)
    with pytest.raises(ValueError):
        cyl("a1 a2").descendants(1)


@pytest.mark.parametrize("m", range(1, 9))
def test_sphere_partition_is_exact(presentation, m):
    total = sum(Cylinder(w).measure for w in sphere(presentation, m))
    assert total == 1


def test_children_refine_exactly(presentation):
    for m in range(0, 5):
        for w in sphere(presentation, m):
            c = Cylinder(w)
            assert sum(child.measure for child in c.children()) == c.measure


def test_union_normalization_drops_subsumed():
    u = CylinderUnion.parse(P30, ["a1", "a1 a2", "a1 a2 a3"])
    assert u.bases() == ["a1"]


def test_union_coalesces_complete_families():
    u = CylinderUnion.parse(P30, ["a1 a2", "a1 a3"])
    assert u.bases() == ["a1"]
    everything = CylinderUnion.parse(P30, ["a1", "a2", "a3"])
    assert everything == CylinderUnion.full(P30)
    partial = CylinderUnion.parse(P30, ["a1 a2", "a2"])
    assert partial.bases() == ["a2", "a1 a2"]


def test_union_normalization_on_a_wide_tree_reads_no_successor_row(monkeypatch):
    # a complete sibling family is read off the last kept bases, and a junction
    # off two inverses, so neither builds d - 1 followers per base or per point
    p, calls = Presentation(20000, 0), []
    followers = Presentation.followers
    monkeypatch.setattr(Presentation, "followers", lambda self, codes: calls.append(codes) or followers(self, codes))
    a1, a2 = Word.parse("a1", p), Word.parse("a2", p)
    image = act_cylinder(a1, Cylinder(a1))
    assert len(image.cylinders) == p.degree - 1 and calls == [()]  # the complement reads the root's row
    children = Cylinder(a2).children()
    calls.clear()
    assert CylinderUnion(p, image.cylinders + (Cylinder(a1),)) == CylinderUnion.full(p)
    assert CylinderUnion(p, children).bases() == ["a2"]
    assert len(CylinderUnion(p, children[:-1]).cylinders) == p.branching - 1
    assert str(BoundaryPoint.parse("a3 a1 | a2 a1", p)) == "a3 | a1 a2"
    with pytest.raises(ValueError):
        BoundaryPoint.parse("a2 | a2 a3", p)
    assert calls == []
    # a deeper base between the children of a family keeps it open
    assert CylinderUnion.parse(P30, ["a1", "a2 a1", "a3"]).bases() == ["a1", "a3", "a2 a1"]


def test_union_measure_matches_inclusion_exclusion_oracle():
    rng = random.Random(5)
    for p in (P30, P11, Presentation(0, 2)):
        for _ in range(25):
            u = random_union(rng, p, max_depth=3, max_parts=4)
            assert u.measure == truncation_measure(u, 4)


def test_canonical_form_is_maximal(presentation):
    rng = random.Random(13)
    p = presentation
    for _ in range(40):
        u = random_union(rng, p, max_depth=3, max_parts=12)
        codes = [cyl.base.codes for cyl in u]
        assert codes == sorted(codes, key=lambda b: (len(b), b))
        assert not any(a != b and b[: len(a)] == a for a in codes for b in codes)
        inside = union_truncations(u, 4)
        for c in codes:
            if c:
                parent = CylinderUnion(p, (Cylinder(Word(p, c[:-1])),))
                assert not union_truncations(parent, 4) <= inside
        assert CylinderUnion(p, u.cylinders) == u


def test_set_operations_match_truncation_oracle(presentation):
    rng = random.Random(9)
    p = presentation
    everything = set(brute_force_sphere(p, 4))
    empty, full = CylinderUnion.empty(p), CylinderUnion.full(p)
    drawn = [random_union(rng, p, max_depth=3, max_parts=8) for _ in range(50)]
    pairs = list(zip(drawn[::2], drawn[1::2]))
    pairs += [(a, b) for a in (empty, full, drawn[0]) for b in (empty, full, drawn[1])]
    for a, b in pairs:
        ta, tb = union_truncations(a, 4), union_truncations(b, 4)
        assert union_truncations(a | b, 4) == ta | tb
        assert union_truncations(a & b, 4) == ta & tb
        assert union_truncations(a - b, 4) == ta - tb
        assert union_truncations(a.complement(), 4) == everything - ta
        assert {codes for codes in everything if a.covers_word(Word(p, codes))} == ta
        assert a.contains(b) == (tb <= ta)
        c = Cylinder(random_reduced_word(rng, p, rng.randrange(0, 4)))
        tc = {codes for codes in everything if codes[: c.depth] == c.base.codes}
        assert a.contains(c) == (tc <= ta)


def test_covers_word_rejects_a_word_of_another_presentation():
    with pytest.raises(ValueError):
        CylinderUnion.full(P30).covers_word(Word.parse("a1", P11))


def test_complement():
    u = CylinderUnion.parse(P30, ["a1"])
    comp = u.complement()
    assert comp.bases() == ["a2", "a3"]
    assert (u | comp) == CylinderUnion.full(P30)
    assert (u & comp).is_empty
    assert u.measure + comp.measure == 1


def test_results_kept_unnormalised_are_canonical(presentation):
    # &, - and complement keep the bases as they find them, and act_cylinder
    # writes its image directly: each must equal its union normalised afresh
    p, rng = presentation, random.Random(31)
    drawn = [random_union(rng, p, max_depth=3, max_parts=8) for _ in range(40)]
    results = [CylinderUnion.empty(p), CylinderUnion.full(p), CylinderUnion.empty(p).complement()]
    for a, b in zip(drawn[::2], drawn[1::2]):
        results += [a & b, b & a, a - b, a.complement(), a.complement() & b]
    words = [w for m in range(3) for w in sphere(p, m)]
    results += [act_cylinder(g, Cylinder(base)) for g in words for base in words]
    for union in results:
        assert CylinderUnion(p, union.cylinders) == union


def test_moving_testing_and_intersecting_build_no_word(monkeypatch, presentation):
    # a union is its codes: act_cylinder, contains and & read codes only
    p, rng = presentation, random.Random(37)
    words = [w for m in range(3) for w in sphere(p, m)]
    cases = [(g, Cylinder(base), random_union(rng, p, max_depth=3, max_parts=6)) for g in words for base in words]
    built = []
    post_init, reduced = Word.__post_init__, Word._reduced
    monkeypatch.setattr(Word, "__post_init__", lambda word: built.append(word.codes) or post_init(word))
    monkeypatch.setattr(Word, "_reduced", classmethod(lambda cls, q, codes: built.append(codes) or reduced(q, codes)))
    for g, c, u in cases:
        image = act_cylinder(g, c)
        assert u.contains(image) == (u & image == image) == (image & u == image) == (image - u).is_empty
    assert built == []


def test_boundary_point_normalizes_primitive_cycle():
    b = Presentation(0, 2)
    pt = BoundaryPoint(Word.parse("e", b), Word.parse("b1 b1", b))
    assert str(pt) == "e | b1"


def test_boundary_point_normalizes_shortest_prefix():
    pt = BoundaryPoint(Word.parse("a2 a3", P30), Word.parse("a2 a3", P30))
    assert str(pt) == "e | a2 a3"
    pt2 = BoundaryPoint(Word.parse("a1 a2", P30), Word.parse("a3 a2", P30))
    assert str(pt2) == "a1 | a2 a3"


def normal_form_letter_by_letter(pre: tuple, cyc: tuple) -> tuple[tuple, tuple]:
    """The normal form as it was computed before the fold was counted: a
    primitive cycle, then one trailing prefix letter folded in per step."""
    period = len(cyc)
    for d in range(1, len(cyc)):
        if len(cyc) % d == 0 and cyc == cyc[:d] * (len(cyc) // d):
            period = d
            break
    cyc = cyc[:period]
    while pre and pre[-1] == cyc[-1]:
        pre = pre[:-1]
        cyc = cyc[-1:] + cyc[:-1]
    return pre, cyc


@st.composite
def point_codes(draw):
    """A presentation, a prefix and a cycle; the prefix often ends in copies of
    the cycle, and the cycle is often a power, so that both normalise."""
    p = draw(st.sampled_from(PRESENTATIONS))

    def reduced(length):
        codes = ()
        for _ in range(length):
            codes += (draw(st.sampled_from(p.followers(codes))),)
        return codes

    base = reduced(draw(st.integers(1, 5)))
    head = reduced(draw(st.integers(0, 4)))
    pre = head + base * draw(st.integers(0, 4)) + base[: draw(st.integers(0, len(base)))]
    return p, pre, base * draw(st.integers(1, 3))


@given(point_codes())
def test_boundary_point_normal_form_matches_folding_letter_by_letter(data):
    p, pre, cyc = data
    try:
        point = BoundaryPoint(Word(p, pre), Word(p, cyc))
    except ValueError:
        assume(False)  # a junction that does not reduce
    assert (point.prefix.codes, point.cycle.codes) == normal_form_letter_by_letter(pre, cyc)


def test_boundary_point_rejects_bad_junctions():
    with pytest.raises(ValueError):
        BoundaryPoint(Word.parse("a1", P30), Word.parse("a1 a2", P30))
    with pytest.raises(ValueError):
        BoundaryPoint(Word.parse("e", P30), Word.parse("a1", P30))  # a1 a1 ... not reduced
    with pytest.raises(ValueError):
        BoundaryPoint(Word.parse("e", P11), Word.parse("e", P11))
    with pytest.raises(ValueError):
        BoundaryPoint(Word.parse("b1", P11), Word.parse("b1' a1", P11))


def test_boundary_point_equality_is_semantic():
    a = BoundaryPoint(Word.parse("a1", P30), Word.parse("a2 a1", P30))
    b = BoundaryPoint(Word.parse("e", P30), Word.parse("a1 a2", P30))
    assert a == b
    assert hash(a) == hash(b)
    assert a.truncate(5) == b.truncate(5)


def test_cylinder_at_examples():
    om = BoundaryPoint(P30.identity(), Word.parse("a1 a2", P30))
    assert str(om.cylinder_at(3).base) == "a1 a2 a1"
    om2 = BoundaryPoint(Word.parse("a3", P30), Word.parse("a1 a2", P30))
    assert str(om2.cylinder_at(1).base) == "a3"
    with pytest.raises(ValueError):
        om.cylinder_at(0)


def test_cylinder_at_nesting():
    om = BoundaryPoint(Word.parse("a3", P30), Word.parse("a1 a2", P30))
    for m in range(1, 8):
        assert om.cylinder_at(m + 1).base.startswith(om.cylinder_at(m).base)


def test_truncate_slices_the_unrolled_point(monkeypatch, presentation):
    # the reference reads the point letter by letter
    rng = random.Random(11)
    points = [random_boundary_point(rng, presentation, 5, 4) for _ in range(60)]
    expected = {(pt, m): tuple(pt.letter_code_at(i) for i in range(m)) for pt in points for m in range(16)}

    def refuse(self, i):
        raise AssertionError("truncate read a letter at a time")

    monkeypatch.setattr(BoundaryPoint, "letter_code_at", refuse)
    for (pt, m), codes in expected.items():
        assert pt.truncate(m) == Word(presentation, codes)


def test_periodic_extension():
    w = Word.parse("a1 a2", P30)
    pt = periodic_extension(w)
    assert pt.truncate(2) == w
    free = periodic_extension(Word.parse("a1", P11))
    assert str(free.cycle) == "b1"


def test_parse_point():
    pt = BoundaryPoint.parse("a3 | a1 a2", P30)
    assert pt.prefix == Word.parse("a3", P30)
    assert BoundaryPoint.parse(str(pt), P30) == pt
    with pytest.raises(ValueError):
        BoundaryPoint.parse("a3", P30)
