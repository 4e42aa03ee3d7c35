import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from treeboundary import (
    BoundaryPoint,
    Cylinder,
    CylinderUnion,
    Presentation,
    Word,
    act_cylinder,
    act_point,
    cyclic_core,
    fixed_points,
    power_exponent,
    rn_table,
    rn_value,
    sphere,
)

import treeboundary.action as action
import treeboundary.words as words

from conftest import (
    PRESENTATIONS,
    brute_force_sphere,
    image_by_membership,
    random_boundary_point,
    random_reduced_word,
    union_truncations,
)

P30 = Presentation(3, 0)
P02 = Presentation(0, 2)


def w(text, p=P30):
    return Word.parse(text, p)


def test_act_point_examples():
    om = BoundaryPoint(w("a1"), w("a2 a3"))
    assert act_point(P30.identity(), om) == om
    assert act_point(w("a1"), om) == BoundaryPoint(P30.identity(), w("a2 a3"))


def test_act_point_is_action():
    rng = random.Random(3)
    for p in PRESENTATIONS:
        for _ in range(60):
            g = random_reduced_word(rng, p, rng.randrange(0, 5))
            h = random_reduced_word(rng, p, rng.randrange(0, 5))
            om = random_boundary_point(rng, p)
            assert act_point(g, act_point(~g, om)) == om
            assert act_point(g * h, om) == act_point(g, act_point(h, om))


def test_act_cylinder_examples():
    assert act_cylinder(w("a1"), Cylinder(w("a2"))).bases() == ["a1 a2"]
    assert act_cylinder(w("a1"), Cylinder(w("a1"))).bases() == ["a2", "a3"]
    c = Cylinder(w("a2 a3"))
    assert act_cylinder(P30.identity(), c).bases() == ["a2 a3"]


def _full_cancellation_draw(rng, p):
    """A pair (g, base) with g = h * ~base cancelling all of base, len(g) <= 4."""
    base = random_reduced_word(rng, p, rng.randrange(0, 3))
    while True:
        h = random_reduced_word(rng, p, rng.randrange(0, 5 - len(base)))
        if not (h and base) or h.last_code != base.last_code:
            return h * ~base, base


def test_act_cylinder_matches_membership_oracle():
    rng = random.Random(17)
    rng_full = random.Random(18)
    for p in (P30, Presentation(1, 1)):
        draws = []
        for _ in range(20):
            g = random_reduced_word(rng, p, rng.randrange(0, 3))
            base = random_reduced_word(rng, p, rng.randrange(0, 3))
            draws.append((g, base))
        full = [_full_cancellation_draw(rng_full, p) for _ in range(20)]
        assert all(len(g * base) == len(g) - len(base) for g, base in full)
        assert any(not base for _, base in full) and any(len(g) == 4 for g, _ in full)
        for g, base in draws + full:
            depth = len(g) + len(base) + 1
            image = act_cylinder(g, Cylinder(base))
            assert union_truncations(image, depth) == image_by_membership(g, base, depth)


def _image_by_products(g, base):
    """The image as first written, with products: the cylinder over g * base unless all of
    base cancels, then the complement of the cylinder over g * base[:-1]."""
    p = g.presentation
    if len(g * base) > len(g) - len(base):
        return CylinderUnion(p, (Cylinder(g * base),))
    if not base:
        return CylinderUnion.full(p)
    return CylinderUnion(p, (Cylinder(g * base.prefix(len(base) - 1)),)).complement()


def test_act_cylinder_is_closed_form_without_products(monkeypatch, presentation):
    p = presentation
    short = [y for m in range(5) for y in sphere(p, m)]
    # the size in closed form: one cylinder unless all of a nonempty base cancels
    expected = {
        (g, base): (_image_by_products(g, base),
                    p.branching + (len(g) - len(base)) * (p.branching - 1)
                    if base and len(g * base) == len(g) - len(base) else 1)
        for g in short for base in short
    }

    def refuse(*args):
        raise AssertionError("act_cylinder multiplied or reduced words")

    monkeypatch.setattr(words, "_reduce_codes", refuse)
    monkeypatch.setattr(Word, "__mul__", refuse)
    for (g, base), (image, size) in expected.items():
        moved = act_cylinder(g, Cylinder(base))
        assert moved == image
        assert len(moved.cylinders) == size


def test_act_cylinder_deeper_refinement_gives_same_union():
    g = w("a1 a2")
    c = Cylinder(w("a2"))
    image = act_cylinder(g, c)
    p = P30
    deeper = CylinderUnion(p, tuple(
        Cylinder(g * sub.base) for sub in c.descendants(len(g) + 3)
    ))
    assert image == deeper


def test_act_cylinder_maps_partition_to_partition(presentation):
    rng = random.Random(1)
    g = random_reduced_word(rng, presentation, 2)
    m = 3
    images = [act_cylinder(g, Cylinder(y)) for y in sphere(presentation, m)]
    total = sum(im.measure for im in images)
    assert total == 1
    merged = images[0]
    for im in images[1:]:
        assert (merged & im).is_empty
        merged = merged | im
    assert merged == CylinderUnion.full(presentation)


def test_rn_examples():
    assert rn_value(w("a1"), Cylinder(w("a1 a2"))) == 2
    assert rn_value(w("a1"), Cylinder(w("a2 a1"))) == Fraction(1, 2)
    table = rn_table(w("a1 a2"), 3)
    assert {v for _, v in table.entries} <= {Fraction(4), Fraction(1), Fraction(1, 4)}
    ident = rn_table(P30.identity(), 2)
    assert all(v == 1 for _, v in ident.entries)


def test_rn_table_validates_depth():
    with pytest.raises(ValueError):
        rn_table(w("a1 a2"), 2)
    with pytest.raises(ValueError):
        rn_value(w("a1 a2"), Cylinder(w("a1 a2")))


def test_rn_table_matches_rn_value_cell_by_cell(presentation):
    rng = random.Random(29)
    for _ in range(12):
        g = random_reduced_word(rng, presentation, rng.randrange(0, 4))
        for depth in (len(g) + 1, len(g) + 2):
            cells = [Cylinder(Word(presentation, codes)) for codes in brute_force_sphere(presentation, depth)]
            expected = [(cell, rn_value(g, cell)) for cell in cells]
            assert list(rn_table(g, depth).entries) == expected


def test_rn_table_computes_one_exponent_per_prefix(monkeypatch, presentation):
    calls = []
    real = action.rn_exponent

    def counting(g, base):
        calls.append(base.codes[:len(g)])
        return real(g, base)

    monkeypatch.setattr(action, "rn_exponent", counting)
    rng = random.Random(31)
    for length in range(4):
        g = random_reduced_word(rng, presentation, length)
        calls.clear()
        table = rn_table(g, length + 2)
        assert len(calls) == len(set(calls)) == len(brute_force_sphere(presentation, length))
        assert len(table.entries) == len(brute_force_sphere(presentation, length + 2))


def test_rn_table_partitions_and_is_power_of_n(presentation):
    rng = random.Random(23)
    n = presentation.branching
    for _ in range(10):
        g = random_reduced_word(rng, presentation, rng.randrange(0, 4))
        table = rn_table(g, len(g) + 2)
        assert sum(c.measure for c, _ in table.entries) == 1
        for _, v in table.entries:
            assert power_exponent(v, n) is not None


def test_rn_measure_transport(presentation):
    """measure(g.C) equals the table-weighted measure of C, exactly."""
    rng = random.Random(31)
    for _ in range(10):
        g = random_reduced_word(rng, presentation, 2)
        base = random_reduced_word(rng, presentation, 1)
        c = Cylinder(base)
        cells = c.descendants(len(g) + 1)
        transported = sum(rn_value(g, cell) * cell.measure for cell in cells)
        assert act_cylinder(g, c).measure == transported


def test_rn_chain_rule(presentation):
    rng = random.Random(41)
    for _ in range(20):
        g = random_reduced_word(rng, presentation, rng.randrange(1, 4))
        h = random_reduced_word(rng, presentation, rng.randrange(1, 4))
        depth = len(g) + len(h) + 1
        for y in sphere(presentation, depth)[::7]:
            cell = Cylinder(y)
            moved = Cylinder(h * y)
            lhs = rn_value(g * h, cell)
            assert lhs == rn_value(g, moved) * rn_value(h, cell)


def test_generator_tables_scale_by_n_on_own_shadow(presentation):
    """For every letter g, the table of g^-1 is constantly n on the g-cylinder."""
    n = presentation.branching
    for code in range(presentation.degree):
        g = presentation.generator(code)
        table = rn_table(~g, 2)
        entries = table.restrict(g)
        assert entries
        assert all(v == n for _, v in entries)


def test_fixed_points_examples():
    b1 = Word.parse("b1", P02)
    pts = fixed_points(b1)
    assert pts == {
        BoundaryPoint(P02.identity(), b1),
        BoundaryPoint(P02.identity(), ~b1),
    }
    assert fixed_points(w("a1")) == frozenset()
    assert len(fixed_points(w("a1 a2"))) == 2
    with pytest.raises(ValueError):
        fixed_points(P30.identity())


def test_fixed_points_match_exhaustive_search():
    """Oracle: scan a large pool of low-complexity eventually periodic points."""
    rng = random.Random(7)
    cases = {
        P30: ("a1", "a1 a2", "a2 a1 a2"),
        Presentation(1, 1): ("a1", "b1", "a1 b1", "b1 a1 b1'"),
    }
    for p, texts in cases.items():
        candidates = set()
        for _ in range(4000):
            candidates.add(random_boundary_point(rng, p, max_prefix=2, max_cycle=2))
        for text in texts:
            g = Word.parse(text, p)
            found = {pt for pt in candidates if act_point(g, pt) == pt}
            assert found == {pt for pt in fixed_points(g) if pt in candidates}


def test_fixed_points_are_fixed_and_few():
    rng = random.Random(53)
    for p in PRESENTATIONS:
        for _ in range(40):
            g = random_reduced_word(rng, p, rng.randrange(1, 6))
            pts = fixed_points(g)
            assert len(pts) <= 2
            for pt in pts:
                assert act_point(g, pt) == pt


def test_cyclic_core():
    u, core = cyclic_core(w("a2 a1 a2"))
    assert (str(u), str(core)) == ("a2", "a1")
    assert u * core * ~u == w("a2 a1 a2")
    u2, core2 = cyclic_core(w("a1 a2"))
    assert (str(u2), str(core2)) == ("e", "a1 a2")
