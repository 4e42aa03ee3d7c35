import json
import random
from fractions import Fraction

import pytest

from treeboundary import (
    BoundaryPoint,
    Cylinder,
    CylinderUnion,
    Presentation,
    Word,
    act_point,
    build_swap,
    find_witness,
    sphere,
    transitivity_check,
    verify_swap,
)

import treeboundary.cylinders as cylinders
import treeboundary.fullgroup as fullgroup
import treeboundary.words as words_module
from treeboundary.words import sphere_size
from treeboundary.cylinders import periodic_extension
from treeboundary.fullgroup import DEFAULT_MAX_STEP, Piece

from conftest import PRESENTATIONS, pairwise_transitivity, random_boundary_point, random_reduced_word
from test_ratios import ambients

P30 = Presentation(3, 0)
P11 = Presentation(1, 1)


def w(text, p=P30):
    return Word.parse(text, p)


def test_step_one_example():
    k = build_swap(w("a1"), w("a2"), 1)
    (piece,) = k.pieces_at_step(1)
    assert str(piece.domain.base) == "a1 a3"
    assert str(piece.element) == "a2 a1"
    assert str(piece.image.base) == "a2 a3"
    assert piece.domain.measure == piece.image.measure == Fraction(1, 6)


def test_step_two_example():
    k = build_swap(w("a1"), w("a2"), 2)
    (piece,) = k.pieces_at_step(2)
    assert str(piece.domain.base) == "a1 a2 a3"
    assert str(piece.element) == "a2 a1 a2 a1"
    assert str(piece.image.base) == "a2 a1 a3"
    assert piece.domain.measure == piece.image.measure == Fraction(1, 12)


def test_exceptional_pair_example():
    k = build_swap(w("a1"), w("a2"), 2)
    src = BoundaryPoint(w("a1"), w("a2 a1"))
    dst = BoundaryPoint(w("a2"), w("a1 a2"))
    assert k.exceptional == {src: dst, dst: src}
    assert k.apply(src) == dst
    assert k.apply(dst) == src


def test_identity_swap():
    k = build_swap(w("a1"), w("a1"), 3)
    assert k.is_identity and k.closed
    assert not k.forward_pieces()
    om = BoundaryPoint(w("a1"), w("a2 a3"))
    assert k.apply(om) == om


def test_swap_closes_when_last_letters_agree():
    k = build_swap(w("a1 a3"), w("a2 a3"), 5)
    assert k.closed
    assert k.step_count == 1
    assert k.residual is None
    assert not k.exceptional
    assert len(k.pieces_at_step(1)) == P30.branching
    assert verify_swap(k).ok


def test_first_three_step_elements_follow_the_alternating_pattern():
    for p, xt, yt in ((P30, "a3 a1", "a2 a3"), (P11, "a1 b1", "b1' a1"), (Presentation(0, 2), "b1", "b2")):
        x, y = Word.parse(xt, p), Word.parse(yt, p)
        if x.last_code == y.last_code:
            continue
        k = build_swap(x, y, 3)
        xm = Word(p, (x.last_code,))
        ym = Word(p, (y.last_code,))
        assert k.step_element(1) == y * ~x
        assert k.step_element(2) == y * ~xm * ym * ~x
        assert k.step_element(3) == y * ~xm * ym * ~xm * ym * ~x


def test_step_elements_are_written_without_products(monkeypatch, presentation):
    # the reference multiplies the two corridor heads, or y by x^-1 when the swap closes
    p = presentation
    expected = {}
    for m in (1, 2, 3):
        for x in sphere(p, m):
            for y in sphere(p, m):
                if x != y:
                    k = build_swap(x, y, 6)
                    expected[k] = ([y * ~x] * 6 if k.closed else
                                   [k._head(1, j - 1) * ~k._head(0, j - 1) for j in range(1, 7)])
    for k, elements in expected.items():
        if k.closed:
            assert [k.step_element(j) for j in range(1, 7)] == elements

    def refuse(*args):
        raise AssertionError("an open swap's step element multiplied or reduced words")

    monkeypatch.setattr(words_module, "_reduce_codes", refuse)
    monkeypatch.setattr(Word, "__mul__", refuse)
    for k, elements in expected.items():
        if not k.closed:
            assert [k.step_element(j) for j in range(1, 7)] == elements


def test_step_exclusions_follow_parity():
    p = Presentation(0, 2)
    x, y = Word.parse("b1", p), Word.parse("b2", p)
    k = build_swap(x, y, 4)
    # odd steps exclude the inverses of the last letters, even steps the letters
    dom1 = {pc.domain.base.codes[-1] for pc in k.pieces_at_step(1)}
    assert dom1 == set(range(p.degree)) - {p.inverse_code(x.last_code), p.inverse_code(y.last_code)}
    dom2 = {pc.domain.base.codes[-1] for pc in k.pieces_at_step(2)}
    allowed2 = set(p.followers(k.residual_history()[0][0].base.codes))
    assert dom2 == allowed2 - {x.last_code, y.last_code}


def test_residual_measures_examples():
    k1 = build_swap(w("a1"), w("a2"), 1)
    assert k1.residual[0].measure == Fraction(1, 6)
    k4 = build_swap(w("a1"), w("a2"), 4)
    assert k4.residual[0].measure == Fraction(1, 48)


def test_verify_swap_small_cases(presentation):
    words1 = sphere(presentation, 1)
    for x in words1:
        for y in words1:
            report = verify_swap(build_swap(x, y, 4))
            assert report.ok, report.to_json()


@pytest.mark.parametrize("max_step", [1, 3])
def test_verify_swap_compares_depths_not_measures(monkeypatch, presentation, max_step):
    # the reference reads both measure checks from the measures, as the report first did
    p = presentation
    expected = {}
    for m in (1, 2):
        for x in sphere(p, m):
            for y in sphere(p, m):
                k = build_swap(x, y, max_step)
                report = verify_swap(k).to_json()
                residual = enumerate(k.residual_history(), start=1)
                by_measure = {
                    "pieces_preserve_measure": all(pc.domain.measure == pc.image.measure
                                                   for pc in k.forward_pieces()),
                    "residual_measures": all(cx.measure == cy.measure == Fraction(1, sphere_size(p, m + j))
                                             for j, (cx, cy) in residual),
                }
                for check in report["checks"]:
                    check["ok"] = by_measure.get(check["name"], check["ok"])
                expected[k] = report
    transitive = {m: pairwise_transitivity(p, m) for m in (1, 2)}

    def refuse(self):
        raise AssertionError("a measure was read")

    monkeypatch.setattr(Cylinder, "measure", property(refuse))
    for k, report in expected.items():
        assert verify_swap(k).to_json() == report
    assert {m: transitivity_check(p, m) for m in (1, 2)} == transitive


@pytest.mark.parametrize("p, x, y", [(P30, "a1", "a2"), (Presentation(0, 2), "b1", "b2")])
def test_verify_swap_at_default_step_count(p, x, y):
    k = build_swap(Word.parse(x, p), Word.parse(y, p))
    assert k.step_count == DEFAULT_MAX_STEP
    report = verify_swap(k)
    assert report.ok, report.to_json()


def test_apply_piece_example():
    k = build_swap(w("a1"), w("a2"), 4)
    om = BoundaryPoint(w("a1 a3"), w("a2 a3"))
    out = k.apply(om)
    assert out == act_point(w("a2 a1"), om)
    assert str(out) == "e | a2 a3"


def test_apply_identity_outside_support():
    k = build_swap(w("a1"), w("a2"), 2)
    om = BoundaryPoint(w("a3"), w("a1 a2"))
    assert k.apply(om) == om


def test_apply_is_involution_on_random_points():
    rng = random.Random(29)
    for p in PRESENTATIONS:
        x, y = sphere(p, 2)[0], sphere(p, 2)[-1]
        k = build_swap(x, y, 3)
        for _ in range(250):
            om = random_boundary_point(rng, p)
            assert k.apply(k.apply(om)) == om


def test_apply_beyond_the_built_steps():
    k = build_swap(w("a1"), w("a2"), 2)
    assert k.step_count == 2
    # a point that follows the corridor for seven letters, then leaves it
    om = BoundaryPoint(w("a1 a2 a1 a2 a1 a2 a1 a2 a3"), w("a1 a2"))
    out = k.apply(om)
    assert out == act_point(k.step_element(8), om)
    assert k.apply(out) == om
    # the corridor's 200th letter, far past the table, costs no extra steps
    deep = BoundaryPoint(Word.parse("a1 " + "a2 a1 " * 100 + "a3", P30), w("a1 a2"))
    out = k.apply(deep)
    assert out == act_point(k.step_element(201), deep)
    assert k.apply(out) == deep
    assert k.step_count == 2


def test_apply_agrees_with_the_piece_table():
    rng = random.Random(41)
    steps = 5
    for p in PRESENTATIONS:
        words, pairs = sphere(p, 2), sphere(p, 1)
        closing = next(v for v in words[1:] if v.last_code == words[0].last_code)
        for x, y in ((pairs[0], pairs[-1]), (pairs[0], pairs[1]), (words[0], closing)):
            k = build_swap(x, y, steps)
            assert verify_swap(k).ok
            points = [random_boundary_point(rng, p) for _ in range(60)]
            points += [periodic_extension(x), periodic_extension(y)]
            # points that follow either corridor for 0..steps-1 letters, then leave it
            history = k.residual_history()
            for side, head in enumerate((x, y)):
                for d in range(len(history)):
                    base = head if d == 0 else history[d - 1][side].base
                    corridor_next = history[d][side].base.last_code
                    for z in p.followers(base.codes):
                        if z != corridor_next:
                            points.append(periodic_extension(base.append_code(z)))
            pieces = k.forward_pieces() + k.backward_pieces()
            matched = 0
            for pt in points:
                for piece in pieces:
                    if pt.truncate(piece.domain.depth) == piece.domain.base:
                        assert k.apply(pt) == act_point(piece.element, pt), (str(x), str(y), str(pt))
                        matched += 1
            assert matched >= 2 * k.step_count


def test_step_numbers_start_at_one():
    k = build_swap(w("a1"), w("a2"), 3)
    for j in (0, -1, 4):
        with pytest.raises(ValueError):
            k.pieces_at_step(j)
    for j in (0, -1):
        with pytest.raises(ValueError):
            k.step_element(j)
    assert k.step_element(4) == w("a2 a1 a2 a1 a2 a1 a2 a1")
    assert len(k.pieces_at_step(3)) == 1


def test_exceptional_point_lies_in_every_residual():
    k = build_swap(w("a1"), w("a2"), 6)
    (src, dst) = sorted(k.exceptional, key=str)
    for cx, cy in k.residual_history():
        assert src.truncate(cx.depth) in (cx.base, cy.base)
    # …and its image in the mirrored corridors
    for cx, cy in k.residual_history():
        assert dst.truncate(cy.depth) in (cx.base, cy.base)


def test_swaps_build_no_boundary_point_until_the_ends_are_read(monkeypatch, presentation):
    made = []
    post_init = BoundaryPoint.__post_init__
    monkeypatch.setattr(BoundaryPoint, "__post_init__", lambda pt: made.append(pt) or post_init(pt))
    words = sphere(presentation, 1)
    swaps = [build_swap(x, y, 4) for x in words for y in words]
    assert all(verify_swap(k).ok for k in swaps)
    assert transitivity_check(presentation, 2)
    assert made == []
    # the two ends of an open swap are normalized on first read, once
    k = build_swap(words[0], words[1], 4)
    assert len(k.exceptional) == 2 and k.exceptional is k.exceptional
    assert len(made) == 2


@pytest.mark.parametrize("j", [1, 2, 3])
def test_first_piece_is_the_swaps_first_piece(presentation, j):
    # each witness stage at k = 2j - 1 and 2j moves by the first piece of each of its
    # two swaps, as the swap builds it: into g's shadow (to C(x)'s first child, unmoved,
    # when x == y), g^-1, and back (not at all when the second swap is the identity)
    p = presentation

    def first_piece(x, y, back):
        if x != y:
            return build_swap(x, y, 1).pieces_at_step(1)[0]
        return Piece(Cylinder(x), p.identity(), Cylinder(x) if back else Cylinder(x).children()[0])

    for ambient in ambients(p):
        for k in (2 * j - 1, 2 * j):
            lam = Fraction(p.branching) ** k
            witness = find_witness(lam, ambient, p)
            start, net = witness.stages[0].into_shadow[0], p.identity()
            for stage in witness.stages:
                (x1, y1), g, (x2, y2) = stage.into_shadow, stage.generator, stage.back_into
                assert x1 == start  # where the last stage landed
                into, back = first_piece(x1, y1, False), first_piece(x2, y2, True)
                assert ~g * into.image.base == x2
                net = back.element * ~g * into.element * net
                start = back.image.base
            assert witness.image.cylinders == (Cylinder(start),)
            assert net == witness.net_element
            inverse = find_witness(1 / lam, ambient, p)
            assert inverse.stages == tuple(stage.inverted() for stage in reversed(witness.stages))
            assert inverse.net_element == ~net


def test_pushforward_preserves_cylinder_measures():
    """Images of sub-cylinders through the pieces keep their exact measure."""
    for p in (P30, Presentation(0, 2)):
        words = sphere(p, 2)
        k = build_swap(words[0], words[-1], 5)
        for piece in k.forward_pieces() + k.backward_pieces():
            for sub in piece.domain.descendants(piece.domain.depth + 2):
                image = Cylinder(piece.element * sub.base)
                assert image.measure == sub.measure


def swap_image_of_cylinder(k, c):
    """Exact image of a cylinder under the swap, assembled from the pieces.

    Valid for cylinders no deeper than the materialized corridor: the
    corridor itself maps onto its mirror on the other side, which has the
    same measure, so the image stays exact at any finite step count.
    """
    p = k.presentation
    region = CylinderUnion(p, (c,))
    if k.is_identity:
        return region
    support = CylinderUnion(p, (Cylinder(k.x), Cylinder(k.y)))
    image = region - support
    for piece in k.forward_pieces() + k.backward_pieces():
        met = region & CylinderUnion(p, (piece.domain,))
        for cyl in met:
            image = image | CylinderUnion(p, (Cylinder(piece.element * cyl.base),))
    residual = k.residual
    if residual is not None:
        for here, there in (residual, residual[::-1]):
            overlap = region & CylinderUnion(p, (here,))
            if not overlap.is_empty:
                assert overlap == CylinderUnion(p, (here,)), "cylinder splits the corridor"
                image = image | CylinderUnion(p, (there,))
    return image


def test_pushforward_exactness_invariant():
    """measure(k(c)) == measure(c) for every cylinder down to depth m + J."""
    for p in (P30, Presentation(0, 2)):
        words = sphere(p, 2)
        for x, y in [(words[0], words[-1]), (words[0], words[1]), (words[2], words[2])]:
            k = build_swap(x, y, 4)
            for d in range(1, 2 + 4 + 1):
                for base in sphere(p, d):
                    c = Cylinder(base)
                    image = swap_image_of_cylinder(k, c)
                    assert image.measure == c.measure


def tamper(monkeypatch, step, change):
    """Make the code table's step ``step`` read ``change(element, tiles)`` in place of its codes."""
    real = fullgroup.PiecewiseTranslation._pieces
    monkeypatch.setattr(fullgroup.PiecewiseTranslation, "_pieces",
                        lambda k, j: change(*real(k, j)) if j == step else real(k, j))


def test_verify_reports_tampering_instead_of_raising(monkeypatch):
    k = build_swap(w("a1"), w("a2"), 3)
    # drop the first step's pieces: coverage must fail but verification still returns a report
    tamper(monkeypatch, 1, lambda element, tiles: (element, ()))
    report = verify_swap(k)
    assert not report.ok
    failed = {c.name for c in report.checks if not c.ok}
    assert "covers_support" in failed


def test_verify_reads_the_forward_table_once(monkeypatch, presentation):
    acted, built = [], []
    real_act, real_pieces = fullgroup.act_cylinder, fullgroup.PiecewiseTranslation._pieces

    def counting_act(g, cyl):
        acted.append((g, cyl))
        return real_act(g, cyl)

    def counting_pieces(k, j):
        built.append(j)
        return real_pieces(k, j)

    def backward(k):
        raise AssertionError("the backward table was read")

    monkeypatch.setattr(fullgroup, "act_cylinder", counting_act)
    monkeypatch.setattr(fullgroup.PiecewiseTranslation, "_pieces", counting_pieces)
    monkeypatch.setattr(fullgroup.PiecewiseTranslation, "backward_pieces", backward)
    ones, twos = sphere(presentation, 1), sphere(presentation, 2)
    closing = next(v for v in twos[1:] if v.last_code == twos[0].last_code)
    for x, y, steps in ((ones[0], ones[-1], 4), (twos[0], closing, 1), (ones[0], ones[0], 0)):
        k = build_swap(x, y, 4)
        # the step count and the letter count are closed forms: no piece is built
        assert (k.step_count, k.table_letters > 0) == (steps, steps > 0)
        assert built == []
        assert verify_swap(k).ok
        assert len(acted) == 2 * len(k.forward_pieces())
        assert built == list(range(1, steps + 1))
        acted.clear()
        built.clear()


def test_verify_reports_a_piece_moved_by_the_wrong_element(monkeypatch, presentation):
    ones = sphere(presentation, 1)
    k = build_swap(ones[0], ones[-1], 3)
    # step 2's element moves each step-1 domain one corridor letter past its kept image
    tamper(monkeypatch, 1, lambda element, tiles: (k.step_element(2), tiles))
    report = verify_swap(k)
    assert [c.name for c in report.checks if not c.ok] == ["pieces_act_by_group_elements"]


@pytest.mark.parametrize("step", [1, 2, 3])
def test_verify_reports_a_domain_ending_in_the_corridor_letter(monkeypatch, presentation, step):
    # the step's first domain takes the corridor letter in place of its own: it becomes the corridor
    # left after the step, which holds the later steps' domains, and it leaves its own child bare
    ones = sphere(presentation, 1)
    k = build_swap(ones[0], ones[-1], 3)
    corridor_letter = k._head(0, step).codes[-1]

    def swapped(element, tiles):
        (dom, img), *rest = tiles
        return element, ((dom[:-1] + (corridor_letter,), img), *rest)

    tamper(monkeypatch, step, swapped)
    report = verify_swap(k)
    failed = [c.name for c in report.checks if not c.ok]
    later = ["domains_disjoint", "images_disjoint"] if step < 3 else []
    assert failed == later + ["covers_support", "pieces_act_by_group_elements"]


def test_concurrent_apply_extension_is_safe():
    import threading

    k = build_swap(w("a1"), w("a2"), 1)
    corridor = [BoundaryPoint(Word.parse("a1 " + "a2 a1 " * d + "a3", P30), w("a1 a2"))
                for d in range(1, 9)]
    expected = {str(pt): str(act_point(k.step_element(2 * d + 1), pt))
                for d, pt in zip(range(1, 9), corridor)}
    results = {}
    errors = []

    def worker(pt):
        try:
            results[str(pt)] = str(k.apply(pt))
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(pt,)) for pt in corridor * 2]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert not errors
    assert results == expected


def test_transitivity_examples():
    assert transitivity_check(P30, 1)
    assert transitivity_check(P11, 2)
    assert transitivity_check(P30, 0)


def test_transitivity_all_presentations(presentation):
    assert transitivity_check(presentation, 1)


@pytest.mark.parametrize("max_step", [1, 2, 3])
def test_star_agrees_with_pairwise_oracle(presentation, max_step):
    # the star certificate always builds two steps; the oracle's answer must not depend on its step count
    for m in (0, 1, 2):
        assert transitivity_check(presentation, m) == pairwise_transitivity(presentation, m, max_step)


@pytest.mark.parametrize("broken", range(1, 6))
def test_star_fails_when_one_star_swap_fails(monkeypatch, broken):
    words = sphere(P30, 2)
    real = fullgroup._tiles_support

    def tiles(k):
        return (k.x, k.y) != (words[0], words[broken]) and real(k)

    monkeypatch.setattr(fullgroup, "_tiles_support", tiles)
    assert not transitivity_check(P30, 2)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_star_builds_one_swap_per_other_word(monkeypatch, presentation, m):
    built = []
    real = fullgroup.build_swap

    def counting(x, y, *args):
        built.append((x, y))
        return real(x, y, *args)

    monkeypatch.setattr(fullgroup, "build_swap", counting)
    assert transitivity_check(presentation, m)
    words = sphere(presentation, m)
    assert built == [(words[0], y) for y in words[1:]]


@pytest.mark.parametrize("steps", [1, 2, 5])
def test_table_letters_count_the_piece_table(presentation, steps):
    for m in (1, 2):
        words = sphere(presentation, m)
        for x in words[:3]:
            for y in words:
                k = build_swap(x, y, steps)
                letters = sum(len(pc.domain.base) + len(pc.element) + len(pc.image.base)
                              for pc in k.forward_pieces() + k.backward_pieces())
                assert k.table_letters == letters, (str(x), str(y))


def test_build_swap_validation():
    with pytest.raises(ValueError):
        build_swap(w("a1"), w("a1 a2"))
    with pytest.raises(ValueError):
        build_swap(P30.identity(), P30.identity())
    with pytest.raises(ValueError):
        build_swap(w("a1"), w("a2"), 0)
    with pytest.raises(ValueError):
        build_swap(w("a1"), Word.parse("a1", P11))


def test_piece_table_json_round_trip():
    k = build_swap(w("a1"), w("a2"), 2)
    data = k.to_json()
    assert data["x"] == "a1" and data["y"] == "a2"
    assert data["step_count"] == 2
    assert data["residual"] == "a1 a2 a1"
    assert data["residual_measure"] == "1/12"
    assert len(data["pieces"]) == 4  # two steps, one piece each, both directions
    assert data["exceptional"] == [["e | a1 a2", "e | a2 a1"], ["e | a2 a1", "e | a1 a2"]]
    json.dumps(data)  # serializable


def test_swap_report_json():
    report = verify_swap(build_swap(w("a1"), w("a2"), 3))
    data = report.to_json()
    assert data["ok"] is True
    assert {c["name"] for c in data["checks"]} == {
        "domains_disjoint",
        "images_disjoint",
        "pieces_preserve_measure",
        "covers_support",
        "residual_measures",
        "pieces_act_by_group_elements",
    }


def test_verify_swap_normalises_only_its_two_covers(monkeypatch):
    # each piece's image is act_cylinder's one canonical cylinder, read as it
    # stands; only the covers of C(x) and C(y) that the tiling check builds are normalised
    p = Presentation(4, 0)
    twos = sphere(p, 2)
    k = build_swap(twos[0], twos[-1], 5)
    calls, normalise = [], fullgroup._normalise
    monkeypatch.setattr(fullgroup, "_normalise", lambda q, bases: calls.append(q) or normalise(q, bases))
    monkeypatch.setattr(cylinders, "_normalise", None)
    report = verify_swap(k)
    assert report.ok and not k.closed and k.step_count == 5
    assert len(calls) == 2


def count_objects(monkeypatch, *classes):
    """A list that records the class name of every object of ``classes`` built from now on."""
    made = []
    for cls in classes:
        monkeypatch.setattr(cls, "__init__", lambda obj, *args, init=cls.__init__, name=cls.__name__:
                            made.append(name) or init(obj, *args))
    return made


def test_verify_swap_builds_a_cylinder_only_to_act(monkeypatch, presentation):
    # the checks read the code table: no piece is built, and two cylinders per piece,
    # one each way, only for act_cylinder
    ones, twos = sphere(presentation, 1), sphere(presentation, 2)
    closing = next(v for v in twos[1:] if v.last_code == twos[0].last_code)
    pairs = [(ones[0], ones[-1]), (twos[0], twos[-1]), (twos[0], closing), (ones[0], ones[0])]
    pieces = [len(build_swap(x, y, 4).forward_pieces()) for x, y in pairs]
    made = count_objects(monkeypatch, Piece, Cylinder)
    for (x, y), count in zip(pairs, pieces):
        assert verify_swap(build_swap(x, y, 4)).ok
        assert made.count("Piece") == 0 and made.count("Cylinder") <= 2 * count, (str(x), str(y))
        made.clear()


@pytest.mark.parametrize("p", [P30, Presentation(4, 0)], ids=["s3t0", "s4t0"])
def test_transitivity_builds_no_piece_and_no_cylinder(monkeypatch, p):
    made = count_objects(monkeypatch, Piece, Cylinder)
    assert transitivity_check(p, 2)
    assert made == []
