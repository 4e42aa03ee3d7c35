import random

import pytest
from hypothesis import given, settings, strategies as st

from treeboundary import (
    Cylinder,
    CylinderUnion,
    Presentation,
    ResourceLimitError,
    Word,
    act_point,
    build_swap,
    cuntz_krieger_matrix,
    periodic_extension,
    sample,
    sphere,
    sphere_size,
)

from conftest import (
    PRESENTATIONS,
    brute_force_sphere,
    naive_reduce,
    random_boundary_point,
    random_reduced_word,
    random_union,
)

P30 = Presentation(3, 0)
P11 = Presentation(1, 1)
P02 = Presentation(0, 2)


def test_presentation_invariants():
    assert P30.degree == 3 and P30.branching == 2
    assert P11.degree == 3 and P11.branching == 2
    assert P02.degree == 4 and P02.branching == 3
    with pytest.raises(ValueError):
        Presentation(1, 0)
    with pytest.raises(ValueError):
        Presentation(-1, 2)


def parse_codes(codes, p: Presentation) -> Word:
    """The reduced word of an arbitrary letter-code sequence, through its tokens."""
    return Word.parse(" ".join(p.tokens[c] for c in codes), p)


def test_letter_normalization():
    # order-two generators are their own inverses; b_j and b_j' are distinct letters
    a1 = Word.parse("a1", P30)
    assert ~a1 == a1
    assert a1 * a1 == P30.identity()
    assert P11.code_of_token("b1") != P11.code_of_token("b1'")
    assert ~Word.parse("b1", P11) == Word.parse("b1'", P11)
    assert Word.parse("b1 b1'", P11) == P11.identity()
    assert P11.tokens == ("a1", "b1", "b1'")
    assert Presentation(2, 2).tokens == ("a1", "a2", "b1", "b1'", "b2", "b2'")
    for bad in ("a4", "a1'", "b1", "c1", "a", "a-1"):
        with pytest.raises(ValueError, match="bad letter token"):
            P30.code_of_token(bad)


def test_long_or_non_ascii_letter_tokens_are_refused_briefly():
    # an index is read only when its length fits the generator count, and only in ASCII digits
    for token in ("a" + "1" * 4400, "a" + "1" * 4000, "a²"):
        with pytest.raises(ValueError, match="bad letter token") as caught:
            Word.parse(token, P30)
        message = str(caught.value)
        assert len(message) < 200
        assert "Exceeds the limit" not in message and "invalid literal" not in message
    assert Word.parse("a01 a0002", P30) == Word.parse("a1 a2", P30)
    assert Word.parse("b01'", P11) == Word.parse("b1'", P11)


def test_reduce_examples():
    assert Word.parse("a1 a1", P30) == P30.identity()
    assert Word.parse("", P30) == P30.identity()
    assert Word.parse("a1 a2 a2 a3", P30) == Word.parse("a1 a3", P30)
    assert Word.parse("b1 a1 a1 b1'", P11) == P11.identity()


def test_multiply_invert_examples():
    assert Word.parse("a1 a2", P30) * Word.parse("a2 a3", P30) == Word.parse("a1 a3", P30)
    assert ~Word.parse("a1 b1", P11) == Word.parse("b1' a1", P11)
    x = Word.parse("a1 a2 a1", P30)
    assert x * P30.identity() == x
    assert x * ~x == P30.identity()


def test_word_rejects_unreduced():
    with pytest.raises(ValueError):
        Word(P30, (0, 0))
    with pytest.raises(ValueError):
        Word(P11, (1, 2))  # b1 then b1'


def test_word_checks_letter_by_letter():
    # each letter is range-checked, then checked against its predecessor
    with pytest.raises(ValueError, match="word is not reduced"):
        Word(P30, (0, 0, 7))
    with pytest.raises(ValueError, match="letter code 7 out of range"):
        Word(P30, (0, 7, 7))
    with pytest.raises(ValueError, match="letter code -1 out of range"):
        Word(P02, (-1,))
    with pytest.raises(ValueError, match="word is not reduced"):
        Word(P02, (2, 3, 1))  # b2 then b2'
    # append_code checks the new letter the same way
    with pytest.raises(ValueError, match="letter code 3 out of range"):
        Word(P30, (0,)).append_code(3)
    with pytest.raises(ValueError, match="letter code -1 out of range"):
        Word(P02, (2,)).append_code(-1)
    with pytest.raises(ValueError, match="word is not reduced"):
        Word(P02, (2,)).append_code(3)
    assert P02.inverse_codes == (1, 0, 3, 2)
    assert P11.inverse_codes == (0, 2, 1)


def test_serialization_round_trip():
    for p in PRESENTATIONS:
        for m in range(4):
            for w in sphere(p, m):
                assert Word.parse(str(w), p) == w
    assert str(P30.identity()) == "e"
    assert Word.parse("e", P30) == P30.identity()
    assert str(Word.parse("a1 b1' a2", Presentation(2, 1))) == "a1 b1' a2"


@st.composite
def letter_codes(draw):
    p = draw(st.sampled_from(PRESENTATIONS))
    codes = draw(st.lists(st.integers(0, p.degree - 1), max_size=24))
    return p, tuple(codes)


@given(letter_codes())
def test_reduce_idempotent_and_confluent(data):
    p, codes = data
    word = parse_codes(codes, p)
    # idempotent
    assert parse_codes(word.codes, p) == word
    # confluent: any order of local cancellations reaches the same form
    for seed in range(3):
        assert naive_reduce(codes, p, random.Random(seed)) == word.codes


@given(letter_codes(), st.data())
def test_multiply_length_bounds(data, more):
    p, codes = data
    a = parse_codes(codes, p)
    other = more.draw(st.lists(st.integers(0, p.degree - 1), max_size=24))
    b = parse_codes(other, p)
    prod = a * b
    assert (len(prod) - len(a) - len(b)) % 2 == 0
    assert abs(len(a) - len(b)) <= len(prod) <= len(a) + len(b)


def test_sphere_examples():
    assert sphere_size(P30, 1) == 3
    assert sphere_size(P30, 3) == 12
    assert len(brute_force_sphere(P30, 3)) == 12
    assert sphere_size(P30, 0) == 1
    assert [str(w) for w in sphere(P30, 0)] == ["e"]


@pytest.mark.parametrize("m", range(9))
def test_sphere_matches_brute_force(presentation, m):
    words = sphere(presentation, m)
    assert len(words) == sphere_size(presentation, m)
    assert len(set(words)) == len(words)
    brute = brute_force_sphere(presentation, m)
    assert {w.codes for w in words} == set(brute)
    # the cells below a prefix, in lexicographic order
    for j in range(min(m, 2) + 1):
        for prefix in brute_force_sphere(presentation, j):
            cells = Cylinder(Word(presentation, prefix)).descendants(m)
            assert [c.base.codes for c in cells] == [codes for codes in brute if codes[:j] == prefix]


def test_one_word_per_cell(monkeypatch, presentation):
    built = []
    post_init, reduced = Word.__post_init__, Word._reduced

    def counting(word):
        built.append(word.codes)
        post_init(word)

    def counting_reduced(cls, p, codes):
        built.append(codes)
        return reduced(p, codes)

    root, first = Cylinder(presentation.identity()), Cylinder(presentation.generator(0))
    monkeypatch.setattr(Word, "__post_init__", counting)
    monkeypatch.setattr(Word, "_reduced", classmethod(counting_reduced))
    for m in range(5):
        built.clear()
        words = sphere(presentation, m)
        assert built == [w.codes for w in words]
        for c in (root, first):
            if m >= c.depth:
                built.clear()
                cells = c.descendants(m)
                assert built == [cell.base.codes for cell in cells]


def pass_the_check(words) -> bool:
    """Whether the public constructor accepts every word unchanged: plain int
    letters, each in range and none next to its inverse."""
    return all(all(type(c) is int for c in w.codes) and Word(w.presentation, w.codes) == w
               for w in words)


def test_words_built_by_construction_pass_the_check(presentation):
    p, rng = presentation, random.Random(17)
    for m in range(5):
        assert pass_the_check(sphere(p, m))
    for w in sphere(p, 2):
        assert pass_the_check(cell.base for cell in Cylinder(w).children())
        assert pass_the_check(cell.base for cell in Cylinder(w).descendants(5))
    for _ in range(40):
        union = random_union(rng, p, max_depth=4)
        # the grandchildren of a cylinder normalise to it through its children
        top = Cylinder(random_reduced_word(rng, p, rng.randrange(0, 3)))
        family = CylinderUnion(p, tuple(d for c in top.children() for d in c.children()))
        assert family.cylinders == (top,)
        for u in (union, family, union.complement(), family.complement(), CylinderUnion.empty(p).complement()):
            assert pass_the_check(cyl.base for cyl in u)
    batch = sample(p, 80, 1500, seed=12)
    assert pass_the_check(batch.counts)
    for m in (0, 1, 5, 80):
        assert pass_the_check(batch.cell_counts(m))
    # swap domains and images, open and closed
    ones, twos = sphere(p, 1), sphere(p, 2)
    for x, y in [(ones[0], ones[-1])] + [(twos[0], v) for v in twos[1:]]:
        for steps in range(1, 6):
            pieces = build_swap(x, y, steps).forward_pieces()
            assert pieces and pass_the_check(c.base for pc in pieces for c in (pc.domain, pc.image))


def test_points_check_no_word_again(monkeypatch, presentation):
    # a point's letters are reduced once it is built, so moving, truncating or
    # extending it checks no Word again
    p, rng = presentation, random.Random(23)
    points = [random_boundary_point(rng, p) for _ in range(30)]
    words = [random_reduced_word(rng, p, rng.randrange(0, 6)) for _ in points]
    ones = sphere(p, 1)
    swaps = [build_swap(ones[0], ones[-1]), build_swap(*sphere(p, 2)[:2])]
    checked, post_init = [], Word.__post_init__
    monkeypatch.setattr(Word, "__post_init__", lambda word: (checked.append(word), post_init(word)))
    for point, g in zip(points, words):
        act_point(g, point)
        point.truncate(7)
        point.cylinder_at(5)
        periodic_extension(g)
        for k in swaps:
            k.apply(point)
    assert checked == []


@given(letter_codes(), st.data())
def test_products_and_inverses_pass_the_check(data, more):
    p, codes = data
    a = parse_codes(codes, p)
    b = parse_codes(more.draw(st.lists(st.integers(0, p.degree - 1), max_size=24)), p)
    prod = a * b
    assert pass_the_check([prod, ~a, ~prod, a * ~a, prod.prefix(len(prod) // 2)])
    assert ~a == parse_codes(tuple(p.inverse_code(c) for c in reversed(a.codes)), p)


def test_words_hash_by_their_codes():
    for p in PRESENTATIONS:
        for w in sphere(p, 3):
            parsed, public = Word.parse(str(w), p), Word(p, w.codes)
            assert hash(w) == hash(parsed) == hash(public)
            counts = {w: 1}
            counts[parsed] += 1
            counts[public] += 1
            assert counts == {w: 3}
    # the same codes in two presentations stay distinct keys
    a, b = Word(P30, (0, 1)), Word(Presentation(4, 0), (0, 1))
    assert a != b and hash(a) == hash(b)
    assert len({a: 0, b: 1}) == 2


def test_sphere_is_lexicographic_and_nested(presentation):
    for m in range(1, 5):
        words = sphere(presentation, m)
        assert [w.codes for w in words] == sorted(w.codes for w in words)
        parents = set(sphere(presentation, m - 1))
        for w in words:
            assert w.prefix(m - 1) in parents


def test_sphere_resource_guard():
    with pytest.raises(ResourceLimitError, match="sphere of length 40 has more than 10000000 words"):
        sphere(P30, 40)
    with pytest.raises(ResourceLimitError):
        sphere(P30, 5, limit=10)
    assert len(sphere(P30, 5, limit=None)) == sphere_size(P30, 5)


def test_cuntz_krieger_examples():
    assert cuntz_krieger_matrix(P30) == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    # zeros exactly on the mutually inverse pairs of free letters
    assert cuntz_krieger_matrix(P02) == [
        [1, 0, 1, 1],
        [0, 1, 1, 1],
        [1, 1, 1, 0],
        [1, 1, 0, 1],
    ]


def test_cuntz_krieger_row_sums(presentation):
    matrix = cuntz_krieger_matrix(presentation)
    for row in matrix:
        assert sum(row) == presentation.branching
    # matrix agrees with which two-letter words are reduced
    for u in range(presentation.degree):
        for v in range(presentation.degree):
            reducible = (u, v) in {w for w in brute_force_sphere(presentation, 2)}
            assert matrix[u][v] == (1 if reducible else 0)


@pytest.mark.parametrize("s,t", [(3, 0), (1, 1), (0, 2), (4, 0), (2, 1), (0, 3)])
def test_cuntz_krieger_matrix_is_every_pair_but_the_inverse(s, t):
    p = Presentation(s, t)
    assert cuntz_krieger_matrix(p) == [[int(v != p.inverse_code(u)) for v in range(p.degree)]
                                       for u in range(p.degree)]


def test_random_words_multiply_associatively():
    rng = random.Random(11)
    for p in PRESENTATIONS:
        for _ in range(50):
            a = random_reduced_word(rng, p, rng.randrange(0, 6))
            b = random_reduced_word(rng, p, rng.randrange(0, 6))
            c = random_reduced_word(rng, p, rng.randrange(0, 6))
            assert (a * b) * c == a * (b * c)
            assert ~(a * b) == ~b * ~a
