"""The work a ratio witness does, counted: it grows with its output, not faster."""

from fractions import Fraction

import pytest

import treeboundary.cylinders as cylinders
import treeboundary.fullgroup as fullgroup
import treeboundary.ratios as ratios
import treeboundary.words as words
from treeboundary import Cylinder, CylinderUnion, Presentation, Word, find_witness

from conftest import refined_rn_cells
from test_ratios import ambients


@pytest.mark.parametrize("st", [(1, 1), (0, 2), (3, 0), (4, 0)])
def test_witness_word_work_is_linear_in_k(monkeypatch, st):
    # every letter the word products reduce, in the words and in the witness layer,
    # on the whole boundary and on one depth-2 cylinder
    p, letters = Presentation(*st), []
    reduce_codes = words._reduce_codes

    def counting(codes, presentation):
        codes = tuple(codes)
        letters.append(len(codes))
        return reduce_codes(codes, presentation)

    monkeypatch.setattr(words, "_reduce_codes", counting)
    monkeypatch.setattr(ratios, "_reduce_codes", counting)
    counts = []
    for k in (250, 500, 1000):
        letters.clear()
        for ambient in ambients(p):
            find_witness(Fraction(p.branching) ** k, ambient, p)
        counts.append(sum(letters))
    assert counts[1] <= 2.1 * counts[0] and counts[2] <= 2.1 * counts[1], counts


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, -1, -2, -3, -4, -5, -6])
def test_witness_moves_one_cylinder_once(presentation, monkeypatch, k):
    # F is the net mover's preimage of the one cylinder the last stage lands on;
    # no stage moves a set of its own
    moved, act_cylinder = [], ratios.act_cylinder
    monkeypatch.setattr(ratios, "act_cylinder", lambda g, cyl: moved.append(cyl) or act_cylinder(g, cyl))
    for ambient in ambients(presentation):
        moved.clear()
        witness = find_witness(Fraction(presentation.branching) ** k, ambient, presentation)
        assert moved == [(witness.image if k > 0 else witness.found).cylinders[0]]
        assert len(witness.stages) == abs(k)


def test_a_long_witness_writes_no_stage(monkeypatch):
    # the chain of landed cylinders gives F, t(F) and t in closed form; stages are written
    # only when read
    p = Presentation(3, 0)

    def refuse(*args):
        raise AssertionError("find_witness wrote a stage")

    monkeypatch.setattr(ratios.WitnessStage, "__init__", refuse)
    witness = find_witness(Fraction(2) ** 1000, CylinderUnion.parse(p, ["a2"]), p)
    assert len(witness.image.cylinders[0].base) == 1001
    monkeypatch.undo()
    assert len(witness.stages) == 1000


@pytest.mark.parametrize("k", [1, 3, -1, -3])
def test_rn_checks_are_listed_without_cylinders(presentation, monkeypatch, k):
    lam = Fraction(presentation.branching) ** k
    for ambient in ambients(presentation):
        witness = find_witness(lam, ambient, presentation)
        refined = refined_rn_cells(witness.found, witness.net_element)
        monkeypatch.setattr(Cylinder, "descendants", None)
        data = witness.to_json()
        monkeypatch.undo()
        assert data["deviation"] == "0"
        assert data["rn_checks"] == [{"cell": str(Word(presentation, c)), "value": str(lam)} for c, _ in refined]


def test_witness_builds_no_swap(presentation, monkeypatch):
    # each stage takes the first piece of its two swaps in closed form
    ks = [1, 2, 3, 4, 5, 6, -1, -2, -3, -4, -5, -6]
    cases = [(Fraction(presentation.branching) ** k, ambient) for k in ks for ambient in ambients(presentation)]
    before = [find_witness(lam, ambient, presentation) for lam, ambient in cases]

    def refuse(*args):
        raise AssertionError("find_witness built a swap")

    monkeypatch.setattr(fullgroup.PiecewiseTranslation, "__init__", refuse)
    for (lam, ambient), expected in zip(cases, before):
        witness = find_witness(lam, ambient, presentation)
        assert witness == expected
        # (4,0) lists up to 1.6 million rn_checks cells; the smaller listings are compared in full
        if witness.rn_check_count <= 20000:
            assert witness.to_json() == expected.to_json()


def test_witness_normalises_no_union(presentation, monkeypatch):
    # each stage lands on one cylinder, and F is its preimage under the net mover:
    # both are canonical as they stand, so no stage and no preimage normalises
    ks = [1, 2, 3, 4, 5, 6, -1, -2, -3, -4, -5, -6]
    cases = [(Fraction(presentation.branching) ** k, ambient) for k in ks for ambient in ambients(presentation)]
    calls, normalise = [], cylinders._normalise
    monkeypatch.setattr(cylinders, "_normalise", lambda q, bases: calls.append(q) or normalise(q, bases))
    for lam, ambient in cases:
        find_witness(lam, ambient, presentation)
    assert calls == []
