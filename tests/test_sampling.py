import io
from fractions import Fraction

import pytest

from treeboundary import (
    Cylinder,
    CylinderUnion,
    Presentation,
    Word,
    build_swap,
    chi_square,
    empirical_rn,
    frequency_sigma,
    periodic_extension,
    rn_table,
    sample,
    sphere,
)

P30 = Presentation(3, 0)

N = 10**6
SEED = 2026


def test_sampled_words_are_reduced_and_deterministic():
    batch = sample(P30, 4, 5000, seed=3)
    assert sum(batch.counts.values()) == 5000
    for w in batch.counts:
        assert len(w) == 4  # Word construction would have rejected unreduced codes
    again = sample(P30, 4, 5000, seed=3)
    assert again.counts == batch.counts
    other = sample(P30, 4, 5000, seed=4)
    assert other.counts != batch.counts


def test_block_boundaries_do_not_skew():
    # crossing the block size must not change determinism or totals
    from treeboundary.sampling import BLOCK

    count = BLOCK + 17
    batch = sample(P30, 2, count, seed=1)
    assert sum(batch.counts.values()) == count


def test_depth_one_frequency_within_three_sigma():
    batch = sample(P30, 3, N, seed=SEED)
    freq = batch.frequency(Cylinder(Word.parse("a1", P30)))
    sigma = frequency_sigma(Fraction(1, 3), N)
    assert abs(float(freq) - 1 / 3) < 3 * sigma


def test_empirical_rn_close_to_exact():
    batch = sample(P30, 3, N, seed=SEED)
    g = Word.parse("a1", P30)
    results = empirical_rn(g, batch)
    table = rn_table(g, 2)
    for r in results:
        assert r.within is not None and r.within < 3
        constants = {v for _, v in table.restrict(r.cell.base)}
        assert constants == {r.exact}
    ident = empirical_rn(P30.identity(), batch)
    assert all(r.exact == 1 and r.estimate == 1 for r in ident)


def test_empirical_rn_validates_depth():
    batch = sample(P30, 2, 100, seed=0)
    with pytest.raises(ValueError):
        empirical_rn(Word.parse("a1", P30), batch, cell_depth=1)


def test_chi_square_below_threshold(presentation):
    batch = sample(presentation, 2, N, seed=SEED)
    stat, dof, threshold = chi_square(batch, 2)
    assert dof == len(sphere(presentation, 2)) - 1
    assert stat < threshold


def test_pushforward_through_swap_moves_mass_exactly():
    p = P30
    batch = sample(p, 6, 10**4, seed=5)
    k = build_swap(Word.parse("a1", p), Word.parse("a2", p), 4)
    pushed: dict[Word, int] = {}
    for w, c in batch.counts.items():
        moved = k.apply(periodic_extension(w)).cylinder_at(6).base
        pushed[moved] = pushed.get(moved, 0) + c

    def mass(counts, letter):
        return sum(c for w, c in counts.items() if w.codes[0] == letter)

    assert mass(pushed, 1) == mass(batch.counts, 0)  # a2-mass after = a1-mass before
    assert mass(pushed, 0) == mass(batch.counts, 1)
    assert mass(pushed, 2) == mass(batch.counts, 2)


def test_csv_and_summary_outputs():
    batch = sample(P30, 2, 50, seed=9)
    buf = io.StringIO()
    batch.write_csv(buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 50
    assert all(len(Word.parse(line, P30)) == 2 for line in lines)
    summary = batch.summary_json()
    assert summary["count"] == 50 and summary["seed"] == 9
    assert sum(v[0] for v in summary["frequencies"].values()) == 50


def test_frequency_checks_union_depth():
    batch = sample(P30, 2, 100, seed=1)
    deep = CylinderUnion.parse(P30, ["a1 a2 a3"])
    with pytest.raises(ValueError):
        batch.frequency(deep)
