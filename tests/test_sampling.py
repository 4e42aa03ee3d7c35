import hashlib
import io
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest

from conftest import random_reduced_word, random_union
from treeboundary import (
    Cylinder,
    CylinderUnion,
    Presentation,
    ResourceLimitError,
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
from treeboundary.sampling import BLOCK

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
    # crossing the block size must not change determinism or totals, and
    # block 0 draws with the same key whatever the count
    from treeboundary.sampling import BLOCK

    count = BLOCK + 17
    batch = sample(P30, 2, count, seed=1)
    assert sum(batch.counts.values()) == count
    first_block = sample(P30, 2, BLOCK, seed=1)
    assert all(batch.counts.get(w, 0) >= c for w, c in first_block.counts.items())
    assert sum(batch.counts.values()) - sum(first_block.counts.values()) == 17


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
    lines = list(batch.csv_lines())
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


def _brute_frequency(batch, region):
    hits = sum(c for w, c in batch.counts.items() if any(w.startswith(cyl.base) for cyl in region))
    return Fraction(hits, batch.count)


def test_frequency_matches_a_scan_of_the_counts(presentation):
    p = presentation
    rng = random.Random(17)
    batch = sample(p, 4, 3000, seed=8)
    regions = [CylinderUnion.empty(p), CylinderUnion.full(p)]
    regions += [random_union(rng, p, max_depth=4, max_parts=6) for _ in range(30)]
    # bases exactly at batch depth, some of them drawn words
    drawn = list(batch.counts)
    for _ in range(10):
        parts = [Cylinder(rng.choice(drawn)) for _ in range(rng.randint(1, 4))]
        parts += [Cylinder(random_reduced_word(rng, p, 4)) for _ in range(rng.randint(0, 3))]
        regions.append(CylinderUnion(p, tuple(parts)))
    regions += [r.complement() for r in regions]
    for region in regions:
        assert batch.frequency(region) == _brute_frequency(batch, region)
    assert batch.frequency(CylinderUnion.full(p)) == 1
    assert batch.frequency(CylinderUnion.empty(p)) == 0
    for region in regions[:12]:
        assert batch.frequency(region) + batch.frequency(region.complement()) == 1


def test_cell_counts_aggregate_prefixes(presentation):
    batch = sample(presentation, 5, 2000, seed=4)
    for m in range(batch.depth + 1):
        expected: dict[tuple[int, ...], int] = {}
        for w, c in batch.counts.items():
            expected[w.codes[:m]] = expected.get(w.codes[:m], 0) + c
        got = batch.cell_counts(m)
        assert {w.codes: c for w, c in got.items()} == expected
        assert all(len(w) == m for w in got)
    for m in (-1, batch.depth + 1):
        with pytest.raises(ValueError):
            batch.cell_counts(m)


def test_counts_decode_the_rows_without_regrouping(monkeypatch, presentation):
    # the rows are already distinct, so the counts are the full-depth cells as they stand
    batch = sample(presentation, 6, 3000, seed=9)
    expected = list(batch.cell_counts(batch.depth).items())
    monkeypatch.setattr(type(batch), "cell_counts", lambda self, m: pytest.fail("counts regrouped the rows"))
    assert list(batch.counts.items()) == expected


@pytest.mark.parametrize("st,depth", [((3, 0), 80), ((0, 2), 64)])
def test_deep_batches_do_not_overflow(st, depth):
    # degree**depth is past 2**63 here; word ids packed into int64 overflowed
    p = Presentation(*st)
    batch = sample(p, depth, 1500, seed=6)
    assert sum(batch.counts.values()) == 1500
    assert all(len(w) == depth for w in batch.counts)  # reducedness: test_words checks sampler words
    assert batch.frequency(CylinderUnion.full(p)) == 1


@pytest.mark.parametrize("st", [(300, 0), (0, 130)])
def test_degree_above_255(st):
    p = Presentation(*st)
    batch = sample(p, 3, 5000, seed=2)
    assert sum(batch.counts.values()) == 5000
    assert all(len(w) == 3 for w in batch.counts)
    assert max(w.codes[0] for w in batch.counts) > 255
    # one block: its distinct words come in lexicographic order
    assert [w.codes for w in batch.counts] == sorted(w.codes for w in batch.counts)
    assert batch.counts == sample(p, 3, 5000, seed=2).counts
    first = batch.cell_counts(1)
    assert sum(first.values()) == 5000 and len(first) <= p.degree


@pytest.mark.parametrize("st,depth", [((3, 0), 80), ((300, 0), 3)])
def test_sample_checks_no_word_again(monkeypatch, st, depth):
    # every drawn row is reduced by construction, so no Word is checked again
    p, checked = Presentation(*st), []
    post_init = Word.__post_init__
    monkeypatch.setattr(Word, "__post_init__", lambda word: (checked.append(word), post_init(word)))
    batch = sample(p, depth, 1500, seed=4)
    cells = batch.cell_counts(1)
    assert checked == []
    monkeypatch.undo()
    for w in [*batch.counts, *cells]:
        assert all(type(c) is int for c in w.codes) and Word(p, w.codes) == w


def _column_by_column(p, depth, count, seed):
    """The sampler before the closed-form walk, kept as a reference: a successor
    table from ``followers``, one draw per column, blocks merged in a tuple dict."""
    import numpy as np

    succ = np.asarray([p.followers((u,)) for u in range(p.degree)])
    totals: dict[tuple[int, ...], int] = {}
    for b in range(-(-count // BLOCK)):
        size = min(BLOCK, count - b * BLOCK)
        rng = np.random.Generator(np.random.Philox(key=np.array([seed, b], dtype=np.uint64)))
        codes = np.empty((size, depth), dtype=np.int64)
        codes[:, 0] = rng.integers(0, p.degree, size=size)
        for col in range(1, depth):
            codes[:, col] = succ[codes[:, col - 1], rng.integers(0, p.branching, size=size)]
        for row in map(tuple, codes.tolist()):
            totals[row] = totals.get(row, 0) + 1
    return [(Word(p, row), c) for row, c in sorted(totals.items())]


@pytest.mark.parametrize("st", [(3, 0), (1, 1), (0, 2), (4, 0), (300, 0), (0, 130)])
@pytest.mark.parametrize("depth", [1, 80])
def test_sampler_matches_the_column_by_column_reference(st, depth):
    p = Presentation(*st)
    for count, seed in ((1500, 0), (1500, 5), (50, 2), (1, 2)):
        assert list(sample(p, depth, count, seed).counts.items()) == _column_by_column(p, depth, count, seed)


@pytest.mark.parametrize("st", [(3, 0), (300, 0)])
@pytest.mark.parametrize("depth", [2, 7])
def test_sampler_matches_the_reference_across_blocks(st, depth):
    # a second block: the merged counts come in lexicographic order over the batch
    p = Presentation(*st)
    assert list(sample(p, depth, BLOCK + 17, 1).counts.items()) == _column_by_column(p, depth, BLOCK + 17, 1)


@pytest.mark.parametrize("depth,count,calls", [(2, 1500, 2), (80, 1500, 2), (2, BLOCK + 17, 4)])
def test_a_block_costs_two_draws_and_no_successor_table(monkeypatch, depth, count, calls):
    import numpy as np

    expected = sample(P30, depth, count, seed=3).counts
    made = []

    class Counting(np.random.Generator):
        def integers(self, *args, **kwargs):
            made.append(args)
            return super().integers(*args, **kwargs)

    def refuse(self, codes):
        raise AssertionError("the sampler read the successor table")

    monkeypatch.setattr(np.random, "Generator", Counting)
    monkeypatch.setattr(Presentation, "followers", refuse)
    assert sample(P30, depth, count, seed=3).counts == expected
    assert len(made) == calls


def test_a_batch_builds_no_word_until_asked(monkeypatch):
    # the batch is its packed rows: drawing, printing and frequencies read them as they are
    regions = [CylinderUnion.parse(P30, ["a1", "a2 a3"]), Cylinder(Word.parse("a3 a1 a2", P30)), CylinderUnion.full(P30)]
    reference = sample(P30, 12, 3000, seed=7)
    lines, summary = list(reference.csv_lines()), reference.summary_json()
    frequencies = [reference.frequency(r) for r in regions]

    def refuse(*args):
        raise AssertionError("a Word was built")

    monkeypatch.setattr(Word, "_reduced", refuse)
    monkeypatch.setattr(Word, "__post_init__", refuse)
    batch = sample(P30, 12, 3000, seed=7)
    assert list(batch.csv_lines()) == lines and batch.summary_json() == summary
    assert [batch.frequency(r) for r in regions] == frequencies
    assert "counts" not in vars(batch)
    monkeypatch.undo()
    assert lines == [str(w) for w, c in batch.counts.items() for _ in range(c)]
    assert list(summary["frequencies"]) == [str(w) for w in batch.counts]


class _Sink(io.TextIOBase):
    """A text stream that keeps only the number of lines written to it."""

    lines = 0

    def write(self, text):
        self.lines += text.count("\n")
        return len(text)


def test_a_deep_csv_batch_holds_only_its_packed_rows(monkeypatch):
    # the batch costs about 1.1 kB a draw, mostly the draw of one block; a Word and a tuple of codes
    # per distinct row took some 0.8 kB a draw more
    from treeboundary.cli import main

    sink = _Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        code = main(["sample", "--s", "3", "--t", "0", "--depth", "150", "--n-samples", "20000", "--format", "csv"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, sink.lines) == (0, 20000)
    assert peak < 28 * 2**20


def test_sample_refuses_batches_above_the_limit():
    with pytest.raises(ResourceLimitError):
        sample(P30, 10, 11, seed=0, limit=109)
    assert sum(sample(P30, 10, 11, seed=0, limit=110).counts.values()) == 11


# sha256 of ``sample --n-samples 300 --format csv|json`` by presentation,
# depth and seed, from the sampler that packed words into int64 ids
GOLDEN = {
    ((3, 0), 2, 1, "csv"):
        "c1d62ad2860bf7e021f98cc2c434dde37911b718b9b5c9b7047c421a510cda4f",
    ((3, 0), 2, 1, "json"):
        "9a57a847ac8a279ac3c5f6796e8947c12a5ef7e85b2faab003523854a2128c3d",
    ((3, 0), 2, 2026, "csv"):
        "c859cc685a10a9be28de3c3dc25177b98365694efe1dc89086d06dd7fd7e174c",
    ((3, 0), 2, 2026, "json"):
        "f47dd1591e747210ddee11e488846c86a5441942049a340450d19e6f77732764",
    ((3, 0), 12, 1, "csv"):
        "070f0ce770f9b0113651e228cfd1ea1930656c0b2baf94ad7f56eb8e5b61f06f",
    ((3, 0), 12, 1, "json"):
        "debceb9469976105ee2e56a94241d93a4998b77f868b1e6d44290a9c471ea6ad",
    ((3, 0), 12, 2026, "csv"):
        "d95ad112582a1902583d47ae04a67980bcd64c7e9908bd3263e8d50a613ef3e9",
    ((3, 0), 12, 2026, "json"):
        "7666c2d535dec3da24da1f579da71a11355f658a4f26df03f78cf0de2fb0da4c",
    ((3, 0), 24, 1, "csv"):
        "82799aa5219c615b26c2e2de0aa1156b3224bcecce0d7bf03452810549ed3a97",
    ((3, 0), 24, 1, "json"):
        "989132f063d7edf5f1a1d4f8a30eb51219e248db34a4d229a64653062f6eb8fc",
    ((3, 0), 24, 2026, "csv"):
        "72fd7056efc159833a17ea90e4bd796317f9038d35b667fc1841162ad7a7bbc7",
    ((3, 0), 24, 2026, "json"):
        "ac6b35785bf11855b004cd03b81e5dc0a80dd62ea0ff85d8c492ae9e5c35a3e0",
    ((1, 1), 2, 1, "csv"):
        "645df56e7d99ed9a913c66b1dfb39cec48d8fd10b01d82557c87c2ebc3796004",
    ((1, 1), 2, 1, "json"):
        "a9c12d5ae48af9080ef2d7aec2fea929882455882c06ea76ef3dfaef613cf2c9",
    ((1, 1), 2, 2026, "csv"):
        "6fd761e364dc67c673f4f30d3ade27bf20f5ccca2155b5116764d16c0ea25a30",
    ((1, 1), 2, 2026, "json"):
        "888c6addaa7f9fda66a94c6259fd9cf977cc283cef2832255b4944d9c50f5797",
    ((1, 1), 12, 1, "csv"):
        "fd0ddaea9f973896590717db3b90cd666ba6bdb2a5895709327fae760989fde9",
    ((1, 1), 12, 1, "json"):
        "e13a759a2c7b895886eb06faa5ba27985effe8eb40d3a65dccb2aaa59a58c302",
    ((1, 1), 12, 2026, "csv"):
        "c8a9b6be3ba52acf50d37823f770ece2c5b6255e2f43debbe1e20d1ae478a287",
    ((1, 1), 12, 2026, "json"):
        "1bbcd751b17706f15d908edd6d8c9a9aed66bfc57c2efeeaad203c9b560770bd",
    ((1, 1), 24, 1, "csv"):
        "00968cc25c80a83d650141c8e3f68397ea485f0c6917893a4a75020919e603cd",
    ((1, 1), 24, 1, "json"):
        "c1f37e6b34df1af0edd1c622906f3c42a9a9963d608c8e2934b525a491bc997e",
    ((1, 1), 24, 2026, "csv"):
        "da50c1b51960f8bb984e4915236dd364a8e9093719b120e46ee626376cbe1a95",
    ((1, 1), 24, 2026, "json"):
        "695e6e801c9f92b003e3aaed71912679de809c1bf0f6513c2ae0f38ab7f7c23f",
    ((0, 2), 2, 1, "csv"):
        "fbc03356a8314d77ff0e9d218fbec373057c1684c00fe7e13b700d82c08ff267",
    ((0, 2), 2, 1, "json"):
        "3c205634fdcb1c33966207f6c251bb40a491f6f2164142b85387cb854111144f",
    ((0, 2), 2, 2026, "csv"):
        "3bc3e2b2c8e8152220fe344c21f90c482567564dfacd498a960644e5bd4dbad0",
    ((0, 2), 2, 2026, "json"):
        "9f77a622436d9cc0974073a6d55b5fcc0dd371aa95e6ef2b5d9e0e86b99204be",
    ((0, 2), 12, 1, "csv"):
        "5f7f87dfa5b54912ffc831698b61aa19822d599c07458ee26ff91c8e978a2df3",
    ((0, 2), 12, 1, "json"):
        "5f35d8792fcb3884b0abd2566d48dbfd19fbace692515a3869e3fadb588c9320",
    ((0, 2), 12, 2026, "csv"):
        "ff92d73e8ace2f1d5104727927fcc27dd7351588abb2e06bcb38d26a0c2c3c9d",
    ((0, 2), 12, 2026, "json"):
        "e831eaca83c1d53542c005f0f741359585ef0d30edc63cfd4fca9f2db7fc94d3",
    ((0, 2), 24, 1, "csv"):
        "2ddd9700f15337d9358a76733594257fbc7c9ded0202b8f3e3d64d241949b22f",
    ((0, 2), 24, 1, "json"):
        "4e9424b7eeca057def81ac6c2a6cb29ad979f17d1fe3864a9942e2f41f979630",
    ((0, 2), 24, 2026, "csv"):
        "38e0f15d7e344370bf647af2ed00b16448d3963e4a83947128faf6582980732c",
    ((0, 2), 24, 2026, "json"):
        "5f066663cc0c57574de87dc8b56240cf6681bed0d2259d69472fbb56bacdebe2",
    ((4, 0), 2, 1, "csv"):
        "359eba14807dc3e2fa196a503cb06bb44c54cec9be8ded22b1dc073f68b12b18",
    ((4, 0), 2, 1, "json"):
        "110363fd8144301bf661c26beefc38181025f07dcd0bce681accea794cee3347",
    ((4, 0), 2, 2026, "csv"):
        "8a5dbbdaead14d028c12e1ae96b73730b61d30fdd6aca01fd8326b3320df0a07",
    ((4, 0), 2, 2026, "json"):
        "adcc352f313f9b00890fcccf8557a07aecc4d014486eeb13d87a92f4e982e092",
    ((4, 0), 12, 1, "csv"):
        "6356433c8ac6158e2e74817c3c04f5b6aea005334649e82f1bb5e7743db34735",
    ((4, 0), 12, 1, "json"):
        "03da4dc17080aed0ea13fe69ea1d813a7c83902df9ae70aac2b7891bf546b1ac",
    ((4, 0), 12, 2026, "csv"):
        "1af7473bc241478878f79f65b00dd44fe62fbe98ad5beddec9cbc88507a7fecc",
    ((4, 0), 12, 2026, "json"):
        "5a6a0144805e800680837b9c4b701afeb28d65f4405f6912dc637e662c97ed6d",
    ((4, 0), 24, 1, "csv"):
        "f3e21bda0f42e3d8eed30610fd528d125fbfc96ee3322622baf1c8bbe98eec18",
    ((4, 0), 24, 1, "json"):
        "4ff1f1014d104cd600aedd586dca4ad715ae88f00bf35dd010ea2dd8c0b50693",
    ((4, 0), 24, 2026, "csv"):
        "05481fed975ea5991cb0bd3738a1626aab21a003ced9fd8257e94fb6a416d694",
    ((4, 0), 24, 2026, "json"):
        "d673174996c980e71fc6a5b42c7abd4cf62708f64cbc7dac4fc5b1f95712c9bd",
}


@pytest.mark.parametrize("key", sorted(GOLDEN), ids=lambda k: "s{}t{}-d{}-seed{}-{}".format(*k[0], *k[1:]))
def test_sample_output_is_byte_identical(capsys, key):
    from treeboundary.cli import main

    (s, t), depth, seed, fmt = key
    code = main(["sample", "--s", str(s), "--t", str(t), "--depth", str(depth),
                 "--n-samples", "300", "--seed", str(seed), "--format", fmt])
    assert code == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == GOLDEN[key]


# 0.999 chi-square quantiles to four decimals, from a printed table
CHI2_TABLE = {
    1: 10.8276, 2: 13.8155, 3: 16.2662, 4: 18.4668, 5: 20.5150, 6: 22.4577,
    7: 24.3219, 8: 26.1245, 9: 27.8772, 10: 29.5883, 11: 31.2641, 12: 32.9095,
}


def test_chi2_quantile_matches_the_table():
    from treeboundary.sampling import chi2_q999

    for dof, q in CHI2_TABLE.items():
        assert round(chi2_q999(dof), 4) == q
    assert chi2_q999(1000) == pytest.approx(1143.917, abs=1e-3)
    with pytest.raises(ValueError):
        chi2_q999(0)


def test_chi_square_at_depth_three():
    p = Presentation(4, 0)
    batch = sample(p, 3, N, seed=SEED)
    stat, dof, threshold = chi_square(batch, 3)
    assert dof == 35
    assert stat < threshold
