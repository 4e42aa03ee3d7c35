"""Acceptance suite: every criterion checked exactly, one report line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the report lines.
All arithmetic identities are exact (Fraction equality); the only
statistical checks are the Monte Carlo ones, which use fixed seeds with
pre-verified margins.
"""

import random
import time
from fractions import Fraction

from treeboundary import (
    BoundaryPoint,
    Cylinder,
    CylinderUnion,
    Presentation,
    Word,
    act_cylinder,
    act_point,
    build_swap,
    chi_square,
    classify,
    empirical_rn,
    find_witness,
    fixed_points,
    frequency_sigma,
    power_exponent,
    realized_rn_values,
    rn_table,
    rn_value,
    sample,
    sphere,
    transitivity_check,
)

from conftest import PRESENTATIONS, random_reduced_word, random_union

SEED = 2026


def _report(index: int, name: str, ok: bool, started: float, bound: float) -> None:
    elapsed = time.perf_counter() - started
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {index} [{name}]: {status} ({elapsed:.2f}s, bound {bound:.0f}s)")
    assert ok, f"criterion {index} ({name}) failed"
    assert elapsed < bound, f"criterion {index} exceeded its {bound}s budget ({elapsed:.2f}s)"


def test_criterion_1_measure_axioms():
    started = time.perf_counter()
    ok = True
    for p in PRESENTATIONS:
        for m in range(1, 9):
            ok &= sum(Cylinder(w).measure for w in sphere(p, m)) == 1
        for m in range(0, 8):
            for w in sphere(p, m):
                parent = Cylinder(w)
                ok &= sum(c.measure for c in parent.children()) == parent.measure
    _report(1, "measure axioms, exact", ok, started, 10)


def test_criterion_2_generator_scaling():
    started = time.perf_counter()
    ok = True
    for p in PRESENTATIONS:
        n = p.branching
        for code in range(p.degree):
            g = p.generator(code)
            entries = rn_table(~g, 2).restrict(g)
            ok &= bool(entries) and all(v == n for _, v in entries)
    _report(2, "inverse generator scales its shadow by n", ok, started, 1)


def test_criterion_3_rn_values_are_powers():
    started = time.perf_counter()
    ok = True
    for p in PRESENTATIONS:
        n = p.branching
        for length in range(0, 4):
            for g in sphere(p, length):
                for depth in range(length + 1, 7):
                    for y in sphere(p, depth):
                        ok &= power_exponent(rn_value(g, Cylinder(y)), n) is not None
    rng = random.Random(SEED)
    checked = 0
    for p in PRESENTATIONS:
        for _ in range(50):
            g = random_reduced_word(rng, p, rng.randrange(1, 4))
            h = random_reduced_word(rng, p, rng.randrange(1, 4))
            depth = len(g) + len(h) + 1
            for y in sphere(p, depth):
                cell = Cylinder(y)
                ok &= rn_value(g * h, cell) == rn_value(g, Cylinder(h * y)) * rn_value(h, cell)
            checked += 1
    ok &= checked == 200
    _report(3, "scaling values are exact powers of n; chain rule", ok, started, 60)


def test_criterion_4_swap_construction():
    started = time.perf_counter()
    ok = True
    J = 6
    for p in PRESENTATIONS:
        n = p.branching
        for m in range(1, 4):
            words = sphere(p, m)
            for x in words:
                for y in words:
                    k = build_swap(x, y, J)
                    pieces = k.forward_pieces() + k.backward_pieces()
                    doms = sorted(pc.domain.base.codes for pc in k.forward_pieces())
                    imgs = sorted(pc.image.base.codes for pc in k.forward_pieces())
                    for seq in (doms, imgs):
                        for a, b in zip(seq, seq[1:]):
                            ok &= b[: len(a)] != a
                    ok &= all(pc.domain.measure == pc.image.measure for pc in pieces)
                    if x == y or x.last_code == y.last_code:
                        ok &= k.closed
                    else:
                        hist = k.residual_history()
                        ok &= len(hist) == J
                        for j, (cx, cy) in enumerate(hist, start=1):
                            expected = Fraction(1, p.degree) * Fraction(1, n) ** (m + j - 1)
                            ok &= cx.measure == expected and cy.measure == expected
                        alt_in = Word(p, (p.inverse_code(y.last_code), x.last_code))
                        alt_out = Word(p, (p.inverse_code(x.last_code), y.last_code))
                        expected_pair = {
                            BoundaryPoint(x, alt_in): BoundaryPoint(y, alt_out),
                            BoundaryPoint(y, alt_out): BoundaryPoint(x, alt_in),
                        }
                        ok &= k.exceptional == expected_pair
    _report(4, "swap pieces tile, preserve measure, decay geometrically", ok, started, 60)


def test_criterion_5_transitivity():
    started = time.perf_counter()
    ok = all(transitivity_check(p, m) for p in PRESENTATIONS for m in (0, 1, 2))
    _report(5, "swaps act transitively on cell levels", ok, started, 10)


def test_criterion_6_ratio_witnesses():
    started = time.perf_counter()
    ok = True
    rng = random.Random(SEED)
    for p in PRESENTATIONS:
        n = p.branching
        targets = (Fraction(n), Fraction(n) ** 2, Fraction(1, n), Fraction(1, n * n))
        for _ in range(20):
            ambient = random_union(rng, p)
            ok &= ambient.measure > 0
            for lam in targets:
                w = find_witness(lam, ambient, p)
                ok &= w.found.measure > 0
                ok &= ambient.contains(w.found) and ambient.contains(w.image)
                moved = CylinderUnion.empty(p)
                for cyl in w.found:
                    moved = moved | act_cylinder(w.net_element, cyl)
                ok &= moved == w.image
                for cyl in w.found:
                    depth = max(cyl.depth, len(w.net_element) + 1)
                    ok &= all(rn_value(w.net_element, sub) == lam for sub in cyl.descendants(depth))
    _report(6, "constructive ratio-set witnesses", ok, started, 120)


def test_criterion_7_freeness():
    started = time.perf_counter()
    ok = True
    rng = random.Random(SEED)
    per = 50 // len(PRESENTATIONS) + 1
    checked = 0
    for p in PRESENTATIONS:
        for _ in range(per):
            if checked >= 50:
                break
            g = random_reduced_word(rng, p, rng.randrange(1, 7))
            pts = fixed_points(g)
            ok &= len(pts) <= 2
            ok &= all(act_point(g, q) == q for q in pts)
            if pts:
                cover5 = sum(q.cylinder_at(5).measure for q in pts)
                cover10 = sum(q.cylinder_at(10).measure for q in pts)
                ok &= cover10 == cover5 * Fraction(1, p.branching) ** 5
            checked += 1
    ok &= checked == 50
    _report(7, "nontrivial elements fix a null set of at most two points", ok, started, 10)


def test_criterion_8_monte_carlo():
    started = time.perf_counter()
    ok = True
    N = 10**6
    for p in PRESENTATIONS:
        batch = sample(p, 3, N, seed=SEED)
        counts = batch.cell_counts(2)
        for wrd in sphere(p, 2):
            exact = Cylinder(wrd).measure
            sigma = frequency_sigma(exact, N)
            ok &= abs(counts.get(wrd, 0) / N - float(exact)) < 3 * sigma
        stat, _, threshold = chi_square(batch, 2)
        ok &= stat < threshold
        for code in range(p.degree):
            g = p.generator(code)
            for r in empirical_rn(g, batch):
                ok &= r.within is not None and r.within < 3
    _report(8, "Monte Carlo agrees with exact measure and scaling", ok, started, 60)


def test_criterion_9_classification():
    started = time.perf_counter()
    ok = True
    expected = {(3, 0): "III_{1/2}", (1, 1): "III_{1/2}", (0, 2): "III_{1/3}", (4, 0): "III_{1/3}"}
    for p in PRESENTATIONS:
        report = classify(p)
        ok &= report.label == expected[(p.s, p.t)]
        ok &= report.ok
        data = report.to_json()
        ok &= data["n"] == p.branching and "hyperfiniteness" in data["notes"]
    _report(9, "classification labels with evidence bundles", ok, started, 120)
