"""Monte Carlo sampling of the boundary measure and statistical cross-checks.

Sampling follows the exact conditional law of the measure: the first
letter is uniform over the degree many letters, every following letter
uniform over the branching many letters that keep the word reduced.

Randomness comes from counter-based Philox streams (numpy).  Samples are
generated in fixed-size blocks and block b always uses the key
``(seed, b)``, so a batch is a pure function of (presentation, depth,
count, seed) no matter how blocks are scheduled.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain, repeat
from typing import TYPE_CHECKING, Iterator

from .action import act_cylinder
from .cylinders import Cylinder, CylinderUnion
from .words import DEFAULT_CELL_LIMIT, Presentation, ResourceLimitError, Word, clip, sphere, sphere_size

if TYPE_CHECKING:
    import numpy as np

BLOCK = 1 << 16


@dataclass(frozen=True)
class SampleBatch:
    """Depth-d truncations of boundary words drawn under the exact measure: the
    distinct ``rows`` in ascending order, each a word's big-endian letters packed
    into one opaque value whose bytes sort like its codes, with ``row_counts``."""

    presentation: Presentation
    depth: int
    count: int
    seed: int
    rows: np.ndarray = field(compare=False, repr=False)
    row_counts: np.ndarray = field(compare=False, repr=False)

    @cached_property
    def counts(self) -> dict[Word, int]:
        """The distinct words with their counts, in lexicographic order, decoded on first read."""
        p = self.presentation  # every row is a path through the tree, so reduced by construction
        return {Word._reduced(p, codes): c for codes, c in zip(self._codes(self.rows), self.row_counts.tolist())}

    def _codes(self, rows: np.ndarray) -> Iterator[tuple[int, ...]]:
        """The letter codes of some rows of this batch, one tuple per row, decoded as read."""
        letter = "BHIQ"[(self.rows.dtype.itemsize // self.depth).bit_length() - 1]
        return struct.iter_unpack(">%d%s" % (self.depth, letter), rows.view("u1"))

    def _lines(self) -> Iterator[tuple[str, int]]:
        """Every row as text, with its count, in stored order: at one depth lexicographic order is shortlex."""
        tokens, codes = self.presentation.tokens, self._codes(self.rows)
        return ((" ".join([tokens[i] for i in row]), c) for row, c in zip(codes, self.row_counts.tolist()))

    def frequency(self, region: CylinderUnion | Cylinder) -> Fraction:
        if isinstance(region, Cylinder):  # one cylinder is canonical
            region = CylinderUnion._canonical(region.presentation, (region.base.codes,))
        if region.presentation != self.presentation:
            raise ValueError("unions from different presentations")
        if region.depth > self.depth:
            raise ValueError("union is finer than the given truncation depth")
        import numpy as np
        # the rows below a base lie between the base padded with the lowest byte
        # and the base padded with the highest, and canonical bases are disjoint
        width = self.rows.dtype.itemsize
        bases = [np.asarray(b, dtype=">u%d" % (width // self.depth)).tobytes() for b in region._lex]
        low, high = (np.array([b.ljust(width, pad) for b in bases], self.rows.dtype) for pad in (b"\0", b"\xff"))
        before = np.concatenate(([0], np.cumsum(self.row_counts)))  # the draws in the rows before row i
        hits = before[np.searchsorted(self.rows, high, "right")] - before[np.searchsorted(self.rows, low)]
        return Fraction(int(hits.sum()), self.count)

    def cell_counts(self, m: int) -> dict[Word, int]:
        """Counts aggregated over the depth-m prefix (0 <= m <= batch depth), in lexicographic order."""
        if not 0 <= m <= self.depth:
            raise ValueError("aggregation depth must lie between 0 and the batch depth")
        import numpy as np
        # the rows are sorted, so the rows of one prefix are contiguous
        prefixes = self.rows.view("u1").reshape(len(self.rows), -1)[:, :m * self.rows.dtype.itemsize // self.depth]
        starts = np.flatnonzero(np.concatenate(([True], (prefixes[1:] != prefixes[:-1]).any(axis=1))))
        cells = zip(self._codes(self.rows[starts]), np.add.reduceat(self.row_counts, starts).tolist())
        # every row is a path through the tree, so reduced by construction
        return {Word._reduced(self.presentation, codes[:m]): c for codes, c in cells}

    def csv_lines(self) -> Iterator[str]:
        """One line per draw, made as it is read: the distinct words in shortlex order, each as often as drawn."""
        return chain.from_iterable(repeat(text, c) for text, c in self._lines())

    def summary_json(self) -> dict:
        return {
            "s": self.presentation.s,
            "t": self.presentation.t,
            "depth": self.depth,
            "count": self.count,
            "seed": self.seed,
            "frequencies": {text: [c, str(Fraction(c, self.count))] for text, c in self._lines()},
        }


def sample(p: Presentation, depth: int, count: int, seed: int,
           limit: int | None = DEFAULT_CELL_LIMIT) -> SampleBatch:
    """Draw ``count`` independent depth-``depth`` truncations under the measure.

    ``limit`` bounds the letters drawn, ``count * depth``; a larger batch
    raises ``ResourceLimitError`` before anything is drawn.  The batch keeps the
    packed distinct rows and their counts, and builds no ``Word`` until asked.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if count < 1:
        raise ValueError("count must be at least 1")
    if limit is not None and count * depth > limit:
        raise ResourceLimitError(
            f"{clip(count)} draws of depth {clip(depth)} exceed the bound of {clip(limit)} letters")
    import numpy as np  # here, so that importing the package does not load numpy
    degree, n = p.degree, p.branching
    # big-endian letters, so that the bytes of a row sort like its codes
    dtype = np.min_scalar_type(degree - 1).newbyteorder(">")
    inverse = np.asarray(p.inverse_codes, dtype=dtype)
    row = np.dtype((np.void, depth * dtype.itemsize))
    blocks = []
    for block_index in range(0, (count + BLOCK - 1) // BLOCK):
        size = min(BLOCK, count - block_index * BLOCK)
        key = np.array([np.uint64(seed & (2**64 - 1)), np.uint64(block_index)])
        rng = np.random.Generator(np.random.Philox(key=key))
        # a bounded draw below 2**32 takes one 32-bit word, so one uint32 call for the columns after the
        # first draws what a call per column did, in half the memory of int64 (uint8 and uint16 take a
        # buffered path that changes the stream); every draw is below degree and fits the letter dtype
        walk = np.concatenate((rng.integers(0, degree, size=(1, size)),
                               rng.integers(0, n, size=(depth - 1, size), dtype=np.uint32)),
                              dtype=dtype, casting="unsafe")
        for j in range(1, depth):  # follower r of letter u is r below u's inverse and r + 1 from it on
            walk[j] += walk[j] >= inverse[walk[j - 1]]
        # one opaque value per row: np.unique(..., axis=0) on the letters gives
        # the same rows but compares them field by field, about ten times slower
        blocks.append(np.unique(np.ascontiguousarray(walk.T).view(row).ravel(), return_counts=True))
    rows, cnt = blocks[0]
    if len(blocks) > 1:
        rows, where = np.unique(np.concatenate([r for r, _ in blocks]), return_inverse=True)
        cnt = np.zeros(len(rows), dtype=np.int64)
        np.add.at(cnt, where, np.concatenate([c for _, c in blocks]))
    return SampleBatch(p, depth, count, seed, rows, cnt)


@dataclass(frozen=True)
class EmpiricalRN:
    """Empirical versus exact scaling of one element on one cell."""

    cell: Cylinder
    estimate: Fraction | None
    exact: Fraction
    sigma: float

    @property
    def within(self) -> float | None:
        """Deviation from exact in sigma units, None for an empty cell."""
        if self.estimate is None:
            return None
        if self.sigma == 0:
            return 0.0 if self.estimate == self.exact else math.inf
        return abs(float(self.estimate) - float(self.exact)) / self.sigma


def empirical_rn(g: Word, batch: SampleBatch, cell_depth: int = 1) -> list[EmpiricalRN]:
    """Empirical mass ratio of g.cell against cell, with a delta-method sigma.

    The exact ratio equals measure(g.cell)/measure(cell); for cells on
    which the scaling is constant this is the table value.  The sigma
    accounts for the correlation of the two empirical masses.
    """
    p = batch.presentation
    if batch.depth <= len(g) + cell_depth:
        raise ValueError("batch depth must exceed element length plus cell depth")
    out = []
    for cell in map(Cylinder, sphere(p, cell_depth)):
        cell_union = CylinderUnion._canonical(p, (cell.base.codes,))  # one cylinder is canonical
        moved = act_cylinder(g, cell)
        p1, p2, p12 = moved.measure, cell.measure, (moved & cell_union).measure
        m1, m2 = batch.frequency(moved), batch.frequency(cell_union)
        exact = p1 / p2
        if m2 == 0:
            warnings.warn(f"empty cell {cell} in batch; ratio undefined")
            out.append(EmpiricalRN(cell, None, exact, math.nan))
            continue
        N = batch.count
        var1 = float(p1) * (1 - float(p1)) / N
        var2 = float(p2) * (1 - float(p2)) / N
        cov = (float(p12) - float(p1) * float(p2)) / N
        ratio = float(p1) / float(p2)
        var_ratio = (var1 - 2 * ratio * cov + ratio * ratio * var2) / float(p2) ** 2
        sigma = math.sqrt(max(var_ratio, 0.0))
        out.append(EmpiricalRN(cell, m1 / m2, exact, sigma))
    return out


def frequency_sigma(exact: Fraction, count: int) -> float:
    """Standard deviation of an empirical frequency with true mass ``exact``."""
    q = float(exact)
    return math.sqrt(q * (1 - q) / count)


def _gamma_p(a: float, x: float) -> float:
    """The regularized lower incomplete gamma function P(a, x): a power
    series below x = a + 1, one minus a continued fraction (modified
    Lentz) for the upper tail above it."""
    if x <= 0:
        return 0.0
    front = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1:
        term = total = 1 / a
        k = a
        while term > total * 1e-16:
            k += 1
            term *= x / k
            total += term
        return front * total
    tiny = 1e-300
    b = x + 1 - a
    c, d = 1 / tiny, 1 / b
    h = d
    for i in range(1, 1_000_000):
        an = -i * (i - a)
        b += 2
        d = an * d + b
        d = 1 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        step = d * c
        h *= step
        if abs(step - 1) < 1e-15:
            break
    return 1 - front * h


@cache
def chi2_q999(dof: int) -> float:
    """The 0.999 quantile of the chi-square law with ``dof`` degrees of
    freedom: P(dof/2, q/2) = 0.999, solved by bisection to the last bit."""
    if dof < 1:
        raise ValueError("the chi-square law needs at least one degree of freedom")
    a, lo, hi = dof / 2, 0.0, float(dof)
    while _gamma_p(a, hi / 2) < 0.999:
        lo, hi = hi, 2 * hi
    while True:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            return hi
        if _gamma_p(a, mid / 2) < 0.999:
            lo = mid
        else:
            hi = mid


def chi_square(batch: SampleBatch, m: int) -> tuple[float, int, float]:
    """Chi-square statistic of depth-m cell counts against the exact law.

    Returns (statistic, degrees of freedom, 0.999 threshold).
    """
    p = batch.presentation
    observed, cells = batch.cell_counts(m), sphere(p, m)
    expected = float(Fraction(1, sphere_size(p, m))) * batch.count
    stat = sum((observed.get(w, 0) - expected) ** 2 / expected for w in cells)
    dof = len(cells) - 1
    return stat, dof, chi2_q999(dof)
