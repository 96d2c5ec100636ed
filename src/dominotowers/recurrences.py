"""Exact big-integer recurrences for the four tower families.

Families, all counted as fixed polyominoes made of n blocks of length k
(k=2 unless stated):

* g(b, n): supporting towers able to carry a base of b blocks; the top row
  has b-1 blocks and row lengths rise without gaps from the base length.
      g(b, n) = g(b, n-b+1) + (k-1) * g(b-1, n-b+1)
  with g(b, b-1) = 1 for b >= 2 and zero outside b >= 2, n >= max(1, b-1).

* h(b, n): stacks with base b (every column meets the base).
      h(b, n) = sum_{i=1..b} (k*(b-i) + 1) * h(i, n-b)
  with h(b, b) = 1 and zero outside n >= b >= 1.

* r(b, n): right-skewed towers with base b.
      r(b, n) = sum_{i=1..b} (k * r(i, n-b) + (k-1) * h(i, n-b))
  which is zero for n < b+1 and already yields r(b, b+1) = k-1 on its own
  (the k=2 value is 1: a single block overhanging the right end).

* c(b, n): convex towers whose widest row has b blocks (k=2 only), computed
  as the coefficient-level convolution
      c(b, n) = sum_m (g(b, m) + [m = 0]) * (2 r(b, n-m) + h(b, n-m))
  over row b of the g, r and h tables: each is grown once through the top
  column, 2r + h is built once, and only the nonzero g terms are summed.
  It is zero for n < b.  This path is deliberately independent of the
  series module so the two can cross-check each other.

Tables only ever grow in n, never rebuilt.  A row is zero left of its first
non-zero column (none for b < 1 or g's row 1); a g or h row then starts with
its 1, and every later cell is O(1) from stored values.

A g row is a running sum along each residue class mod b-1: cell n adds
(k-1) g(b-1, n-b+1) to the cell b-1 columns back.  Fewer than 8 new cells
are appended one at a time, since a read that walks n upward grows each row
one column per call.  A longer extension appends row b-1's (k-1)-weighted
slice and sums it in place: one `accumulate` per class when (b-1)^2 is
below the number of new cells, otherwise one `map(add)` per block of b-1
cells, since each block reads only the block before it.  `series._filter`
runs the same running sums; they are written again here rather than
imported, so that one slip in a shared kernel cannot pass both routes.

With m = n - b > 0 and rows b <= 0 zero, h(b-1, n-1) sums over the same
h(i, m) as h(b, n), so
    h(b, n) - h(b-1, n-1) = h(b, m) + k * sum_{i<b} h(i, m),
and subtracting that step taken one row down the diagonal leaves
    h(b, n) = 2 h(b-1, n-1) - h(b-2, n-2) + h(b, m) + (k-1) h(b-1, m).
One subtraction leaves r(b, n) = r(b-1, n-1) + k r(b, m) + (k-1) h(b, m).
Both grow one cell at a time; at k = 2 the (k-1) term is added unweighted.
"""

from __future__ import annotations

import functools
import itertools
import math
from operator import add

FAMILIES = ("g", "h", "r", "c")


class CountTable:
    """Memo table for one (family, k) whose rows only ever grow in n.

    ``_rows[b][n]`` holds values, zero left of ``_first(b)``.  Row lengths never
    increase with b.  Growth is unsynchronized: callers sharing a table must
    serialize its growth.
    """

    def __init__(self, family: str, k: int = 2):
        if family not in ("g", "h", "r"):
            raise ValueError(f"unknown family {family!r}")
        if k < 2:
            raise ValueError(f"block length k={k} is not supported")
        self.family = family
        self.k = k
        self._offset = {"g": -1, "h": 0, "r": 1}[family]
        self._h = _table("h", k) if family == "r" else None  # r reads h rows
        self._rows: list[list[int]] = [[]]

    def value(self, b: int, n: int) -> int:
        if n < self._first(b):
            return 0
        if b >= len(self._rows) or n >= len(self._rows[b]):
            self.ensure(b, n)
        return self._rows[b][n]

    def _first(self, b: int) -> float:
        """Row b's first non-zero column (g(b, b-1), h(b, b), r(b, b+1)), or inf."""
        first = b + self._offset
        return first if b >= 1 and first >= 1 else math.inf

    def ensure(self, max_b: int, max_n: int) -> None:
        """Extend rows 0..max_b through column max_n, lowest row first."""
        if self.family == "r":
            self._h.ensure(max_b, max_n)
        rows = self._rows
        if len(rows) <= max_b:
            rows.extend([] for _ in range(len(rows), max_b + 1))
        b = max_b
        while b >= 0 and len(rows[b]) <= max_n:
            b -= 1
        for b in range(b + 1, max_b + 1):
            self._extend(b, max_n)

    def _extend(self, b: int, max_n: int) -> None:
        """Append row b's cells through max_n; rows b-1 and b-2 are long enough.

        h and r append one cell at a time, and so does g below 8 new cells;
        a longer g extension is summed per class or per block of b-1 cells
        (`_running_sums`).
        """
        k = self.k
        row = self._rows[b]
        first = self._first(b)
        if len(row) <= first:  # zeros, then the 1 of g and h; r's rule gives r(b, b+1)
            zeros = itertools.repeat(0, min(first, max_n + 1) - len(row))
            seed = (1,) if first <= max_n and self.family != "r" else ()
            # chain has no length hint, so extend leaves the spare room appends would
            row.extend(itertools.chain(zeros, seed))
        prev = self._rows[b - 1]
        if self.family == "g":
            if max_n - len(row) < 7:  # below 8 new cells the loop beats the sums
                for n in range(len(row), max_n + 1):
                    m = n - b + 1
                    row.append(row[m] + (k - 1) * prev[m])
            else:
                _running_sums(row, prev, b - 1, max_n, k - 1)
        elif self.family == "h":
            prev2 = self._rows[max(b - 2, 0)]  # row -1 would wrap to the top
            if k == 2:
                for n in range(len(row), max_n + 1):
                    m = n - b
                    row.append(2 * prev[n - 1] - prev2[n - 2] + row[m] + prev[m])
            else:
                w = k - 1
                for n in range(len(row), max_n + 1):
                    m = n - b
                    row.append(2 * prev[n - 1] - prev2[n - 2] + row[m] + w * prev[m])
        else:
            h_row = self._h._rows[b]
            if k == 2:
                for n in range(len(row), max_n + 1):
                    m = n - b
                    row.append(prev[n - 1] + 2 * row[m] + h_row[m])
            else:
                w = k - 1
                for n in range(len(row), max_n + 1):
                    m = n - b
                    row.append(prev[n - 1] + k * row[m] + w * h_row[m])


def _running_sums(
    row: list[int], lower: list[int], lag: int, max_n: int, weight: int
) -> None:
    """Extend row through max_n by row[n] = row[n - lag] + weight * lower[n - lag]:
    lower's weighted slice, summed per class mod lag or per block of lag cells."""
    start = len(row)
    weighted = lower[start - lag : max_n + 1 - lag]
    row += weighted if weight == 1 else [weight * v for v in weighted]
    if lag * lag < len(weighted):
        for i in range(start, start + lag):
            row[i - lag :: lag] = itertools.accumulate(row[i - lag :: lag])
    else:
        for n in range(start, max_n + 1, lag):
            row[n : n + lag] = map(add, row[n : n + lag], row[n - lag : n])


_table = functools.cache(CountTable)  # one table per (family, k)


def g(b: int, n: int) -> int:
    return _table("g", 2).value(b, n)


def h(b: int, n: int) -> int:
    return _table("h", 2).value(b, n)


def r(b: int, n: int) -> int:
    return _table("r", 2).value(b, n)


def _convex(b: int, columns: range) -> list[int]:
    """c(b, n) for each n in columns (b >= 1, columns ascending and nonempty),
    summed over row b of the g, r and h tables."""
    top = columns[-1]
    g_table, r_table = _table("g", 2), _table("r", 2)
    g_table.ensure(b, top)
    r_table.ensure(b, top)
    g_row, r_row, h_row = g_table._rows[b], r_table._rows[b], _table("h", 2)._rows[b]
    # the rows hold 2r + h = 0 below column b and g(b, 0) = 0, so [m = 0] starts
    # each column; g_row[: top - b + 1] would read the row's end when top < b
    tail = [2 * r + h for r, h in zip(r_row[: top + 1], h_row)]
    terms = [(m, g_row[m]) for m in range(top - b + 1) if g_row[m]]
    out = []
    for n in columns:
        total = tail[n]
        for m, v in terms:
            if m > n - b:
                break
            total += v * tail[n - m]
        out.append(total)
    return out


def c(b: int, n: int) -> int:
    """Convex-tower count: the convolution of row b of g against 2r + h."""
    if b < 1 or n < b:
        return 0
    return _convex(b, range(n, n + 1))[0]


def family_value(family: str, b: int, n: int, k: int = 2) -> int:
    """The count of any family at block length k; c only exists for k=2."""
    if family == "c":
        _require_dominoes(k)
        return c(b, n)
    return _table(family, k).value(b, n)


def _require_dominoes(k: int) -> None:
    if k != 2:
        raise ValueError("the convex family is only defined for k=2")


def rows(family: str, max_b: int, max_n: int, k: int = 2) -> list[list[int]]:
    """Rows b = 1..max_b, ``rows[b-1][n]`` the count at (b, n) for n = 0..max_n.

    A g, h or r row is the table's own list, read-only, and may run past max_n.
    """
    if max_n < 0:
        raise ValueError("max_n must be at least 0")
    if family == "c":
        _require_dominoes(k)
        return [_convex(b, range(max_n + 1)) for b in range(1, max_b + 1)]
    t = _table(family, k)
    t.ensure(max_b, max_n)
    return t._rows[1 : max_b + 1]


def table(family: str, max_n: int, max_b: int, k: int = 2) -> list[list[int]]:
    """Rectangular extract: rows n = 1..max_n, columns b = 1..max_b."""
    if max_n < 1 or max_b < 1:
        raise ValueError("table bounds must be at least 1")
    columns = zip(*rows(family, max_b, max_n, k))
    return [list(cells) for cells in itertools.islice(columns, 1, max_n + 1)]
