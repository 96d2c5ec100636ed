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
      c(b, n) = sum_m (g(b, m) + [m = 0]) * (2 r(b, n-m) + h(b, n-m)).
  This path is deliberately independent of the series module so the two can
  cross-check each other.

Tables only ever grow: rows b = 1, 2, ... are extended in n by a loop, never
rebuilt, and running sums over i <= b make each new cell O(1).  For m = n - b
positive, h(b, n) = (k*b + 1)*S0_b(m) - k*S1_b(m) and r(b, n) = T_b(m), where
S0_b, S1_b and T_b sum h(i, m), i*h(i, m) and k*r(i, m) + (k-1)*h(i, m).
"""

from __future__ import annotations

FAMILIES = ("g", "h", "r", "c")


class UnsupportedK(ValueError):
    """Block length below 2 has no tower interpretation here."""


class CountTable:
    """Memo table for one (family, k) whose rows only ever grow in n.

    ``_rows[b][n]`` holds values and ``_sums[b]`` running sums; row 0 is all
    zeros.  Row lengths never increase with b.  Growth is unsynchronized:
    callers sharing a table must serialize its growth.
    """

    def __init__(self, family: str, k: int = 2, h_table: "CountTable | None" = None):
        if family not in ("g", "h", "r"):
            raise ValueError(f"unknown family {family!r}")
        if k < 2:
            raise UnsupportedK(f"block length k={k} is not supported")
        self.family = family
        self.k = k
        self._h = h_table
        self._rows: list[list[int]] = [[]]
        self._sums = [(self._rows[0],) * {"g": 0, "h": 2, "r": 1}[family]]

    def value(self, b: int, n: int) -> int:
        if b < 1 or n < 1:
            return 0
        if self.family == "g" and (b < 2 or n < b - 1):
            return 0
        if self.family == "h" and n < b:
            return 0
        if self.family == "r" and n < b + 1:
            return 0
        if b >= len(self._rows) or n >= len(self._rows[b]):
            self.ensure(b, n)
        return self._rows[b][n]

    def ensure(self, max_b: int, max_n: int) -> None:
        """Extend rows 1..max_b through column max_n, lowest row first."""
        if self.family == "r":
            self._h.ensure(max_b, max_n)
        rows, sums = self._rows, self._sums
        rows[0].extend([0] * (max_n + 1 - len(rows[0])))
        while len(rows) <= max_b:
            rows.append([])
            sums.append(tuple([] for _ in sums[0]))
        b = max_b
        while b > 0 and len(rows[b]) <= max_n:
            b -= 1
        for b in range(b + 1, max_b + 1):
            self._extend(b, max_n)

    def _extend(self, b: int, max_n: int) -> None:
        """Append cells to row b through column max_n; row b-1 is long enough."""
        k = self.k
        row = self._rows[b]
        if self.family == "g":
            below = self._rows[b - 1]
            for n in range(len(row), max_n + 1):
                m = n - b + 1
                if m > 0 and b > 1:
                    row.append(row[m] + (k - 1) * below[m])
                else:
                    row.append(int(m == 0 and b > 1))
        elif self.family == "h":
            s0, s1 = self._sums[b]
            below0, below1 = self._sums[b - 1]
            for n in range(len(row), max_n + 1):
                m = n - b
                if m > 0:
                    v = (k * b + 1) * s0[m] - k * s1[m]
                else:
                    v = int(m == 0)
                row.append(v)
                s0.append(below0[n] + v)
                s1.append(below1[n] + b * v)
        else:
            (t,) = self._sums[b]
            (below,) = self._sums[b - 1]
            h_row = self._h._rows[b]
            for n in range(len(row), max_n + 1):
                m = n - b
                v = t[m] if m > 0 else 0
                row.append(v)
                t.append(below[n] + k * v + (k - 1) * h_row[n])


_tables: dict[tuple[str, int], CountTable] = {}


def _table(family: str, k: int) -> CountTable:
    key = (family, k)
    if key not in _tables:
        h_table = _table("h", k) if family == "r" else None
        _tables[key] = CountTable(family, k, h_table)
    return _tables[key]


def g(b: int, n: int) -> int:
    return _table("g", 2).value(b, n)


def h(b: int, n: int) -> int:
    return _table("h", 2).value(b, n)


def r(b: int, n: int) -> int:
    return _table("r", 2).value(b, n)


def c(b: int, n: int) -> int:
    """Convex-tower count via the convolution of g against 2r + h."""
    if b < 1 or n < 0:
        return 0
    total = 0
    for m in range(0, n + 1):
        left = g(b, m) + (1 if m == 0 else 0)
        if left:
            total += left * (2 * r(b, n - m) + h(b, n - m))
    return total


def family_value(family: str, b: int, n: int, k: int = 2) -> int:
    """The count of any family at block length k; c only exists for k=2."""
    if family in ("g", "h", "r"):
        return _table(family, k).value(b, n)
    if family == "c":
        if k != 2:
            raise UnsupportedK("the convex family is only defined for k=2")
        return c(b, n)
    raise ValueError(f"unknown family {family!r}")


def table(family: str, max_n: int, max_b: int, k: int = 2) -> list[list[int]]:
    """Rectangular extract: rows n = 1..max_n, columns b = 1..max_b."""
    if max_n < 1 or max_b < 1:
        raise ValueError("table bounds must be at least 1")
    if family in ("g", "h", "r"):
        t = _table(family, k)
        t.ensure(max_b, max_n)
        rows = t._rows[1 : max_b + 1]
        return [[row[n] for row in rows] for n in range(1, max_n + 1)]
    return [
        [family_value(family, b, n, k) for b in range(1, max_b + 1)]
        for n in range(1, max_n + 1)
    ]
