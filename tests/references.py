"""Reference data and reference implementations the tests compare against.

The CSV files under ``data/`` carry the reference count tables verbatim,
including their printed total columns, so comparisons against them never
touch the network.  Loaders return plain integers (or decimal strings for
the theta table, whose cells are rounded values by nature).

The functions below the loaders are oracles written as the definitions
read, kept apart from the package so the code under test never checks
itself: integer partitions (gap-free ones count the supporting family
``g``) and the cell-level support rule.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

DATA = Path(__file__).parent / "data"


@dataclass(frozen=True)
class CountTableFixture:
    """One reference count table: rows by n, plus the printed total column."""

    name: str
    max_b: int
    cells: tuple[tuple[int, ...], ...]
    printed_totals: tuple[int, ...]


def _read_csv(name: str) -> list[list[str]]:
    with (DATA / name).open("r", encoding="ascii", newline="") as handle:
        return [row for row in csv.reader(handle) if row]


def load_count_table(name: str) -> CountTableFixture:
    rows = _read_csv(name)
    header = rows[0]
    max_b = len(header) - 2
    cells = []
    totals = []
    for row in rows[1:]:
        cells.append(tuple(int(v) for v in row[1 : 1 + max_b]))
        totals.append(int(row[-1]))
    return CountTableFixture(
        name=name, max_b=max_b, cells=tuple(cells), printed_totals=tuple(totals)
    )


def stack_table() -> CountTableFixture:
    return load_count_table("stack_counts.csv")


def skewed_table() -> CountTableFixture:
    return load_count_table("skewed_counts.csv")


def convex_table() -> CountTableFixture:
    return load_count_table("convex_counts.csv")


def theta_table() -> dict[str, list[str]]:
    """Printed theta rows keyed by row label, cells as decimal strings."""
    rows = _read_csv("theta_reference.csv")
    return {row[0]: row[1:] for row in rows[1:]}


def flatten_triangle(table_name: str) -> tuple[int, ...]:
    """Reference triangle read by rows, b = 1..n, as a 1-based sequence."""
    fixture = load_count_table(table_name)
    values: list[int] = []
    for n, row in enumerate(fixture.cells, start=1):
        values.extend(row[: min(n, fixture.max_b)])
    return tuple(values)


def partitions(n: int, cap: int | None = None) -> Iterator[list[int]]:
    """Integer partitions of n in non-increasing part order."""
    cap = n if cap is None else cap
    if n == 0:
        yield []
        return
    for first in range(min(n, cap), 0, -1):
        for rest in partitions(n - first, first):
            yield [first] + rest


def gapfree_partition_census(n: int) -> dict[int, int]:
    """Partitions whose distinct parts form a consecutive run, by largest part."""
    if not 1 <= n <= 40:
        raise ValueError("n must be between 1 and 40")
    out: dict[int, int] = {}
    for parts in partitions(n):
        distinct = sorted(set(parts))
        if distinct == list(range(distinct[0], distinct[-1] + 1)):
            out[parts[0]] = out.get(parts[0], 0) + 1
    return out


def cell_supported(cells: Iterable[tuple[int, int]], domino: tuple[int, int]) -> bool:
    """The support rule as stated: a cell under the domino with left cell (x, y)."""
    x, y = domino
    cs = set(cells)
    return (x, y - 1) in cs or (x + 1, y - 1) in cs
