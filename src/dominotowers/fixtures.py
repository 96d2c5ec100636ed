"""Embedded reference tables, as tables or flattened into sequences.

The CSV files under ``data/`` carry the reference count tables verbatim,
including their printed total columns, so comparisons against them never
touch the network.  Loaders return plain integers (or decimal strings for
the theta table, whose cells are rounded values by nature).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from importlib import resources


@dataclass(frozen=True)
class CountTableFixture:
    """One reference count table: rows by n, plus the printed total column."""

    name: str
    max_b: int
    cells: tuple[tuple[int, ...], ...]
    printed_totals: tuple[int, ...]


def _read_csv(name: str) -> list[list[str]]:
    path = resources.files("dominotowers.data").joinpath(name)
    with path.open("r", encoding="ascii", newline="") as handle:
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
