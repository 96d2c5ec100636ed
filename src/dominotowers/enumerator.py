"""Exhaustive tower generation, the brute-force oracle for every count.

Generation is level by level: the base is a contiguous run of b dominoes,
and each higher level is a non-empty set of pairwise non-overlapping
positions supported by the level below.  Choosing whole level sets instead
of placing one domino at a time means every shape is produced exactly once,
with no deduplication state; correctness of the position set rests on the
support-rule equivalence checked in the model tests.

The stream order is deterministic: bases ascend, and level sets are visited
in lexicographic order of their position tuples, depth first.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, Union

from .model import TowerClass, TowerShape, classify

DEFAULT_HARD_CAP = 12


class CapExceeded(ValueError):
    """Requested size is above the configured enumeration cap."""


ClassFilter = Union[TowerClass, str, None]


@dataclass(frozen=True)
class EnumerationRequest:
    """Parameters for one enumeration run.

    ``b`` is a fixed base size or "all"; ``class_filter`` is a TowerClass,
    the string "convex" (everything except NON_CONVEX), or None; ``group_by``
    chooses the census key.
    """

    n: int
    b: int | str = "all"
    class_filter: ClassFilter = None
    group_by: str = "base"
    hard_cap: int = DEFAULT_HARD_CAP

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.b != "all":
            if not isinstance(self.b, int) or self.b < 1:
                raise ValueError("b must be a positive integer or 'all'")
            if self.b > self.n:
                raise ValueError("b must not exceed n")
        if self.group_by not in ("base", "max_row"):
            raise ValueError(f"unknown group_by {self.group_by!r}")

    def bases(self) -> range:
        if self.b == "all":
            return range(1, self.n + 1)
        return range(self.b, self.b + 1)


@dataclass
class ClassCensus:
    """Counts per (group key, class); counts always sum to total."""

    group_by: str
    counts: dict[tuple[int, TowerClass], int] = field(default_factory=dict)
    total: int = 0

    def add(self, key: int, label: TowerClass) -> None:
        self.counts[(key, label)] = self.counts.get((key, label), 0) + 1
        self.total += 1

    def by_group(self, classes: ClassFilter = None) -> dict[int, int]:
        """Counts per group key, restricted to a class or to "convex"."""
        out: dict[int, int] = {}
        for (key, label), count in self.counts.items():
            if not _matches(label, classes):
                continue
            out[key] = out.get(key, 0) + count
        return out


def _matches(label: TowerClass, class_filter: ClassFilter) -> bool:
    if class_filter is None:
        return True
    if class_filter == "convex":
        return label is not TowerClass.NON_CONVEX
    return label is class_filter


def _level_sets(allowed: list[int], max_size: int) -> Iterator[tuple[int, ...]]:
    """Non-empty position tuples with pairwise gaps of at least two cells."""

    def rec(start: int, chosen: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        for j in range(start, len(allowed)):
            x = allowed[j]
            if chosen and x - chosen[-1] < 2:
                continue
            picked = chosen + (x,)
            if len(picked) <= max_size:
                yield picked
                yield from rec(j + 1, picked)

    yield from rec(0, ())


def _grow(levels: tuple[tuple[int, ...], ...], remaining: int
          ) -> Iterator[tuple[tuple[int, ...], ...]]:
    if remaining == 0:
        yield levels
        return
    prev = levels[-1]
    allowed = sorted({p + dx for p in prev for dx in (-1, 0, 1)})
    for chosen in _level_sets(allowed, remaining):
        yield from _grow(levels + (chosen,), remaining - len(chosen))


def enumerate_towers(request: EnumerationRequest) -> Iterator[TowerShape]:
    """Every valid tower matching the request, each exactly once."""
    if request.n > request.hard_cap:
        raise CapExceeded(
            f"n={request.n} exceeds the enumeration cap {request.hard_cap}"
        )
    for b in request.bases():
        base = tuple(2 * i for i in range(b))
        for levels in _grow((base,), request.n - b):
            shape = TowerShape.from_levels(levels)
            if request.class_filter is None or _matches(
                classify(shape), request.class_filter
            ):
                yield shape


def census(request: EnumerationRequest) -> ClassCensus:
    """Classify every enumerated shape and count by (group key, class)."""
    result = ClassCensus(group_by=request.group_by)
    for shape in enumerate_towers(replace(request, class_filter=None)):
        label = classify(shape)
        if not _matches(label, request.class_filter):
            continue
        key = shape.base_b if request.group_by == "base" else shape.max_row_b
        result.add(key, label)
    return result


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
