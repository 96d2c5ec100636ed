"""Exhaustive tower generation, the brute-force oracle for every count.

Generation is level by level: the base is a contiguous run of b dominoes,
and each higher level is a non-empty set of pairwise non-overlapping
positions supported by the level below.  Choosing whole level sets instead
of placing one domino at a time means every shape is produced exactly once,
with no deduplication state; correctness of the position set rests on the
support-rule equivalence checked in the model tests.

The stream order is deterministic: bases ascend, and level sets are visited
in lexicographic order of their position tuples, depth first.

The level sets above a row depend only on that row and the block budget
left, so ``_level_sets`` is memoised on the pair (the hard cap bounds the
memo: about 1100 entries at n = 11).  Levels stay canonical as they grow: a
new level that reaches left of x = 0 shifts the stack through
``TowerShape.from_levels``, which keeps the order of what grows above, so a
leaf is wrapped as ``TowerShape(levels)`` with no rescan.

The walk also carries the column masks of ``model._convex_row`` down,
shifted with the levels.  A row or column gap never closes when a level is
added on top, so once a prefix is non-convex the walk stops stepping them.

The oracle has four entry points: ``walk(n, b=None)`` streams each tower's
levels with its convexity flag, ``enumerate_towers(n, b=None)`` the shapes,
``tower_lines(n, b=None)`` their ``str`` text from the same level sets, and
``census(n)`` counts them in one pass, classifying only convex towers.
``tower_lines`` carries each partial tower's cells as sorted integer keys
x*n + y, merging in each new level's keys, so a leaf only joins texts from
a table.  The streams check their arguments in ``_bases`` when the first
item is asked for.
"""

from __future__ import annotations

from collections import Counter
from functools import cache
from typing import Iterator

from .model import Levels, TowerClass, TowerShape, _convex_row, classify

DEFAULT_HARD_CAP = 12


class CapExceeded(ValueError):
    """Requested size is above the enumeration cap."""


@cache
def _level_sets(below: tuple[int, ...], max_size: int) -> tuple[tuple[int, ...], ...]:
    """Every level that ``below`` supports, of 1..max_size dominoes.

    Positions lie within one cell of a domino below and are pairwise at
    least two cells apart; the tuples come in lexicographic order.
    """
    allowed = sorted({p + dx for p in below for dx in (-1, 0, 1)})
    out: list[tuple[int, ...]] = []

    def rec(start: int, chosen: tuple[int, ...]) -> None:
        for j in range(start, len(allowed)):
            x = allowed[j]
            if chosen and x - chosen[-1] < 2:
                continue
            picked = chosen + (x,)
            if len(picked) <= max_size:
                out.append(picked)
                rec(j + 1, picked)

    rec(0, ())
    return tuple(out)


def _grow(levels: Levels, masks, remaining: int) -> Iterator[tuple[Levels, bool]]:
    # masks: the levels' (seen, below) column masks, None once non-convex
    for chosen in _level_sets(levels[-1], remaining):
        grown = levels + (chosen,)
        state = masks
        if chosen[0] < 0:  # the new level reaches left of x = 0
            grown = TowerShape.from_levels(grown).levels
            if state:
                state = (state[0] << 1, state[1] << 1)
        if state:
            state = _convex_row(*state, grown[-1])
        if remaining == len(chosen):  # a finished leaf: no frame to open
            yield grown, state is not None
        else:
            yield from _grow(grown, state, remaining - len(chosen))


def _bases(n: int, b: int | None) -> range:
    """The base sizes to walk, after the checks both streams share."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if b is not None and b < 1:
        raise ValueError("b must be at least 1")
    if b is not None and b > n:
        raise ValueError("b must not exceed n")
    if n > DEFAULT_HARD_CAP:
        raise CapExceeded(f"n={n} exceeds the enumeration cap {DEFAULT_HARD_CAP}")
    return range(1, n + 1) if b is None else range(b, b + 1)


def walk(n: int, b: int | None = None) -> Iterator[tuple[Levels, bool]]:
    """``(levels, convex)`` for every valid tower of n dominoes, each once.

    ``b`` fixes the base size; None walks every base from 1 to n.
    """
    for base_b in _bases(n, b):
        base = tuple(range(0, 2 * base_b, 2))
        if base_b == n:  # a bare base; _grow yields nothing with no block left
            yield (base,), True
        else:
            yield from _grow((base,), _convex_row(0, 0, base), n - base_b)


def enumerate_towers(n: int, b: int | None = None) -> Iterator[TowerShape]:
    """Every valid tower of n dominoes, each exactly once, as shapes."""
    for levels, _ in walk(n, b):
        yield TowerShape(levels)


def tower_lines(n: int, b: int | None = None) -> Iterator[str]:
    """``str(shape)`` for each shape of ``enumerate_towers(n, b)``, in order."""
    bases = _bases(n, b)  # checked before the table is built
    # Each domino above the base widens the span by at most one cell (a
    # level stays within one cell of the level below on either side, and
    # one domino reaches only one side), so the 2b + (n - b) <= 2n columns
    # give x < 2n; as y < n, the key x*n + y sorts cells by (x, y) and
    # indexes this table.
    texts = [f"{k // n},{k % n}" for k in range(2 * n * n)]

    def walk(row: tuple[int, ...], y: int, keys: list[int], remaining: int):
        for chosen in _level_sets(row, remaining):
            below = keys
            if chosen[0] < 0:  # reaches x = -1: shift as from_levels does
                chosen = tuple(x + 1 for x in chosen)
                below = [k + n for k in keys]
            new = [k for x in chosen for k in (x * n + y, x * n + n + y)]
            grown = sorted(below + new)
            if remaining == len(chosen):
                yield " ".join(map(texts.__getitem__, grown))
            else:
                yield from walk(chosen, y + 1, grown, remaining - len(chosen))

    for base_b in bases:
        keys = [x * n for x in range(2 * base_b)]
        if base_b == n:  # a bare base; walk yields nothing with no block left
            yield " ".join(map(texts.__getitem__, keys))
        yield from walk(tuple(range(0, 2 * base_b, 2)), 1, keys, n - base_b)


def census(n: int) -> Counter[tuple[int, int, TowerClass]]:
    """Every tower of n dominoes counted by (base size, widest row, class)."""
    return Counter(
        (
            len(levels[0]),
            max(map(len, levels)),
            classify(TowerShape(levels)) if convex else TowerClass.NON_CONVEX,
        )
        for levels, convex in walk(n)
    )

