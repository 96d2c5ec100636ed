"""Exhaustive tower generation, the brute-force oracle for every count.

Generation is level by level: the base is a contiguous run of b dominoes,
and each higher level is a non-empty set of pairwise non-overlapping
positions supported by the level below.  Choosing whole level sets instead
of placing one domino at a time means every shape is produced exactly once,
with no deduplication state; correctness of the position set rests on the
support-rule equivalence checked in the model tests.

The stream order is deterministic: bases ascend, and level sets are visited
in lexicographic order of their position tuples, depth first.  As no tower
is a prefix of another, each (n, b) stream is strictly increasing as tuples
of base-anchored levels; ``verify`` checks this instead of storing towers.
Each walk is one loop over an explicit stack, as in Redelmeier's polyomino
counter: a frame holds an open node's iterator over its untried level sets
and its state, with the blocks it has left to place.  The root frame holds
the bases and all n blocks, so a base is just the first level and a bare
base (b = n) is an ordinary leaf.  A child with blocks left is pushed and
walked before its next sibling is drawn, so the loop keeps a recursion's
depth-first order without a generator frame per level, and a leaf is
yielded in place.

Coordinates are base-anchored: the base's dominoes sit at x = 0, 2, ...,
2b - 2 for the whole walk, and higher levels may reach left of it, down to
x = b - n; no level is ever translated.  A tower has one base, so these
levels are a normal form: two towers are equal exactly when their levels
are, and ``TowerShape.from_levels`` gives the canonical shape (smallest
x = 0) to the consumers that need one.

The level sets above a row depend only on that row and the block budget
left, so ``_level_sets`` is memoised on the pair (the hard cap bounds the
memo).  It holds the bare levels, and both walks read this one memo; a
child's budget is its frame's budget less the level's size.  Each budget
extends the row's entry one smaller, so a row's budgets share their level
tuples, and the support rule is applied once, at budget 1.  The walk
carries the column masks of ``model._convex_row`` down, bit 0 being column
``ORIGIN`` in every row.  A row or column gap never closes when a level
is added on top, so once a prefix is non-convex the walk stops stepping
them.

The oracle has four entry points: ``walk(n, b=None)`` streams each tower's
anchored levels with its convexity flag, ``enumerate_towers(n, b=None)`` the
canonical shapes, ``tower_lines(n, b=None)`` their ``str`` text from the
same level sets, and ``census(n)`` counts them in one pass, classifying only
convex towers.  ``tower_lines`` carries each partial tower's cells as sorted
integer keys (x - ORIGIN)*DEFAULT_HARD_CAP + y, which hold no tower size,
so each memo below serves every size.  Its frames iterate ``_children``
records, a memo on (row, budget, y) holding, flat in one tuple, four items
per level of ``_level_sets``: the level, its keys at height y
(``_level_keys``), the budget after it and, when that is one domino, the
left-cell keys of the one-domino levels above it (``_last_keys``), else
None.  The records share the level and key memos' tuples, so no child makes
a memo call of its own.  A leaf's smallest key gives its leftmost column,
which picks the text table that reads the keys in canonical position.  Most
towers end in a run of one-domino levels, so a frame left with one domino
pushes no child: an inner loop reads the frame's cell texts once and inserts
each top domino's two texts at their ``bisect`` places among its keys; a top
left of every cell is the new leftmost column, so its table reads the texts
again.  The streams check their arguments when the first item is asked for.
"""

from __future__ import annotations

from bisect import bisect
from collections import Counter
from functools import cache
from operator import itemgetter
from typing import Iterable, Iterator

from .model import Levels, TowerClass, TowerShape, _convex_row, classify

DEFAULT_HARD_CAP = 12
ORIGIN = -DEFAULT_HARD_CAP  # the mask column of bit 0; every level lies right of it


@cache
def _level_sets(below: tuple[int, ...], max_size: int) -> tuple[tuple[int, ...], ...]:
    """Every level of 1..max_size dominoes that ``below`` supports.

    Each domino is within one cell of a domino below and pairwise at least
    two cells apart; the levels come in lexicographic order of their positions.
    Only budget 1 applies the support rule: a larger one is the budget below,
    each largest level followed by its extensions by one domino to its right.
    Callers ask only for budgets of at least 1.
    """
    if max_size == 1:
        return tuple((x,) for x in sorted({p + dx for p in below for dx in (-1, 0, 1)}))
    ones = _level_sets(below, 1)
    out = []
    for level in _level_sets(below, max_size - 1):
        out.append(level)
        if len(level) == max_size - 1:
            out += [level + top for top in ones if top[0] - level[-1] >= 2]
    return tuple(out)


def _bases(n: int, b: int | None) -> list[tuple[int, ...]]:
    """The root's children, the bases, after the checks both streams share."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if b is not None and b < 1:
        raise ValueError("b must be at least 1")
    if b is not None and b > n:
        raise ValueError("b must not exceed n")
    if n > DEFAULT_HARD_CAP:
        raise ValueError(f"n={n} exceeds the enumeration cap {DEFAULT_HARD_CAP}")
    sizes = range(1, n + 1) if b is None else range(b, b + 1)
    return [tuple(range(0, 2 * size, 2)) for size in sizes]


def walk(n: int, b: int | None = None) -> Iterator[tuple[Levels, bool]]:
    """``(levels, convex)`` for every valid tower of n dominoes, each once.

    ``b`` fixes the base size; None walks every base from 1 to n.  The
    levels are base-anchored: the base is ``(0, 2, ..., 2b - 2)`` and higher
    levels may hold negative x, so they are canonical only when none does.
    """
    # A frame is an open node's untried children, levels, masks and block
    # budget: the masks are the levels' (seen, below) column masks, None
    # once non-convex.  The root holds the bases, with no levels, empty
    # masks and budget n.  The break walks a pushed child before the next
    # sibling is drawn, and the parent's iterator resumes after it, so
    # children keep ``_level_sets`` order and the stream stays depth first.
    stack = [(iter(_bases(n, b)), (), (0, 0), n)]
    while stack:
        children, levels, masks, budget = stack[-1]
        for chosen in children:
            grown = levels + (chosen,)
            state = masks and _convex_row(masks, chosen, ORIGIN)
            if len(chosen) < budget:
                left = budget - len(chosen)
                stack.append((iter(_level_sets(chosen, left)), grown, state, left))
                break
            yield grown, state is not None
        else:
            stack.pop()


def enumerate_towers(n: int, b: int | None = None) -> Iterator[TowerShape]:
    """Every valid tower of n dominoes, each exactly once, as shapes."""
    for levels, _ in walk(n, b):
        yield TowerShape.from_levels(levels)


@cache
def _level_keys(level: tuple[int, ...], y: int) -> tuple[int, ...]:
    """The keys of one level's cells at height y, in level order."""
    return tuple((c - ORIGIN) * DEFAULT_HARD_CAP + y for x in level for c in (x, x + 1))


@cache
def _last_keys(below: tuple[int, ...], y: int) -> tuple[int, ...]:
    """Left-cell keys at height y of ``_level_sets(below, 1)``'s levels, in its
    order; the right cell's key is DEFAULT_HARD_CAP more."""
    return tuple(_level_keys(top, y)[0] for top in _level_sets(below, 1))


@cache
def _texts() -> tuple[tuple[str, ...], ...]:
    # A level reaches at most one cell past the level below, on one side per
    # domino, so the leftmost column is above -n, right of ORIGIN, and
    # canonical x < 2n; as y < n <= DEFAULT_HARD_CAP, keys sort by (x, y).
    # Table j reads the keys of a tower whose leftmost column is j + ORIGIN:
    # it pads the canonical texts with j strides that no key reaches.
    xs, ys = range(2 * DEFAULT_HARD_CAP), range(DEFAULT_HARD_CAP)
    cells = tuple(f"{x},{y}" for x in xs for y in ys)
    return tuple(("",) * j * DEFAULT_HARD_CAP + cells for j in range(DEFAULT_HARD_CAP + 1))


def _records(levels: Iterable[tuple[int, ...]], budget: int, y: int) -> tuple:
    """``(level, keys, left, tops)`` flat, four items per level placed out of
    ``budget`` blocks: the level's ``_level_keys`` at height y, the budget
    ``left`` after it and, when that is 1, the ``_last_keys`` above it (else
    None), each the memo's own tuple."""
    out = []
    for level in levels:
        left = budget - len(level)
        tops = _last_keys(level, y + 1) if left == 1 else None
        out += level, _level_keys(level, y), left, tops
    return tuple(out)


@cache
def _children(below: tuple[int, ...], left: int, y: int) -> tuple:
    """``_records`` of ``_level_sets(below, left)``'s levels at height y."""
    return _records(_level_sets(below, left), left, y)


def tower_lines(n: int, b: int | None = None) -> Iterator[str]:
    """``str(shape)`` for each shape of ``enumerate_towers(n, b)``, in order."""
    it = iter(_records(_bases(n, b), n, 0))  # checked before the tables are built
    tables = _texts()
    # walk's stack loop over ``_records``, each frame carrying its level's y
    # and the keys below it
    stack = [(zip(it, it, it, it), 0, [])]
    while stack:
        children, y, keys = stack[-1]
        for chosen, level_keys, left, tops in children:
            grown = [*keys, *level_keys]
            grown.sort()
            if tops:  # every level above is a one-domino leaf
                # the smallest key is in the leftmost column; a tower has
                # at least two keys, so itemgetter gives a tuple, not an item
                texts = tables[grown[0] // DEFAULT_HARD_CAP]
                words = itemgetter(*grown)(texts)
                for low in tops:
                    # the top is above every cell, so it sorts after each
                    # key of its columns; the right cell goes in first, at
                    # its place among the keys below.  A top left of every
                    # cell is the new leftmost column, so its table reads all
                    table, line = texts, list(words)
                    if low < grown[0]:
                        table = tables[low // DEFAULT_HARD_CAP]
                        line = list(itemgetter(*grown)(table))
                    right = low + DEFAULT_HARD_CAP  # the top's right cell
                    line.insert(bisect(grown, right), table[right])
                    line.insert(bisect(grown, low), table[low])
                    yield " ".join(line)
            elif left:
                it = iter(_children(chosen, left, y + 1))
                stack.append((zip(it, it, it, it), y + 1, grown))
                break
            else:
                yield " ".join(itemgetter(*grown)(tables[grown[0] // DEFAULT_HARD_CAP]))
        else:
            stack.pop()


def census(n: int) -> Counter[tuple[int, int, TowerClass]]:
    """Every tower of n dominoes counted by (base size, widest row, class)."""
    return Counter(
        (
            len(levels[0]),
            max(map(len, levels)),
            classify(TowerShape.from_levels(levels)) if convex else TowerClass.NON_CONVEX,
        )
        for levels, convex in walk(n)
    )
