"""Grid-level model of domino towers.

A domino occupies two horizontally adjacent unit cells.  A tower is a finite
set of dominoes in which the level-0 dominoes form one contiguous horizontal
run (the base) and every higher domino rests on the level below it: a block
with left cell (x, y) needs a block at horizontal offset -1, 0, or +1 on
level y-1, which is the same as asking that at least one of the cells
(x, y-1), (x+1, y-1) is occupied.

Dominoes are given and returned as their left cells (x, y).

Shapes are fixed polyominoes: translations are identified by storing every
shape in canonical position (minimum cell x and minimum level both 0), while
rotations and reflections stay distinct.

Classification vocabulary.  A convex tower splits at its lowest widest row
into a supporting part below and a stack or skewed tower above (``dissect``),
so stacks and skewed towers are the convex towers whose base is a widest row:

* stack        - convex, and every row lies within the base row's span.
* right-skewed - convex, not a stack, the base a widest row, and some cell
                 lies right of the base.  Rectangles are stacks, never skewed.
* left-skewed  - the same with some cell left of the base: the mirror image.
* supporting   - the part of a convex tower strictly below its lowest widest
                 row.  The edges move by (0, 0) or (-1, +1) per level: rows of
                 equal length are exactly aligned, a one-longer row overhangs
                 one cell on each side (both placements are forced by the
                 support rule plus convexity of the surrounding tower).

The paper's construction rule for skewed towers (a stack overhanging its
base's right end by one cell, or a skewed tower whose base's right edge
advances by 0 or 1) is kept in the tests as the reference ``classify`` is
compared against.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from operator import itemgetter
from typing import Iterable, NamedTuple


class TowerClass(Enum):
    STACK = "stack"
    RIGHT_SKEWED = "right-skewed"
    LEFT_SKEWED = "left-skewed"
    SUPPORTING = "supporting"
    CONVEX_OTHER = "convex-other"
    NON_CONVEX = "non-convex"


Levels = tuple[tuple[int, ...], ...]


class TowerShape(tuple):
    """A finite, canonically translated set of dominoes: the tuple of its levels.

    ``shape[y]`` holds the left cells of the dominoes on level y, bottom to
    top, each level sorted and the smallest left cell translated to 0.
    Construction does not enforce tower validity; ``validate`` is the total
    predicate for that.  Equality, hashing and order are the levels' own,
    which for canonical shapes are one-to-one with the sorted cell list.
    The class declares no ``__slots__``: its instances keep a ``__dict__``
    for the cached properties.  Rows given as lists are stored as tuples.
    """

    def __new__(cls, levels: Iterable[Iterable[int]] = ()) -> "TowerShape":
        return tuple.__new__(cls, map(tuple, levels))

    @classmethod
    def from_levels(cls, levels: Levels) -> "TowerShape":
        """Shape from sorted levels, translated so the smallest left cell is 0."""
        try:
            shift = min(map(itemgetter(0), filter(None, levels)))
        except ValueError:  # every level is empty
            raise ValueError("a tower shape needs at least one domino") from None
        # the constructor's work, without its Python-level call
        if shift:
            return tuple.__new__(cls, [tuple([x - shift for x in row]) for row in levels])
        return tuple.__new__(cls, map(tuple, levels))

    @classmethod
    def from_dominoes(cls, dominoes: Iterable[tuple[int, int]]) -> "TowerShape":
        """Shape from the (x, y) left cells of its dominoes, in any position."""
        ds = set(dominoes)
        if not ds:
            raise ValueError("a tower shape needs at least one domino")
        min_y = min(y for _, y in ds)
        rows: list[list[int]] = [[] for _ in range(max(y for _, y in ds) - min_y + 1)]
        for x, y in ds:
            rows[y - min_y].append(x)
        return cls.from_levels(tuple(tuple(sorted(row)) for row in rows))

    @property
    def dominoes(self) -> tuple[tuple[int, int], ...]:
        """The (x, y) left cells of the dominoes, sorted."""
        return tuple(sorted((x, y) for y, row in enumerate(self) for x in row))

    @cached_property
    def cells(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (x + dx, y) for y, row in enumerate(self) for x in row for dx in (0, 1)
        )

    @cached_property
    def convex(self) -> bool:
        """Row and column convexity of the occupied cells, computed once per shape."""
        return _convex(self)

    def mirror(self) -> "TowerShape":
        """Reflection across a vertical axis, re-canonicalized."""
        return TowerShape.from_levels(
            tuple(tuple(-x - 1 for x in reversed(row)) for row in self)
        )

    def __str__(self) -> str:
        """The sorted cells as "x,y", space-separated: ``tower_lines``' reference."""
        return " ".join(f"{x},{y}" for x, y in sorted(self.cells))


def validate(shape: TowerShape) -> bool:
    """Total predicate: contiguous base, no overlaps, every block supported."""
    if not shape or not all(shape):
        return False
    base = shape[0]
    # the constructors shift to canonical position; TowerShape(levels) does not.
    # With the rows checked below, a span of 2b cells is a contiguous base.
    if min(row[0] for row in shape) != 0 or base[-1] - base[0] != 2 * len(base) - 2:
        return False
    below = -1  # every cell of the ground is occupied
    for row in shape:
        cells = 0  # bit x for cell x of this row
        for x in row:
            # an occupied cell at or right of x is an overlap or an unsorted
            # row; the support rule asks for cell x or x + 1 below
            if x < 0 or cells >> x or not (below >> x) & 3:
                return False
            cells |= 3 << x
        below = cells
    return True


def _convex_row(state: tuple[int, int], row: tuple[int, ...], shift: int):
    """One level of the convexity test: the next state, or None if broken.

    A state is ``(seen, below)``, ``(0, 0)`` under the base.  Bit i is
    column shift + i; ``seen`` holds every column occupied so far and
    ``below`` the columns of the level under ``row``.  A gap in ``row``, or
    a column of ``row`` that ``below`` leaves empty and ``seen`` holds,
    breaks convexity, and no level added above mends either.
    """
    if row[-1] - row[0] != 2 * len(row) - 2:
        return None
    seen, below = state
    mask = ((1 << 2 * len(row)) - 1) << (row[0] - shift)
    if mask & seen & ~below:
        return None
    return seen | mask, mask


def _convex(levels: Levels) -> bool:
    if not (levels and all(levels)):
        return False
    shift = min(levels)[0]
    state = (0, 0)
    for row in levels:
        state = _convex_row(state, row, shift)
        if state is None:
            return False
    return True


def _supporting(levels: Levels) -> bool:
    return all(
        row[0] - up[0] == up[-1] - row[-1] in (0, 1) for row, up in zip(levels, levels[1:])
    )


def is_supporting(shape: TowerShape) -> bool:
    """Shape that can sit under a convex tower whose widest row is one longer.

    Row lengths never decrease and grow by at most one per level; rows of
    equal length share a span and a one-longer row overhangs by exactly one
    cell on each side.  Any other placement of an equal-length row breaks
    convexity once the wider row above is added.
    """
    return shape.convex and _supporting(shape)


def classify(shape: TowerShape) -> TowerClass:
    """Exclusive label; precedence handles the overlaps.

    A rectangle is a stack, never skewed.  A skewed shape has a widest row
    as its base, and no edge moves out by more than one cell per level:
    support makes that true of every tower, and it keeps the labels of
    shapes that are not towers.  Supporting shapes that are also stacks (all
    rows equal) keep the earlier label; ``is_supporting`` stays available as
    a standalone predicate.
    """
    if not shape.convex:
        return TowerClass.NON_CONVEX
    lo, hi = shape[0][0], shape[0][-1]
    if all(row[0] >= lo and row[-1] <= hi for row in shape):
        return TowerClass.STACK
    if len(shape[0]) == max(map(len, shape)) and all(
        up[0] >= row[0] - 1 and up[-1] <= row[-1] + 1 for row, up in zip(shape, shape[1:])
    ):
        if any(row[-1] > hi for row in shape):
            return TowerClass.RIGHT_SKEWED
        return TowerClass.LEFT_SKEWED
    if _supporting(shape):
        return TowerClass.SUPPORTING
    return TowerClass.CONVEX_OTHER


class Dissection(NamedTuple):
    """Split of a convex tower at its lowest row of maximum length.

    ``lower`` is None exactly when the widest row is the base, and ``upper``
    is then the tower itself.  Both parts are canonical shapes; ``recombine``
    restores the original because the wider upper base has a single legal
    position on the lower part's top row (one cell of overhang on each side).
    """

    lower: TowerShape | None
    upper: TowerShape


def dissect(shape: TowerShape) -> Dissection:
    if not validate(shape):
        raise ValueError("dissect requires a valid tower")
    if not shape.convex:
        raise ValueError("dissect requires a convex tower")
    widths = [*map(len, shape)]
    level = widths.index(max(widths))
    if level == 0:
        return Dissection(None, shape)
    return Dissection(*map(TowerShape.from_levels, (shape[:level], shape[level:])))


def recombine(dissection: Dissection) -> TowerShape:
    lower = dissection.lower
    upper = dissection.upper
    if lower is None:
        return upper
    dx = lower[-1][0] - 1 - upper[0][0]
    placed = tuple([tuple([x + dx for x in row]) for row in upper])
    return TowerShape.from_levels(lower + placed)
