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

Classification vocabulary, read from the (left, right) edge moves of each
level against the level below, in cells, positive to the right:

* stack        - convex, and every row lies within the base row's span.
* right-skewed - convex; the right edge moves 0 or 1 per level and no row is
                 wider than the one below, until a move of 1 after which
                 every row is nested in the one below (left >= 0, right <= 0):
                 a right-overhanging stack on top.  Rectangles are excluded:
                 at least one column must lie right of the base.
* left-skewed  - mirror image of right-skewed: the same test on (-right, -left).
* supporting   - the part of a convex tower strictly below its lowest widest
                 row.  The edges move by (0, 0) or (-1, +1) per level: rows of
                 equal length are exactly aligned, a one-longer row overhangs
                 one cell on each side (both placements are forced by the
                 support rule plus convexity of the surrounding tower).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable


class TowerClass(Enum):
    STACK = "stack"
    RIGHT_SKEWED = "right-skewed"
    LEFT_SKEWED = "left-skewed"
    SUPPORTING = "supporting"
    CONVEX_OTHER = "convex-other"
    NON_CONVEX = "non-convex"


Levels = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class TowerShape:
    """A finite, canonically translated set of dominoes, stored by level.

    ``levels`` holds the left cells of the dominoes on each level, bottom to
    top, each level sorted and the smallest left cell shifted to 0.
    Construction does not enforce tower validity; ``validate`` is the total
    predicate for that.  Identity, equality, and hashing use ``levels``,
    which for canonical shapes is one-to-one with the sorted cell list.
    """

    levels: Levels

    @classmethod
    def from_levels(cls, levels: Levels) -> "TowerShape":
        """Shape from sorted levels, shifted so the smallest left cell is 0."""
        shift = min(row[0] for row in levels if row)
        if shift:
            levels = tuple(tuple(x - shift for x in row) for row in levels)
        return cls(levels)

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
        return tuple(sorted((x, y) for y, row in enumerate(self.levels) for x in row))

    @property
    def n(self) -> int:
        return sum(len(row) for row in self.levels)

    @cached_property
    def cells(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (x + dx, y) for y, row in enumerate(self.levels) for x in row for dx in (0, 1)
        )

    @property
    def height(self) -> int:
        return len(self.levels)

    @property
    def base_b(self) -> int:
        return len(self.levels[0])

    @property
    def max_row_b(self) -> int:
        return max(len(row) for row in self.levels)

    @property
    def top_row_b(self) -> int:
        return len(self.levels[-1])

    def row_span(self, level: int) -> tuple[int, int]:
        """Lowest and highest occupied cell x on a level (inclusive)."""
        row = self.levels[level]
        return (row[0], row[-1] + 1)

    def mirror(self) -> "TowerShape":
        """Reflection across a vertical axis, re-canonicalized."""
        return TowerShape.from_levels(
            tuple(tuple(-x - 1 for x in reversed(row)) for row in self.levels)
        )

    def __str__(self) -> str:
        """The sorted cells as "x,y", space-separated: ``tower_lines``' reference."""
        return " ".join(f"{x},{y}" for x, y in sorted(self.cells))


def validate(shape: TowerShape) -> bool:
    """Total predicate: contiguous base, no overlaps, every block supported."""
    levels = shape.levels
    if not levels or not all(levels):
        return False
    base = levels[0]
    # the constructors shift to canonical position; TowerShape(levels) does not.
    # With the rows checked below, a span of 2b cells is a contiguous base.
    if min(row[0] for row in levels) != 0 or base[-1] - base[0] != 2 * len(base) - 2:
        return False
    below = -1  # every cell of the ground is occupied
    for row in levels:
        cells = 0  # bit x for cell x of this row
        for x in row:
            # an occupied cell at or right of x is an overlap or an unsorted
            # row; the support rule asks for cell x or x + 1 below
            if x < 0 or cells >> x or not (below >> x) & 3:
                return False
            cells |= 3 << x
        below = cells
    return True


def _convex_row(seen: int, below: int, row: tuple[int, ...], shift: int = 0):
    """One level of the convexity test: ``(seen, mask)``, or None if broken.

    Bit i is column shift + i; ``seen`` holds every column occupied so far.
    A gap in ``row``, or a column of ``row`` that ``below`` leaves empty and
    ``seen`` holds, breaks convexity, and no level added above mends either.
    """
    if row[-1] - row[0] != 2 * len(row) - 2:
        return None
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
        state = _convex_row(*state, row, shift)
        if state is None:
            return False
    return True


def _steps(levels: Levels) -> list[tuple[int, int]]:
    """(left, right) edge moves from each non-empty level to the next."""
    return [(up[0] - row[0], up[-1] - row[-1]) for row, up in zip(levels, levels[1:])]


def _right_skewed(steps: list[tuple[int, int]]) -> bool:
    # Mirrors the recursive construction: above each row sits either a stack
    # whose base overhangs right by one cell, or another skewed tower whose
    # base's right edge advances by 0 or 1.  The sub-base is never wider.
    # A later move of 1 restarts the top stack: in a convex tower the right
    # edge never moves right after moving left, so the nested steps skipped
    # before it kept the right edge and were skew steps too.
    top = False
    for left, right in steps:
        if top and left >= 0 and right <= 0:
            continue
        if left < right or right not in (0, 1):
            return False
        top = right == 1
    return top


def _supporting(steps: list[tuple[int, int]]) -> bool:
    return all(right in (0, 1) and left == -right for left, right in steps)


def is_convex(shape: TowerShape) -> bool:
    """Row convexity and column convexity of the occupied cells."""
    return _convex(shape.levels)


def is_supporting(shape: TowerShape) -> bool:
    """Shape that can sit under a convex tower whose widest row is one longer.

    Row lengths never decrease and grow by at most one per level; rows of
    equal length share a span and a one-longer row overhangs by exactly one
    cell on each side.  Any other placement of an equal-length row breaks
    convexity once the wider row above is added.
    """
    return _convex(shape.levels) and _supporting(_steps(shape.levels))


def classify(shape: TowerShape) -> TowerClass:
    """Exclusive label; precedence handles the overlaps.

    A rectangle is a stack, never skewed.  Supporting shapes that are also
    stacks (all rows equal) or would be caught earlier keep the earlier
    label; ``is_supporting`` stays available as a standalone predicate.
    """
    levels = shape.levels
    if not _convex(levels):
        return TowerClass.NON_CONVEX
    lo, hi = levels[0][0], levels[0][-1]
    if all(row[0] >= lo and row[-1] <= hi for row in levels):
        return TowerClass.STACK
    steps = _steps(levels)
    if _right_skewed(steps):
        return TowerClass.RIGHT_SKEWED
    if _right_skewed([(-right, -left) for left, right in steps]):
        return TowerClass.LEFT_SKEWED
    if _supporting(steps):
        return TowerClass.SUPPORTING
    return TowerClass.CONVEX_OTHER


@dataclass(frozen=True)
class Dissection:
    """Split of a convex tower at its lowest row of maximum length.

    ``lower`` is None exactly when the widest row is the base itself.  Both
    parts are canonical shapes; ``recombine`` restores the original because
    the wider upper base has a single legal position on the lower part's top
    row (one cell of overhang on each side).
    """

    lower: TowerShape | None
    upper: TowerShape
    split_level: int


def dissect(shape: TowerShape) -> Dissection:
    if not validate(shape):
        raise ValueError("dissect requires a valid tower")
    if not is_convex(shape):
        raise ValueError("dissect requires a convex tower")
    levels = shape.levels
    widest = shape.max_row_b
    level = next(y for y, row in enumerate(levels) if len(row) == widest)
    upper = TowerShape.from_levels(levels[level:])
    if level == 0:
        return Dissection(None, upper, 0)
    return Dissection(TowerShape.from_levels(levels[:level]), upper, level)


def recombine(dissection: Dissection) -> TowerShape:
    lower = dissection.lower
    upper = dissection.upper
    if lower is None:
        return upper
    top_lo, _ = lower.row_span(lower.height - 1)
    dx = (top_lo - 1) - upper.row_span(0)[0]
    shifted = tuple(tuple(x + dx for x in row) for row in upper.levels)
    return TowerShape.from_levels(lower.levels + shifted)
