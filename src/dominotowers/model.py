"""Grid-level model of domino towers.

A domino occupies two horizontally adjacent unit cells.  A tower is a finite
set of dominoes in which the level-0 dominoes form one contiguous horizontal
run (the base) and every higher domino rests on the level below it: a block
with left cell (x, y) needs a block at horizontal offset -1, 0, or +1 on
level y-1, which is the same as asking that at least one of the cells
(x, y-1), (x+1, y-1) is occupied.

Shapes are fixed polyominoes: translations are identified by storing every
shape in canonical position (minimum cell x and minimum level both 0), while
rotations and reflections stay distinct.

Classification vocabulary:

* stack        - convex, and every occupied column reaches the base row.
* right-skewed - convex, and built bottom-up by repeatedly placing the next
                 row's right edge 0 or 1 cells further right, finishing with
                 a right-overhanging stack on top.  Equivalently, the mirror
                 image of a left-skewed tower.  Rectangles are excluded: at
                 least one column must lie right of the base.
* left-skewed  - mirror image of right-skewed.
* supporting   - the part of a convex tower strictly below its lowest widest
                 row.  Row lengths grow by 0 or 1 dominoes per level; rows of
                 equal length are exactly aligned, a one-longer row overhangs
                 one cell on each side (both placements are forced by the
                 support rule plus convexity of the surrounding tower).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable


@dataclass(frozen=True, order=True)
class Domino:
    """One block; occupies cells (x, y) and (x+1, y)."""

    x: int
    y: int

    @property
    def cells(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return ((self.x, self.y), (self.x + 1, self.y))


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
    def from_dominoes(cls, dominoes: Iterable[Domino]) -> "TowerShape":
        ds = set(dominoes)
        if not ds:
            raise ValueError("a tower shape needs at least one domino")
        min_y = min(d.y for d in ds)
        rows: list[list[int]] = [[] for _ in range(max(d.y for d in ds) - min_y + 1)]
        for d in ds:
            rows[d.y - min_y].append(d.x)
        return cls.from_levels(tuple(tuple(sorted(row)) for row in rows))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "TowerShape":
        return cls.from_dominoes(Domino(x, y) for x, y in pairs)

    @property
    def dominoes(self) -> tuple[Domino, ...]:
        return tuple(
            sorted(Domino(x, y) for y, row in enumerate(self.levels) for x in row)
        )

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
        # Dominoes on a level are two or more cells apart (validate's rule;
        # overlapping ones would list a shared cell twice), so the cells need
        # no set.  As 0 <= y < h, sorting the integers x*h + y sorts the cells
        # by (x, y); each key's "x,y" text comes from a list kept per height
        # h, extended as wider shapes need it.
        h = len(self.levels)
        keys = [x * h + y for y, row in enumerate(self.levels) for x in row]
        keys += [k + h for k in keys]
        keys.sort()
        if not (keys and 0 <= keys[0] <= keys[-1] < _CELL_TEXT_CAP):
            return " ".join(f"{k // h},{k % h}" for k in keys)
        texts = _CELL_TEXTS.setdefault(h, [])
        if keys[-1] >= len(texts):
            texts.extend(f"{k // h},{k % h}" for k in range(len(texts), keys[-1] + 1))
        return " ".join(map(texts.__getitem__, keys))


_CELL_TEXTS: dict[int, list[str]] = {}  # height h -> "x,y" at index x*h + y
_CELL_TEXT_CAP = 1024  # keys past it (or below 0) are formatted one by one


def _rests_on(left_cells_below: set[int], x: int) -> bool:
    return any(x + dx in left_cells_below for dx in (-1, 0, 1))


def offset_supported(left_cells_below: Iterable[int], domino: Domino) -> bool:
    """Support via the three-offset rule: a block at -1, 0, or +1 below."""
    return _rests_on(set(left_cells_below), domino.x)


def cell_supported(cells: Iterable[tuple[int, int]], domino: Domino) -> bool:
    """Support via occupancy of either cell directly underneath."""
    cs = set(cells)
    return (domino.x, domino.y - 1) in cs or (domino.x + 1, domino.y - 1) in cs


def validate(shape: TowerShape) -> bool:
    """Total predicate: contiguous base, no overlaps, every block supported."""
    levels = shape.levels
    if not levels or not all(levels):
        return False
    # the constructors shift to canonical position; TowerShape(levels) does not
    if min(row[0] for row in levels) != 0:
        return False
    for row in levels:
        for a, b in zip(row, row[1:]):
            if b - a < 2:  # overlapping cells on one level
                return False
    base = levels[0]
    if any(b - a != 2 for a, b in zip(base, base[1:])):
        return False
    for below, row in zip(levels, levels[1:]):
        below_set = set(below)
        if not all(_rests_on(below_set, x) for x in row):
            return False
    return True


Spans = list[tuple[int, int]]


def _profile(levels: Levels) -> tuple[Spans, list[int]]:
    """Row spans (as ``row_span``) and domino counts, bottom to top."""
    return [(row[0], row[-1] + 1) for row in levels], [len(row) for row in levels]


def _solid_rows(levels: Levels) -> bool:
    return all(row and row[-1] - row[0] == 2 * (len(row) - 1) for row in levels)


def _convex(levels: Levels) -> bool:
    if not _solid_rows(levels):  # also rules out an empty level
        return False
    # One bitmask per solid row, bit i for column shift + i.  A column that a
    # row occupies, the level below leaves empty and an earlier level
    # occupied is a gap.
    shift = min(levels, default=(0,))[0]
    seen = below = 0
    for row in levels:
        mask = ((1 << 2 * len(row)) - 1) << (row[0] - shift)
        if mask & seen & ~below:
            return False
        seen |= mask
        below = mask
    return True


def _on_base(spans: Spans) -> bool:
    lo, hi = spans[0]
    return all(a >= lo and b <= hi for a, b in spans)


def _reflected(spans: Spans) -> Spans:
    """Spans of the mirror image, up to translation."""
    return [(-hi, -lo) for lo, hi in spans]


def _nested_above(spans: Spans, start: int) -> bool:
    return all(
        spans[y + 1][0] >= spans[y][0] and spans[y + 1][1] <= spans[y][1]
        for y in range(start, len(spans) - 1)
    )


def _right_skew_from(spans: Spans, lengths: list[int], y: int) -> bool:
    # Mirrors the recursive construction: above row y sits either a stack
    # whose base overhangs right by one cell, or another skewed tower whose
    # base's right edge advances by 0 or 1.  The sub-base is never wider.
    if len(spans) - y < 2:
        return False
    if lengths[y + 1] > lengths[y]:
        return False
    step = spans[y + 1][1] - spans[y][1]
    if step == 1 and _nested_above(spans, y + 1):
        return True
    return step in (0, 1) and _right_skew_from(spans, lengths, y + 1)


def _supporting_steps(spans: Spans, lengths: list[int]) -> bool:
    for y in range(len(spans) - 1):
        step = lengths[y + 1] - lengths[y]
        lo, hi = spans[y]
        if step not in (0, 1) or spans[y + 1] != (lo - step, hi + step):
            return False
    return True


def is_convex(shape: TowerShape) -> bool:
    """Row convexity and column convexity of the occupied cells."""
    return _convex(shape.levels)


def is_stack(shape: TowerShape) -> bool:
    """Convex with every occupied column meeting the base row."""
    return _convex(shape.levels) and _on_base(_profile(shape.levels)[0])


def is_right_skewed(shape: TowerShape) -> bool:
    return _convex(shape.levels) and _right_skew_from(*_profile(shape.levels), 0)


def is_left_skewed(shape: TowerShape) -> bool:
    if not _convex(shape.levels):
        return False
    spans, lengths = _profile(shape.levels)
    return _right_skew_from(_reflected(spans), lengths, 0)


def is_supporting(shape: TowerShape) -> bool:
    """Shape that can sit under a convex tower whose widest row is one longer.

    Row lengths never decrease and grow by at most one per level; rows of
    equal length share a span and a one-longer row overhangs by exactly one
    cell on each side.  Any other placement of an equal-length row breaks
    convexity once the wider row above is added.
    """
    return _solid_rows(shape.levels) and _supporting_steps(*_profile(shape.levels))


def classify(shape: TowerShape) -> TowerClass:
    """Exclusive label; precedence handles the overlaps.

    A rectangle is a stack, never skewed.  Supporting shapes that are also
    stacks (all rows equal) or would be caught earlier keep the earlier
    label; ``is_supporting`` stays available as a standalone predicate.
    """
    if not _convex(shape.levels):
        return TowerClass.NON_CONVEX
    spans, lengths = _profile(shape.levels)
    if _on_base(spans):
        return TowerClass.STACK
    if _right_skew_from(spans, lengths, 0):
        return TowerClass.RIGHT_SKEWED
    if _right_skew_from(_reflected(spans), lengths, 0):
        return TowerClass.LEFT_SKEWED
    if _supporting_steps(spans, lengths):
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
