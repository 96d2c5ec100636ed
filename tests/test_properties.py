"""Properties of the shape model over towers drawn level by level.

The towers reach n = 30 blocks, past the enumeration cap, so these cover
shapes the exhaustive tests never see.  ``str`` and ``is_convex`` are also
compared with per-cell references over arbitrary level tuples, valid or not.
Settings are derandomized, so every run draws the same examples.
"""

import itertools

from hypothesis import given, settings, strategies as st

from dominotowers.model import (
    TowerClass,
    TowerShape,
    classify,
    dissect,
    is_convex,
    recombine,
    validate,
)

MAX_N = 30
SETTINGS = settings(max_examples=100, derandomize=True, deadline=None, database=None)


@st.composite
def towers(draw, max_n=MAX_N):
    """Any valid tower: a base, then non-empty supported levels."""
    n = draw(st.integers(1, max_n))
    b = draw(st.integers(1, n))
    levels = [tuple(range(0, 2 * b, 2))]
    remaining = n - b
    while remaining:
        allowed = sorted({x + dx for x in levels[-1] for dx in (-1, 0, 1)})
        row: list[int] = []
        for x in allowed:
            if len(row) == remaining:
                break
            if (not row or x - row[-1] >= 2) and draw(st.booleans()):
                row.append(x)
        if not row:
            row.append(draw(st.sampled_from(allowed)))
        levels.append(tuple(row))
        remaining -= len(row)
    return TowerShape.from_levels(tuple(levels))


@st.composite
def convex_towers(draw, max_n=MAX_N):
    """Solid rows, each within one cell of the row below on either side.

    The left edge moves left until it first moves right, and the right edge
    moves right until it first moves left; that is column convexity.
    """
    n = draw(st.integers(1, max_n))
    b = draw(st.integers(1, n))
    levels = [tuple(range(0, 2 * b, 2))]
    remaining = n - b
    left_may_widen = right_may_widen = True
    while remaining:
        lo, last = levels[-1][0], levels[-1][-1]
        max_last = last + 1 if right_may_widen else last
        first = draw(st.integers(lo - 1 if left_may_widen else lo, max_last))
        most = min((max_last - first) // 2 + 1, remaining)
        k = draw(st.integers(1, most))
        row = tuple(range(first, first + 2 * k, 2))
        left_may_widen = left_may_widen and first <= lo
        right_may_widen = right_may_widen and row[-1] >= last
        levels.append(row)
        remaining -= k
    return TowerShape.from_levels(tuple(levels))


@st.composite
def pair_sets(draw):
    """Arbitrary domino positions, valid or not, with no empty level."""
    height = draw(st.integers(1, 4))
    return [
        (x, y)
        for y in range(height)
        for x in draw(st.lists(st.integers(-6, 6), min_size=1, max_size=4))
    ]


any_tower = st.one_of(towers(), convex_towers())


@SETTINGS
@given(any_tower)
def test_mirror_is_an_involution(t):
    assert validate(t) and validate(t.mirror())
    assert t.mirror().mirror() == t


@SETTINGS
@given(convex_towers())
def test_dissect_then_recombine_is_identity(t):
    assert is_convex(t)
    assert recombine(dissect(t)) == t


SWAPPED = {
    TowerClass.RIGHT_SKEWED: TowerClass.LEFT_SKEWED,
    TowerClass.LEFT_SKEWED: TowerClass.RIGHT_SKEWED,
}


@SETTINGS
@given(any_tower)
def test_mirror_swaps_skew_and_keeps_other_labels(t):
    label = classify(t)
    assert classify(t.mirror()) is SWAPPED.get(label, label)


@SETTINGS
@given(
    st.one_of(pair_sets(), any_tower.map(lambda t: list(t.dominoes))),
    st.integers(-50, 50),
    st.integers(-50, 50),
)
def test_validate_and_convexity_ignore_translation(pairs, dx, dy):
    shape = TowerShape.from_dominoes(pairs)
    moved = TowerShape.from_dominoes((x + dx, y + dy) for x, y in pairs)
    assert validate(moved) == validate(shape)
    assert is_convex(moved) == is_convex(shape)


@SETTINGS
@given(any_tower)
def test_from_dominoes_restores_the_shape(t):
    assert TowerShape.from_dominoes(t.dominoes) == t


@st.composite
def level_tuples(draw):
    """Any levels a TowerShape holds: gapped rows, empty levels, negative x.

    Dominoes on a level stay at least two cells apart, so no cell repeats;
    heights reach 40, past any enumerated tower.
    """
    levels = []
    for _ in range(draw(st.integers(1, 40))):
        x = draw(st.integers(-6, 6))
        row = []
        for gap in draw(st.lists(st.integers(2, 3), max_size=4)):
            row.append(x)
            x += gap
        levels.append(tuple(row))
    return TowerShape(tuple(levels))


@st.composite
def solid_level_tuples(draw):
    """Short stacks of solid rows, possibly empty, starting in -3..3.

    Most have no row gap, so column gaps decide their convexity.
    """
    levels = []
    for _ in range(draw(st.integers(1, 6))):
        x = draw(st.integers(-3, 3))
        levels.append(tuple(range(x, x + 2 * draw(st.integers(0, 3)), 2)))
    return TowerShape(tuple(levels))


any_levels = st.one_of(
    level_tuples(), solid_level_tuples(), any_tower, convex_towers(max_n=6)
)


def cells_of(t):
    return {(x + dx, y) for y, row in enumerate(t.levels) for x in row for dx in (0, 1)}


def is_convex_reference(t):
    """Every level occupied and every row and every column without a gap."""
    cells = cells_of(t)
    if not all(t.levels):
        return False
    lines = {}
    for x, y in cells:
        lines.setdefault(("row", y), set()).add(x)
        lines.setdefault(("column", x), set()).add(y)
    return all(len(line) == max(line) - min(line) + 1 for line in lines.values())


@settings(SETTINGS, max_examples=200)
@given(any_levels)
def test_str_lists_the_sorted_cells(t):
    assert str(t) == " ".join(f"{x},{y}" for x, y in sorted(cells_of(t)))


@settings(SETTINGS, max_examples=200)
@given(any_levels)
def test_is_convex_matches_the_per_cell_reference(t):
    assert is_convex(t) == is_convex_reference(t)


def test_is_convex_matches_the_reference_on_every_short_stack():
    # every stack of up to three solid rows of 0..2 dominoes starting in
    # -2..3; rare column gaps at a row's edge show up here
    rows = [()] + [tuple(range(x, x + 2 * k, 2)) for x in range(-2, 4) for k in (1, 2)]
    for height in (1, 2, 3):
        for levels in itertools.product(rows, repeat=height):
            t = TowerShape(levels)
            assert is_convex(t) == is_convex_reference(t), levels
