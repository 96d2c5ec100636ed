"""Shape model: validity, convexity, classification, dissection."""

import itertools

import pytest

from dominotowers.model import (
    Dissection,
    TowerClass,
    TowerShape,
    classify,
    dissect,
    is_supporting,
    recombine,
    validate,
)
from dominotowers.enumerator import enumerate_towers, walk
from references import cell_supported


def shape(*pairs):
    return TowerShape.from_dominoes(pairs)


def all_towers(n, b=None):
    return list(enumerate_towers(n, b))


def convex_towers(n):
    return [TowerShape.from_levels(levels) for levels, convex in walk(n) if convex]


# An 18-block convex tower whose widest row has 4 blocks: a supporting
# part of rows (1,2,2,3) under a 10-block stack.  Left cells (x, y), bottom
# to top.
CONVEX_18_4 = shape(
    (3, 0),
    (2, 1), (4, 1),
    (2, 2), (4, 2),
    (1, 3), (3, 3), (5, 3),
    (0, 4), (2, 4), (4, 4), (6, 4),
    (0, 5), (2, 5), (4, 5), (6, 5),
    (3, 6), (5, 6),
)

# Two skewed towers with 10 blocks on a base of 4, one per direction.
SKEW_RIGHT_10_4 = shape(
    (0, 0), (2, 0), (4, 0), (6, 0),
    (3, 1), (5, 1), (7, 1),
    (6, 2), (8, 2),
    (8, 3),
)
SKEW_LEFT_10_4 = shape(
    (2, 0), (4, 0), (6, 0), (8, 0),
    (1, 1), (3, 1), (5, 1),
    (0, 2), (2, 2), (4, 2),
)


# The span classifier that edge moves replaced, kept as the per-shape
# reference: row spans and lengths, a reflection and a recursive skew test.
# Count checks cannot see a label swap that keeps the counts, such as right-
# and left-skewed exchanged on mirror pairs; a shape-by-shape comparison can.
Spans = list[tuple[int, int]]


def _profile(levels):
    """Row spans and domino counts, bottom to top."""
    return [(row[0], row[-1] + 1) for row in levels], [len(row) for row in levels]


def _solid_rows(levels):
    return all(row and row[-1] - row[0] == 2 * (len(row) - 1) for row in levels)


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


def reference_is_supporting(shape: TowerShape) -> bool:
    return _solid_rows(shape) and _supporting_steps(*_profile(shape))


def reference_classify(shape: TowerShape) -> TowerClass:
    if not shape.convex:
        return TowerClass.NON_CONVEX
    spans, lengths = _profile(shape)
    if _on_base(spans):
        return TowerClass.STACK
    if _right_skew_from(spans, lengths, 0):
        return TowerClass.RIGHT_SKEWED
    if _right_skew_from(_reflected(spans), lengths, 0):
        return TowerClass.LEFT_SKEWED
    if _supporting_steps(spans, lengths):
        return TowerClass.SUPPORTING
    return TowerClass.CONVEX_OTHER


def reference_validate(levels: TowerShape) -> bool:
    """The set-based validity test that per-row bitmasks replaced."""
    if not levels or not all(levels):
        return False
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
        if not all({x - 1, x, x + 1} & below_set for x in row):  # offsets -1..1
            return False
    return True


def assert_matches_reference(t: TowerShape) -> None:
    assert classify(t) is reference_classify(t), t
    assert is_supporting(t) == reference_is_supporting(t), t


class TestShapeRecord:
    def test_levels_are_read_only(self):
        t = shape((0, 0), (1, 1))
        with pytest.raises(TypeError):
            t[0] = (5,)
        assert t == ((0,), (1,))

    def test_repr_equality_and_hash_follow_levels(self):
        t = shape((2, 0), (3, 1))
        assert repr(t) == "((0,), (1,))"
        assert t.convex  # cached per instance, not part of equality
        same = TowerShape(((0,), (1,)))
        assert t == same and hash(t) == hash(same)
        assert t == ((0,), (1,)) and hash(t) == hash(((0,), (1,)))

    def test_list_of_levels_is_normalised(self):
        # levels or rows given as lists are stored as tuples, so every
        # shape hashes; lists and tuples may be mixed
        expected = TowerShape.from_levels(((0,), (1,)))
        built = (
            TowerShape([(0,), (1,)]),
            TowerShape([[0], [1]]),
            TowerShape.from_levels([[1], [2]]),
            TowerShape.from_levels([[0], [1]]),
            TowerShape.from_levels([(1,), [2]]),
            TowerShape.from_levels([[0], (1,)]),
        )
        for t in built:
            assert t == expected and hash(t) == hash(expected)
            assert all(type(row) is tuple for row in t)

    def test_from_levels_shifts_past_an_empty_row(self):
        # an empty level is the least row, so the shift comes from the others
        for levels in (((2,), (), (3, 5)), [[2], [], [3, 5]], ((), (0,))):
            t = TowerShape.from_levels(levels)
            shift = 2 if levels[0] else 0
            assert t == tuple(tuple(x - shift for x in row) for row in levels)
            assert all(type(row) is tuple for row in t)
        with pytest.raises(ValueError):
            TowerShape.from_levels(((), ()))


class TestSupportRule:
    def test_cell_rule_equals_offset_rule_for_all_relative_placements(self):
        # one domino above another at every horizontal offset that could matter:
        # the cell rule, the offsets -1..1 and validate all agree
        for dx in range(-4, 5):
            supported = cell_supported({(0, 0), (1, 0)}, (dx, 1))
            assert supported == (abs(dx) <= 1)
            assert supported == validate(shape((0, 0), (dx, 1)))

    def test_rule_agrees_on_every_enumerated_shape(self):
        # the enumerator emits no block that the cell rule leaves unsupported
        checked = 0
        for n in range(1, 6):
            for t in all_towers(n):
                for x, y in t.dominoes:
                    if y:
                        assert cell_supported(t.cells, (x, y)), (t, x, y)
                        checked += 1
        assert checked > 1000


class TestValidate:
    def test_single_domino(self):
        assert validate(shape((0, 0)))

    def test_gapped_base_rejected(self):
        assert not validate(shape((0, 0), (3, 0)))
        assert not validate(shape((0, 0), (4, 0)))
        # left cells two apart are adjacent dominoes, a contiguous base
        assert validate(shape((0, 0), (2, 0)))

    def test_supported_and_unsupported_pairs(self):
        assert validate(shape((0, 0), (1, 1)))
        assert not validate(shape((0, 0), (3, 1)))

    def test_overlap_rejected(self):
        assert not validate(shape((0, 0), (1, 0)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TowerShape.from_dominoes([])

    def test_two_domino_window_enumeration(self):
        # all 2-domino sets with cells inside a 6x2 window, deduplicated by
        # translation: exactly three valid shapes have a base of one domino
        found = set()
        positions = [(x, y) for y in range(2) for x in range(5)]
        for a, b in itertools.combinations(positions, 2):
            s = TowerShape.from_dominoes([a, b])
            if validate(s) and len(s[0]) == 1:
                found.add(s)
        assert len(found) == 3

    def test_canonicalization_is_idempotent(self):
        for n in range(1, 6):
            for t in all_towers(n):
                assert TowerShape.from_dominoes(t.dominoes) == t
                assert t.mirror().mirror() == t


class TestValidateAgainstSetReference:
    @staticmethod
    def random_levels(rng):
        """A level tuple near a tower: x from -1, empty and unsorted rows,
        overlaps, unsupported and gapped rows, shifted or canonical."""
        levels = []
        for y in range(rng.randint(1, 4)):
            k = rng.choice((0, 1, 1, 2, 2, 3, 4)) if rng.random() < 0.9 else 0
            if levels and levels[-1] and rng.random() < 0.7:
                x = levels[-1][0] + rng.randint(-2, 2)
            else:
                x = rng.randint(-1, 3)
            row = []
            for _ in range(k):
                row.append(x)
                x += rng.choice((0, 1, 2, 2, 2, 2, 3, 4))
            if rng.random() < 0.05:
                rng.shuffle(row)
            levels.append(tuple(row))
        if all(levels) and rng.random() < 0.6:  # shift as from_levels does
            return TowerShape.from_levels(tuple(levels))
        return tuple(levels)

    def test_seeded_random_levels(self):
        import random

        rng = random.Random(20161)
        outcomes = {True: 0, False: 0}
        for _ in range(25000):
            t = TowerShape(self.random_levels(rng))
            got = validate(t)
            assert got == reference_validate(t), t
            outcomes[got] += 1
        # both answers are common, so the draw exercises every check
        assert min(outcomes.values()) > 1000, outcomes

    def test_every_tower_up_to_eight_blocks(self):
        for n in range(1, 9):
            for t in enumerate_towers(n):
                assert validate(t) and reference_validate(t)
                mirrored = TowerShape(tuple(row[::-1] for row in t))
                assert validate(mirrored) == reference_validate(mirrored)


class TestConvexity:
    def test_single_level_always_convex(self):
        for b in range(1, 6):
            assert shape(*[(2 * i, 0) for i in range(b)]).convex

    def test_large_example_is_convex(self):
        t = CONVEX_18_4
        assert validate(t)
        assert t.convex
        assert sum(map(len, t)) == 18
        assert max(map(len, t)) == 4

    def test_gapped_row_not_convex(self):
        t = shape((0, 0), (2, 0), (4, 0), (6, 0), (0, 1), (5, 1))
        assert validate(t)
        assert not t.convex

    def test_column_gap_not_convex(self):
        # single-domino levels wiggling right then left leave a column gap
        t = shape((0, 0), (1, 1), (0, 2))
        assert validate(t)
        assert not t.convex


class TestEmptyLevel:
    # a missing level leaves a column gap (or no level to rest on), and a
    # shape with no level has no cell: no predicate holds and classify says
    # non-convex, as validate says invalid
    SHAPES = [
        TowerShape.from_dominoes([(0, 0), (0, 2)]),
        TowerShape(((0, 2), ())),
        TowerShape(((), (0,))),
        TowerShape(()),
    ]

    def test_levels_keep_the_empty_level(self):
        assert self.SHAPES[0] == ((0,), (), (0,))
        assert not any(validate(t) for t in self.SHAPES)

    @pytest.mark.parametrize(
        "predicate",
        [lambda t: t.convex, is_supporting],
    )
    def test_predicate_is_false(self, predicate):
        for t in self.SHAPES:
            assert predicate(t) is False, t

    def test_classify_is_non_convex(self):
        for t in self.SHAPES:
            assert classify(t) is TowerClass.NON_CONVEX, t


class TestClassify:
    def test_horizontal_bar_is_stack(self):
        for b in range(1, 6):
            t = shape(*[(2 * i, 0) for i in range(b)])
            assert classify(t) is TowerClass.STACK

    def test_skew_examples(self):
        assert classify(SKEW_RIGHT_10_4) is TowerClass.RIGHT_SKEWED
        assert classify(SKEW_LEFT_10_4) is TowerClass.LEFT_SKEWED
        assert classify(SKEW_LEFT_10_4.mirror()) is TowerClass.RIGHT_SKEWED

    def test_large_example_is_neither_stack_nor_skew(self):
        assert classify(CONVEX_18_4) is TowerClass.CONVEX_OTHER

    def test_rectangle_is_stack_not_skewed(self):
        t = shape((0, 0), (2, 0), (0, 1), (2, 1))
        assert classify(t) is TowerClass.STACK
        assert classify(t.mirror()) is TowerClass.STACK

    def test_skew_tail_may_retreat_from_the_edge(self):
        # base 2, one row overhanging right, topped by a left-aligned domino:
        # still right-skewed, the top rows form a stack on the skewed base
        t = shape((0, 0), (2, 0), (1, 1), (3, 1), (1, 2))
        assert classify(t) is TowerClass.RIGHT_SKEWED

    def test_supporting_label_for_pyramid(self):
        t = shape((0, 0), (-1, 1), (1, 1))  # one domino under a two-domino row
        assert classify(t) is TowerClass.SUPPORTING
        assert is_supporting(t)

    def test_supporting_requires_aligned_equal_rows(self):
        aligned = shape((0, 0), (2, 0), (0, 1), (2, 1))
        shifted = shape((0, 0), (2, 0), (1, 1), (3, 1))
        assert is_supporting(aligned)
        assert not is_supporting(shifted)

    def test_exactly_one_label_per_shape(self):
        # the non-convex label is exactly convexity failing, and a supporting
        # label only goes to shapes that is_supporting accepts
        for n in range(1, 7):
            for t in all_towers(n):
                label = classify(t)
                assert (label is TowerClass.NON_CONVEX) == (not t.convex)
                if label is TowerClass.SUPPORTING:
                    assert is_supporting(t)

    def test_columns_on_base_means_stack(self):
        for n in range(1, 7):
            for t in all_towers(n):
                if not t.convex:
                    continue
                lo, hi = t[0][0], t[0][-1] + 1
                on_base = all(
                    lo <= x <= hi for x, _ in t.cells
                )
                assert on_base == (classify(t) is TowerClass.STACK)


class TestAgainstSpanReference:
    def test_every_tower_up_to_nine_blocks(self):
        checked = 0
        for n in range(1, 10):
            for t in enumerate_towers(n):
                assert_matches_reference(t)
                checked += 1
        assert checked == 87381

    def test_every_convex_tower_of_ten_and_eleven_blocks(self):
        # above the full n <= 9 sweep; only convex towers reach the skew test
        checked = 0
        for n in (10, 11):
            for t in convex_towers(n):
                assert classify(t) is reference_classify(t), t
                checked += 1
        assert checked == 5374 + 10912  # sum over b of recurrences.c(b, n)

    def test_every_short_stack_of_solid_rows(self):
        # classify is total: shapes that are not towers (unsupported rows,
        # rows jumping a whole domino) get the reference's labels too
        rows = [()] + [
            tuple(range(x, x + 2 * k, 2)) for x in range(-3, 4) for k in (1, 2, 3)
        ]
        for height in (1, 2, 3):
            for levels in itertools.product(rows, repeat=height):
                assert_matches_reference(TowerShape(levels))


class TestDissection:
    def test_height_one_bar(self):
        t = shape((0, 0), (2, 0))
        d = dissect(t)
        assert d == Dissection(None, t)
        assert recombine(d) == t

    def test_large_example_split(self):
        d = dissect(CONVEX_18_4)
        assert len(d.lower) == 4
        assert sum(map(len, d.lower)) == 8
        assert [len(row) for row in d.lower] == [1, 2, 2, 3]
        assert sum(map(len, d.upper)) == 10
        assert len(d.upper[0]) == 4
        assert classify(d.upper) is TowerClass.STACK
        assert recombine(d) == CONVEX_18_4

    def test_rejects_non_convex(self):
        t = shape((0, 0), (1, 1), (0, 2))
        with pytest.raises(ValueError):
            dissect(t)

    def test_rejects_invalid_tower(self):
        t = TowerShape.from_dominoes([(0, 0), (3, 1)])
        with pytest.raises(ValueError, match="dissect requires a valid tower"):
            dissect(t)

    def test_round_trip_and_parts_for_small_sizes(self):
        for n in range(1, 7):
            seen = {}
            for t in all_towers(n):
                if not t.convex:
                    continue
                d = dissect(t)
                assert recombine(d) == t
                assert classify(d.upper) in (
                    TowerClass.STACK,
                    TowerClass.RIGHT_SKEWED,
                    TowerClass.LEFT_SKEWED,
                )
                if d.lower is not None:
                    assert is_supporting(d.lower)
                    assert len(d.lower[-1]) == max(map(len, t)) - 1
                key = (d.lower, d.upper)
                assert key not in seen, "dissection must be injective"
                seen[key] = t

    def test_upper_parts_are_the_towers_on_a_widest_base(self):
        # stacks and skewed towers are exactly the convex towers with nothing
        # below their widest row; a skewed one is right-skewed exactly when a
        # cell lies right of its base, left-skewed when one lies left of it
        upper_only = (TowerClass.STACK, TowerClass.RIGHT_SKEWED, TowerClass.LEFT_SKEWED)
        for n in range(1, 10):
            for t in convex_towers(n):
                label = classify(t)
                assert (label in upper_only) == (dissect(t).lower is None), t
                base = t[0]
                columns = [x for x, _ in t.cells]
                if label in upper_only:
                    assert (label is TowerClass.RIGHT_SKEWED) == (
                        max(columns) > base[-1] + 1
                    ), t
                    assert (label is TowerClass.LEFT_SKEWED) == (
                        min(columns) < base[0]
                    ), t

    def test_a_widest_base_is_its_own_upper_part(self):
        # validate asks for a canonical tower, so a tower with nothing below
        # its widest row is its upper part as it stands, not a copy
        whole = 0
        for n in range(1, 9):
            for t in convex_towers(n):
                if len(t[0]) == max(map(len, t)):
                    d = dissect(t)
                    assert d.lower is None and d.upper is t, t
                    whole += 1
        assert whole == 1690  # of the 2229 convex towers with n <= 8

    def test_mirror_swaps_skew_classes(self):
        for n in range(1, 7):
            for t in all_towers(n):
                label, mirrored = classify(t), classify(t.mirror())
                assert (label is TowerClass.RIGHT_SKEWED) == (
                    mirrored is TowerClass.LEFT_SKEWED
                )
                assert (label is TowerClass.LEFT_SKEWED) == (
                    mirrored is TowerClass.RIGHT_SKEWED
                )

    def test_injective_with_convolution_counts_at_desk_scale(self):
        # at n = 8: the (lower, upper) map stays injective and the
        # (widest row, lower size, upper class) census matches the
        # convolution of the supporting counts against stacks and skews
        from dominotowers import recurrences

        n = 8
        seen = set()
        pairs = {}
        for t in enumerate_towers(n):
            if classify(t) is TowerClass.NON_CONVEX:
                continue
            d = dissect(t)
            key = (d.lower, d.upper)
            assert key not in seen
            seen.add(key)
            lower_size = sum(map(len, d.lower)) if d.lower else 0
            tally = (max(map(len, t)), lower_size, classify(d.upper))
            pairs[tally] = pairs.get(tally, 0) + 1
        for b in range(1, n + 1):
            for m in range(0, n + 1):
                left = recurrences.g(b, m) + (1 if m == 0 else 0)
                assert pairs.get((b, m, TowerClass.STACK), 0) == (
                    left * recurrences.h(b, n - m)
                )
                assert pairs.get((b, m, TowerClass.RIGHT_SKEWED), 0) == (
                    left * recurrences.r(b, n - m)
                )
                assert pairs.get((b, m, TowerClass.LEFT_SKEWED), 0) == (
                    left * recurrences.r(b, n - m)
                )
