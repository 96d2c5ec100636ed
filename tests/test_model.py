"""Shape model: validity, convexity, classification, dissection."""

import itertools

import pytest

from dominotowers.model import (
    Dissection,
    Domino,
    TowerClass,
    TowerShape,
    cell_supported,
    classify,
    dissect,
    is_convex,
    is_left_skewed,
    is_right_skewed,
    is_stack,
    is_supporting,
    offset_supported,
    recombine,
    validate,
)
from dominotowers.enumerator import enumerate_towers


def shape(*pairs):
    return TowerShape.from_pairs(pairs)


def all_towers(n, b=None):
    return list(enumerate_towers(n, b))


# An 18-block convex tower whose widest row has 4 blocks: a supporting
# part of rows (1,2,2,3) under a 10-block stack.  Domino left cells, bottom
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


class TestSupportRule:
    def test_cell_rule_equals_offset_rule_for_all_relative_placements(self):
        # one domino above another at every horizontal offset that could matter
        for dx in range(-4, 5):
            below = Domino(0, 0)
            above = Domino(dx, 1)
            by_cell = cell_supported(below.cells, above)
            by_offset = offset_supported([below.x], above)
            assert by_cell == by_offset
            assert by_cell == (abs(dx) <= 1)

    def test_rule_agrees_on_every_enumerated_shape(self):
        for n in range(1, 6):
            for t in all_towers(n):
                for d in t.dominoes:
                    if d.y == 0:
                        continue
                    assert cell_supported(t.cells, d) == offset_supported(
                        t.levels[d.y - 1], d
                    )


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
            TowerShape.from_pairs([])

    def test_two_domino_window_enumeration(self):
        # all 2-domino sets with cells inside a 6x2 window, deduplicated by
        # translation: exactly three valid shapes have a base of one domino
        found = set()
        positions = [(x, y) for y in range(2) for x in range(5)]
        for a, b in itertools.combinations(positions, 2):
            s = TowerShape.from_pairs([a, b])
            if validate(s) and s.base_b == 1:
                found.add(s)
        assert len(found) == 3

    def test_canonicalization_is_idempotent(self):
        for n in range(1, 6):
            for t in all_towers(n):
                assert TowerShape.from_dominoes(t.dominoes) == t
                assert t.mirror().mirror() == t


class TestConvexity:
    def test_single_level_always_convex(self):
        for b in range(1, 6):
            assert is_convex(shape(*[(2 * i, 0) for i in range(b)]))

    def test_large_example_is_convex(self):
        t = CONVEX_18_4
        assert validate(t)
        assert is_convex(t)
        assert t.n == 18
        assert t.max_row_b == 4

    def test_gapped_row_not_convex(self):
        t = shape((0, 0), (2, 0), (4, 0), (6, 0), (0, 1), (5, 1))
        assert validate(t)
        assert not is_convex(t)

    def test_column_gap_not_convex(self):
        # single-domino levels wiggling right then left leave a column gap
        t = shape((0, 0), (1, 1), (0, 2))
        assert validate(t)
        assert not is_convex(t)


class TestEmptyLevel:
    # a missing level leaves a column gap (or no level to rest on): no
    # predicate holds and classify says non-convex, as validate says invalid
    SHAPES = [
        TowerShape.from_pairs([(0, 0), (0, 2)]),
        TowerShape(((0, 2), ())),
        TowerShape(((), (0,))),
    ]

    def test_levels_keep_the_empty_level(self):
        assert self.SHAPES[0].levels == ((0,), (), (0,))
        assert not any(validate(t) for t in self.SHAPES)

    @pytest.mark.parametrize(
        "predicate",
        [is_convex, is_stack, is_right_skewed, is_left_skewed, is_supporting],
    )
    def test_predicate_is_false(self, predicate):
        for t in self.SHAPES:
            assert predicate(t) is False, t.levels

    def test_classify_is_non_convex(self):
        for t in self.SHAPES:
            assert classify(t) is TowerClass.NON_CONVEX, t.levels


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
        assert not is_right_skewed(t)
        assert not is_left_skewed(t)

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
        for n in range(1, 7):
            for t in all_towers(n):
                label = classify(t)
                predicates = {
                    TowerClass.STACK: is_stack(t),
                    TowerClass.RIGHT_SKEWED: is_right_skewed(t),
                    TowerClass.LEFT_SKEWED: is_left_skewed(t),
                }
                if label is TowerClass.NON_CONVEX:
                    assert not is_convex(t)
                else:
                    assert is_convex(t)
                    # stack and the two skew classes are pairwise exclusive
                    assert sum(predicates.values()) <= 1
                    if label in predicates:
                        assert predicates[label]

    def test_columns_on_base_means_stack(self):
        for n in range(1, 7):
            for t in all_towers(n):
                if not is_convex(t):
                    continue
                lo, hi = t.row_span(0)
                on_base = all(
                    lo <= x <= hi for x, _ in t.cells
                )
                assert on_base == is_stack(t)


class TestDissection:
    def test_height_one_bar(self):
        t = shape((0, 0), (2, 0))
        d = dissect(t)
        assert d == Dissection(None, t, 0)
        assert recombine(d) == t

    def test_large_example_split(self):
        d = dissect(CONVEX_18_4)
        assert d.split_level == 4
        assert d.lower.n == 8
        assert [len(row) for row in d.lower.levels] == [1, 2, 2, 3]
        assert d.upper.n == 10
        assert d.upper.base_b == 4
        assert classify(d.upper) is TowerClass.STACK
        assert recombine(d) == CONVEX_18_4

    def test_rejects_non_convex(self):
        t = shape((0, 0), (1, 1), (0, 2))
        with pytest.raises(ValueError):
            dissect(t)

    def test_round_trip_and_parts_for_small_sizes(self):
        for n in range(1, 7):
            seen = {}
            for t in all_towers(n):
                if not is_convex(t):
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
                    assert d.lower.top_row_b == t.max_row_b - 1
                    assert d.lower.height == d.split_level
                key = (d.lower, d.upper)
                assert key not in seen, "dissection must be injective"
                seen[key] = t

    def test_mirror_swaps_skew_classes(self):
        for n in range(1, 7):
            for t in all_towers(n):
                m = t.mirror()
                assert is_right_skewed(t) == is_left_skewed(m)
                assert is_left_skewed(t) == is_right_skewed(m)

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
            tally = (t.max_row_b, d.lower.n if d.lower else 0, classify(d.upper))
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
