"""Brute-force generation against every independent count we know."""

from math import comb

import pytest

from dominotowers import enumerator, recurrences
from dominotowers.enumerator import (
    CapExceeded,
    census,
    enumerate_towers,
    tower_lines,
    walk,
)
from dominotowers.model import (
    TowerClass,
    TowerShape,
    classify,
    is_convex,
    is_supporting,
)
from references import gapfree_partition_census, partitions

CONVEX = frozenset(TowerClass) - {TowerClass.NON_CONVEX}
BASE, WIDEST = 0, 1  # positions in a census key (base, widest row, class)


def towers(n, b=None):
    return list(enumerate_towers(n, b))


def grouped(counts, classes, position):
    """Census counts of the given classes, summed per BASE or WIDEST."""
    out = {}
    for key, count in counts.items():
        if key[2] in classes:
            out[key[position]] = out.get(key[position], 0) + count
    return out


class TestEnumerate:
    def test_smallest_cases(self):
        assert len(towers(1, 1)) == 1
        assert len(towers(2, 1)) == 3
        assert len(towers(4)) == 64

    def test_counts_match_binomials(self):
        for n in range(1, 8):
            total = 0
            for b in range(1, n + 1):
                count = len(towers(n, b))
                assert count == comb(2 * n - 1, n - b), (n, b)
                total += count
            assert total == 4 ** (n - 1)

    def test_no_duplicates(self):
        for n in range(1, 8):
            ts = towers(n)
            assert len(set(ts)) == len(ts)

    def test_every_yield_is_valid_and_canonical(self):
        from dominotowers.model import TowerShape, validate

        for n in range(1, 9):
            for t in enumerate_towers(n):
                assert validate(t)
                # leaves are built as TowerShape(levels), with no shift
                assert TowerShape.from_levels(t.levels).levels == t.levels

    def test_level_sets_are_computed_once_per_row_and_budget(self):
        # 4^8 = 65536 towers at n = 9 ask for level sets some 21000 times,
        # over about 300 distinct (row, budget) pairs
        enumerator._level_sets.cache_clear()
        assert sum(1 for _ in enumerate_towers(9)) == 4 ** 8
        assert enumerator._level_sets.cache_info().misses <= 400

    def test_stream_is_deterministic(self):
        assert towers(5) == towers(5)

    def test_frozen_small_stream(self):
        assert [str(t) for t in towers(2)] == [
            "0,1 1,0 1,1 2,0",
            "0,0 0,1 1,0 1,1",
            "0,0 1,0 1,1 2,1",
            "0,0 1,0 2,0 3,0",
        ]

    def test_cap(self):
        with pytest.raises(CapExceeded):
            towers(13)

    def test_request_validation(self):
        with pytest.raises(ValueError, match="n must be at least 1"):
            towers(0)
        with pytest.raises(ValueError, match="b must not exceed n"):
            towers(3, 4)
        with pytest.raises(ValueError, match="b must be at least 1"):
            towers(3, 0)
        # the base is checked before the cap
        with pytest.raises(ValueError, match="b must not exceed n"):
            towers(13, 14)

    def test_class_filter(self):
        convex = [t for t in towers(4) if classify(t) in CONVEX]
        stacks = [t for t in towers(4) if classify(t) is TowerClass.STACK]
        assert len(convex) == 41
        assert len(stacks) == 11


class TestConvexFlag:
    """The convexity state carried down the walk against ``is_convex``."""

    @pytest.mark.parametrize("n", range(1, 10))
    def test_flag_equals_is_convex(self, n):
        shifted = {True: 0, False: 0}
        for b in range(1, n + 1):
            for levels, convex in walk(n, b):
                assert convex == is_convex(TowerShape(levels)), levels
                # a base off x = 0 means some level reached x = -1 and the
                # walk shifted the levels and the masks
                if levels[0][0]:
                    shifted[convex] += 1
        if n >= 3:
            assert min(shifted.values()) > 0, shifted


class TestTowerLines:
    """The text stream against ``str`` of every enumerated shape."""

    @pytest.mark.parametrize("n", range(1, 10))
    def test_equals_str_of_every_shape(self, n):
        for b in (None, *range(1, n + 1)):
            want = [str(t) for t in enumerate_towers(n, b)]
            assert list(tower_lines(n, b)) == want, (n, b)

    @pytest.mark.parametrize("b, count", [(12, 1), (11, 23), (10, 253)])
    def test_equals_str_at_the_cap(self, b, count):
        # the bare base of 12 spans all 24 columns the text table covers,
        # and b = 11 puts its one extra domino past either edge
        lines = list(tower_lines(12, b))
        assert len(lines) == count
        assert lines == [str(t) for t in enumerate_towers(12, b)]

    @pytest.mark.parametrize(
        "n, b", [(0, None), (3, 0), (3, 4), (13, None), (13, 14)]
    )
    def test_rejects_what_enumerate_towers_rejects(self, n, b):
        raised = []
        for stream in (enumerate_towers, tower_lines):
            items = stream(n, b)  # a generator checks on the first next
            with pytest.raises(ValueError) as info:
                next(items)
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1]
        assert (raised[0][0] is CapExceeded) == (n == 13 and b is None)


class TestCensus:
    def test_convex_by_widest_row_n3(self):
        assert grouped(census(3), CONVEX, WIDEST) == {1: 7, 2: 6, 3: 1}

    def test_stacks_by_base_n5(self):
        assert grouped(census(5), {TowerClass.STACK}, BASE) == {
            1: 1, 2: 6, 3: 8, 4: 7, 5: 1
        }

    def test_total_all_shapes_n2(self):
        assert sum(census(2).values()) == 4

    def test_counts_sum_to_total(self):
        assert sum(census(5).values()) == len(towers(5)) == 4 ** 4

    def test_census_matches_recurrences(self):
        for n in range(1, 8):
            counts = census(n)
            stacks = grouped(counts, {TowerClass.STACK}, BASE)
            right = grouped(counts, {TowerClass.RIGHT_SKEWED}, BASE)
            left = grouped(counts, {TowerClass.LEFT_SKEWED}, BASE)
            convex = grouped(counts, CONVEX, WIDEST)
            assert right == left
            for b in range(1, n + 1):
                assert stacks.get(b, 0) == recurrences.h(b, n)
                assert right.get(b, 0) == recurrences.r(b, n)
                assert convex.get(b, 0) == recurrences.c(b, n)

    def test_supporting_census_matches_g(self):
        # grouped by the base width the shape could carry: top row plus one
        for n in range(1, 8):
            counts = {}
            for t in towers(n):
                if is_supporting(t):
                    b = t.top_row_b + 1
                    counts[b] = counts.get(b, 0) + 1
            for b in range(2, n + 2):
                assert counts.get(b, 0) == recurrences.g(b, n), (b, n)

    def test_mirror_counts_equal_through_n8(self):
        counts = census(8)
        assert grouped(counts, {TowerClass.RIGHT_SKEWED}, BASE) == grouped(
            counts, {TowerClass.LEFT_SKEWED}, BASE
        )


class TestGapfreePartitions:
    def test_partition_generator_counts(self):
        # partition numbers p(1)..p(10)
        expected = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
        assert [len(list(partitions(n))) for n in range(1, 11)] == expected

    def test_examples(self):
        assert gapfree_partition_census(3) == {1: 1, 2: 1, 3: 1}
        assert gapfree_partition_census(1) == {1: 1}

    def test_total_at_six(self):
        # the seven qualifying partitions of 6: 111111, 21111, 2211, 222,
        # 321, 33, 6 (41, 411, 3111, 51 all have a gap)
        assert sum(gapfree_partition_census(6).values()) == 7

    def test_census_equals_supporting_recurrence(self):
        for n in range(1, 13):
            cen = gapfree_partition_census(n)
            for part in range(1, n + 1):
                assert cen.get(part, 0) == recurrences.g(part + 1, n)
            assert sum(cen.values()) == sum(
                recurrences.g(b, n) for b in range(2, n + 2)
            )

    def test_bounds(self):
        with pytest.raises(ValueError):
            gapfree_partition_census(0)
        with pytest.raises(ValueError):
            gapfree_partition_census(41)
