"""Brute-force generation against every independent count we know."""

import hashlib
import operator
import os
import subprocess
import sys
from itertools import combinations
from math import comb
from pathlib import Path

import pytest

from dominotowers import enumerator, recurrences
from dominotowers.enumerator import (
    DEFAULT_HARD_CAP,
    ORIGIN,
    census,
    enumerate_towers,
    tower_lines,
    walk,
)
from dominotowers.model import (
    TowerClass,
    TowerShape,
    classify,
    is_supporting,
)
from references import gapfree_partition_census, partitions

CONVEX = frozenset(TowerClass) - {TowerClass.NON_CONVEX}
BASE, WIDEST = 0, 1  # positions in a census key (base, widest row, class)
SRC = Path(__file__).resolve().parents[1] / "src"


def held_bytes(code):
    """The bytes ``tracemalloc`` sees held after ``code`` runs in a fresh
    interpreter, started once ``enumerator`` is imported and its memos empty;
    no other test's allocations share the count."""
    script = (
        "import tracemalloc\n"
        "from dominotowers import enumerator\n"
        "tracemalloc.start()\n"
        f"{code}\n"
        "print(tracemalloc.get_traced_memory()[0])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


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
                assert TowerShape.from_levels(t) == t

    def test_level_sets_are_computed_once_per_row_and_budget(self, monkeypatch):
        # 4^8 = 65536 towers at n = 9 ask for level sets some 21000 times,
        # over 478 distinct (row, budget) pairs in anchored coordinates
        asked = set()
        real = enumerator._level_sets

        def recording(below, max_size):
            asked.add((below, max_size))
            return real(below, max_size)

        monkeypatch.setattr(enumerator, "_level_sets", recording)
        real.cache_clear()
        assert sum(1 for _ in enumerate_towers(9)) == 4 ** 8
        assert real.cache_info().misses == len(asked) <= 500

    def test_stream_is_deterministic(self):
        assert towers(5) == towers(5)

    def test_frozen_small_stream(self):
        assert [str(t) for t in towers(2)] == [
            "0,1 1,0 1,1 2,0",
            "0,0 0,1 1,0 1,1",
            "0,0 1,0 1,1 2,1",
            "0,0 1,0 2,0 3,0",
        ]

    def test_walk_stream_digest(self):
        # every (levels, convex) pair of walk(9) in stream order, one repr a
        # line; the shapes and text built from it cannot hide a reordering
        digest = hashlib.sha256()
        for item in walk(9):
            digest.update(repr(item).encode() + b"\n")
        assert digest.hexdigest() == (
            "b39a67fecc44c96a46a427711efa125909a6f53090f6438378c036ee7313c2e8"
        )

    def test_cap(self):
        with pytest.raises(ValueError, match="n=13 exceeds the enumeration cap 12"):
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
    """The convexity state carried down the walk against ``TowerShape.convex``."""

    @pytest.mark.parametrize("n", range(1, 10))
    def test_flag_equals_is_convex(self, n):
        leftward = {True: 0, False: 0}
        for b in range(1, n + 1):
            for levels, convex in walk(n, b):
                assert convex == TowerShape.from_levels(levels).convex, levels
                # a level left of the base (x < 0) sets mask bits below
                # the base's
                if any(row[0] < 0 for row in levels):
                    leftward[convex] += 1
        if n >= 3:
            assert min(leftward.values()) > 0, leftward


class TestNodeWork:
    """What depends only on a node is done once for it, not per tower."""

    def test_walks_build_no_shape_to_shift(self, monkeypatch):
        calls = []
        real = TowerShape.__dict__["from_levels"].__func__

        def counting(cls, levels):
            calls.append(levels)
            return real(cls, levels)

        monkeypatch.setattr(TowerShape, "from_levels", classmethod(counting))
        assert sum(1 for _ in walk(9)) == 4 ** 8
        assert sum(1 for _ in tower_lines(9)) == 4 ** 8
        assert calls == []

    def test_level_sets_match_raw_positions(self, monkeypatch):
        asked = set()
        real = enumerator._level_sets

        def recording(below, max_size):
            asked.add((below, max_size))
            return real(below, max_size)

        monkeypatch.setattr(enumerator, "_level_sets", recording)
        for n in range(1, 9):
            for _ in walk(n):
                pass
            for _ in tower_lines(n):
                pass
        assert len(asked) > 100
        for below, budget in asked:
            allowed = sorted({p + dx for p in below for dx in (-1, 0, 1)})
            want = sorted(
                level
                for size in range(1, budget + 1)
                for level in combinations(allowed, size)
                if all(q - p >= 2 for p, q in zip(level, level[1:]))
            )
            assert list(real(below, budget)) == want, (below, budget)

    def test_last_keys_are_the_one_domino_levels(self, monkeypatch):
        # the walks reach _last_keys through the _children memo
        enumerator._children.cache_clear()
        enumerator._last_keys.cache_clear()
        asked = set()
        real = enumerator._last_keys

        def recording(below, y):
            asked.add((below, y))
            return real(below, y)

        monkeypatch.setattr(enumerator, "_last_keys", recording)
        for n in range(1, 9):
            for _ in tower_lines(n):
                pass
        # every entry the walks put in the memo is checked
        assert len(asked) == real.cache_info().currsize > 100
        for below, y in asked:
            # the left cell's key; the right cell's, at x + 1, is one
            # stride more, as in _level_keys
            levels = enumerator._level_sets(below, 1)
            want = tuple((x - ORIGIN) * DEFAULT_HARD_CAP + y for (x,) in levels)
            assert real(below, y) == want, (below, y)
            for (x,), low in zip(levels, want):
                assert enumerator._level_keys((x,), y) == (low, low + DEFAULT_HARD_CAP)

    def test_children_match_their_memos(self, monkeypatch):
        enumerator._children.cache_clear()
        asked = set()
        real = enumerator._children

        def recording(below, left, y):
            asked.add((below, left, y))
            return real(below, left, y)

        monkeypatch.setattr(enumerator, "_children", recording)
        for n in range(1, 9):
            for _ in tower_lines(n):
                pass
        # every entry the walks put in the memo is checked, as flat
        # (level, keys, left, tops) records in _level_sets order
        assert len(asked) == real.cache_info().currsize > 100
        for below, budget, y in asked:
            want = []
            for level in enumerator._level_sets(below, budget):
                left = budget - len(level)
                keys = enumerator._level_keys(level, y)
                tops = enumerator._last_keys(level, y + 1) if left == 1 else None
                want += [level, keys, left, tops]
            assert real(below, budget, y) == tuple(want), (below, budget, y)

    def test_sizes_share_the_records(self):
        # no record depends on the tower size: n = 8 after n = 9 builds
        # only what n = 9 never reached, and both read one text table
        built = {}
        for sizes in ((8,), (9, 8)):
            enumerator._children.cache_clear()
            enumerator._texts.cache_clear()
            for n in sizes:
                before = enumerator._children.cache_info().misses
                assert sum(1 for _ in tower_lines(n)) == 4 ** (n - 1)
            built[sizes] = enumerator._children.cache_info().misses - before
            assert enumerator._texts.cache_info().currsize == 1
        assert built[(9, 8)] < built[(8,)]

    def test_children_share_each_level_set_across_heights(self, monkeypatch):
        # a (row, budget) pair recurs at several heights: 968 _children and
        # 841 _last_keys entries over 921 level sets at n = 10, each built once
        for memo in (enumerator._children, enumerator._last_keys, enumerator._level_sets):
            memo.cache_clear()
        asked = []
        real = enumerator._level_sets

        def recording(below, max_size):
            asked.append((below, max_size))
            return real(below, max_size)

        monkeypatch.setattr(enumerator, "_level_sets", recording)
        for _ in tower_lines(10):
            pass
        built = set(asked)
        # each entry of the two memos above asks once, and each level set of
        # a budget above 1 asks for budget 1 and for the budget below it
        outer = enumerator._children.cache_info().misses
        outer += enumerator._last_keys.cache_info().misses
        assert len(asked) == outer + 2 * sum(size > 1 for _, size in built)
        assert real.cache_info().misses == len(built) < outer

    def test_budgets_share_their_level_tuples(self, monkeypatch):
        enumerator._level_sets.cache_clear()
        asked = set()
        real = enumerator._level_sets

        def recording(below, max_size):
            asked.add((below, max_size))
            return real(below, max_size)

        monkeypatch.setattr(enumerator, "_level_sets", recording)
        for _ in walk(9):
            pass
        larger = [(below, size) for below, size in asked if size > 1]
        assert len(larger) > 100
        for below, size in larger:
            # the levels below the budget are the smaller budget's, in its
            # order, and each is the very tuple that budget holds
            smaller = real(below, size - 1)
            shared = [level for level in real(below, size) if len(level) < size]
            assert len(shared) == len(smaller), (below, size)
            assert all(map(operator.is_, shared, smaller)), (below, size)

    def test_walk_memo_stays_small(self):
        # walk(1..10) leaves 921 level sets: 0.8 MB now that a row's budgets
        # share their level tuples, 1.2 MB when each budget built its own,
        # 2.1 MB when each level was paired with the budget after it
        held = held_bytes(
            "for n in range(1, 11):\n"
            "    for _ in enumerator.walk(n):\n"
            "        pass"
        )
        assert held < 1_000_000

    def test_memos_stay_small(self):
        # what tower_lines(10) leaves in the enumerator's memos: 2.4 MB
        # before the _children memo, 2.6 MB with its flat records; a
        # layout that doubles them fails
        held = held_bytes("for _ in enumerator.tower_lines(10):\n    pass")
        assert held < 5_000_000

    @pytest.mark.parametrize("n", range(1, 9))
    def test_anchored_levels_are_a_normal_form(self, n):
        # the base never moves, so distinct towers have distinct levels
        for b in range(1, n + 1):
            base = tuple(range(0, 2 * b, 2))
            anchored = [levels for levels, _ in walk(n, b)]
            assert all(levels[0] == base for levels in anchored)
            # verify proves the towers distinct by this strict order
            assert all(lo < hi for lo, hi in zip(anchored, anchored[1:]))
            shapes = {TowerShape.from_levels(levels) for levels in anchored}
            assert len(set(anchored)) == len(shapes) == comb(2 * n - 1, n - b)


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
        capped = raised[0][1] == "n=13 exceeds the enumeration cap 12"
        assert capped == (n == 13 and b is None)


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
                    b = len(t[-1]) + 1
                    counts[b] = counts.get(b, 0) + 1
            for b in range(2, n + 2):
                assert counts.get(b, 0) == recurrences.g(b, n), (b, n)

    def test_classifies_the_canonical_convex_shapes(self, monkeypatch):
        # classify reads only how rows move, so it would count a shape left
        # in anchored position right; TowerShape promises canonical levels
        classified = []

        def recording(shape):
            classified.append(shape)
            return classify(shape)

        monkeypatch.setattr(enumerator, "classify", recording)
        census(6)
        assert classified == [t for t in towers(6) if t.convex]

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
