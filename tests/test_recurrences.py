"""Recurrence values against the bundled reference tables and closed forms.

The embedded reference tables are compared cell by cell.  Their printed
total columns contain arithmetic slips in two places (stack rows 9-10 and
convex rows 7-10); the cells themselves are confirmed independently by the
exhaustive enumerator, so the tests below pin the true row sums and assert
that the discrepancy in the reference files is exactly the known one.
"""

import functools
import math
import random
import time
import tracemalloc

import pytest

from dominotowers import recurrences
from dominotowers.recurrences import (
    CountTable,
    c,
    family_value,
    g,
    h,
    r,
    table,
)
import references

TRUE_STACK_TOTALS = [1, 2, 5, 11, 23, 45, 85, 154, 272, 468]
TRUE_SKEW_TOTALS = [0, 1, 4, 12, 32, 76, 176, 381, 817, 1697]
TRUE_CONVEX_TOTALS = [1, 4, 14, 41, 106, 253, 572, 1238, 2606, 5374]
REF_MAX_B, REF_MAX_N = 40, 200


@functools.cache
def reference_tables(k: int) -> dict[str, dict[tuple[int, int], int]]:
    """The module docstring's recurrences, transcribed with their O(b) sums."""
    g, h, r = {}, {}, {}
    for n in range(1, REF_MAX_N + 1):
        for b in range(1, REF_MAX_B + 1):
            if b >= 2 and n == b - 1:
                g[b, n] = 1
            elif b >= 2 and n >= b:
                m = n - b + 1
                g[b, n] = g.get((b, m), 0) + (k - 1) * g.get((b - 1, m), 0)
            if n == b:
                h[b, n] = 1
            elif n > b:
                h[b, n] = sum(
                    (k * (b - i) + 1) * h.get((i, n - b), 0) for i in range(1, b + 1)
                )
            r[b, n] = sum(
                k * r.get((i, n - b), 0) + (k - 1) * h.get((i, n - b), 0)
                for i in range(1, b + 1)
            )
    return {"g": g, "h": h, "r": r}


@functools.cache
def reference_convex() -> dict[tuple[int, int], int]:
    """The docstring convolution for c over the k=2 reference tables."""
    ref = reference_tables(2)
    g, h, r = (ref[f] for f in "ghr")
    return {
        (b, n): sum(
            (g.get((b, m), 0) + (m == 0))
            * (2 * r.get((b, n - m), 0) + h.get((b, n - m), 0))
            for m in range(n + 1)
        )
        for b in range(1, REF_MAX_B + 1)
        for n in range(REF_MAX_N + 1)
    }


class TestSpotValues:
    def test_supporting_family(self):
        assert g(4, 3) == 1
        assert all(g(2, n) == 1 for n in range(1, 13))
        assert g(3, 6) == 3  # unrolls to g(3,4) + g(2,4) = 2 + 1

    def test_stack_family(self):
        assert h(4, 7) == 25
        assert h(5, 10) == 113
        assert all(h(b, b) == 1 for b in range(1, 13))

    def test_skew_family(self):
        assert r(3, 6) == 13
        assert r(1, 8) == 127
        assert all(r(b, b + 1) == 1 for b in range(1, 13))

    def test_convex_family(self):
        assert c(2, 3) == 6  # (2*1 + 3) + 1*(0 + 1)
        assert c(2, 5) == 48
        assert c(4, 10) == 531

    def test_column_one_closed_forms(self):
        for n in range(1, 31):
            assert h(1, n) == 1
            assert r(1, n) == 2 ** (n - 1) - 1
            assert c(1, n) == 2 ** n - 1


class TestBaseCaseGrid:
    def test_zero_outside_defined_ranges(self):
        for b in range(0, 13):
            for n in range(0, 13):
                if b < 2 or n < 1 or n < b - 1:
                    assert g(b, n) == 0, ("g", b, n)
                if n < 1 or b < 1 or n < b:
                    assert h(b, n) == 0, ("h", b, n)
                if n < 2 or b < 1 or n < b + 1:
                    assert r(b, n) == 0, ("r", b, n)

    def test_unit_bases(self):
        for b in range(2, 13):
            assert g(b, b - 1) == 1
        for b in range(1, 13):
            assert h(b, b) == 1
            assert r(b, b + 1) == 1

    def test_all_values_non_negative(self):
        for b in range(0, 13):
            for n in range(0, 13):
                assert min(g(b, n), h(b, n), r(b, n), c(max(b, 1), n)) >= 0


class TestAgainstReferenceTables:
    def test_stack_cells(self):
        fixture = references.stack_table()
        assert table("h", 10, 10) == [list(row) for row in fixture.cells]

    def test_skew_cells(self):
        fixture = references.skewed_table()
        assert table("r", 10, 9) == [list(row) for row in fixture.cells]

    def test_convex_cells(self):
        fixture = references.convex_table()
        assert table("c", 10, 10) == [list(row) for row in fixture.cells]

    def test_true_row_totals(self):
        assert [sum(row) for row in table("h", 10, 10)] == TRUE_STACK_TOTALS
        assert [sum(row) for row in table("r", 10, 9)] == TRUE_SKEW_TOTALS
        assert [sum(row) for row in table("c", 10, 10)] == TRUE_CONVEX_TOTALS

    def test_reference_total_columns_known_inconsistency(self):
        # the reference files carry their upstream tables verbatim; their
        # printed totals disagree with their own rows exactly here
        stack = references.stack_table()
        assert list(stack.printed_totals[:8]) == TRUE_STACK_TOTALS[:8]
        assert stack.printed_totals[8] == 267 and TRUE_STACK_TOTALS[8] == 272
        assert stack.printed_totals[9] == 455 and TRUE_STACK_TOTALS[9] == 468

        skew = references.skewed_table()
        assert list(skew.printed_totals) == TRUE_SKEW_TOTALS

        convex = references.convex_table()
        assert list(convex.printed_totals[:6]) == TRUE_CONVEX_TOTALS[:6]
        assert list(convex.printed_totals[6:]) == [541, 1234, 2598, 5340]
        assert TRUE_CONVEX_TOTALS[6:] == [572, 1238, 2606, 5374]


class TestGeneralizedBlockLength:
    def test_hand_unrolled_triomino_value(self):
        # h_{2,3}(4) = (3*1 + 1) * h_{1,3}(2) + 1 * h_{2,3}(2) = 4 + 1
        assert family_value("h", 1, 2, 3) == 1
        assert family_value("h", 2, 2, 3) == 1
        assert family_value("h", 2, 4, 3) == 5

    def test_skew_unit_case_scales_with_block_length(self):
        # the recurrence itself fixes r(b, b+1) = k - 1: one overhanging
        # block placed in any of its k-1 offsets
        for k in (2, 3, 4, 5):
            for b in range(1, 5):
                assert family_value("r", b, b + 1, k) == k - 1

    def test_k_validation(self):
        with pytest.raises(ValueError, match="block length k=1 is not supported"):
            family_value("g", 2, 2, 1)
        with pytest.raises(ValueError, match="block length k=0 is not supported"):
            CountTable("h", k=0)
        message = "the convex family is only defined for k=2"
        with pytest.raises(ValueError, match=message):
            family_value("c", 2, 3, k=3)


class TestTableMechanics:
    def test_monotone_growth(self):
        for b in range(1, 31):
            for n in range(b, 30):
                assert c(b, n + 1) >= c(b, n)

    def test_frontier_growth_is_consistent(self):
        fresh = CountTable("h")
        grown = CountTable("h")
        grown.ensure(3, 10)
        grown.ensure(6, 40)
        fresh.ensure(6, 40)
        for b in range(1, 7):
            for n in range(1, 41):
                assert grown.value(b, n) == fresh.value(b, n)

    def test_large_n_is_exact(self):
        # comfortably past 64-bit range
        assert c(1, 200) == 2 ** 200 - 1
        assert r(1, 200) == 2 ** 199 - 1

    def test_stack_and_skew_tables_hold_only_their_values(self, monkeypatch):
        # h and r at 200 x 200 hold about 2.1 MiB of big ints: the bound admits
        # the values but not a second big-int row beside each value row
        monkeypatch.setattr(recurrences, "_table", functools.cache(recurrences.CountTable))
        tracemalloc.start()
        try:
            recurrences._table("h", 2).ensure(200, 200)
            recurrences._table("r", 2).ensure(200, 200)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 3 * 2**20

    def test_table_bounds_validation(self):
        with pytest.raises(ValueError):
            table("h", 0, 5)
        with pytest.raises(ValueError):
            recurrences.family_value("x", 1, 1)

    @pytest.mark.parametrize("family", ["g", "h", "r", "c"])
    def test_rows_refuse_a_negative_max_n(self, family):
        with pytest.raises(ValueError, match="^max_n must be at least 0$"):
            recurrences.rows(family, 2, -1)


class TestAgainstDocstringRecurrences:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_interleaved_growth_matches_reference(self, monkeypatch, k):
        monkeypatch.setattr(recurrences, "_table", functools.cache(recurrences.CountTable))
        ref = reference_tables(k)
        # the r table reads the shared h table, which the test grows too
        tables = {"g": CountTable("g", k), "r": CountTable("r", k)}
        tables["h"] = recurrences._table("h", k)
        rng = random.Random(k)
        # the reachable corner widens slowly, so growth comes in many small,
        # out-of-order steps across rows and between the h and r tables
        for step in range(3000):
            family = rng.choice("ghr")
            b = rng.randint(-2, min(REF_MAX_B, 2 + step // 40))
            n = rng.randint(-2, min(REF_MAX_N, 2 + step // 12))
            if rng.random() < 0.1:
                tables[family].ensure(max(b, 1), max(n, 1))
            assert tables[family].value(b, n) == ref[family].get((b, n), 0), (
                family, b, n
            )
        for family, t in tables.items():
            for b in range(-2, REF_MAX_B + 1):
                for n in range(-2, REF_MAX_N + 1):
                    assert t.value(b, n) == ref[family].get((b, n), 0), (family, b, n)

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("family", "ghr")
    def test_growth_steps_at_regime_edges_match_reference(self, monkeypatch, family, k):
        # g sums new cells one by one below 8 of them, per class mod b - 1
        # when (b - 1)^2 is below their number, else per block of b - 1; the
        # steps straddle each switch, starting from the row's first column
        monkeypatch.setattr(recurrences, "_table", functools.cache(recurrences.CountTable))
        ref = reference_tables(k)[family]
        ref_rows = [
            [ref.get((b, n), 0) for n in range(REF_MAX_N + 1)]
            for b in range(REF_MAX_B + 1)
        ]
        for b in range(1, REF_MAX_B + 1):
            t = CountTable(family, k)
            first = t._first(b)
            n = 0 if first == math.inf else first
            if n:
                t.ensure(b, n - 1)  # zeros only: max_n is left of the first column
            t.ensure(b, n)
            for step in (1, b - 2, b - 1, b, (b - 1) ** 2, (b - 1) ** 2 + 1):
                if step > 0 and n + step <= REF_MAX_N:
                    n += step
                    t.ensure(b, n)
            for row in range(b + 1):
                assert t._rows[row][: n + 1] == ref_rows[row][: n + 1], (b, row, n)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_table_extracts_match_reference(self, monkeypatch, k):
        # later extracts read rows an earlier, differently shaped one grew
        monkeypatch.setattr(recurrences, "_table", functools.cache(recurrences.CountTable))
        ref = reference_tables(k)
        for max_n, max_b in [(5, 12), (60, 40), (30, 40), (200, 3)]:
            for family in "ghr":
                assert table(family, max_n, max_b, k) == [
                    [ref[family].get((b, n), 0) for b in range(1, max_b + 1)]
                    for n in range(1, max_n + 1)
                ], (family, max_n, max_b)

    def test_convex_reads_match_reference(self, monkeypatch):
        monkeypatch.setattr(recurrences, "_table", functools.cache(recurrences.CountTable))
        ref = reference_convex()
        reads = {"g": g, "h": h, "r": r, "c": c}
        known = {**reference_tables(2), "c": ref}
        rng = random.Random(13)
        # c reads rows that g/h/r reads grew to other lengths, and the other
        # way round
        for step in range(2000):
            family = rng.choice("ghrc")
            b = rng.randint(-2, min(REF_MAX_B, 2 + step // 50))
            n = rng.randint(-2, min(REF_MAX_N, 2 + step // 10))
            assert reads[family](b, n) == known[family].get((b, n), 0), (family, b, n)
        for b in range(-2, REF_MAX_B + 1):
            for n in range(-2, REF_MAX_N + 1):
                assert c(b, n) == ref.get((b, n), 0), (b, n)

    def test_convex_table_extracts_match_reference(self, monkeypatch):
        monkeypatch.setattr(recurrences, "_table", functools.cache(recurrences.CountTable))
        ref = reference_convex()
        for max_n, max_b in [(5, 30), (60, 40), (200, 3), (1, 1), (1, 5)]:
            assert table("c", max_n, max_b) == [
                [ref[b, n] for b in range(1, max_b + 1)] for n in range(1, max_n + 1)
            ], (max_n, max_b)

    @pytest.mark.parametrize("b, n", [(10**8, 5), (5, 4), (0, 7), (3, -1)])
    def test_convex_outside_its_region_grows_nothing(self, monkeypatch, b, n):
        def refuse(*args):
            raise AssertionError(f"c({b}, {n}) grew a table")

        monkeypatch.setattr(recurrences, "_table", functools.cache(recurrences.CountTable))
        monkeypatch.setattr(CountTable, "ensure", refuse)
        assert c(b, n) == 0

    @pytest.mark.parametrize(
        "family, b, n",
        [
            ("g", 10**8, 5),
            ("g", 1, 10**8),
            ("g", 0, 0),
            ("h", 10**8, 5),
            ("h", -3, 10),
            ("r", 10**8, 10**8),
            ("r", 4, -1),
        ],
    )
    def test_out_of_region_reads_do_not_grow(self, monkeypatch, family, b, n):
        def refuse(*args):
            raise AssertionError(f"{family}({b}, {n}) grew the table")

        t = CountTable(family)
        monkeypatch.setattr(t, "ensure", refuse)
        assert t.value(b, n) == 0

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("family", "ghr")
    def test_rows_are_zero_left_of_their_first_column(self, family, k):
        ref = reference_tables(k)[family]
        t = CountTable(family, k)
        for b in range(-2, REF_MAX_B + 1):
            first = t._first(b)
            end = REF_MAX_N + 1 if first == math.inf else first
            assert not any(ref.get((b, n), 0) for n in range(-2, end)), (b, first)
            if first != math.inf:
                assert ref[b, first] != 0, (b, first)

    def test_standalone_skew_table_reads_the_shared_stacks(self):
        assert CountTable("r").value(3, 10) == r(3, 10)
        assert CountTable("r", 3).value(2, 6) == family_value("r", 2, 6, 3)


class TestGrowthCost:
    """Walking n upward extends each row a cell per call, and a g row sums
    longer extensions per class or block; nothing is rebuilt."""

    def test_cold_convex_walk(self, monkeypatch):
        monkeypatch.setattr(recurrences, "_table", functools.cache(recurrences.CountTable))
        start = time.process_time()
        c(6, 2000)
        assert time.process_time() - start < 1.0

    def test_convex_table(self, monkeypatch):
        monkeypatch.setattr(recurrences, "_table", functools.cache(recurrences.CountTable))
        start = time.process_time()
        table("c", 200, 200)
        assert time.process_time() - start < 1.0

    def test_partition_totals_walk(self, monkeypatch):
        # partition totals read cell by cell from a cold table
        monkeypatch.setattr(recurrences, "_table", functools.cache(recurrences.CountTable))
        start = time.process_time()
        for n in range(1, 301):
            sum(g(b, n) for b in range(2, n + 2))
        assert time.process_time() - start < 1.0
