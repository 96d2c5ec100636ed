"""b-file parsing, ordering detection and comparison.

Comparison tests use b-files generated from the embedded reference tables,
so the two sides of each check come from independent places: reference
table cells on one side, recurrence values on the other.
"""

import sys

import pytest

from dominotowers import oeis, recurrences
from dominotowers.asymptotics import limit_constant_digits
from dominotowers.oeis import (
    AlignmentError,
    BFileError,
    KNOWN_SEQUENCES,
    compare_bfile,
    parse_bfile,
)
import references


def bfile_text(values, start=1, header=True):
    lines = ["# generated fixture"] if header else []
    lines.extend(f"{i} {v}" for i, v in enumerate(values, start=start))
    return "\n".join(lines) + "\n"


def reference_reading(family, drop, skip, limit):
    """One triangle reading built cell by cell from ``family_value``."""
    shift = 1 if family == "g" else 0
    out, n = [], 0
    while len(out) < limit:
        n += 1
        width = n - 1 if drop else n
        cells = [
            recurrences.family_value(family, b + shift, n) for b in range(1, width + 1)
        ]
        if out or not skip or any(cells):
            out.extend(cells)
    return out[:limit]


# 1, 2, 3, 640, 4096, and each N(N-1)/2 (rows 1..N just suffice) with the
# limit after it (row N + 1 is needed), up to 4096 = 91 * 90 / 2 + 1
READING_LIMITS = sorted(
    {1, 2, 3, 640, 4096}
    | {n * (n - 1) // 2 + d for n in range(2, 92) for d in (0, 1)}
)


class TestParse:
    def test_basic(self):
        assert parse_bfile("1 5\n2 7\n") == [(1, 5), (2, 7)]

    def test_comments_blanks_and_crlf(self):
        text = "# comment\r\n\r\n0 1\r\n1 4\r\n"
        assert parse_bfile(text) == [(0, 1), (1, 4)]

    def test_malformed_value_reports_line(self):
        with pytest.raises(BFileError) as info:
            parse_bfile("1 3\n5 abc\n")
        assert info.value.line_number == 2

    @pytest.mark.parametrize(
        "field", ["1_000", "+4", "\u0663", "\uff15"],
        ids=["underscore", "plus-sign", "arabic-indic-digit", "fullwidth-digit"],
    )
    def test_rejects_what_int_reads_but_no_bfile_holds(self, field):
        with pytest.raises(BFileError, match="non-integer field") as info:
            parse_bfile(f"1 3\n2 {field}\n")
        assert info.value.line_number == 2

    def test_negative_value(self):
        assert parse_bfile("1 -5\n2 0\n") == [(1, -5), (2, 0)]

    def test_wrong_field_count(self):
        with pytest.raises(BFileError):
            parse_bfile("1 2 3\n")

    def test_non_consecutive_indices(self):
        with pytest.raises(BFileError):
            parse_bfile("1 2\n3 4\n")

    def test_empty(self):
        with pytest.raises(BFileError):
            parse_bfile("# nothing\n")

    def test_term_digit_cap_holds_with_the_process_limit_lifted(self):
        cap = oeis.TERM_DIGIT_CAP
        longest = "9" * cap
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert parse_bfile(f"1 {longest}\n2 -{longest}\n") == [
                (1, int(longest)),
                (2, -int(longest)),
            ]
            with pytest.raises(BFileError, match=f"over {cap} digits") as info:
                parse_bfile(f"1 {longest}\n2 {longest}9\n")
        finally:
            sys.set_int_max_str_digits(previous)
        assert info.value.line_number == 2


class TestCompare:
    def test_convex_triangle_from_reference_table(self):
        flat = references.flatten_triangle("convex_counts.csv")
        result = compare_bfile("A275662", "c", bfile_text(flat))
        assert result.first_mismatch is None
        assert result.compared == result.matched == 55
        assert result.candidate == "rows b=1..n"

    def test_stack_triangle_from_reference_table(self):
        flat = references.flatten_triangle("stack_counts.csv")
        result = compare_bfile("A275204", "h", bfile_text(flat))
        assert result.first_mismatch is None and result.compared == 55

    def test_skew_triangle_from_reference_table(self):
        flat = references.flatten_triangle("skewed_counts.csv")
        result = compare_bfile("A275599", "r", bfile_text(flat))
        assert result.first_mismatch is None and result.compared == 54

    @pytest.mark.parametrize(
        "table, seq_id, family",
        [
            ("convex_counts.csv", "A275662", "c"),
            ("stack_counts.csv", "A275204", "h"),
            ("skewed_counts.csv", "A275599", "r"),
        ],
    )
    def test_detects_dropped_diagonal(self, table, seq_id, family):
        cells = references.load_count_table(table).cells
        flat = [v for n, row in enumerate(cells, start=1) for v in row[: n - 1]]
        result = compare_bfile(seq_id, family, bfile_text(flat))
        assert result.first_mismatch is None
        assert result.candidate == "rows b=1..n-1"
        assert result.compared == 45

    def test_triangle_rows_are_read_once(self, monkeypatch):
        calls = []
        real = recurrences.rows

        def counting(family, max_b, max_n, *rest):
            calls.append((family, max_b, max_n))
            return real(family, max_b, max_n, *rest)

        monkeypatch.setattr(recurrences, "rows", counting)
        flat = references.flatten_triangle("convex_counts.csv")
        assert len(flat) == 55
        assert compare_bfile("A275662", "c", bfile_text(flat)).first_mismatch is None
        # 11 rows fill every reading: the dropped-diagonal one needs 55 of their cells
        assert len(calls) == 1
        family, max_b, max_n = calls[0]
        assert family == "c" and max_b <= 11 and max_n <= 11

    @pytest.mark.parametrize("family", ["g", "h", "r", "c"])
    def test_triangle_readings_equal_per_cell_reference(self, family, monkeypatch):
        full = {
            (drop, skip): reference_reading(family, drop, skip, max(READING_LIMITS))
            for drop in (False, True)
            for skip in (False, True)
        }
        kept, dropped = full[False, False], full[True, False]
        skipped = full[False, True]
        # without its diagonal cell row 1 is empty and row 2 starts non-zero,
        # so skipping leading zero rows never changes the dropped reading
        assert full[True, True] == dropped
        named = {"rows b=1..n": kept, "rows b=1..n-1": dropped}
        if family == "r":  # r(1, 1) = 0 is the one leading zero row
            assert kept[0] == 0
            assert skipped[:-1] == kept[1:]
            named["rows b=1..n, leading zero rows skipped"] = skipped
        else:
            assert skipped == kept
        for limit in READING_LIMITS:
            monkeypatch.setattr(recurrences, "_tables", {})  # cold, as for the CLI
            assert oeis._readings(family, limit) == [
                (name, terms[:limit]) for name, terms in named.items()
            ]

    def test_triangle_checks_read_no_single_cells(self, monkeypatch):
        calls = []
        real_value, real_c = recurrences.CountTable.value, recurrences.c

        def counting_value(self, *args):
            calls.append(("value", args))
            return real_value(self, *args)

        def counting_c(*args):
            calls.append(("c", args))
            return real_c(*args)

        triangles = {
            "A275204": ("h", references.flatten_triangle("stack_counts.csv")),
            "A275599": ("r", references.flatten_triangle("skewed_counts.csv")),
            "A275662": ("c", references.flatten_triangle("convex_counts.csv")),
            "A117468": ("g", [recurrences.g(p + 1, n)
                              for n in range(1, 9) for p in range(1, n + 1)]),
        }
        monkeypatch.setattr(recurrences, "_tables", {})
        monkeypatch.setattr(recurrences.CountTable, "value", counting_value)
        monkeypatch.setattr(recurrences, "c", counting_c)
        for seq_id, (family, flat) in triangles.items():
            result = compare_bfile(seq_id, family, bfile_text(flat))
            assert result.first_mismatch is None
        assert calls == []

    def test_detects_skipped_leading_zero_row(self):
        # same skew triangle but starting at the first non-zero row
        flat = references.flatten_triangle("skewed_counts.csv")
        result = compare_bfile("A275599", "r", bfile_text(flat[1:]))
        assert result.first_mismatch is None
        assert "leading zero rows skipped" in result.candidate

    def test_supporting_triangle(self):
        from dominotowers.recurrences import g

        values = [g(p + 1, n) for n in range(1, 9) for p in range(1, n + 1)]
        result = compare_bfile("A117468", "g", bfile_text(values))
        assert result.first_mismatch is None

    def test_partition_totals_both_offsets(self):
        from dominotowers.recurrences import g

        totals = [sum(g(b, n) for b in range(2, n + 2)) for n in range(1, 21)]
        result = compare_bfile("A034296", "partitions", bfile_text(totals))
        assert result.first_mismatch is None
        with_empty = [1] + totals
        result = compare_bfile(
            "A034296", "partitions", bfile_text(with_empty, start=0)
        )
        assert result.first_mismatch is None and result.candidate == "totals from n=0"

    def test_partition_totals_grow_the_table_once(self, monkeypatch):
        from dominotowers.recurrences import g

        totals = [sum(g(b, n) for b in range(2, n + 2)) for n in range(1, 301)]
        calls = []
        real = recurrences.CountTable.ensure

        def counting(self, *args):
            calls.append(args)
            return real(self, *args)

        monkeypatch.setattr(recurrences, "_tables", {})
        monkeypatch.setattr(recurrences.CountTable, "ensure", counting)
        result = compare_bfile("A034296", "partitions", bfile_text(totals))
        assert result.first_mismatch is None
        assert len(calls) <= 2

    def test_partition_totals_read_no_single_cells(self, monkeypatch):
        from dominotowers.recurrences import g

        totals = [sum(g(b, n) for b in range(2, n + 2)) for n in range(1, 301)]
        calls = []
        real = recurrences.CountTable.value

        def counting(self, *args):
            calls.append(args)
            return real(self, *args)

        monkeypatch.setattr(recurrences, "_tables", {})
        monkeypatch.setattr(recurrences.CountTable, "value", counting)
        result = compare_bfile("A034296", "partitions", bfile_text(totals))
        assert result.first_mismatch is None
        assert calls == []

    def test_term_cap(self):
        from dominotowers.recurrences import h

        flat = [h(b, n) for n in range(1, 101) for b in range(1, n + 1)]
        assert len(flat) == 5050
        result = compare_bfile("A275204", "h", bfile_text(flat))
        assert result.first_mismatch is None and result.compared == 4096

    def test_digit_cap(self):
        digits = [int(d) for d in limit_constant_digits(60)]
        result = compare_bfile("A065446", "constant", bfile_text(digits))
        assert result.first_mismatch is None and result.compared == 40

    def test_constant_digits(self):
        digits = [int(d) for d in limit_constant_digits(12)]
        result = compare_bfile("A065446", "constant", bfile_text(digits))
        assert result.first_mismatch is None
        assert digits[:10] == [3, 4, 6, 2, 7, 4, 6, 6, 1, 9]

    def test_mismatch_is_reported_with_index(self):
        flat = list(references.flatten_triangle("convex_counts.csv"))
        flat[20] += 1
        result = compare_bfile("A275662", "c", bfile_text(flat))
        assert result.first_mismatch is not None
        assert result.matched == 54
        index, ours, theirs = result.first_mismatch
        assert index == 21
        assert theirs == ours + 1

    def test_alignment_failure_is_an_error(self):
        with pytest.raises(AlignmentError):
            compare_bfile("A000001", "c", bfile_text([9, 9, 9, 9, 9, 9]))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            compare_bfile("A000001", "digits", bfile_text([1, 2, 3]))

    def test_known_ids_cover_all_families(self):
        assert set(KNOWN_SEQUENCES.values()) == {
            "g", "h", "r", "c", "partitions", "constant"
        }
