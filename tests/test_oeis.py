"""b-file parsing, ordering detection, comparison, and cache behavior.

Comparison tests use b-files generated from the embedded reference tables,
so the two sides of each check come from independent places: reference
table cells on one side, recurrence values on the other.
"""

import errno
import sys
import urllib.request
from pathlib import Path

import pytest

from dominotowers import oeis, recurrences
from dominotowers.asymptotics import limit_constant_digits
from dominotowers.oeis import (
    AlignmentError,
    BFileError,
    FetchError,
    KNOWN_SEQUENCES,
    bfile_url,
    compare_bfile,
    fetch_bfile,
    parse_bfile,
)
import references


def bfile_text(values, start=1, header=True):
    lines = ["# generated fixture"] if header else []
    lines.extend(f"{i} {v}" for i, v in enumerate(values, start=start))
    return "\n".join(lines) + "\n"


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
        assert result.ok
        assert result.compared == result.matched == 55
        assert result.candidate == "rows b=1..n"

    def test_stack_triangle_from_reference_table(self):
        flat = references.flatten_triangle("stack_counts.csv")
        result = compare_bfile("A275204", "h", bfile_text(flat))
        assert result.ok and result.compared == 55

    def test_skew_triangle_from_reference_table(self):
        flat = references.flatten_triangle("skewed_counts.csv")
        result = compare_bfile("A275599", "r", bfile_text(flat))
        assert result.ok and result.compared == 54

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
        assert result.ok
        assert result.candidate == "rows b=1..n-1"
        assert result.compared == 45

    def test_triangle_cells_are_computed_once(self, monkeypatch):
        calls = []
        real = recurrences.family_value

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(recurrences, "family_value", counting)
        flat = references.flatten_triangle("convex_counts.csv")
        assert compare_bfile("A275662", "c", bfile_text(flat)).ok
        # 11 rows fill all four readings: the dropped-diagonal ones need 66 cells
        assert len(calls) <= 66

    def test_detects_skipped_leading_zero_row(self):
        # same skew triangle but starting at the first non-zero row
        flat = references.flatten_triangle("skewed_counts.csv")
        result = compare_bfile("A275599", "r", bfile_text(flat[1:]))
        assert result.ok
        assert "leading zero rows skipped" in result.candidate

    def test_supporting_triangle(self):
        from dominotowers.recurrences import g

        values = [g(p + 1, n) for n in range(1, 9) for p in range(1, n + 1)]
        result = compare_bfile("A117468", "g", bfile_text(values))
        assert result.ok

    def test_partition_totals_both_offsets(self):
        from dominotowers.recurrences import g

        totals = [sum(g(b, n) for b in range(2, n + 2)) for n in range(1, 21)]
        assert compare_bfile("A034296", "partitions", bfile_text(totals)).ok
        with_empty = [1] + totals
        result = compare_bfile(
            "A034296", "partitions", bfile_text(with_empty, start=0)
        )
        assert result.ok and result.candidate == "totals from n=0"

    def test_constant_digits(self):
        digits = [int(d) for d in limit_constant_digits(12)]
        result = compare_bfile("A065446", "constant", bfile_text(digits))
        assert result.ok
        assert digits[:10] == [3, 4, 6, 2, 7, 4, 6, 6, 1, 9]

    def test_mismatch_is_reported_with_index(self):
        flat = list(references.flatten_triangle("convex_counts.csv"))
        flat[20] += 1
        result = compare_bfile("A275662", "c", bfile_text(flat))
        assert not result.ok
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

    @pytest.mark.parametrize("term_cap", [0, -1])
    def test_term_cap_below_one(self, term_cap):
        flat = references.flatten_triangle("convex_counts.csv")
        with pytest.raises(ValueError, match="^term_cap must be at least 1$"):
            compare_bfile("A275662", "c", bfile_text(flat), term_cap=term_cap)


class FakeResponse:
    """Stands in for the response urllib.request.urlopen returns."""

    def __init__(self, body: bytes):
        self.body = body

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def read(self):
        return self.body


class TestFetch:
    def test_url_pattern(self):
        assert bfile_url("A275662") == "https://oeis.org/A275662/b275662.txt"

    def test_known_ids_cover_all_families(self):
        assert set(KNOWN_SEQUENCES.values()) == {
            "g", "h", "r", "c", "partitions", "constant"
        }

    def test_cache_hit_never_opens_a_connection(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("network touched despite cache hit")

        monkeypatch.setattr(urllib.request, "urlopen", refuse)
        (tmp_path / "A275662.txt").write_text("1 1\n", encoding="utf-8")
        text = fetch_bfile("A275662", tmp_path, allow_network=True)
        assert text == "1 1\n"

    def test_network_disabled_without_cache(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("network touched while disabled")

        monkeypatch.setattr(urllib.request, "urlopen", refuse)
        with pytest.raises(FetchError):
            fetch_bfile("A275662", tmp_path, allow_network=False)

    def test_cache_directory_is_made_only_on_write(self, tmp_path, monkeypatch):
        cache_dir = tmp_path / "not" / "yet"
        with pytest.raises(FetchError):
            fetch_bfile("A275662", cache_dir, allow_network=False)
        assert not (tmp_path / "not").exists()
        monkeypatch.setattr(
            urllib.request, "urlopen", lambda url, timeout=None: FakeResponse(b"1 1\n")
        )
        assert fetch_bfile("A275662", cache_dir, allow_network=True) == "1 1\n"
        assert (cache_dir / "A275662.txt").read_text(encoding="utf-8") == "1 1\n"

    def test_fetch_writes_cache_and_reuses_it(self, tmp_path, monkeypatch):
        calls = []

        def fake_urlopen(url, timeout=None):
            calls.append(url)
            return FakeResponse(b"1 1\n2 4\n")

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        first = fetch_bfile("A034296", tmp_path, allow_network=True)
        second = fetch_bfile("A034296", tmp_path, allow_network=True)
        assert first == second == "1 1\n2 4\n"
        assert calls == [bfile_url("A034296")]
        assert (tmp_path / "A034296.txt").exists()

    def test_failed_cache_write_leaves_no_bfile(self, tmp_path, monkeypatch):
        real_write_text = Path.write_text

        def disk_full(path, text, **kwargs):
            real_write_text(path, text[: len(text) // 2], **kwargs)
            raise OSError(errno.ENOSPC, "No space left on device")

        def fake_urlopen(url, timeout=None):
            return FakeResponse(b"1 1\n2 4\n3 9\n")

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        monkeypatch.setattr(Path, "write_text", disk_full)
        with pytest.raises(OSError):
            fetch_bfile("A034296", tmp_path, allow_network=True)
        assert list(tmp_path.iterdir()) == []

    def test_fetch_retries_once_then_fails(self, tmp_path, monkeypatch):
        calls = []

        def failing_urlopen(url, timeout=None):
            calls.append(url)
            raise urllib.error.URLError("down")

        import urllib.error

        monkeypatch.setattr(urllib.request, "urlopen", failing_urlopen)
        with pytest.raises(FetchError):
            fetch_bfile("A065446", tmp_path, allow_network=True)
        assert len(calls) == 2
