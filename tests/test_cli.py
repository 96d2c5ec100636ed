"""Command-line behavior: outputs, formats, exit codes, golden bytes."""

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dominotowers import cli, recurrences
from dominotowers.cli import build_parser, main
import references

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"


def child_env(*dirs):
    """The environment with PYTHONPATH set to the given repo directories."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(str(ROOT / d) for d in dirs)}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_convex_cell(self, capsys):
        code, out, _ = run(capsys, "count", "c", "--b", "4", "--n", "10")
        assert code == 0 and out == "531\n"

    def test_supporting_cell(self, capsys):
        code, out, _ = run(capsys, "count", "g", "--b", "2", "--n", "1")
        assert code == 0 and out == "1\n"

    def test_skew_cell(self, capsys):
        code, out, _ = run(capsys, "count", "r", "--b", "9", "--n", "10")
        assert code == 0 and out == "1\n"

    def test_generalized_block_length(self, capsys):
        code, out, _ = run(capsys, "count", "h", "--b", "2", "--n", "4", "--k", "3")
        assert code == 0 and out == "5\n"

    def test_convex_rejects_other_block_lengths(self, capsys):
        code, _, err = run(capsys, "count", "c", "--b", "2", "--n", "4", "--k", "3")
        assert code == 2
        assert "only defined" in err

    def test_convex_outside_its_region_grows_nothing(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a table grew")

        monkeypatch.setattr(recurrences, "_tables", {})
        monkeypatch.setattr(recurrences.CountTable, "ensure", refuse)
        code, out, _ = run(capsys, "count", "c", "--b", "100000000", "--n", "5")
        assert code == 0 and out == "0\n"

    def test_out_of_memory_exits_two(self, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(recurrences, "family_value", exhausted)
        code, out, err = run(capsys, "count", "g", "--b", "2", "--n", "1")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "memory" in err

    @pytest.mark.parametrize("family, b", [("c", 2), ("r", 1)])
    def test_value_past_int_str_digit_limit(self, capsys, monkeypatch, family, b):
        monkeypatch.setattr(recurrences, "_tables", {})
        code, out, err = run(capsys, "count", family, "--b", str(b), "--n", "15000")
        assert code == 0 and err == ""
        assert len(out) > 4301
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert out == f"{recurrences.family_value(family, b, 15000)}\n"
        finally:
            sys.set_int_max_str_digits(previous)

    @pytest.mark.parametrize(
        "argv, expected",
        [(["count", "c", "--b", "2", "--n", "15000"], 0),
         (["count", "c", "--b", "2", "--n", "4", "--k", "3"], 2)],
        ids=["long-value", "usage-error"],
    )
    def test_int_str_digit_limit_is_restored(self, argv, expected):
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            assert main(argv) == expected
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(previous)


class TestTable:
    def test_stack_table_golden_bytes(self, capsys):
        code, out, _ = run(capsys, "table", "h", "--max-n", "10", "--max-b", "10")
        assert code == 0
        assert out == (GOLDEN / "table_h_10x10.csv").read_text()

    def test_stack_cells_match_reference(self, capsys):
        _, out, _ = run(capsys, "table", "h", "--max-n", "10", "--max-b", "10")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        cells = [tuple(int(v) for v in row[1:-1]) for row in rows]
        assert tuple(cells) == references.stack_table().cells

    def test_single_cell_table(self, capsys):
        code, out, _ = run(capsys, "table", "r", "--max-n", "1", "--max-b", "1")
        assert code == 0
        assert out == "n,b=1,total\n1,0,0\n"

    def test_markdown_golden(self, capsys):
        code, out, _ = run(
            capsys, "table", "r", "--max-n", "6", "--max-b", "5",
            "--format", "markdown",
        )
        assert code == 0
        assert out == (GOLDEN / "table_r_6x5.md").read_text()

    def test_formats_carry_identical_numbers(self, capsys):
        _, csv_out, _ = run(capsys, "table", "c", "--max-n", "6", "--max-b", "6")
        _, tsv_out, _ = run(
            capsys, "table", "c", "--max-n", "6", "--max-b", "6", "--format", "tsv"
        )
        _, md_out, _ = run(
            capsys, "table", "c", "--max-n", "6", "--max-b", "6",
            "--format", "markdown",
        )
        csv_cells = [line.split(",") for line in csv_out.splitlines()]
        tsv_cells = [line.split("\t") for line in tsv_out.splitlines()]
        md_cells = [
            [cell.strip() for cell in line.strip("|").split("|")]
            for line in md_out.splitlines()
            if "---" not in line
        ]
        assert csv_cells == tsv_cells == md_cells

    def test_rendering_is_deterministic(self, capsys):
        first = run(capsys, "table", "g", "--max-n", "8", "--max-b", "8")
        second = run(capsys, "table", "g", "--max-n", "8", "--max-b", "8")
        assert first == second

    def test_bound_cap(self, capsys):
        code, _, err = run(capsys, "table", "h", "--max-n", "5000", "--max-b", "2")
        assert code == 2 and "bounds" in err


class TestTheta:
    def test_default_five_decimals_golden(self, capsys):
        code, out, _ = run(capsys, "theta", "--max-b", "10")
        assert code == 0
        assert out == (GOLDEN / "theta_b10.csv").read_text()

    def test_one_decimal(self, capsys):
        code, out, _ = run(capsys, "theta", "--max-b", "2", "--decimals", "1")
        lines = out.splitlines()
        assert code == 0
        assert lines[1] == "theta,2.0"
        assert lines[2] == "estimate,1.7"
        assert lines[3] == "error,0.3"

    def test_usage_errors(self, capsys):
        assert run(capsys, "theta", "--max-b", "1")[0] == 2
        assert run(capsys, "theta", "--max-b", "4", "--decimals", "-2")[0] == 2

    def test_largest_base(self, capsys):
        code, out, _ = run(capsys, "theta", "--max-b", str(cli.THETA_MAX_B))
        assert code == 0
        assert out.splitlines()[0].endswith(f",b={cli.THETA_MAX_B}")

    def test_most_decimals(self, capsys):
        decimals = str(cli.THETA_MAX_DECIMALS)
        code, out, _ = run(capsys, "theta", "--max-b", "2", "--decimals", decimals)
        assert code == 0
        assert out.splitlines()[1] == "theta,2." + "0" * cli.THETA_MAX_DECIMALS

    def test_forty_bases_twelve_decimals_golden(self, capsys):
        argv = ["theta", "--max-b", "40", "--decimals", "12", "--format", "tsv"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == (GOLDEN / "theta_b40_d12.tsv").read_text()

    def test_largest_input_digest(self, capsys):
        # byte pin for the largest accepted input, every cell at both caps
        code, out, _ = run(
            capsys,
            "theta", "--max-b", str(cli.THETA_MAX_B),
            "--decimals", str(cli.THETA_MAX_DECIMALS),
        )
        assert code == 0
        assert out.count("\n") == 4
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "96622911d202701695aa2c2b3af760cc140c247c89e483f83674b0f237137ea7"
        )

    def test_largest_base_is_cheap(self, capsys):
        start = time.process_time()
        code, _, _ = run(capsys, "theta", "--max-b", str(cli.THETA_MAX_B))
        assert code == 0
        assert time.process_time() - start < 0.25


class TestVerify:
    def test_trivial_size(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-n", "1")
        assert code == 0
        assert all(line.startswith("PASS") for line in out.splitlines())

    def test_small_run_reports_shape_count(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-n", "6")
        assert code == 0
        assert "(1024 at n=6)" in out
        assert out.count("PASS") == 3

    def test_cap_is_usage_error(self, capsys):
        assert run(capsys, "verify", "--max-n", "13")[0] == 2

    def test_golden_bytes(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-n", "6")
        assert code == 0
        assert out == (GOLDEN / "verify_n6.txt").read_text()

    def test_recurrence_mismatch_fails_census_check(self, capsys, monkeypatch):
        real = recurrences.r
        monkeypatch.setattr(recurrences, "r", lambda b, n: real(b, n) + 1)
        code, out, _ = run(capsys, "verify", "--max-n", "2")
        assert code == 1
        assert out.splitlines()[1] == (
            "FAIL census equals recurrences for h, r, c (and mirror symmetry): "
            "r(1,1): census 0 != recurrence 1; "
            "mirror(1,1): census 0 != recurrence 1; "
            "r(1,2): census 1 != recurrence 2; "
            "mirror(1,2): census 1 != recurrence 2; "
            "r(2,2): census 0 != recurrence 1; "
            "mirror(2,2): census 0 != recurrence 1"
        )

    def test_convex_mismatch_fails_census_check(self, capsys, monkeypatch):
        real = recurrences.c
        monkeypatch.setattr(recurrences, "c", lambda b, n: real(b, n) + 1)
        code, out, _ = run(capsys, "verify", "--max-n", "2")
        assert code == 1
        assert out.splitlines()[1] == (
            "FAIL census equals recurrences for h, r, c (and mirror symmetry): "
            "c(1,1): census 1 != recurrence 2; "
            "c(1,2): census 3 != recurrence 4; "
            "c(2,2): census 1 != recurrence 2"
        )

    def test_duplicate_shape_fails_count_check(self, capsys, monkeypatch):
        # the raw count is unchanged; only the distinct-shape set sees it
        real = cli.walk

        def duplicating(n, b=None):
            towers = list(real(n, b))
            if n == 3 and b == 2:
                towers[1] = towers[0]
            yield from towers

        monkeypatch.setattr(cli, "walk", duplicating)
        code, out, _ = run(capsys, "verify", "--max-n", "3")
        assert code == 1
        assert out.splitlines()[0] == (
            "FAIL known counts: C(2n-1, n-b) per base and 4^(n-1) per size: "
            "count(3,2) = 4 != 5; total(3) = 15 != 16"
        )

    def test_broken_recombine_fails_round_trip(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "recombine", lambda d: d.upper)
        code, out, _ = run(capsys, "verify", "--max-n", "3")
        assert code == 1
        assert out.splitlines()[2] == (
            "FAIL dissection round trip on every convex shape: "
            "round trip failed for 0,1 1,0 1,1 2,0 2,1 3,1"
        )

    def test_convex_flagged_non_convex_fails_census(self, capsys, monkeypatch):
        # a walk that drops one convex tower lowers the census counts
        real = cli.walk

        def dropping(n, b=None):
            for levels, convex in real(n, b):
                if levels == ((0, 2), (1,), (1,)):
                    assert convex
                    convex = False
                yield levels, convex

        monkeypatch.setattr(cli, "walk", dropping)
        code, out, _ = run(capsys, "verify", "--max-n", "4")
        assert code == 1
        assert out.splitlines()[1] == (
            "FAIL census equals recurrences for h, r, c (and mirror symmetry): "
            "h(2,4): census 3 != recurrence 4; c(2,4): census 17 != recurrence 18"
        )

    def test_non_convex_flagged_convex_fails_census(self, capsys, monkeypatch):
        # the other direction: classify still labels the tower, dissect never
        # sees it, and the convex count rises
        real = cli.walk

        def adding(n, b=None):
            for levels, convex in real(n, b):
                if levels == ((0, 2), (1,), (2,)):
                    assert not convex
                    convex = True
                yield levels, convex

        monkeypatch.setattr(cli, "walk", adding)
        code, out, _ = run(capsys, "verify", "--max-n", "4")
        assert code == 1
        assert out.splitlines()[1] == (
            "FAIL census equals recurrences for h, r, c (and mirror symmetry): "
            "c(2,4): census 19 != recurrence 18"
        )

    def test_one_enumeration_per_size_and_base(self, monkeypatch):
        calls = []
        real = cli.walk

        def counting(n, b=None):
            calls.append((n, b))
            return real(n, b)

        def no_census(n, b=None):
            raise AssertionError("verify must not run a separate census")

        monkeypatch.setattr(cli, "walk", counting)
        monkeypatch.setattr(cli, "census", no_census)
        max_n = 5
        assert all(passed for _, passed, _ in cli.run_verifications(max_n))
        assert len(calls) == max_n * (max_n + 1) // 2
        assert sorted(calls) == [
            (n, b) for n in range(1, max_n + 1) for b in range(1, n + 1)
        ]


class TestEnumerate:
    def test_golden_stream(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "3", "--b", "1")
        assert code == 0
        assert out == (GOLDEN / "enumerate_n3_b1.txt").read_text()

    def test_all_bases(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "2")
        assert code == 0 and len(out.splitlines()) == 4

    def test_invalid_base(self, capsys):
        assert run(capsys, "enumerate", "--n", "2", "--b", "3")[0] == 2

    @pytest.mark.parametrize(
        "argv, lines, digest",
        [
            (["enumerate", "--n", "8"], 16384,
             "2eb520cddd92baf94e67aac8e8daa0ed5ed88aea2dabb327b5f64b95502ac171"),
            (["enumerate", "--n", "7", "--b", "3"], 715,
             "dca0b94f1a19d05a984c49a61502f96c5f6dec11dd6088a6735dd7876f4ee5db"),
            (["verify", "--max-n", "8"], 3,
             "9cbe8f9195a1dc63f77b1caa31d0ebeac1573a96f48db8b5fd00d14e0dc3b0c8"),
        ],
        ids=["enum-n8", "enum-n7-b3", "verify-n8"],
    )
    def test_stdout_digest(self, capsys, argv, lines, digest):
        # byte pins for the streams past the golden files' sizes
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.count("\n") == lines
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_closed_pipe_exits_three_quietly(self):
        argv = [sys.executable, "-m", "dominotowers", "enumerate", "--n", "9"]
        with subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env("src")
        ) as proc:
            assert proc.stdout.readline()
            proc.stdout.close()
            _, err = proc.communicate(timeout=60)
        assert proc.returncode == 3
        assert err == b""


class TestSeries:
    @pytest.mark.parametrize(
        "golden, argv",
        [
            ("series_c_b4_o64.txt", ("c", "--b", "4", "--order", "64")),
            (
                "series_r_b3_o40_closed.txt",
                ("r", "--b", "3", "--order", "40", "--method", "closed-form"),
            ),
        ],
    )
    def test_golden_bytes(self, capsys, golden, argv):
        code, out, _ = run(capsys, "series", *argv)
        assert code == 0
        assert out == (GOLDEN / golden).read_text()

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["c", "--b", "8", "--order", "2048"],
             "73a04e0e1207e13e7504b5ce5bc47b9b70a8c19725cea8ee6354859a4573e11b"),
            (["g", "--b", "10", "--order", "600"],
             "d3c115fb739813fc8de60cfd4549ef2bc633a56454ad5ebe423086eef36475ae"),
            (["h", "--b", "12", "--order", "48", "--method", "closed-form"],
             "6bc5657dd031d8cd1e1af4d6f837a391508c72d2d4bc78f1cca2e28ab7e80a62"),
            (["r", "--b", "9", "--order", "24", "--method", "closed-form"],
             "8b9db214d7e20a124a23de03c616a3e5b5647499f8e0ad7338de4c04ed513d32"),
            (["r", "--b", "1", "--order", "0"],
             "0ccdb5a77ba5bf7687f2565a8ed97dfb9c1af45503c496fb646312239fab5101"),
        ],
        ids=["c-b8-o2048", "g-b10-o600", "h-b12-o48-closed", "r-b9-o24-closed",
             "r-b1-o0"],
    )
    def test_stdout_digest(self, capsys, argv, digest):
        # byte pins past the golden files' sizes, both methods, the empty tail
        code, out, _ = run(capsys, "series", *argv)
        assert code == 0
        assert out.count("\n") == int(argv[4]) + 1
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_convex_at_order_cap(self, capsys):
        code, out, _ = run(capsys, "series", "c", "--b", "4", "--order", "4096")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 4097
        assert lines[-1] == f"4096 {recurrences.c(4, 4096)}"

    def test_skew_coefficients(self, capsys):
        code, out, _ = run(capsys, "series", "r", "--b", "1", "--order", "5")
        assert code == 0
        assert out == "0 0\n1 0\n2 1\n3 3\n4 7\n5 15\n"

    def test_closed_form_method(self, capsys):
        code, out, _ = run(
            capsys, "series", "h", "--b", "3", "--order", "5",
            "--method", "closed-form",
        )
        assert code == 0
        assert out.splitlines()[-1] == "5 8"

    def test_order_cap(self, capsys):
        assert run(capsys, "series", "g", "--b", "2", "--order", "5000")[0] == 2

    def test_base_cap(self, capsys):
        code, out, err = run(capsys, "series", "h", "--b", "4097", "--order", "4")
        assert (code, out) == (2, "")
        assert err == "error: --b must be at most 4096\n"
        code, out, _ = run(capsys, "series", "h", "--b", "4096", "--order", "4")
        assert code == 0 and out == "0 0\n1 0\n2 0\n3 0\n4 0\n"

    @pytest.mark.parametrize("family", ["g", "c"])
    def test_closed_form_needs_h_or_r(self, capsys, family):
        code, out, err = run(
            capsys, "series", family, "--b", "2", "--order", "4",
            "--method", "closed-form",
        )
        assert (code, out) == (2, "")
        assert err == "error: --method closed-form applies to h and r only\n"

    def test_subset_blowup_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "series", "h", "--b", "13", "--order", "4",
            "--method", "closed-form",
        )
        assert code == 2 and "subset" in err.lower()


class TestOeisCheck:
    def test_reference_triangle_passes(self, capsys, tmp_path):
        flat = references.flatten_triangle("convex_counts.csv")
        bfile = tmp_path / "b275662.txt"
        bfile.write_text(
            "".join(f"{i} {v}\n" for i, v in enumerate(flat, start=1))
        )
        code, out, _ = run(capsys, "oeis-check", "A275662", "--bfile", str(bfile))
        assert code == 0
        assert "55/55 terms match" in out

    def test_mismatch_exits_one(self, capsys, tmp_path):
        values = list(references.flatten_triangle("convex_counts.csv"))
        values[30] += 7
        bfile = tmp_path / "bad.txt"
        bfile.write_text(
            "".join(f"{i} {v}\n" for i, v in enumerate(values, start=1))
        )
        code, out, _ = run(capsys, "oeis-check", "A275662", "--bfile", str(bfile))
        assert code == 1
        assert "first mismatch at index 31" in out

    def test_parse_error_exits_three(self, capsys, tmp_path):
        bfile = tmp_path / "broken.txt"
        bfile.write_text("1 3\n5 abc\n")
        code, _, err = run(capsys, "oeis-check", "A275204", "--bfile", str(bfile))
        assert code == 3 and "line 2" in err

    def test_unknown_sequence_needs_family(self, capsys, tmp_path):
        bfile = tmp_path / "b.txt"
        bfile.write_text("1 1\n")
        assert run(capsys, "oeis-check", "A999999", "--bfile", str(bfile))[0] == 2

    def test_no_cache_no_network_exits_three(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "oeis-check", "A275662", "--cache-dir", str(tmp_path)
        )
        assert code == 3 and "network" in err

    def test_cache_dir_under_a_file_is_a_cache_miss(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, out, err = run(
            capsys, "oeis-check", "A275662", "--cache-dir", str(blocker / "cache")
        )
        assert code == 3 and out == ""
        assert err == (
            "error: no cached b-file for A275662 and network use is disabled\n"
        )

    def test_overlong_term_exits_three(self, capsys, tmp_path):
        bfile = tmp_path / "b.txt"
        bfile.write_text("1 " + "1" * 4301 + "\n")
        code, out, err = run(capsys, "oeis-check", "A275662", "--bfile", str(bfile))
        assert code == 3 and out == ""
        assert err == "error: A275662: line 1: field over 4300 digits\n"

    def test_missing_bfile_exits_three(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "oeis-check", "A275662", "--bfile", str(tmp_path / "no.txt")
        )
        assert code == 3

    @pytest.mark.parametrize("cached", [False, True])
    def test_non_utf8_bfile_exits_three(self, capsys, tmp_path, cached):
        bfile = tmp_path / "A275662.txt"
        bfile.write_bytes(b"1 1\n2 \xff\n")
        source = ("--cache-dir", str(tmp_path)) if cached else ("--bfile", str(bfile))
        code, out, err = run(capsys, "oeis-check", "A275662", *source)
        assert code == 3 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err


class TestParser:
    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["count", "z", "--b", "1", "--n", "1"])
        assert info.value.code == 2

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


def fresh_process(argv):
    """Exit code and stdout of one ``dominotowers`` call in a new interpreter."""
    proc = subprocess.run(
        [sys.executable, "-m", "dominotowers", *argv],
        env=child_env("src"), capture_output=True, text=True, timeout=60,
    )
    return proc.returncode, proc.stdout


class TestReusedParser:
    """One process, many ``main`` calls: the shared parser carries nothing over."""

    @pytest.mark.parametrize(
        "first, second, check",
        [
            pytest.param(
                ("enumerate", "--n", "3", "--b", "2"), ("enumerate", "--n", "3"),
                lambda out: out.count("\n") == 16,  # b is back to None
                id="enumerate-b",
            ),
            pytest.param(
                ("count", "h", "--b", "2", "--n", "4", "--k", "3"),
                ("count", "h", "--b", "2", "--n", "4"),
                lambda out: out == f"{recurrences.h(2, 4)}\n",  # k is back to 2
                id="count-k",
            ),
            pytest.param(
                ("table", "h", "--max-n", "4", "--max-b", "3", "--format", "markdown"),
                ("table", "h", "--max-n", "4", "--max-b", "3"),
                lambda out: out.startswith("n,b=1,b=2,b=3,total\n"),  # CSV again
                id="table-format",
            ),
            pytest.param(
                ("count", "z", "--b", "1", "--n", "1"),
                ("count", "c", "--b", "4", "--n", "10"),
                lambda out: out == "531\n",
                id="after-rejection",
            ),
        ],
    )
    def test_each_call_matches_a_fresh_process(self, capsys, first, second, check):
        got = []
        for argv in (first, second):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse rejects bad usage this way
                code = exc.code
            got.append((code, capsys.readouterr().out))
        assert got == [fresh_process(first), fresh_process(second)]
        assert got[1][0] == 0 and check(got[1][1])

    def test_parser_is_built_once_per_process(self):
        code = (
            "import argparse\n"
            "built = []\n"
            "real = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    real(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "from dominotowers.cli import main\n"
            "argv = ['count', 'h', '--b', '2', '--n', '4']\n"
            "main(argv)\n"
            "after_one = len(built)\n"
            "for _ in range(4):\n"
            "    main(argv)\n"
            "print(after_one, len(built))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=child_env("src"), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        after_one, after_five = map(int, proc.stdout.splitlines()[-1].split())
        assert after_one > 0 and after_five == after_one


class TestImports:
    def test_cli_loads_no_network_modules(self, tmp_path):
        # the network stack is for --fetch alone; every other call skips it
        flat = references.flatten_triangle("convex_counts.csv")
        bfile = tmp_path / "b275662.txt"
        bfile.write_text("".join(f"{i} {v}\n" for i, v in enumerate(flat, start=1)))
        code = (
            "import contextlib, io, sys\n"
            "from pathlib import Path\n"
            "from dominotowers import cli, oeis\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['count', 'h', '--b', '2', '--n', '4']) == 0\n"
            "    assert cli.main(['enumerate', '--n', '3']) == 0\n"
            f"    assert cli.main(['oeis-check', 'A275662', '--bfile', {str(bfile)!r}]) == 0\n"
            "net = ('urllib.request', 'http.client', 'ssl', 'email', 'socket')\n"
            "print(sorted(m for m in net if m in sys.modules))\n"
            "import urllib.request\n"
            "urllib.request.urlopen = lambda url, timeout=None: io.BytesIO(b'1 1\\n')\n"
            f"cache = Path({str(tmp_path / 'cache')!r})\n"
            "print(repr(oeis.fetch_bfile('A034296', cache, allow_network=True)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=child_env("src"), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        # the fetch path still reaches urlopen, here a stand-in
        assert proc.stdout.splitlines() == ["[]", "'1 1\\n'"]

    def test_package_holds_only_what_the_cli_loads(self):
        # reference data and test-only oracles live under tests/, not here
        package = ROOT / "src" / "dominotowers"
        entries = [p for p in package.iterdir() if p.name != "__pycache__"]
        assert [p.name for p in entries if p.suffix != ".py"] == []
        expected = sorted(
            "dominotowers" if p.stem == "__init__" else f"dominotowers.{p.stem}"
            for p in entries
            if p.stem != "__main__"
        )
        code = (
            "import sys\n"
            "import dominotowers, dominotowers.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'dominotowers'))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=child_env("src"), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == repr(expected)


class TestExitCodes:
    """One row per way ``main`` maps an exception to an exit code."""

    @pytest.mark.parametrize(
        "argv, bfile, expected",
        [
            pytest.param(("oeis-check", "A065446"), "1 1\n", 1, id="alignment"),
            pytest.param(("verify", "--max-n", "0"), None, 2, id="verify-min"),
            pytest.param(("enumerate", "--n", "2", "--b", "3"), None, 2, id="enum"),
            pytest.param(
                ("series", "c", "--b", "4", "--order", "-1"), None, 2, id="order"
            ),
            pytest.param(
                ("series", "h", "--b", "13", "--method", "closed-form"), None, 2,
                id="subset-blowup",
            ),
            pytest.param(
                ("count", "h", "--b", "2", "--n", "4", "--k", "1"), None, 2,
                id="unsupported-k",
            ),
            pytest.param(
                ("series", "g", "--b", "2", "--order", "4", "--method", "closed-form"),
                None, 2, id="closed-form-g",
            ),
            pytest.param(("theta", "--max-b", "129"), None, 2, id="theta-b"),
            pytest.param(
                ("theta", "--max-b", "2", "--decimals", "1001"), None, 2,
                id="theta-decimals",
            ),
            pytest.param(("oeis-check", "A275204"), "1 3\n5 abc\n", 3, id="bfile"),
            pytest.param(("oeis-check", "A275204"), b"1 \xff\n", 3, id="decode"),
            pytest.param(
                ("oeis-check", "A275662", "--bfile", "missing.txt"), None, 3,
                id="missing-bfile",
            ),
            pytest.param(
                ("oeis-check", "A275662", "--cache-dir", "empty"), None, 3,
                id="fetch",
            ),
        ],
    )
    def test_error_paths(self, capsys, monkeypatch, tmp_path, argv, bfile, expected):
        monkeypatch.chdir(tmp_path)
        if bfile is not None:
            path = tmp_path / "b.txt"
            if isinstance(bfile, bytes):
                path.write_bytes(bfile)
            else:
                path.write_text(bfile)
            argv += ("--bfile", str(path))
        code, out, err = run(capsys, *argv)
        assert code == expected
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(("--n", "0"), "n must be at least 1", id="enum-n"),
            pytest.param(("--n", "3", "--b", "0"), "b must be at least 1", id="enum-b"),
            pytest.param(
                ("--n", "13"), "n=13 exceeds the enumeration cap 12", id="enum-cap"
            ),
        ],
    )
    def test_enumerate_checks(self, capsys, argv, message):
        assert run(capsys, "enumerate", *argv) == (2, "", f"error: {message}\n")


class TestCacheDir:
    def test_cache_env_override(self, monkeypatch, tmp_path):
        from dominotowers.cli import CACHE_ENV_VAR, default_cache_dir

        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "alt"))
        assert default_cache_dir() == tmp_path / "alt"


class TestBenchHooks:
    def test_tracer_installs(self):
        # bench/tracer.py patches package names in place; a rename breaks it
        # and the spans still see the layers through the faster paths
        code = (
            "from tracer import Tracer, install\n"
            "from dominotowers import cli\n"
            "cli.build_parser()\n"  # as bench/child.py does, before the patches
            "tracer = Tracer()\n"
            "install(tracer)\n"
            "assert cli.main(['enumerate', '--n', '4', '--b', '2']) == 0\n"
            "print(tracer.stats('cli.cmd_enumerate')[0])\n"
            "assert cli.main(['verify', '--max-n', '3']) == 0\n"
            "print(tracer.stats('model.classify')[0])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=child_env("src", "bench"), capture_output=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        lines = proc.stdout.decode().splitlines()
        # a handler bound into the cached parser would hide this span
        assert lines[21] == "1"  # after the 21 towers of 4 dominoes on a base of 2
        # verify classifies only the convex towers: 1 + 4 + 14 of 1 + 4 + 16
        assert lines[-1] == "19"

    def test_traced_verify_runs(self):
        # the traced benchmark's verify jobs: every name install wraps must
        # exist, and the wrapped verification layers must still be reached
        code = (
            "from tracer import Tracer, install\n"
            "from dominotowers import cli\n"
            "tracer = Tracer()\n"
            "install(tracer)\n"
            "assert cli.main(['verify', '--max-n', '3']) == 0\n"
            "for name in ('cli.run_verifications', 'model.classify',"
            " 'model.dissect', 'model.recombine', 'recurrences.c'):\n"
            "    assert tracer.stats(name)[0] > 0, name\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=child_env("src", "bench"), capture_output=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout.decode().count("PASS ") == 3
