"""Command-line behavior: outputs, formats, exit codes, golden bytes."""

import argparse
import ast
import functools
import hashlib
import os
import random
import re
import subprocess
import sys
import time
from itertools import chain
from pathlib import Path

import pytest

from dominotowers import (
    asymptotics, cli, enumerator, model, oeis, recurrences, render, series,
)
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

        monkeypatch.setattr(recurrences, "_table", functools.cache(recurrences.CountTable))
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
        monkeypatch.setattr(recurrences, "_table", functools.cache(recurrences.CountTable))
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

    def test_unknown_format_is_rejected(self):
        with pytest.raises(ValueError, match="format must be one of"):
            render.render_table(["a"], [["1"]], "xml")


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

    @pytest.mark.parametrize("max_b", [2, 5, 40, 128])
    @pytest.mark.parametrize("decimals", [0, 1, 5, 12, 1000])
    def test_rows_equal_the_fraction_route(self, max_b, decimals):
        bases = range(2, max_b + 1)
        thetas = [asymptotics.theta_exact(b) for b in bases]
        estimates = [asymptotics.approx_theta(b) for b in bases]

        def fixed(value):
            return render.format_ratio(*value.as_integer_ratio(), decimals)

        expected = [
            ["theta"] + [fixed(t) for t in thetas],
            ["estimate"] + [fixed(e) for e in estimates],
            ["error"] + [fixed(abs(t - e)) for t, e in zip(thetas, estimates)],
        ]
        header, rows = cli.theta_table_rows(max_b, decimals)
        assert header == ["row"] + [f"b={b}" for b in bases]
        assert rows == expected

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

    @pytest.mark.parametrize("edit", ["duplicate", "swap"])
    def test_duplicate_shape_fails_count_check(self, capsys, monkeypatch, edit):
        real = cli.walk

        def edited(n, b=None):
            towers = list(real(n, b))
            if n == 3 and b == 2:
                if edit == "duplicate":
                    towers[1] = towers[0]
                else:
                    towers[0], towers[1] = towers[1], towers[0]
            yield from towers

        monkeypatch.setattr(cli, "walk", edited)
        code, out, _ = run(capsys, "verify", "--max-n", "3")
        assert code == 1
        assert out.splitlines()[0] == (
            "FAIL known counts: C(2n-1, n-b) per base and 4^(n-1) per size: "
            "walk(3,2) is not strictly increasing"
        )

    def test_broken_recombine_fails_round_trip(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "recombine", lambda d: d.upper)
        code, out, _ = run(capsys, "verify", "--max-n", "3")
        assert code == 1
        assert out.splitlines()[2] == (
            "FAIL dissection round trip on every convex shape: "
            "round trip failed for 0,1 1,0 1,1 2,0 2,1 3,1"
        )

    def test_raising_dissect_fails_census(self, capsys, monkeypatch):
        # a split that raises is a census mismatch naming the levels, not a
        # usage error; the refused tower is left out of every count
        def refusing(shape):
            raise ValueError("dissect requires a valid tower")

        monkeypatch.setattr(cli, "dissect", refusing)
        code, out, _ = run(capsys, "verify", "--max-n", "3")
        assert code == 1
        lines = out.splitlines()
        assert [line[:4] for line in lines] == ["PASS", "FAIL", "PASS"]
        assert lines[1].startswith(
            "FAIL census equals recurrences for h, r, c (and mirror symmetry): "
            "census failed on levels ((0,),): dissect requires a valid tower; "
            "h(1,1): census 0 != recurrence 1; c(1,1): census 0 != recurrence 1; "
            "census failed on levels ((0,), (-1,)): dissect requires a valid tower; "
        )

    def test_raising_classify_fails_census(self, capsys, monkeypatch):
        # a walked tower the model raises on is a census mismatch naming its
        # levels; the other towers are still counted and checked
        real = model.classify
        refused = model.TowerShape.from_levels(((0,), (1,)))

        def refusing(shape):
            if shape == refused:
                raise ValueError("classify refuses this tower")
            return real(shape)

        monkeypatch.setattr(model, "classify", refusing)
        code, out, _ = run(capsys, "verify", "--max-n", "3")
        assert code == 1
        lines = out.splitlines()
        assert [line[:4] for line in lines] == ["PASS", "FAIL", "PASS"]
        assert lines[1] == (
            "FAIL census equals recurrences for h, r, c (and mirror symmetry): "
            "census failed on levels ((0,), (1,)): classify refuses this tower; "
            "r(1,2): census 0 != recurrence 1; c(1,2): census 2 != recurrence 3"
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
        # the other direction: classify labels the tower non-convex, and
        # dissect's refusal fails the census, naming its levels
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
        lines = out.splitlines()
        assert [line[:4] for line in lines] == ["PASS", "FAIL", "PASS"]
        assert lines[1] == (
            "FAIL census equals recurrences for h, r, c (and mirror symmetry): "
            "census failed on levels ((0, 2), (1,), (2,)): "
            "dissect requires a convex tower"
        )

    def test_split_tower_kept_whole_fails_census(self, capsys, monkeypatch):
        # the convex census reads the widest row off the split, so a dissect
        # that keeps a tower widest one row up whole moves it to its base's
        # cell; the round trip alone still passes
        real = cli.dissect

        def keeping(shape):
            widths = [*map(len, shape)]
            if widths.index(max(widths)) == 1:
                return model.Dissection(None, shape)
            return real(shape)

        monkeypatch.setattr(cli, "dissect", keeping)
        code, out, _ = run(capsys, "verify", "--max-n", "4")
        assert code == 1
        lines = out.splitlines()
        assert [line[:4] for line in lines] == ["PASS", "FAIL", "PASS"]
        assert lines[1] == (
            "FAIL census equals recurrences for h, r, c (and mirror symmetry): "
            "c(1,3): census 8 != recurrence 7; c(2,3): census 5 != recurrence 6; "
            "c(1,4): census 20 != recurrence 15; c(2,4): census 13 != recurrence 18"
        )

    def test_missing_tower_fails_count_and_total(self, capsys, monkeypatch):
        # a non-convex tower leaves the census alone but not the raw counts
        real = cli.walk

        def dropping(n, b=None):
            for levels, convex in real(n, b):
                if levels == ((0, 2), (1,), (2,)):
                    assert not convex
                    continue
                yield levels, convex

        monkeypatch.setattr(cli, "walk", dropping)
        code, out, _ = run(capsys, "verify", "--max-n", "4")
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == (
            "FAIL known counts: C(2n-1, n-b) per base and 4^(n-1) per size: "
            "count(4,2) = 20 != 21; total(4) = 63 != 64"
        )
        assert [line[:4] for line in lines[1:]] == ["PASS", "PASS"]

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

    def test_convexity_is_decided_once_per_convex_tower(self, monkeypatch):
        # classify decides it and dissect reads the shape's cached answer
        calls = []
        real = model._convex

        def counting(levels):
            calls.append(levels)
            return real(levels)

        monkeypatch.setattr(model, "_convex", counting)
        assert all(passed for _, passed, _ in cli.run_verifications(9))
        # the convex towers with n <= 9, each decided once
        assert len(calls) == len(set(calls)) == 4835

    def test_memory_does_not_grow_with_towers_walked(self):
        # a warm run holds a count, the last tower and a flag per (n, b);
        # keeping every tower of a class would peak near 1 MB at n = 8
        import tracemalloc

        cli.run_verifications(8)  # fill the memos and count tables
        tracemalloc.start()
        try:
            assert all(passed for _, passed, _ in cli.run_verifications(8))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.6e6


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
            (["enumerate", "--n", "9"], 65536,
             "5f9c7cd5c0c372e60ae82d3a14d6a238b1a41ece1064652969dea5008a315585"),
            (["enumerate", "--n", "10", "--b", "4"], 27132,
             "e7c2a7c743cf2961b90b3dbb1e79d98634e24b21b91d1b58a5fa3a0c37efb7d2"),
            (["verify", "--max-n", "9"], 3,
             "24cd8f2681d4edabaa572b00415b5f21273aa60f5f1e420cb1308339cd9fe781"),
        ],
        ids=["enum-n8", "enum-n7-b3", "verify-n8",
             "enum-n9", "enum-n10-b4", "verify-n9"],
    )
    def test_stdout_digest(self, capsys, argv, lines, digest):
        # byte pins for the streams past the golden files' sizes
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.count("\n") == lines
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "n, b, lines", [(1, None, 1), (6, None, 1024), (8, 4, 1365)],
        ids=["one-line", "one-full-batch", "full-and-part-batch"],
    )
    def test_batches_keep_the_str_stream(self, capsys, n, b, lines):
        argv = ["enumerate", "--n", str(n)] + ([] if b is None else ["--b", str(b)])
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.count("\n") == lines
        assert out == "".join(f"{t}\n" for t in enumerator.enumerate_towers(n, b))

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
            # a*a >= order for many of their filters: the block form
            (["g", "--b", "300", "--order", "400"],
             "312f0093ec2b470ccad611e7da5cfaaaf571ab59d164c3edfba1deff5be76e42"),
            (["h", "--b", "64", "--order", "1000"],
             "246e63727a3e5f70f486efb391ee58572c873f60a3ac45da3fba8584ed0e2747"),
        ],
        ids=["c-b8-o2048", "g-b10-o600", "h-b12-o48-closed", "r-b9-o24-closed",
             "r-b1-o0", "g-b300-o400", "h-b64-o1000"],
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
        assert err == "error: --b must be in 1..4096\n"
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

    def test_bfile_is_required(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["oeis-check", "A275662"])
        assert info.value.code == 2
        assert "--bfile" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "sequence_id, family, expected",
        [
            (
                "A000001", "h",
                (0, "A000001 as h (rows b=1..n): 60/60 terms match\n", ""),
            ),
            (
                "A275204", "r",
                (1, "", "error: could not align A275204 with any r ordering; "
                 "best candidate 'rows b=1..n-1' matches only 1 opening terms\n"),
            ),
        ],
    )
    def test_family_names_the_generator(
        self, capsys, tmp_path, sequence_id, family, expected
    ):
        # rows n = 1..10 of the reference stack triangle, then h(1..5, 11)
        terms = references.flatten_triangle("stack_counts.csv") + (1, 15, 66, 143, 178)
        bfile = tmp_path / "b.txt"
        bfile.write_text("".join(f"{i} {v}\n" for i, v in enumerate(terms, start=1)))
        argv = ("oeis-check", sequence_id, "--family", family, "--bfile", str(bfile))
        assert run(capsys, *argv) == expected

    def test_non_utf8_bfile_exits_three(self, capsys, tmp_path):
        bfile = tmp_path / "A275662.txt"
        bfile.write_bytes(b"1 1\n2 \xff\n")
        code, out, err = run(capsys, "oeis-check", "A275662", "--bfile", str(bfile))
        assert code == 3 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err


PARSE_CORPUS = [
    # each command, valid
    ["count", "h", "--b", "3", "--n", "10"],
    ["table", "c", "--max-n", "6", "--max-b", "3", "--format", "markdown"],
    ["theta", "--max-b", "4", "--decimals", "3"],
    ["verify", "--max-n", "4"],
    ["enumerate", "--n", "4", "--b", "2"],
    ["series", "r", "--b", "3", "--order", "8", "--method", "closed-form"],
    ["oeis-check", "A275662", "--family", "c", "--bfile", "b.txt"],
    # --opt=value forms and abbreviations
    ["count", "g", "--b=3", "--n=10", "--k=3"],
    ["table", "h", "--max-n=4", "--max-b", "2", "--fo", "md"],
    ["table", "h", "--max-n", "4", "--max-b", "2", "--fo", "tsv"],
    ["count", "h", "--b", "3", "--n", "10", "--he"],
    ["table", "h", "--max", "5", "--max-b", "2"],
    # -- before, among and after the options
    ["count", "--", "h", "--b", "3", "--n", "10"],
    ["count", "h", "--b", "3", "--", "--n", "10"],
    ["count", "h", "--b", "3", "--n", "10", "--"],
    ["oeis-check", "--bfile", "b.txt", "--", "A275662"],
    # usage errors inside a command
    ["count", "h", "--b", "3", "--n", "10", "--x", "1"],
    ["count", "h", "extra", "--b", "3", "--n", "10"],
    ["count", "h", "--b", "3"],
    ["count", "h", "--b", "three", "--n", "10"],
    ["count"],
    # help at both levels
    ["-h"],
    ["--he"],
    ["verify", "-h"],
    ["verify", "--max-n", "4", "-h"],
    # argument lists the top-level parser handles alone
    [],
    ["Count", "h", "--b", "3", "--n", "10"],
    ["-x", "count", "h", "--b", "3", "--n", "10"],
    ["--", "count", "h", "--b", "3", "--n", "10"],
]


# values a corpus argv may carry: good ones first, then the odd ones whose
# parse argparse alone may decide
INTS = ("3", "12", "0", "-1", "+3", "\u0663", "1e3", " 3", "", "0x10",
        "12345678901234567890", "9" * 5000, "three")
FAMILY = ("g", "c", "h", "r", "z", "", "-g")
FORMAT = ("csv", "markdown", "tsv", "md", "json")
CORPUS_GRAMMAR = {  # command: (positional value pools, option value pools)
    "count": ((FAMILY,), {"--b": INTS, "--n": INTS, "--k": INTS}),
    "table": ((FAMILY,), {"--max-n": INTS, "--max-b": INTS, "--k": INTS,
                          "--format": FORMAT}),
    "theta": ((), {"--max-b": INTS, "--decimals": INTS, "--format": FORMAT}),
    "verify": ((), {"--max-n": INTS}),
    "enumerate": ((), {"--n": INTS, "--b": INTS}),
    "series": ((FAMILY,), {"--b": INTS, "--order": INTS,
                           "--method": ("functional", "closed-form", "closed", "-f")}),
    "oeis-check": ((("A275662", "A000001", "", "-A"),),
                   {"--family": FAMILY + ("partitions", "constant"),
                    "--bfile": ("b.txt", "x y", "", "-")}),
}


def corpus_argv(rng):
    """One argv over a random command: mostly positionals then ``--option
    value`` pairs, about half of them bent into a form argparse alone reads."""

    def pick(pool):
        return rng.choice(pool[:2] if rng.random() < 0.6 else pool)

    name = rng.choice(sorted(CORPUS_GRAMMAR))
    pools, options = CORPUS_GRAMMAR[name]
    words = [pick(pool) for pool in pools]
    items = [[opt, pick(pool)] for opt, pool in options.items() if rng.random() < 0.9]
    rng.shuffle(items)
    form = rng.choice(["plain"] * 8 + [
        "equals", "abbreviation", "repeat", "option-first", "dash-dash", "help",
        "unknown", "extra-word", "no-positional",
    ])
    if form == "equals" and items:
        items[0] = [f"{items[0][0]}={items[0][1]}"]
    elif form == "abbreviation" and items and len(items[0][0]) > 3:
        items[0][0] = items[0][0][: rng.randrange(3, len(items[0][0]))]
    elif form == "repeat" and items:
        items.append([items[0][0], pick(options[items[0][0]])])
    elif form == "option-first" and items and words:
        items.insert(1, words)
        words = []
    elif form == "no-positional":
        words = []
    tokens = [*words, *chain.from_iterable(items)]
    extra = {"dash-dash": "--", "help": rng.choice(("-h", "--he", "--help")),
             "unknown": "--x", "extra-word": "extra"}.get(form)
    if extra:
        tokens.insert(rng.randrange(len(tokens) + 1), extra)
    return [name, *tokens]


def top_level_twin(capsys, monkeypatch):
    """With every ``cmd_*`` replaced by a recorder, a function of an argv
    giving ``main``'s outcome and the top-level ``parse_args``' outcome: the
    exit code, the bytes on stdout and stderr, and the namespace handed on."""
    parsed = []

    def record(args):
        parsed.append(vars(args))
        return 0

    for name in ("count", "table", "theta", "verify", "enumerate", "series",
                 "oeis_check"):
        monkeypatch.setattr(cli, f"cmd_{name}", record)

    def outcome(call):
        parsed.clear()
        try:
            code = call()
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return (code, captured.out, captured.err, *parsed)

    return lambda argv: (
        outcome(lambda: main(list(argv))),
        outcome(lambda: record(build_parser().parse_args(argv))),
    )


class TestParser:
    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["count", "z", "--b", "1", "--n", "1"])
        assert info.value.code == 2

    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("argv", PARSE_CORPUS, ids=" ".join)
    def test_dispatch_parses_as_the_top_level_parser(self, capsys, monkeypatch, argv):
        # main builds a plain argument list's namespace itself and hands any
        # other list to the top-level parser; the result must be what
        # parse_args gives: the same namespace, or the same exit code and
        # bytes on stdout and stderr
        got, expected = top_level_twin(capsys, monkeypatch)(argv)
        assert got == expected and got[0] in (0, 2)
        assert len(got) == 3 or got[:3] == (0, "", "")

    def test_seeded_corpus_parses_as_the_top_level_parser(self, capsys, monkeypatch):
        twin = top_level_twin(capsys, monkeypatch)
        rng = random.Random(51)
        parsed = 0
        for _ in range(2400):
            argv = corpus_argv(rng)
            got, expected = twin(argv)
            assert got == expected, argv
            parsed += len(got) == 4
        assert 600 <= parsed <= 1800  # both outcomes are well represented

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["oeis-check", "A275662", "--bfile", ""], id="empty-value"),
            pytest.param(["count", "h", "--b", "-2", "--n", "4"], id="negative-number"),
            pytest.param(["count", "h", "--b=2", "--n", "4"], id="option-with-equals"),
            pytest.param(
                ["count", "h", "--b", "2", "--n", "4", "--b", "3"], id="repeated-option"
            ),
            pytest.param(["count", "--b", "2", "h", "--n", "4"], id="option-first"),
            pytest.param(["count", "h", "--b", "two", "--n", "4"], id="not-an-int"),
            pytest.param(["count", "z", "--b", "2", "--n", "4"], id="out-of-choices"),
            pytest.param(["count", "h", "--b", "2"], id="required-option-missing"),
            pytest.param([], id="empty-list"),
            pytest.param(["counts", "h", "--b", "2", "--n", "4"], id="unknown-command"),
            pytest.param(
                ["--b", "2", "count", "h", "--n", "4"], id="option-before-command"
            ),
        ],
    )
    def test_plain_args_leaves_the_rest_to_argparse(self, argv):
        assert cli._plain_args(argv) is None

    def test_command_actions_each_store_one_value(self):
        # _plain_args builds a namespace from single-value store actions
        # only: a flag, a list or a counted option needs a parse it lacks,
        # and a `command` dest would clash with the one it sets
        sub, = (a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
        for name, command in sub.choices.items():
            for action in command._actions:
                if isinstance(action, argparse._HelpAction):
                    continue
                assert type(action) is argparse._StoreAction, (name, action.dest)
                assert action.nargs is None and action.dest != "command", (
                    name, action.dest
                )

    def test_one_parse_per_call(self, capsys, monkeypatch):
        # a plain argument list is parsed with no argparse pass; any other
        # one by the top-level parser, whose pass hands the command's tokens
        # to that command's parser
        argv = ["count", "h", "--b", "2", "--n", "4"]
        main(argv)  # warm: the parser is built and the table is filled
        calls = []
        real = argparse.ArgumentParser.parse_known_args

        def counting(self, *args, **kwargs):
            calls.append(self.prog)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
        assert main(argv) == 0
        assert calls == []
        assert main(["count", "h", "--b=2", "--n", "4"]) == 0
        assert calls == ["dominotowers", "dominotowers count"]
        assert capsys.readouterr().out == f"{recurrences.h(2, 4)}\n" * 3


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
        # oeis-check reads the b-file it is given: no call loads the network
        # stack, and no module of the package imports it, even lazily
        flat = references.flatten_triangle("convex_counts.csv")
        bfile = tmp_path / "b275662.txt"
        bfile.write_text("".join(f"{i} {v}\n" for i, v in enumerate(flat, start=1)))
        code = (
            "import contextlib, io, sys\n"
            "from dominotowers import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.main(['count', 'h', '--b', '2', '--n', '4']) == 0\n"
            "    assert cli.main(['enumerate', '--n', '3']) == 0\n"
            f"    assert cli.main(['oeis-check', 'A275662', '--bfile', {str(bfile)!r}]) == 0\n"
            "net = ('urllib.request', 'http.client', 'ssl', 'email', 'socket')\n"
            "print(sorted(m for m in net if m in sys.modules))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=child_env("src"), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]"]
        network = {"urllib", "http", "socket", "ssl"}
        found = []
        for path in sorted((ROOT / "src" / "dominotowers").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                found += [
                    f"{path.name}: {name}"
                    for name in names
                    if name.split(".")[0] in network
                ]
        assert found == []

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
            "tops = {m.split('.')[0] for m in sys.modules}\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'dominotowers'))\n"
            "ok = set(sys.stdlib_module_names) | {'dominotowers', '__main__'}\n"
            "print(sorted(tops - ok))\n"
            "print(sorted(m for m in ('dataclasses', 'inspect', 'pathlib') if m in sys.modules))\n"
        )
        # -S: no site hooks, which may import third-party modules at startup
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code],
            env=child_env("src"), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        ours, third_party, slow = proc.stdout.splitlines()
        assert ours == repr(expected)
        # the runtime is stdlib-only
        assert third_party == "[]"
        # every command pays its imports: these three cost ~15 ms of start-up
        assert slow == "[]"

    def test_routes_stay_independent(self):
        # a count route that reads another route's module checks nothing
        package = ROOT / "src" / "dominotowers"
        trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
                 for p in package.glob("*.py")}
        imports = {}
        for stem, tree in trees.items():
            modules = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    base = node.module or ""
                    if node.level:  # relative, so inside the package
                        base = f"dominotowers.{base}".rstrip(".")
                    modules |= ({f"{base}.{a.name}" for a in node.names}
                                if base == "dominotowers" else {base})
                elif isinstance(node, ast.Import):
                    modules |= {a.name for a in node.names}
            imports[stem] = {m.split(".")[1] for m in modules
                             if m.startswith("dominotowers.")}
            # the record types are NamedTuples: dataclasses costs start-up
            assert "dataclasses" not in modules, stem
        assert imports["series"] == set()
        assert imports["recurrences"].isdisjoint({"series", "enumerator"})
        for stem in ("model", "enumerator"):
            assert imports[stem].isdisjoint({"series", "recurrences"}), stem
        # theta from its parts at 1/2 never reaches the closed form's pass
        functions = {node.name: node for node in trees["asymptotics"].body
                     if isinstance(node, ast.FunctionDef)}
        for root in ("theta_from_parts", "denominator_derivative_at_half",
                     "numerator_hat_at_half", "numerator_bar_at_half"):
            reached, todo = set(), [root]
            while todo:
                name = todo.pop()
                if name in reached:
                    continue
                reached.add(name)
                todo += [node.id for node in ast.walk(functions[name])
                         if isinstance(node, ast.Name) and node.id in functions]
            assert reached.isdisjoint({"theta_pairs", "theta_exact"}), root

    def test_every_public_name_is_reached_outside_the_tests(self):
        # a public name that only tests call is a second spelling to keep
        package = ROOT / "src" / "dominotowers"
        trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
                 for p in package.glob("*.py")}
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        used = set(re.findall(r"\w+", readme))
        for tree in trees.values():
            for node in ast.walk(tree):
                if isinstance(getattr(node, "ctx", None), ast.Store):
                    continue
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    used.update(alias.name for alias in node.names)
        unreached = []
        for stem, tree in sorted(trees.items()):
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    names = [t.id for t in ast.walk(node) if isinstance(t, ast.Name)
                             and isinstance(t.ctx, ast.Store)]
                else:
                    continue
                unreached += [f"{stem}.{name}" for name in names
                              if not name.startswith("_") and name not in used]
        assert unreached == []


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
                ("count", "h", "--b", "3", "--n", "99999999999999999999999"), None, 2,
                id="overflow",
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
            pytest.param(("enumerate", "--n", "0"), "n must be at least 1", id="enum-n"),
            pytest.param(
                ("enumerate", "--n", "3", "--b", "0"), "b must be at least 1", id="enum-b"
            ),
            pytest.param(
                ("enumerate", "--n", "13"), "n=13 exceeds the enumeration cap 12",
                id="enum-cap",
            ),
            # each end of each CLI range: one test, one message shape
            pytest.param(("theta", "--max-b", "1"), "--max-b must be in 2..128", id="theta-b-low"),
            pytest.param(
                ("theta", "--max-b", "129"), "--max-b must be in 2..128", id="theta-b-high"
            ),
            pytest.param(
                ("theta", "--max-b", "2", "--decimals", "-1"),
                "--decimals must be in 0..1000", id="theta-decimals-low",
            ),
            pytest.param(
                ("theta", "--max-b", "2", "--decimals", "1001"),
                "--decimals must be in 0..1000", id="theta-decimals-high",
            ),
            pytest.param(("verify", "--max-n", "0"), "--max-n must be in 1..12", id="verify-low"),
            pytest.param(
                ("verify", "--max-n", "13"), "--max-n must be in 1..12", id="verify-high"
            ),
            pytest.param(
                ("series", "h", "--b", "0"), "--b must be in 1..4096", id="series-b-low"
            ),
            pytest.param(
                ("series", "h", "--b", "4097"), "--b must be in 1..4096", id="series-b-high"
            ),
            pytest.param(
                ("series", "h", "--b", "2", "--order", "-1"),
                "--order must be in 0..4096", id="series-order-low",
            ),
            pytest.param(
                ("series", "h", "--b", "2", "--order", "4097"),
                "--order must be in 0..4096", id="series-order-high",
            ),
            pytest.param(
                ("table", "h", "--max-n", "0", "--max-b", "2"),
                "table bounds must be in 1..4096", id="table-n-low",
            ),
        ],
    )
    def test_bound_messages(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_only_the_bfile_errors_have_their_own_type(self):
        # every other bad argument is a plain ValueError, which main maps to 2
        modules = (
            model, enumerator, recurrences, series, asymptotics, oeis, render, cli
        )
        defined = {
            obj
            for module in modules
            for obj in vars(module).values()
            if isinstance(obj, type)
            and issubclass(obj, BaseException)
            and obj.__module__ == module.__name__
        }
        assert defined == {oeis.BFileError, oeis.AlignmentError}


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

    def test_every_command_kind_runs_traced(self):
        # the benchmark's job kinds, each through the patched names, and the
        # per-layer readout that follows a traced run
        code = (
            "import contextlib, io\n"
            "import tracer\n"
            "from dominotowers import cli\n"
            "t = tracer.Tracer()\n"
            "tracer.install(t)\n"
            "jobs = [['verify', '--max-n', '3'], ['enumerate', '--n', '3'],\n"
            "        ['count', 'c', '--b', '2', '--n', '4'],\n"
            "        ['table', 'h', '--max-n', '3', '--max-b', '2'],\n"
            "        ['series', 'r', '--b', '2', '--order', '5'],\n"
            "        ['theta', '--max-b', '3']]\n"
            "for argv in jobs:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv\n"
            "    assert t.stats(f'cli.cmd_{argv[0]}')[0] == 1, argv\n"
            "print(tracer.layer_metrics(t)['trace.spans'])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=child_env("src", "bench"), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) > 0
