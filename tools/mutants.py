"""Mutation register: source edits that named tests must catch.

Each entry is (name, file, old text, new text, test ids).  For each entry
the script copies src/, tests/ and README.md into a temporary directory,
replaces the one occurrence of the old text by the new text, and runs
pytest on the entry's test ids there: the mutant is killed when they fail.
All the ids first run once on an unedited copy, where they must pass, so a
renamed or broken test cannot count as a kill.  Exit status 1 when any
mutant survives or the unedited run fails.  Standard library only.

Each copy also runs `python -m dominotowers verify --max-n 8`, which must
exit 0 unedited; the last line, `tool catches K of N`, counts the entries
whose copy makes it exit 1: the program's own catch score.

    python3 tools/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "README.md")


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


REGISTER = (
    Mutant(
        "series-subset-walk-stops-one-early",
        "src/dominotowers/series.py",
        "if shift + k >= len(total):",
        "if shift + k >= len(total) - 1:",
        ("tests/test_series.py::TestBuilders::test_methods_agree",),
    ),
    Mutant(
        "stacks-carry-stops-one-base-early",
        "src/dominotowers/series.py",
        "if i < b:",
        "if i < b - 1:",
        ("tests/test_series.py::TestBuilders::test_methods_agree",),
    ),
    Mutant(
        # R_b's chain then stops at R_(b-1), and Q loses (1 - 2x^b) with it
        "skew-filters-drop-the-last-factor",
        "src/dominotowers/series.py",
        "zip(range(1, b + 1), repeat(2))",
        "zip(range(1, b), repeat(2))",
        ("tests/test_series.py::TestBuilders::test_series_match_recurrences",),
    ),
    Mutant(
        # P is then F times prod (1 - lam*x^(a-1)), no polynomial
        "rational-form-product-starts-one-degree-low",
        "src/dominotowers/series.py",
        "p[a:] = [v - lam * w for v, w in zip(p[a:], p)]",
        "p[a - 1 :] = [v - lam * w for v, w in zip(p[a - 1 :], p)]",
        (
            "tests/test_series.py::TestRationalForm"
            "::test_builders_match_recurrences_around_twice_the_degree",
        ),
    ),
    Mutant(
        # equivalent on the four families, whose P(0) is 0: only a numerator
        # with a constant term shows the lost lam * P(0) at x^a
        "rational-form-divides-from-a-plus-one",
        "src/dominotowers/series.py",
        "_divide(a, lam, p, a)",
        "_divide(a, lam, p, a + 1)",
        (
            "tests/test_series.py::TestRationalForm"
            "::test_extension_divides_from_the_constant_term",
        ),
    ),
    Mutant(
        "series-empty-guard-dropped",
        "src/dominotowers/series.py",
        '        if not self:\n'
        '            raise ValueError("a series needs at least the constant coefficient")\n',
        "",
        (
            "tests/test_series.py::TestArithmetic::test_empty_series_rejected",
            "tests/test_series.py::TestArithmetic::test_empty_iterator_rejected",
        ),
    ),
    Mutant(
        "series-empty-guard-reads-the-input",
        "src/dominotowers/series.py",
        "if not self:",
        "if not coeffs:",
        ("tests/test_series.py::TestArithmetic::test_empty_iterator_rejected",),
    ),
    Mutant(
        "series-product-refusal-dropped",
        "src/dominotowers/series.py",
        "    __mul__ = __rmul__ = __add__\n",
        "",
        ("tests/test_series.py::TestArithmetic::test_scalar_product_is_rejected",),
    ),
    Mutant(
        "series-imports-recurrences",
        "src/dominotowers/series.py",
        "from operator import add\n",
        "from operator import add\n\nfrom . import recurrences\n",
        ("tests/test_cli.py::TestImports::test_routes_stay_independent",),
    ),
    Mutant(
        "pentagonal-sign-flipped",
        "src/dominotowers/asymptotics.py",
        "total += (-1) ** k",
        "total += -(-1) ** k",
        ("tests/test_asymptotics.py::TestLimitConstant::test_first_digits",),
    ),
    Mutant(
        "digits-count-check-dropped",
        "src/dominotowers/asymptotics.py",
        '    if count < 1:\n        raise ValueError("count must be at least 1")\n',
        "",
        ("tests/test_asymptotics.py::TestLimitConstant::test_one_digit_at_least",),
    ),
    Mutant(
        # a negative or zero denominator then prints a doubled or stray sign
        "format-ratio-denominator-guard-dropped",
        "src/dominotowers/render.py",
        '    if denominator <= 0:\n        raise ValueError("denominator must be positive")\n',
        "",
        (
            "tests/test_asymptotics.py::TestFormatRatio"
            "::test_denominator_must_be_positive",
        ),
    ),
    Mutant(
        "oeis-leading-zero-reading-inverted",
        "src/dominotowers/oeis.py",
        "if not kept[0]:",
        "if kept[0]:",
        ("tests/test_oeis.py::TestCompare::test_detects_skipped_leading_zero_row",),
    ),
    Mutant(
        "model-left-edge-bound-loosened",
        "src/dominotowers/model.py",
        "up[0] >= row[0] - 1",
        "up[0] >= row[0] - 2",
        (
            "tests/test_model.py::TestAgainstSpanReference"
            "::test_every_short_stack_of_solid_rows",
        ),
    ),
    Mutant(
        "from-levels-never-shifts",
        "src/dominotowers/model.py",
        "if shift:",
        "if False:",
        (
            "tests/test_enumerator.py::TestEnumerate"
            "::test_every_yield_is_valid_and_canonical",
        ),
    ),
    Mutant(
        "recombine-places-the-upper-part-one-cell-left",
        "src/dominotowers/model.py",
        "dx = lower[-1][0] - 1 - upper[0][0]",
        "dx = lower[-1][0] - 2 - upper[0][0]",
        (
            "tests/test_model.py::TestDissection"
            "::test_round_trip_and_parts_for_small_sizes",
        ),
    ),
    Mutant(
        "dissect-splits-at-the-highest-widest-row",
        "src/dominotowers/model.py",
        "level = widths.index(max(widths))",
        "level = len(widths) - 1 - widths[::-1].index(max(widths))",
        (
            "tests/test_model.py::TestDissection"
            "::test_upper_parts_are_the_towers_on_a_widest_base",
        ),
    ),
    Mutant(
        # a tower whose widest row is one above the base then loses its
        # lower part, as if the base were a widest row
        "dissect-keeps-a-tower-widest-one-up-whole",
        "src/dominotowers/model.py",
        "if level == 0:",
        "if level <= 1:",
        (
            "tests/test_model.py::TestDissection"
            "::test_upper_parts_are_the_towers_on_a_widest_base",
        ),
    ),
    Mutant(
        "verify-order-check-allows-repeats",
        "src/dominotowers/cli.py",
        "prev < levels",
        "prev <= levels",
        ("tests/test_cli.py::TestVerify::test_duplicate_shape_fails_count_check",),
    ),
    Mutant(
        # a refusal then escapes verify as a usage error, not a census FAIL
        "verify-model-error-escapes",
        "src/dominotowers/cli.py",
        "                try:\n"
        "                    shape = TowerShape.from_levels(levels)\n"
        "                    label = model.classify(shape)\n"
        "                    parts = dissect(shape)\n"
        "                    restored = recombine(parts)\n"
        "                except ValueError as exc:\n"
        '                    family_mismatches.append(f"census failed on levels {levels}: {exc}")\n'
        "                    continue\n",
        "                shape = TowerShape.from_levels(levels)\n"
        "                label = model.classify(shape)\n"
        "                parts = dissect(shape)\n"
        "                restored = recombine(parts)\n",
        (
            "tests/test_cli.py::TestVerify::test_raising_classify_fails_census",
            "tests/test_cli.py::TestVerify::test_raising_dissect_fails_census",
        ),
    ),
    Mutant(
        # a tower the walk flags convex in error would then be dropped
        # before dissect refuses it, and no check would name it
        "verify-skips-walk-flag-errors",
        "src/dominotowers/cli.py",
        "                    label = model.classify(shape)\n",
        "                    label = model.classify(shape)\n"
        "                    if label is TowerClass.NON_CONVEX:\n"
        "                        continue\n",
        (
            "tests/test_cli.py::TestVerify"
            "::test_non_convex_flagged_convex_fails_census",
        ),
    ),
    Mutant(
        # each convex tower is then counted under its top row's width
        "verify-census-reads-the-top-row",
        "src/dominotowers/cli.py",
        "len(parts.upper[0])",
        "len(parts.upper[-1])",
        (
            "tests/test_cli.py::TestVerify"
            "::test_split_tower_kept_whole_fails_census",
        ),
    ),
    Mutant(
        "recurrence-diagonal-term-dropped",
        "src/dominotowers/recurrences.py",
        " - prev2[n - 2] + row[m] + prev[m])",
        " + row[m] + prev[m])",
        ("tests/test_recurrences.py::TestSpotValues::test_stack_family",),
    ),
    Mutant(
        # each class then starts from its first new cell, not the cell
        # b - 1 columns back
        "g-class-sums-lose-their-seed",
        "src/dominotowers/recurrences.py",
        "row[i - lag :: lag] = itertools.accumulate(row[i - lag :: lag])",
        "row[i :: lag] = itertools.accumulate(row[i :: lag])",
        (
            "tests/test_recurrences.py::TestAgainstDocstringRecurrences"
            "::test_growth_steps_at_regime_edges_match_reference",
        ),
    ),
    Mutant(
        "g-block-sums-read-one-column-late",
        "src/dominotowers/recurrences.py",
        "row[n - lag : n])",
        "row[n - lag + 1 : n + 1])",
        (
            "tests/test_recurrences.py::TestAgainstDocstringRecurrences"
            "::test_growth_steps_at_regime_edges_match_reference",
        ),
    ),
    Mutant(
        "g-weight-dropped-at-k-3",
        "src/dominotowers/recurrences.py",
        "[weight * v for v in weighted]",
        "weighted",
        (
            "tests/test_recurrences.py::TestAgainstDocstringRecurrences"
            "::test_interleaved_growth_matches_reference",
        ),
    ),
    Mutant(
        # a table then gains no row for max_b = len(rows), one short
        "table-rows-one-short-of-max-b",
        "src/dominotowers/recurrences.py",
        "if len(rows) <= max_b:",
        "if len(rows) < max_b:",
        ("tests/test_recurrences.py::TestSpotValues::test_stack_family",),
    ),
    Mutant(
        "skew-rows-start-one-column-early",
        "src/dominotowers/recurrences.py",
        '"r": 1}',
        '"r": 0}',
        (
            "tests/test_recurrences.py::TestAgainstDocstringRecurrences"
            "::test_rows_are_zero_left_of_their_first_column",
        ),
    ),
    Mutant(
        # each column then loses its [m = 0] term, the stacks and skewed
        # towers on the widest base
        "convex-columns-drop-their-m-0-term",
        "src/dominotowers/recurrences.py",
        "total = tail[n]",
        "total = 0",
        ("tests/test_cli.py::TestCount::test_convex_cell",),
    ),
    Mutant(
        # m > n - b + 1 would be an equivalent mutant: tail[b - 1] is 0
        "convex-convolution-drops-its-last-term",
        "src/dominotowers/recurrences.py",
        "if m > n - b:",
        "if m > n - b - 1:",
        (
            "tests/test_cli.py::TestCount::test_convex_cell",
            "tests/test_enumerator.py::TestCensus::test_census_matches_recurrences",
        ),
    ),
    Mutant(
        # c then raises IndexError at max_n = -1, and g, h and r return empty rows
        "rows-negative-max-n-guard-dropped",
        "src/dominotowers/recurrences.py",
        '    if max_n < 0:\n        raise ValueError("max_n must be at least 0")\n',
        "",
        (
            "tests/test_recurrences.py::TestTableMechanics"
            "::test_rows_refuse_a_negative_max_n",
        ),
    ),
    Mutant(
        # a domino may then no longer stand one cell left of the one below it
        "level-sets-support-loses-its-left-offset",
        "src/dominotowers/enumerator.py",
        "(-1, 0, 1)",
        "(0, 1)",
        ("tests/test_enumerator.py::TestEnumerate::test_counts_match_binomials",),
    ),
    Mutant(
        # two dominoes of a level may then overlap
        "level-sets-extension-gap-one-cell",
        "src/dominotowers/enumerator.py",
        "top[0] - level[-1] >= 2",
        "top[0] - level[-1] >= 1",
        ("tests/test_enumerator.py::TestNodeWork::test_level_sets_match_raw_positions",),
    ),
    Mutant(
        # smaller levels are extended again, so their extensions repeat
        "level-sets-extend-every-level",
        "src/dominotowers/enumerator.py",
        "if len(level) == max_size - 1:",
        "if len(level) < max_size:",
        ("tests/test_enumerator.py::TestNodeWork::test_level_sets_match_raw_positions",),
    ),
    Mutant(
        "walk-draws-siblings-before-children",
        "src/dominotowers/enumerator.py",
        "stack.append((iter(_level_sets(chosen, left)), grown, state, left))\n"
        "                break\n",
        "stack.append((iter(_level_sets(chosen, left)), grown, state, left))\n",
        ("tests/test_enumerator.py::TestEnumerate::test_counts_match_binomials",),
    ),
    Mutant(
        "walk-child-budget-one-block-short",
        "src/dominotowers/enumerator.py",
        "budget - len(chosen)",
        "budget - len(chosen) - 1",
        ("tests/test_enumerator.py::TestEnumerate::test_counts_match_binomials",),
    ),
    Mutant(
        "tower-lines-draw-siblings-before-children",
        "src/dominotowers/enumerator.py",
        "stack.append((zip(it, it, it, it), y + 1, grown))\n"
        "                break\n",
        "stack.append((zip(it, it, it, it), y + 1, grown))\n",
        ("tests/test_enumerator.py::TestTowerLines::test_equals_str_of_every_shape",),
    ),
    Mutant(
        "tower-lines-last-level-one-row-low",
        "src/dominotowers/enumerator.py",
        "_last_keys(level, y + 1)",
        "_last_keys(level, y)",
        ("tests/test_enumerator.py::TestTowerLines::test_equals_str_of_every_shape",),
    ),
    Mutant(
        # the right cell's place is counted among the keys below, so it
        # lands one word early once the left cell is in
        "tower-lines-splice-inserts-left-cell-first",
        "src/dominotowers/enumerator.py",
        "line.insert(bisect(grown, right), table[right])\n"
        "                    line.insert(bisect(grown, low), table[low])\n",
        "line.insert(bisect(grown, low), table[low])\n"
        "                    line.insert(bisect(grown, right), table[right])\n",
        ("tests/test_enumerator.py::TestTowerLines::test_equals_str_of_every_shape",),
    ),
    Mutant(
        # a top left of every cell read through the frame's table reads its
        # two texts from the table's empty padding
        "tower-lines-corner-top-reads-the-frame-table",
        "src/dominotowers/enumerator.py",
        "table = tables[low // DEFAULT_HARD_CAP]",
        "table = texts",
        ("tests/test_enumerator.py::TestTowerLines::test_equals_str_of_every_shape",),
    ),
    Mutant(
        # each top's key is then its right cell's, one stride past its left
        "tower-lines-top-keys-read-the-right-cell",
        "src/dominotowers/enumerator.py",
        "_level_keys(top, y)[0]",
        "_level_keys(top, y)[1]",
        (
            "tests/test_enumerator.py::TestNodeWork"
            "::test_last_keys_are_the_one_domino_levels",
        ),
    ),
    Mutant(
        "plain-args-skip-the-choices-check",
        "src/dominotowers/cli.py",
        "        if action.choices is not None and value not in action.choices:\n"
        "            return None\n",
        "",
        ("tests/test_cli.py::TestParser::test_plain_args_leaves_the_rest_to_argparse"
         "[out-of-choices]",),
    ),
    Mutant(
        "plain-args-accept-a-repeated-option",
        "src/dominotowers/cli.py",
        ' or action.dest in values:',
        ':',
        ("tests/test_cli.py::TestParser::test_plain_args_leaves_the_rest_to_argparse"
         "[repeated-option]",),
    ),
    Mutant(
        "plain-args-accept-a-value-starting-with-a-dash",
        "src/dominotowers/cli.py",
        'or not value or value[0] == "-"',
        'or not value',
        ("tests/test_cli.py::TestParser::test_plain_args_leaves_the_rest_to_argparse"
         "[negative-number]",),
    ),
    Mutant(
        # the help action's dest then reaches the namespace, as its default
        "plain-args-grammar-keeps-the-help-action",
        "src/dominotowers/cli.py",
        "[a for a in command._actions if not isinstance(a, argparse._HelpAction)]",
        "command._actions",
        (
            "tests/test_cli.py::TestParser"
            "::test_seeded_corpus_parses_as_the_top_level_parser",
        ),
    ),
    Mutant(
        # series._check still refuses b = 0 and exits 2, but its message
        # names no flag
        "series-base-floor-left-to-the-library",
        "src/dominotowers/cli.py",
        "1 <= args.b",
        "0 <= args.b",
        ("tests/test_cli.py::TestExitCodes::test_bound_messages[series-b-low]",),
    ),
    Mutant(
        # theta --max-b 1 then prints an empty table and exits 0
        "theta-max-b-floor-one-low",
        "src/dominotowers/cli.py",
        "2 <= args.max_b",
        "1 <= args.max_b",
        ("tests/test_cli.py::TestExitCodes::test_bound_messages[theta-b-low]",),
    ),
    Mutant(
        "enumerate-batch-drops-its-last-newline",
        "src/dominotowers/cli.py",
        '"\\n".join(batch) + "\\n"',
        '"\\n".join(batch)',
        ("tests/test_cli.py::TestEnumerate::test_golden_stream",),
    ),
)


def run(mutant: Mutant | None, tests) -> tuple[int, int]:
    """Exit statuses of pytest on tests and of `verify --max-n 8` in a copy
    of the tree, edited by mutant."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            if (ROOT / name).is_dir():
                ignore = shutil.ignore_patterns("__pycache__")
                shutil.copytree(ROOT / name, tree / name, ignore=ignore)
            else:
                shutil.copy(ROOT / name, tree / name)
        if mutant is not None:
            path = tree / mutant.file
            text = path.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                raise ValueError(f"{mutant.name}: old text must occur once in {mutant.file}")
            path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        pytest = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
        verify = [sys.executable, "-m", "dominotowers", "verify", "--max-n", "8"]
        return tuple(
            subprocess.run(
                command, cwd=tree, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            ).returncode
            for command in ([*pytest, *tests], verify)
        )


def main() -> int:
    started = time.monotonic()
    tests = list(dict.fromkeys(t for m in REGISTER for t in m.tests))
    status, verified = run(None, tests)
    print(f"unedited copy: pytest exit {status} on {len(tests)} ids, verify exit {verified}")
    if status != 0 or verified != 0:
        return 1
    survivors = []
    caught = 0
    for mutant in REGISTER:
        status, verified = run(mutant, mutant.tests)
        print(
            f"{mutant.name}: {'killed' if status else 'SURVIVED'} (pytest exit {status})"
            f", verify exit {verified}"
        )
        if not status:
            survivors.append(mutant.name)
        caught += verified == 1
    print(
        f"{len(REGISTER) - len(survivors)} of {len(REGISTER)} killed"
        f" in {time.monotonic() - started:.1f} s"
    )
    print(f"tool catches {caught} of {len(REGISTER)}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
