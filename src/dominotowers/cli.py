"""Command-line surface.

Subcommands: count, table, theta, verify, enumerate, series, oeis-check.
Exit codes: 0 success, 1 verification mismatch, 2 usage error, out of
memory or a number too large for the machine, 3 I/O failure or a malformed
b-file.
Handlers check their arguments, raise and print results; ``main`` alone
turns an exception into an exit code and an ``error: ...`` line on stderr,
except that a reader closing stdout early gets exit 3 and no message.  The
argument parser is built once per process and shared by every ``main`` call.
``main`` parses an argument list in one of two ways.  When the first argument
names a command and the rest are that command's positionals in order, then
distinct ``--option value`` pairs whose values convert and are among their
choices, it builds the namespace from the command parser's own actions with
no argparse pass.  Any other list (empty, ``-h``, an unknown word, an option
first, ``--opt=value``, a usage error) goes to ``build_parser().parse_args``,
the reference both ways must agree with.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from functools import cache
from itertools import chain, islice
from math import comb

from . import asymptotics, model, oeis, recurrences, series
from .enumerator import (
    DEFAULT_HARD_CAP,
    census,  # unused here, as is enumerate_towers; bench/tracer.py patches both
    enumerate_towers,
    tower_lines,
    walk,
)
from .model import TowerClass, TowerShape, dissect, recombine
from .recurrences import FAMILIES
from .render import FORMATS, count_table_rows, format_ratio, render_table

ORDER_CAP = 4096  # table bounds, series order and base
THETA_MAX_B = 128  # bounds the table: 128 bases at 1000 decimals print 383 kB
THETA_MAX_DECIMALS = 1000


def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, shared by every call.

    Callers must not mutate it: a change would reach every later ``main``.
    Handlers are looked up in ``main``, not bound here, so a ``cmd_*``
    replaced after the first build still runs.
    """
    return _parsers()[0]


@cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, tuple]]:
    """The top-level parser and, per command, its positionals, options by
    option string, defaults and required dests, built once off its parser's
    actions (help aside; each stores one value, as a tier-1 test checks)."""
    parser = argparse.ArgumentParser(
        prog="dominotowers",
        description="Count, enumerate, and verify convex domino towers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="print one family value")
    p_count.add_argument("family", choices=FAMILIES)
    p_count.add_argument("--b", type=int, required=True)
    p_count.add_argument("--n", type=int, required=True)
    p_count.add_argument("--k", type=int, default=2)

    p_table = sub.add_parser("table", help="render a family table with totals")
    p_table.add_argument("family", choices=FAMILIES)
    p_table.add_argument("--max-n", type=int, required=True)
    p_table.add_argument("--max-b", type=int, required=True)
    p_table.add_argument("--k", type=int, default=2)
    p_table.add_argument("--format", choices=FORMATS, default="csv")

    p_theta = sub.add_parser("theta", help="render the asymptotic factor table")
    p_theta.add_argument("--max-b", type=int, required=True)
    p_theta.add_argument("--decimals", type=int, default=5)
    p_theta.add_argument("--format", choices=FORMATS, default="csv")

    p_verify = sub.add_parser(
        "verify", help="cross-check enumeration, recurrences, and dissection"
    )
    p_verify.add_argument("--max-n", type=int, required=True)

    p_enum = sub.add_parser("enumerate", help="stream shapes as cell lists")
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--b", type=int, default=None)

    p_series = sub.add_parser("series", help="print series coefficients")
    p_series.add_argument("family", choices=FAMILIES)
    p_series.add_argument("--b", type=int, required=True)
    p_series.add_argument("--order", type=int, default=64)
    p_series.add_argument(
        "--method", choices=(series.CLOSED_FORM, series.FUNCTIONAL),
        default=series.FUNCTIONAL,
    )

    p_oeis = sub.add_parser("oeis-check", help="compare a family against a b-file")
    p_oeis.add_argument("sequence_id")
    p_oeis.add_argument("--family", choices=oeis.FAMILY_CHOICES, default=None)
    p_oeis.add_argument("--bfile", required=True)

    grammars = {}
    for name, command in sub.choices.items():
        actions = [a for a in command._actions if not isinstance(a, argparse._HelpAction)]
        grammars[name] = (
            [a for a in actions if not a.option_strings],
            {s: a for a in actions for s in a.option_strings},
            {a.dest: a.default for a in actions},
            {a.dest for a in actions if a.required},
        )
    return parser, grammars


def _plain_args(argv: list[str]) -> argparse.Namespace | None:
    """``build_parser().parse_args(argv)``'s namespace, built without argparse
    when ``argv[0]`` names a command and the rest are its positionals in order,
    then distinct ``--option value`` pairs naming its exact option strings,
    each value non-empty, not starting with ``-``, of its action's type and
    among its choices, with every required option given; otherwise None, and
    argparse decides (abbreviations, ``--opt=value``, ``--``, help, errors)."""
    grammar = _parsers()[1].get(argv[0]) if argv else None
    if grammar is None:
        return None
    positionals, options, defaults, required = grammar
    rest = argv[1 + len(positionals):]
    if len(argv) <= len(positionals) or len(rest) % 2:
        return None
    named = [(options.get(option), value) for option, value in zip(rest[::2], rest[1::2])]
    values = {}
    for action, value in [*zip(positionals, argv[1:]), *named]:
        if action is None or not value or value[0] == "-" or action.dest in values:
            return None
        if action.type is not None:
            try:
                value = action.type(value)
            except (TypeError, ValueError):
                return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    if not required <= values.keys():
        return None
    return argparse.Namespace(command=argv[0], **{**defaults, **values})


def cmd_count(args) -> int:
    print(recurrences.family_value(args.family, args.b, args.n, args.k))
    return 0


def cmd_table(args) -> int:
    if not (1 <= args.max_n <= ORDER_CAP and 1 <= args.max_b <= ORDER_CAP):
        raise ValueError(f"table bounds must be in 1..{ORDER_CAP}")
    cells = recurrences.table(args.family, args.max_n, args.max_b, args.k)
    header, rows = count_table_rows(cells)
    sys.stdout.write(render_table(header, rows, args.format))
    return 0


def theta_table_rows(max_b: int, decimals: int) -> tuple[list[str], list[list[str]]]:
    header = ["row"] + [f"b={b}" for b in range(2, max_b + 1)]
    thetas, estimates, errors = ["theta"], ["estimate"], ["error"]
    for b, num, den in asymptotics.theta_pairs(max_b):
        e_num, e_den = asymptotics.approx_theta(b).as_integer_ratio()
        thetas.append(format_ratio(num, den, decimals))
        estimates.append(format_ratio(e_num, e_den, decimals))
        error = abs(num * e_den - e_num * den)
        errors.append(format_ratio(error, den * e_den, decimals))
    return header, [thetas, estimates, errors]


def cmd_theta(args) -> int:
    if not 2 <= args.max_b <= THETA_MAX_B:
        raise ValueError(f"--max-b must be in 2..{THETA_MAX_B}")
    if not 0 <= args.decimals <= THETA_MAX_DECIMALS:
        raise ValueError(f"--decimals must be in 0..{THETA_MAX_DECIMALS}")
    header, rows = theta_table_rows(args.max_b, args.decimals)
    sys.stdout.write(render_table(header, rows, args.format))
    return 0


def run_verifications(max_n: int) -> list[tuple[str, bool, str]]:
    """All cross-checks up to max_n; (name, passed, detail) per check.

    Each (n, b) is walked once; a strictly increasing stream of C(2n-1, n-b)
    towers proves them distinct, and each convex one is checked as a shape.
    """
    count_mismatches: list[str] = []
    family_mismatches: list[str] = []
    dissect_mismatches: list[str] = []
    shapes_checked = 0
    total = 0
    for n in range(1, max_n + 1):
        total = 0
        tally: Counter[tuple[TowerClass | str, int]] = Counter()
        for b in range(1, n + 1):
            count, prev, ordered = 0, (), True
            for count, (levels, convex) in enumerate(walk(n, b), 1):
                ordered, prev = ordered and prev < levels, levels
                if not convex:
                    continue
                # a walked tower that the model refuses to build, label, split
                # or rejoin fails the census, as the counts can no longer
                # agree: so does one the walk flags convex in error
                try:
                    shape = TowerShape.from_levels(levels)
                    label = model.classify(shape)
                    parts = dissect(shape)
                    restored = recombine(parts)
                except ValueError as exc:
                    family_mismatches.append(f"census failed on levels {levels}: {exc}")
                    continue
                tally[label, b] += 1
                tally["c", len(parts.upper[0])] += 1  # dissect splits at a widest row
                if restored != shape:
                    dissect_mismatches.append(f"round trip failed for {shape}")
            expected = comb(2 * n - 1, n - b)
            total += count
            shapes_checked += count
            if not ordered:
                count_mismatches.append(f"walk({n},{b}) is not strictly increasing")
            if count != expected:
                count_mismatches.append(f"count({n},{b}) = {count} != {expected}")
        if total != 4 ** (n - 1):
            count_mismatches.append(f"total({n}) = {total} != {4 ** (n - 1)}")
        for b in range(1, n + 1):
            pairs = (
                ("h", tally[TowerClass.STACK, b], recurrences.h(b, n)),
                ("r", tally[TowerClass.RIGHT_SKEWED, b], recurrences.r(b, n)),
                ("mirror", tally[TowerClass.LEFT_SKEWED, b], recurrences.r(b, n)),
                ("c", tally["c", b], recurrences.c(b, n)),
            )
            for name, got, expected in pairs:
                if got != expected:
                    family_mismatches.append(
                        f"{name}({b},{n}): census {got} != recurrence {expected}"
                    )
    return [
        _check(
            "known counts: C(2n-1, n-b) per base and 4^(n-1) per size",
            count_mismatches,
            f"{shapes_checked} shapes checked ({total} at n={max_n})",
        ),
        _check(
            "census equals recurrences for h, r, c (and mirror symmetry)",
            family_mismatches,
            "all families agree",
        ),
        _check(
            "dissection round trip on every convex shape",
            dissect_mismatches,
            "recombine restores every shape",
        ),
    ]


def _check(name: str, mismatches: list[str], summary: str) -> tuple[str, bool, str]:
    """(name, passed, detail); a failure lists its first ten mismatches."""
    if mismatches:
        return (name, False, "; ".join(mismatches[:10]))
    return (name, True, summary)


def cmd_verify(args) -> int:
    if not 1 <= args.max_n <= DEFAULT_HARD_CAP:
        raise ValueError(f"--max-n must be in 1..{DEFAULT_HARD_CAP}")
    failed = False
    for name, passed, detail in run_verifications(args.max_n):
        status = "PASS" if passed else "FAIL"
        print(f"{status} {name}: {detail}")
        failed = failed or not passed
    return 1 if failed else 0


def cmd_enumerate(args) -> int:
    lines = tower_lines(args.n, args.b)
    while batch := list(islice(lines, 1024)):
        sys.stdout.write("\n".join(batch) + "\n")
    return 0


def cmd_series(args) -> int:
    if not 0 <= args.order <= ORDER_CAP:
        raise ValueError(f"--order must be in 0..{ORDER_CAP}")
    if not 1 <= args.b <= ORDER_CAP:
        raise ValueError(f"--b must be in 1..{ORDER_CAP}")
    if args.method == series.CLOSED_FORM and args.family not in ("h", "r"):
        raise ValueError(f"--method {series.CLOSED_FORM} applies to h and r only")
    builders = {
        "g": lambda: series.build_G(args.b, args.order),
        "h": lambda: series.build_H(args.b, args.order, args.method),
        "r": lambda: series.build_R(args.b, args.order, args.method),
        "c": lambda: series.build_C(args.b, args.order),
    }
    coeffs = builders[args.family]()
    pairs = tuple(chain.from_iterable(enumerate(coeffs)))
    sys.stdout.write("%d %d\n" * len(coeffs) % pairs)
    return 0


def cmd_oeis_check(args) -> int:
    family = args.family or oeis.KNOWN_SEQUENCES.get(args.sequence_id)
    if family is None:
        raise ValueError(f"unknown sequence {args.sequence_id}; pass --family")
    with open(args.bfile, encoding="utf-8") as f:
        text = f.read()
    result = oeis.compare_bfile(args.sequence_id, family, text)
    print(
        f"{result.sequence_id} as {result.family} ({result.candidate}): "
        f"{result.matched}/{result.compared} terms match"
    )
    if result.first_mismatch is not None:
        index, ours, theirs = result.first_mismatch
        print(f"first mismatch at index {index}: ours {ours}, b-file {theirs}")
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv) or build_parser().parse_args(argv)
    handlers = {
        "count": cmd_count,
        "table": cmd_table,
        "theta": cmd_theta,
        "verify": cmd_verify,
        "enumerate": cmd_enumerate,
        "series": cmd_series,
        "oeis-check": cmd_oeis_check,
    }
    # exact counts can be very long: lift the int-to-text digit limit for this
    # call only (0 means no limit; Python before 3.10.7 has none)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    # BFileError and UnicodeDecodeError are ValueErrors: keep them above it
    try:
        return handlers[args.command](args)
    except MemoryError:
        message, code = "out of memory; try smaller arguments", 2
    except oeis.BFileError as exc:
        message, code = f"{args.sequence_id}: {exc}", 3
    except BrokenPipeError:
        # the reader left: point stdout at devnull so the final flush is silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 3
    except OverflowError as exc:
        message, code = f"argument too large: {exc}", 2
    except (OSError, UnicodeDecodeError) as exc:
        message, code = exc, 3
    except oeis.AlignmentError as exc:
        message, code = exc, 1
    except ValueError as exc:
        message, code = exc, 2
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    print(f"error: {message}", file=sys.stderr)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
