"""Command-line surface.

Subcommands: count, table, theta, verify, enumerate, series, oeis-check.
Exit codes: 0 success, 1 verification mismatch, 2 usage error or out of
memory, 3 I/O or network failure.  Handlers check their arguments, raise and
print results; ``main`` alone turns an exception into an exit code and an
``error: ...`` line on stderr, except that a reader closing stdout early
gets exit 3 and no message.  The argument parser is built once per process
and shared by every ``main`` call.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from functools import cache
from pathlib import Path

from . import asymptotics, model, oeis, recurrences, series
from .enumerator import (
    DEFAULT_HARD_CAP,
    census,  # unused here; bench/tracer.py patches cli.census
    enumerate_towers,
)
from .model import TowerClass, dissect, recombine
from .recurrences import FAMILIES
from .render import FORMATS, count_table_rows, format_fixed, render_table

CACHE_ENV_VAR = "DOMINOTOWERS_CACHE_DIR"
ORDER_CAP = 4096  # table bounds, series order and b-file terms compared
THETA_MAX_B = 128  # theta_exact's cost grows steeply with b
THETA_MAX_DECIMALS = 1000


def default_cache_dir() -> Path:
    override = os.environ.get(CACHE_ENV_VAR)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "dominotowers"


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, shared by every call.

    Callers must not mutate it: a change would reach every later ``main``.
    Handlers are looked up in ``main``, not bound here, so a ``cmd_*``
    replaced after the first build still runs.
    """
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
        "--method", choices=("closed-form", "functional"), default="functional"
    )

    p_oeis = sub.add_parser("oeis-check", help="compare a family against a b-file")
    p_oeis.add_argument("sequence_id")
    p_oeis.add_argument("--family", choices=oeis.FAMILY_CHOICES, default=None)
    p_oeis.add_argument("--bfile", type=Path, default=None)
    p_oeis.add_argument("--fetch", action="store_true")
    p_oeis.add_argument("--cache-dir", type=Path, default=None)

    return parser


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
    thetas = [asymptotics.theta_exact(b) for b in range(2, max_b + 1)]
    estimates = [asymptotics.approx_theta(b) for b in range(2, max_b + 1)]
    errors = [abs(t - e) for t, e in zip(thetas, estimates)]
    rows = [
        ["theta"] + [format_fixed(v, decimals) for v in thetas],
        ["estimate"] + [format_fixed(v, decimals) for v in estimates],
        ["error"] + [format_fixed(v, decimals) for v in errors],
    ]
    return header, rows


def cmd_theta(args) -> int:
    if args.max_b < 2:
        raise ValueError("--max-b must be at least 2")
    if args.max_b > THETA_MAX_B:
        raise ValueError(f"--max-b must be at most {THETA_MAX_B}")
    if args.decimals < 0:
        raise ValueError("--decimals must be non-negative")
    if args.decimals > THETA_MAX_DECIMALS:
        raise ValueError(f"--decimals must be at most {THETA_MAX_DECIMALS}")
    header, rows = theta_table_rows(args.max_b, args.decimals)
    sys.stdout.write(render_table(header, rows, args.format))
    return 0


def run_verifications(max_n: int) -> list[tuple[str, bool, str]]:
    """All cross-checks up to max_n; (name, passed, detail) per check.

    Each (n, b) is enumerated once: every shape is classified and, when
    convex, dissected and recombined; its levels join that base's set of
    distinct shapes.
    """
    from math import comb

    count_mismatches: list[str] = []
    family_mismatches: list[str] = []
    dissect_mismatches: list[str] = []
    shapes_checked = 0
    total = 0
    for n in range(1, max_n + 1):
        total = 0
        by_base: dict[int, Counter[TowerClass]] = {}
        convex_by_width: Counter[int] = Counter()
        for b in range(1, n + 1):
            seen = set()
            labels = by_base[b] = Counter()
            for shape in enumerate_towers(n, b):
                seen.add(shape.levels)  # not the shape: a third less memory
                label = model.classify(shape)
                labels[label] += 1
                if label is TowerClass.NON_CONVEX:
                    continue
                convex_by_width[shape.max_row_b] += 1
                if recombine(dissect(shape)) != shape:
                    dissect_mismatches.append(f"round trip failed for {shape}")
            expected = comb(2 * n - 1, n - b)
            total += len(seen)
            shapes_checked += len(seen)
            if len(seen) != expected:
                count_mismatches.append(f"count({n},{b}) = {len(seen)} != {expected}")
        if total != 4 ** (n - 1):
            count_mismatches.append(f"total({n}) = {total} != {4 ** (n - 1)}")
        for b in range(1, n + 1):
            pairs = (
                ("h", by_base[b][TowerClass.STACK], recurrences.h(b, n)),
                ("r", by_base[b][TowerClass.RIGHT_SKEWED], recurrences.r(b, n)),
                ("mirror", by_base[b][TowerClass.LEFT_SKEWED], recurrences.r(b, n)),
                ("c", convex_by_width[b], recurrences.c(b, n)),
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
    if args.max_n < 1:
        raise ValueError("--max-n must be at least 1")
    if args.max_n > DEFAULT_HARD_CAP:
        raise ValueError(
            f"--max-n {args.max_n} exceeds the enumeration cap {DEFAULT_HARD_CAP}"
        )
    failed = False
    for name, passed, detail in run_verifications(args.max_n):
        status = "PASS" if passed else "FAIL"
        print(f"{status} {name}: {detail}")
        failed = failed or not passed
    return 1 if failed else 0


def cmd_enumerate(args) -> int:
    write = sys.stdout.write
    for shape in enumerate_towers(args.n, args.b):
        write(f"{shape}\n")  # f-string, not print: TowerShape.__str__ still runs
    return 0


def cmd_series(args) -> int:
    if not 0 <= args.order <= ORDER_CAP:
        raise ValueError(f"--order must be in 0..{ORDER_CAP}")
    method = args.method.replace("-", "_")
    builders = {
        "g": lambda: series.build_G(args.b, args.order),
        "h": lambda: series.build_H(args.b, args.order, method),
        "r": lambda: series.build_R(args.b, args.order, method),
        "c": lambda: series.build_C(args.b, args.order),
    }
    for n, coeff in enumerate(builders[args.family]().coeffs):
        print(n, coeff)
    return 0


def cmd_oeis_check(args) -> int:
    family = args.family or oeis.KNOWN_SEQUENCES.get(args.sequence_id)
    if family is None:
        raise ValueError(f"unknown sequence {args.sequence_id}; pass --family")
    if args.bfile is not None:
        text = args.bfile.read_text(encoding="utf-8")
    else:
        cache_dir = args.cache_dir or default_cache_dir()
        text = oeis.fetch_bfile(args.sequence_id, cache_dir, allow_network=args.fetch)
    result = oeis.compare_bfile(args.sequence_id, family, text, term_cap=ORDER_CAP)
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
    args = build_parser().parse_args(argv)
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
    except (OSError, UnicodeDecodeError, oeis.FetchError) as exc:
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
