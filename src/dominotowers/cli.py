"""Command-line surface.

Subcommands: count, table, theta, verify, enumerate, series, oeis-check.
Exit codes: 0 success, 1 verification mismatch, 2 usage error or out of
memory, 3 I/O or network failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from . import asymptotics, model, oeis, recurrences, series
from .enumerator import (
    DEFAULT_HARD_CAP,
    CapExceeded,
    EnumerationRequest,
    census,  # unused here; bench/tracer.py patches cli.census
    enumerate_towers,
)
from .model import TowerClass, dissect, recombine
from .recurrences import FAMILIES
from .render import FORMATS, count_table_rows, format_fixed, render_table

CACHE_ENV_VAR = "DOMINOTOWERS_CACHE_DIR"


def default_cache_dir() -> Path:
    override = os.environ.get(CACHE_ENV_VAR)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "dominotowers"


@dataclass(frozen=True)
class RunConfig:
    """Caps and I/O settings one invocation runs under."""

    order_cap: int = 4096
    enumeration_cap: int = DEFAULT_HARD_CAP
    output_format: str = "csv"
    cache_dir: Path | None = None
    allow_network: bool = False

    def __post_init__(self) -> None:
        if self.order_cap < 1 or self.enumeration_cap < 1:
            raise ValueError("caps must be positive")
        if self.output_format not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}")

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        return cls(
            output_format=getattr(args, "format", "csv"),
            cache_dir=getattr(args, "cache_dir", None) or default_cache_dir(),
            allow_network=getattr(args, "fetch", False),
        )


def build_parser() -> argparse.ArgumentParser:
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


def cmd_count(args, config: RunConfig) -> int:
    try:
        value = recurrences.family_value(args.family, args.b, args.n, args.k)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(value)
    return 0


def cmd_table(args, config: RunConfig) -> int:
    cap = config.order_cap
    if not (1 <= args.max_n <= cap and 1 <= args.max_b <= cap):
        print(f"error: table bounds must be in 1..{cap}", file=sys.stderr)
        return 2
    try:
        cells = recurrences.table(args.family, args.max_n, args.max_b, args.k)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    header, rows = count_table_rows(cells)
    sys.stdout.write(render_table(header, rows, config.output_format))
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


def cmd_theta(args, config: RunConfig) -> int:
    if args.max_b < 2:
        print("error: --max-b must be at least 2", file=sys.stderr)
        return 2
    if args.decimals < 0:
        print("error: --decimals must be non-negative", file=sys.stderr)
        return 2
    header, rows = theta_table_rows(args.max_b, args.decimals)
    sys.stdout.write(render_table(header, rows, config.output_format))
    return 0


def run_verifications(max_n: int) -> list[tuple[str, bool, str]]:
    """All cross-checks up to max_n; (name, passed, detail) per check.

    Each (n, b) is enumerated once: every shape joins that base's set of
    distinct shapes, is classified, and, when convex, dissected and
    recombined.
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
            for shape in enumerate_towers(EnumerationRequest(n=n, b=b)):
                seen.add(shape)
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


def cmd_verify(args, config: RunConfig) -> int:
    if args.max_n < 1:
        print("error: --max-n must be at least 1", file=sys.stderr)
        return 2
    if args.max_n > config.enumeration_cap:
        print(
            f"error: --max-n {args.max_n} exceeds the enumeration cap "
            f"{config.enumeration_cap}",
            file=sys.stderr,
        )
        return 2
    try:
        checks = run_verifications(args.max_n)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = False
    for name, passed, detail in checks:
        status = "PASS" if passed else "FAIL"
        print(f"{status} {name}: {detail}")
        failed = failed or not passed
    return 1 if failed else 0


def cmd_enumerate(args, config: RunConfig) -> int:
    try:
        request = EnumerationRequest(n=args.n, b="all" if args.b is None else args.b)
        for shape in enumerate_towers(request):
            print(shape)
    except (CapExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_series(args, config: RunConfig) -> int:
    if not 0 <= args.order <= config.order_cap:
        print(f"error: --order must be in 0..{config.order_cap}", file=sys.stderr)
        return 2
    method = args.method.replace("-", "_")
    builders = {
        "g": lambda: series.build_G(args.b, args.order),
        "h": lambda: series.build_H(args.b, args.order, method),
        "r": lambda: series.build_R(args.b, args.order, method),
        "c": lambda: series.build_C(args.b, args.order),
    }
    try:
        result = builders[args.family]()
    except (series.SubsetBlowup, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for n, coeff in enumerate(result.coeffs):
        print(n, coeff)
    return 0


def cmd_oeis_check(args, config: RunConfig) -> int:
    family = args.family or oeis.KNOWN_SEQUENCES.get(args.sequence_id)
    if family is None:
        print(
            f"error: unknown sequence {args.sequence_id}; pass --family",
            file=sys.stderr,
        )
        return 2
    try:
        if args.bfile is not None:
            text = args.bfile.read_text(encoding="utf-8")
        else:
            text = oeis.fetch_bfile(
                args.sequence_id,
                config.cache_dir,
                allow_network=config.allow_network,
            )
    except (OSError, UnicodeDecodeError, oeis.FetchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        result = oeis.compare_bfile(
            args.sequence_id, family, text, term_cap=config.order_cap
        )
    except oeis.BFileError as exc:
        print(f"error: {args.sequence_id}: {exc}", file=sys.stderr)
        return 3
    except oeis.AlignmentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
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
    parser = build_parser()
    args = parser.parse_args(argv)
    config = RunConfig.from_args(args)
    handlers = {
        "count": cmd_count,
        "table": cmd_table,
        "theta": cmd_theta,
        "verify": cmd_verify,
        "enumerate": cmd_enumerate,
        "series": cmd_series,
        "oeis-check": cmd_oeis_check,
    }
    try:
        return handlers[args.command](args, config)
    except MemoryError:
        print("error: out of memory; try smaller arguments", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
