"""Deterministic table rendering and fixed-point decimal formatting.

The three output formats carry identical numeric content; only separators
and framing differ.  Output is byte-stable: LF line endings, one trailing
newline, no locale or platform dependence.
"""

from __future__ import annotations

FORMATS = ("csv", "tsv", "markdown")


def format_ratio(numerator: int, denominator: int, decimals: int) -> str:
    """numerator/denominator (denominator > 0, need not be reduced) rounded
    half away from zero to ``decimals`` places, fixed width."""
    if decimals < 0:
        raise ValueError("decimals must be non-negative")
    if denominator <= 0:
        raise ValueError("denominator must be positive")
    sign = "-" if numerator < 0 else ""
    units, rem = divmod(abs(numerator) * 10 ** decimals, denominator)
    if 2 * rem >= denominator:
        units += 1
    text = str(units).rjust(decimals + 1, "0")
    if decimals == 0:
        return sign + text
    return f"{sign}{text[:-decimals]}.{text[-decimals:]}"


def render_table(header: list[str], rows: list[list[str]], fmt: str) -> str:
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}")
    if fmt == "csv":
        lines = [",".join(header)] + [",".join(row) for row in rows]
    elif fmt == "tsv":
        lines = ["\t".join(header)] + ["\t".join(row) for row in rows]
    else:
        lines = ["| " + " | ".join(header) + " |"]
        lines.append("|" + "|".join(" --- " for _ in header) + "|")
        lines.extend("| " + " | ".join(row) + " |" for row in rows)
    return "\n".join(lines) + "\n"


def count_table_rows(cells: list[list[int]]) -> tuple[list[str], list[list[str]]]:
    """Header and string rows for a family table, totals appended per row."""
    max_b = len(cells[0]) if cells else 0
    header = ["n"] + [f"b={b}" for b in range(1, max_b + 1)] + ["total"]
    rows = [
        [str(n)] + [str(v) for v in row] + [str(sum(row))]
        for n, row in enumerate(cells, start=1)
    ]
    return header, rows
