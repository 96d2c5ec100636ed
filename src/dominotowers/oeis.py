"""OEIS b-file parsing and term comparison.

A b-file is a text file of ``index value`` lines; ``#`` starts a comment and
both LF and CRLF are tolerated.  Comparison computes our side of a sequence
once, up to the b-file's last index or a term cap, whichever is smaller, and
reads it in each candidate layout: a triangle's rows come from one read of
the family's table and both flattenings (with and without the diagonal cell)
are filled from the same rows; r, whose row 1 is all zero, is also read from
row 2 with the diagonal kept; partition totals are read from index 1 and from
index 0.  The layout is detected from the b-file itself; if no candidate
matches the opening terms, the alignment failure is reported rather than
guessed around.
"""

from __future__ import annotations

import sys
from math import isqrt
from operator import itemgetter
from typing import NamedTuple

from . import asymptotics, recurrences

TERM_CAP = 4096
DIGIT_CAP = 40
DETECT_PREFIX = 4
# Python's own int-from-text bound, checked here so that parsing stays bounded
# when a caller (the CLI does) lifts the process-wide limit
TERM_DIGIT_CAP = getattr(sys.int_info, "default_max_str_digits", 4300)

FAMILY_CHOICES = recurrences.FAMILIES + ("partitions", "constant")

#: Sequence ids with a known generator on our side.
KNOWN_SEQUENCES = {
    "A275204": "h",
    "A275599": "r",
    "A275662": "c",
    "A117468": "g",
    "A034296": "partitions",
    "A065446": "constant",
}


class BFileError(ValueError):
    """Malformed b-file content; carries the offending line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class AlignmentError(RuntimeError):
    """No candidate ordering of our sequence matches the b-file's opening."""


def parse_bfile(text: str) -> list[tuple[int, int]]:
    entries: list[tuple[int, int]] = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        parts = line.split()
        if len(parts) != 2:
            raise BFileError(line_number, f"expected 'index value', got {raw!r}")
        if len(line) > TERM_DIGIT_CAP:
            for field in parts:
                if sum(map(str.isdecimal, field)) > TERM_DIGIT_CAP:
                    raise BFileError(line_number, f"field over {TERM_DIGIT_CAP} digits")
        try:
            # a field is ASCII digits after an optional "-", and int() alone
            # would also take "+", "_" and other scripts' digits
            if "_" in line or "+" in line or not (parts[0] + parts[1]).isascii():
                raise ValueError
            index, value = int(parts[0]), int(parts[1])
        except ValueError:
            raise BFileError(line_number, f"non-integer field in {raw!r}") from None
        if entries and index != entries[-1][0] + 1:
            raise BFileError(line_number, f"non-consecutive index {index}")
        entries.append((index, value))
    if not entries:
        raise BFileError(0, "no data lines")
    return entries


def _readings(family: str, limit: int) -> list[tuple[str, list[int]]]:
    """Our side as (name, first ``limit`` terms), one pair per reading."""
    if family == "constant":
        digits = asymptotics.limit_constant_digits(limit)
        return [("decimal digits", [int(d) for d in digits])]
    if family == "partitions":
        # row b + 1 counts largest part b; row 1 and rows past n + 1 are 0 at n
        rows = recurrences.rows("g", limit + 1, limit)
        totals = [sum(map(itemgetter(n), rows)) for n in range(1, limit + 1)]
        return [("totals from n=1", totals), ("totals from n=0", [1] + totals[:-1])]
    shift = 1 if family == "g" else 0  # g's column b is largest part b, row b+1
    # Rows n = 1..size give every reading ``limit`` terms.  A dropped-diagonal
    # reading holds size(size-1)/2 cells through row size and a kept-diagonal
    # one size more.  Row 2's first cell (g(2, 2), h(1, 2), r(1, 2), c(1, 2)) is
    # non-zero, so skipping leading all-zero rows can drop only the kept row 1,
    # and only r's is zero: r(1, 1) = 0.
    size = isqrt(2 * limit) + 1
    if size * (size - 1) // 2 < limit:
        size += 1
    rows = recurrences.rows(family, size + shift, size)[shift:]
    kept: list[int] = []
    dropped: list[int] = []
    for n in range(1, size + 1):
        row = list(map(itemgetter(n), rows[:n]))
        kept += row
        dropped += row[:-1]
    readings = [("rows b=1..n", kept[:limit]), ("rows b=1..n-1", dropped[:limit])]
    if not kept[0]:
        readings.append(("rows b=1..n, leading zero rows skipped", kept[1 : limit + 1]))
    return readings


class CompareResult(NamedTuple):
    sequence_id: str
    family: str
    candidate: str
    compared: int
    matched: int
    first_mismatch: tuple[int, int, int] | None  # (index, ours, theirs)


def compare_bfile(seq_id: str, family: str, text: str) -> CompareResult:
    indices, theirs = zip(*parse_bfile(text))
    limit = min(len(theirs), DIGIT_CAP if family == "constant" else TERM_CAP)
    theirs = theirs[:limit]

    def scan(name: str, ours: list[int]):
        """(opening terms matched, name, ours, mismatch positions)."""
        misses = [pos for pos, (a, b) in enumerate(zip(ours, theirs)) if a != b]
        return (misses[0] if misses else limit), name, ours, misses

    # max keeps the first of equal openings: a later reading needs a longer one
    prefix, name, ours, misses = max(
        (scan(name, ours) for name, ours in _readings(family, limit)), key=itemgetter(0)
    )
    if prefix < min(DETECT_PREFIX, limit):
        raise AlignmentError(
            f"could not align {seq_id} with any {family} ordering; "
            f"best candidate {name!r} matches only {prefix} opening terms"
        )
    return CompareResult(
        sequence_id=seq_id,
        family=family,
        candidate=name,
        compared=limit,
        matched=limit - len(misses),
        first_mismatch=(
            (indices[prefix], ours[prefix], theirs[prefix]) if misses else None
        ),
    )
