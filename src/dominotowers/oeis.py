"""OEIS b-file parsing, fetching with a local cache, and term comparison.

A b-file is a text file of ``index value`` lines; ``#`` starts a comment and
both LF and CRLF are tolerated.  Comparison computes our side of a sequence
up to the b-file's last index or a term cap, whichever is smaller, then
aligns offsets.  Triangle sequences are tried in a small set of candidate
flattening orders (with and without leading all-zero rows or the zero
diagonal) and the order is detected from the b-file itself; if no candidate
matches the opening terms, the alignment failure is reported rather than
guessed around.  The network stack (``urllib.request``) is imported only on
the fetch path, after the cache and the network permission are checked.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from . import asymptotics, recurrences

DEFAULT_TERM_CAP = 1000
DIGIT_CAP = 40
DETECT_PREFIX = 4
# Python's own int-from-text bound, checked here so that parsing stays bounded
# when a caller (the CLI does) lifts the process-wide limit
TERM_DIGIT_CAP = getattr(sys.int_info, "default_max_str_digits", 4300)

FAMILY_CHOICES = ("g", "h", "r", "c", "partitions", "constant")

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


class FetchError(RuntimeError):
    """Network retrieval failed or was disallowed."""


class AlignmentError(RuntimeError):
    """No candidate ordering of our sequence matches the b-file's opening."""


def parse_bfile(text: str) -> list[tuple[int, int]]:
    entries: list[tuple[int, int]] = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise BFileError(line_number, f"expected 'index value', got {raw!r}")
        for field in parts:
            if len(field) > TERM_DIGIT_CAP and (
                sum(map(str.isdecimal, field)) > TERM_DIGIT_CAP
            ):
                raise BFileError(line_number, f"field over {TERM_DIGIT_CAP} digits")
        try:
            index, value = int(parts[0]), int(parts[1])
        except ValueError:
            raise BFileError(line_number, f"non-integer field in {raw!r}") from None
        if entries and index != entries[-1][0] + 1:
            raise BFileError(line_number, f"non-consecutive index {index}")
        entries.append((index, value))
    if not entries:
        raise BFileError(0, "no data lines")
    return entries


def bfile_url(seq_id: str) -> str:
    return f"https://oeis.org/{seq_id}/b{seq_id[1:]}.txt"


def fetch_bfile(
    seq_id: str,
    cache_dir: Path,
    allow_network: bool,
    timeout: float = 10.0,
) -> str:
    """Cached b-file text; at most one retry when the network is allowed."""
    cache_dir.mkdir(parents=True, exist_ok=True)
    cached = cache_dir / f"{seq_id}.txt"
    if cached.exists():
        return cached.read_text(encoding="utf-8")
    if not allow_network:
        raise FetchError(
            f"no cached b-file for {seq_id} and network use is disabled"
        )
    import urllib.error
    import urllib.request

    url = bfile_url(seq_id)
    last_error: Exception | None = None
    for _ in range(2):
        try:
            with urllib.request.urlopen(url, timeout=timeout) as response:
                text = response.read().decode("utf-8")
            break
        except (urllib.error.URLError, OSError) as exc:
            last_error = exc
    else:
        raise FetchError(f"could not fetch {url}: {last_error}")
    # whole or absent: a later run serves any <id>.txt it finds
    tmp = cache_dir / f"{seq_id}.{os.getpid()}.tmp"
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, cached)
    finally:
        tmp.unlink(missing_ok=True)
    return text


@dataclass(frozen=True)
class Candidate:
    """One possible reading of our sequence against a b-file."""

    name: str
    terms: Callable[[int], list[int]]


def _triangle_terms(value, count: int, skip_zero_rows: bool, drop_diagonal: bool
                    ) -> list[int]:
    out: list[int] = []
    n = 0
    while len(out) < count:
        n += 1
        row = [value(b, n) for b in range(1, n + 1)]
        if drop_diagonal:
            row = row[:-1]
        if skip_zero_rows and not out and all(v == 0 for v in row):
            continue
        out.extend(row)
    return out[:count]


def _triangle_candidates(value) -> list[Candidate]:
    variants = []
    for skip in (False, True):
        for drop in (False, True):
            name = "rows b=1..n" + ("-1" if drop else "")
            if skip:
                name += ", leading zero rows skipped"
            variants.append(
                Candidate(
                    name,
                    lambda count, s=skip, d=drop: _triangle_terms(value, count, s, d),
                )
            )
    return variants


def _partition_totals(count: int) -> list[int]:
    return [
        sum(recurrences.g(b, n) for b in range(2, n + 2))
        for n in range(1, count + 1)
    ]


def candidates_for(family: str) -> list[Candidate]:
    if family in ("g", "h", "r", "c"):
        if family == "g":
            value = lambda b, n: recurrences.g(b + 1, n)  # column = largest part
        else:
            value = lambda b, n: recurrences.family_value(family, b, n)
        return _triangle_candidates(value)
    if family == "partitions":
        return [
            Candidate("totals from n=1", _partition_totals),
            Candidate(
                "totals from n=0",
                lambda count: [1] + _partition_totals(count - 1),
            ),
        ]
    if family == "constant":
        return [
            Candidate(
                "decimal digits",
                lambda count: [
                    int(d)
                    for d in asymptotics.limit_constant_digits(min(count, DIGIT_CAP))
                ],
            )
        ]
    raise ValueError(f"unknown family {family!r}")


@dataclass(frozen=True)
class CompareResult:
    sequence_id: str
    family: str
    candidate: str
    compared: int
    matched: int
    first_mismatch: tuple[int, int, int] | None  # (index, ours, theirs)

    @property
    def ok(self) -> bool:
        return self.compared > 0 and self.matched == self.compared


def compare_bfile(
    seq_id: str,
    family: str,
    text: str,
    term_cap: int = DEFAULT_TERM_CAP,
) -> CompareResult:
    entries = parse_bfile(text)
    limit = min(len(entries), term_cap)
    if family == "constant":
        limit = min(limit, DIGIT_CAP)
    entries = entries[:limit]
    theirs = [value for _, value in entries]
    start_index = entries[0][0]

    best: tuple[int, Candidate, list[int]] | None = None
    for candidate in candidates_for(family):
        ours = candidate.terms(limit)
        prefix = 0
        for a, b in zip(ours, theirs):
            if a != b:
                break
            prefix += 1
        if best is None or prefix > best[0]:
            best = (prefix, candidate, ours)
    prefix, candidate, ours = best
    if prefix < min(DETECT_PREFIX, limit):
        raise AlignmentError(
            f"could not align {seq_id} with any {family} ordering; "
            f"best candidate {candidate.name!r} matches only {prefix} opening terms"
        )

    matched = 0
    first_mismatch = None
    for pos, (a, b) in enumerate(zip(ours, theirs)):
        if a == b:
            matched += 1
        elif first_mismatch is None:
            first_mismatch = (start_index + pos, a, b)
    return CompareResult(
        sequence_id=seq_id,
        family=family,
        candidate=candidate.name,
        compared=limit,
        matched=matched,
        first_mismatch=first_mismatch,
    )
