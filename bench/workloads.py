"""Seeded job lists for the three workloads, each job with its expected output.

A generator draws every argv list and b-file text from ``random.Random(seed)``
and nothing else, so one seed always gives one job list (``Workload.digest``
shows it).  Expected outputs come from a route other than the one the job
exercises and are computed here, in the parent, before anything is timed:

* oracle: shape counts C(2n-1, n-b) and 4^(n-1), from ``math.comb``;
* counts: the benchmark's own generating-function expansion (``gf.py``) and
  ``asymptotics.theta_from_parts`` for theta;
* series: ``recurrences`` table values.

Job sizes are drawn in bands of near-equal cost, and the band holding the
median job and the band holding the 90th-percentile job are wide enough that
a different seed changes which inputs run, not where those percentiles fall.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Callable, Union

import gf

Check = Callable[[str], Union[str, None]]  # stdout -> problem, or None when right


@dataclass
class Job:
    argv: list[str]
    expected: Union[str, Check]  # exact stdout, or a check of it
    code: int = 0

    def problem(self, code, out: str, err: str) -> Union[str, None]:
        if code != self.code:
            return f"exit {code}, expected {self.code}: {err.strip()[-300:]}"
        if callable(self.expected):
            return self.expected(out)
        if out != self.expected:
            got, want = out.splitlines(), self.expected.splitlines()
            for i, (a, b) in enumerate(zip(got, want)):
                if a != b:
                    return f"line {i + 1}: got {a[:80]!r}, expected {b[:80]!r}"
            return f"{len(got)} lines, expected {len(want)}"
        return None


@dataclass
class Workload:
    name: str
    seed: int
    jobs: list[Job]
    files: dict[str, str] = field(default_factory=dict)  # written before the run

    def digest(self) -> str:
        """Hash of everything the program is given: argv lists and file texts."""
        text = json.dumps([[j.argv for j in self.jobs], self.files], sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


# --- oracle -----------------------------------------------------------------

# (jobs, (n, b) choices); b None lists every base.  The 121 jobs sort into
# these bands in this order, so the median falls in the second band and the
# 90th percentile in the fourth, whose choices take about equal time.
ORACLE_BANDS = (
    (40, ((5, 3), (5, 4), (5, 5), (6, 5), (6, 6), (7, 6), (7, 7), (8, 7), (8, 8),
          (9, 8), (9, 9))),
    (30, ((5, 1), (8, 6))),
    (26, ((6, 1), (6, 2), (7, 4), (8, 5))),
    (17, ((8, 4), (9, 6))),
    (7, ((7, 1), (7, 2), (8, 3), (9, 5), (7, None))),
)


def _all_pass(out: str) -> Union[str, None]:
    lines = out.splitlines()
    if len(lines) != 3 or not all(line.startswith("PASS ") for line in lines):
        return f"expected three PASS lines, got {out[:300]!r}"
    return None


def _shape_list(n: int, count: int, out: str) -> Union[str, None]:
    lines = out.splitlines()
    if len(lines) != count:
        return f"{len(lines)} shapes, expected {count}"
    if len(set(lines)) != count:
        return "duplicate shapes"
    bad = next((line for line in lines if len(line.split()) != 2 * n), None)
    if bad is not None:
        return f"shape {bad!r} does not have {2 * n} cells"
    return None


def oracle(rng: random.Random) -> list[Job]:
    jobs = [Job(["verify", "--max-n", "8"], _all_pass)]
    for count, choices in ORACLE_BANDS:
        for _ in range(count):
            n, b = rng.choice(choices)
            argv = ["enumerate", "--n", str(n)]
            if b is None:
                shapes = 4 ** (n - 1)
            else:
                argv += ["--b", str(b)]
                shapes = comb(2 * n - 1, n - b)
            jobs.append(Job(argv, lambda out, n=n, s=shapes: _shape_list(n, s, out)))
    rng.shuffle(jobs)
    return jobs


# --- counts -----------------------------------------------------------------

TRIANGLES = (("A117468", "g"), ("A275204", "h"), ("A275599", "r"), ("A275662", "c"))
CONSTANT = "A065446"
COUNTS_JOBS = 120
# (kind, family, k, weight).  Most reads are point lookups, whose time is
# mostly argument parsing, so the median job is one of them for any seed.
READ_KINDS = (
    ("count", "g", 2, 6), ("count", "h", 2, 6), ("count", "r", 2, 6),
    ("count", "g", 3, 6), ("count", "h", 3, 6), ("count", "r", 3, 6),
    ("count", "c", 2, 2), ("table", "h", 2, 1), ("table", "r", 2, 1), ("table", "c", 2, 1),
)


def _touches(family: str, k: int, b: int, n: int) -> list[tuple[str, int, int, int]]:
    """Count tables (family, k, b, n) a value of ``family`` at (b, n) reads."""
    if family == "c":
        return [("g", 2, b, n), ("r", 2, b, n), ("h", 2, b, n)]
    if family == "r":
        return [("r", k, b, n), ("h", k, b, n)]
    return [(family, k, b, n)]


def _triangle_rows(terms: int, drop: bool) -> int:
    """Rows of the n-th-row-has-n-terms triangle (n-1 when dropping the
    diagonal) needed to hold ``terms`` terms."""
    rows, held = 0, 0
    while held < terms:
        rows += 1
        held += rows - drop
    return rows


def _jitter(rng: random.Random, n: int) -> int:
    return n + rng.randint(-n // 30, n // 30)


def _counts_growth(rng: random.Random, triangle_rows: int) -> tuple[list[tuple], int]:
    """Table-growing jobs in the order they run, and how many of them it
    takes to widen the k=2 tables to the b-files' rows.

    First a cold ``count c`` and a ladder of larger ones (each new n refills
    the g table once per new row), then jobs that widen the k=2 tables, then
    point queries up to n ~ 2000 that lengthen the k=2 g table and the k=3
    tables.  These jobs sit around the 90th percentile, so the seed only
    jitters their sizes, and the order stays fixed so that no seed turns a
    cheap fill into an expensive one.
    """
    growth = [("count", "c", 5 + step % 2, _jitter(rng, n), 2)
              for step, n in enumerate((100, 200, 300, 400, 500, 600))]
    growth += [
        ("table", "h", rng.randint(40, 60), rng.randint(14, 15)),
        ("table", "c", rng.randint(34, 36), 9),
        ("table", "r", rng.randint(40, 50), triangle_rows + rng.randint(0, 1)),
        ("count", "g", triangle_rows + 1 + rng.randint(0, 1), rng.randint(50, 60), 2),
    ]
    widening = len(growth)
    ladders = [
        [("count", "g", rng.randint(3, 8), _jitter(rng, n), 2)
         for n in (900, 1200, 1500, 1800, 2000)],
    ] + [
        [("count", family, b, _jitter(rng, n), 3) for n in (400, 800, 1200, 1600, 2000)]
        for family, b in (("g", 6), ("h", 6), ("r", 5))
    ]
    while ladders:
        ladder = rng.choice(ladders)
        growth.append(ladder.pop(0))
        if not ladder:
            ladders.remove(ladder)
    return growth, widening


def _cell(spec: tuple) -> tuple[str, int, int, int]:
    """(family, k, b, n): the largest cell a count or table job asks for."""
    if spec[0] == "count":
        _, family, b, n, k = spec
        return family, k, b, n
    _, family, max_n, max_b = spec
    return family, 2, max_b, max_n


def _widen(box: dict, family: str, k: int, b: int, n: int) -> None:
    old = box.get((family, k), (0, 0))
    box[(family, k)] = (max(old[0], b), max(old[1], n))


def _random_read(rng: random.Random, extent: dict) -> tuple:
    """A count or small table whose cells are all inside tables already grown."""
    kinds, weights = [], []
    for kind, family, k, weight in READ_KINDS:
        reach = [extent.get(t[:2]) for t in _touches(family, k, 1, 1)]
        if all(reach):
            kinds.append((kind, family, k, min(r[0] for r in reach), min(r[1] for r in reach)))
            weights.append(weight)
    kind, family, k, max_b, max_n = rng.choices(kinds, weights)[0]
    if kind == "table":
        b = rng.randint(2, min(8, max_b))
        return ("table", family, rng.randint(b, min(30, max_n)), b)
    low_b = 2 if family == "g" else 1
    b = rng.randint(low_b, max_b)
    low_n = {"g": b - 1, "h": b, "r": b + 1, "c": b}[family]
    return ("count", family, b, rng.randint(low_n, max_n), k)


def _argv(spec: tuple) -> list[str]:
    if spec[0] == "count":
        _, family, b, n, k = spec
        argv = ["count", family, "--b", str(b), "--n", str(n)]
        return argv + (["--k", str(k)] if k != 2 else [])
    _, family, max_n, max_b = spec
    return ["table", family, "--max-n", str(max_n), "--max-b", str(max_b)]


def _fixed(value: Fraction, decimals: int) -> str:
    """Round half up, as the CLI prints decimals."""
    scaled = value * 10 ** decimals
    units, rem = divmod(scaled.numerator, scaled.denominator)
    units += 2 * rem >= scaled.denominator
    text = str(units).rjust(decimals + 1, "0")
    return f"{text[:-decimals]}.{text[-decimals:]}" if decimals else text


def _theta_job(max_b: int, decimals: int) -> Job:
    from dominotowers import asymptotics

    bases = range(2, max_b + 1)
    thetas = [asymptotics.theta_from_parts(b) for b in bases]
    estimates = [Fraction(346, 100) / 2 ** (b - 1) for b in bases]
    rows = [
        ["row"] + [f"b={b}" for b in bases],
        ["theta"] + [_fixed(t, decimals) for t in thetas],
        ["estimate"] + [_fixed(e, decimals) for e in estimates],
        ["error"] + [_fixed(abs(t - e), decimals) for t, e in zip(thetas, estimates)],
    ]
    argv = ["theta", "--max-b", str(max_b), "--decimals", str(decimals)]
    return Job(argv, "".join(",".join(row) + "\n" for row in rows))


def _full_match(terms: int) -> Check:
    def check(out: str) -> Union[str, None]:
        found = re.fullmatch(r".*: (\d+)/(\d+) terms match\n", out)
        if not found or found.groups() != (str(terms), str(terms)):
            return f"expected {terms}/{terms} terms to match, got {out[:200]!r}"
        return None

    return check


def _bfile(seq_id: str, values: list[int], start: int) -> str:
    lines = [f"# {seq_id}, written by the benchmark"]
    lines += [f"{start + i} {v}" for i, v in enumerate(values)]
    return "\n".join(lines) + "\n"


def _triangle(col: list[list[int]], terms: int, skip: bool, drop: bool,
              shift: int) -> list[int]:
    """The first ``terms`` terms of a triangle read by rows n = 1, 2, ...,
    each row col[b + shift][n] for b = 1..n (1..n-1 when dropping the
    diagonal), leading all-zero rows skipped when ``skip``."""
    values, n = [], 0
    while len(values) < terms:
        n += 1
        row = [col[b + shift][n] for b in range(1, n + 1 - drop)]
        if not (skip and not values and not any(row)):
            values.extend(row)
    return values[:terms]


def _counts_plan(rng: random.Random) -> tuple[list[tuple], list[tuple], int]:
    """Count and table jobs as (kind, ...) tuples, the triangle b-files, and
    the position from which the b-file checks only read."""
    triangles = []
    for seq_id, family in TRIANGLES:
        terms = rng.randint(600, 650)
        skip, drop = rng.random() < 0.5, rng.random() < 0.5
        triangles.append((seq_id, family, terms, skip, drop, rng.choice((0, 1))))
    rows = max(_triangle_rows(t[2], drop=True) for t in triangles) + 1
    growth, widening = _counts_growth(rng, rows)

    specials = 8  # four triangle b-files, the constant, three theta tables
    core_len = COUNTS_JOBS - specials
    grow_at = set([0] + rng.sample(range(1, core_len), len(growth) - 1))
    extent: dict[tuple[str, int], tuple[int, int]] = {}
    core, grown = [], 0
    for pos in range(core_len):
        if pos in grow_at:
            spec, grown = growth[grown], grown + 1
            if grown == widening:
                widened = pos + 1
        else:
            spec = _random_read(rng, extent)
        for touched in _touches(*_cell(spec)):
            _widen(extent, *touched)
        core.append(spec)
    return core, triangles, widened


def counts(rng: random.Random) -> tuple[list[Job], dict[str, str]]:
    core, triangles, widened = _counts_plan(rng)

    # Expected values: one generating-function expansion per (family, k).
    need: dict[tuple[str, int], tuple[int, int]] = {}
    for spec in core:
        _widen(need, *_cell(spec))
    for _, family, terms, _, drop, _ in triangles:
        r = _triangle_rows(terms, drop) + 1  # one more when a zero row is skipped
        _widen(need, family, 2, r + (family == "g"), r)
    cols = {key: gf.columns(*key, b, n) for key, (b, n) in need.items()}

    jobs = []
    for spec in core:
        family, k, b, n = _cell(spec)
        if spec[0] == "count":
            jobs.append(Job(_argv(spec), f"{cols[(family, k)][b][n]}\n"))
            continue
        lines = [",".join(["n"] + [f"b={i}" for i in range(1, b + 1)] + ["total"])]
        for row in range(1, n + 1):
            cells = [cols[(family, 2)][i][row] for i in range(1, b + 1)]
            lines.append(",".join(map(str, [row, *cells, sum(cells)])))
        jobs.append(Job(_argv(spec), "\n".join(lines) + "\n"))

    files = {}
    extra = []  # (earliest position, job)
    for seq_id, family, terms, skip, drop, start in triangles:
        # A117468's column is the largest part, b + 1.
        values = _triangle(cols[(family, 2)], terms, skip, drop, family == "g")
        files[f"bfiles/{seq_id}.txt"] = _bfile(seq_id, values, start)
        argv = ["oeis-check", seq_id, "--bfile", f"bfiles/{seq_id}.txt"]
        extra.append((widened, Job(argv, _full_match(terms))))
    digits = rng.randint(40, 60)
    files[f"bfiles/{CONSTANT}.txt"] = _bfile(
        CONSTANT, [int(d) for d in gf.limit_constant_digits(digits)], 1
    )
    argv = ["oeis-check", CONSTANT, "--bfile", f"bfiles/{CONSTANT}.txt"]
    extra.append((1, Job(argv, _full_match(40))))  # the CLI compares 40 digits
    for low, high in ((24, 32), (40, 44), (95, 100)):
        extra.append((1, _theta_job(rng.randint(low, high), rng.choice((4, 5, 6, 8)))))

    placed = sorted((rng.randint(low, len(jobs)), i) for i, (low, _) in enumerate(extra))
    for offset, (pos, i) in enumerate(placed):
        jobs.insert(pos + offset, extra[i][1])
    return jobs, files


# --- series -----------------------------------------------------------------

# Nanoseconds per order^2 of a functional build, for b = 2..10, measured at
# order 600 on the machine the benchmark was written on (CPU time scaled by
# the probe, see child.py).  It sets each drawn job's order so that the job
# takes its band's time; it never changes, so a seed keeps its job list.
NS_PER_ORDER2 = {
    "g": (0.6, 28.3, 72.8, 113.4, 146.5, 162.7, 146.2, 218.8, 213.6),
    "h": (46.0, 67.1, 84.4, 96.3, 109.9, 126.0, 136.5, 148.1, 159.3),
    "r": (197.6, 258.1, 300.7, 343.3, 390.4, 414.8, 450.2, 478.5, 498.9),
    "c": (335.5, 436.3, 552.1, 552.8, 575.7, 856.4, 835.1, 931.4, 983.6),
}
# Closed-form builds (family, b, order) of about 60 ms each, measured likewise.
CLOSED_FORM = (("h", 9, 48), ("h", 10, 32), ("r", 8, 40), ("r", 9, 24))
MAX_ORDER = 2048

# (jobs, milliseconds per job, families, bases) of functional builds.  The
# bands sort in this order: the median job falls in the second, and the
# 90th percentile in the middle of the fourth, which the closed-form jobs
# join.  The last band is a few builds at high order, one per family.
SERIES_BANDS = (
    (40, 1.5, "ghrc", range(3, 9)),
    (30, 8.0, "ghrc", range(3, 9)),
    (30, 25.0, "ghrc", range(3, 9)),
    (11, 65.0, "hr", range(8, 11)),
)
CLOSED_FORM_JOBS = 6
HIGH_ORDER = (450.0, "ghr", range(5, 9))


def _order(family: str, b: int, budget_ms: float) -> int:
    order = round((budget_ms * 1e6 / NS_PER_ORDER2[family][b - 2]) ** 0.5)
    return max(1, min(order, MAX_ORDER))


def series(rng: random.Random) -> list[Job]:
    from dominotowers import recurrences

    draws = []
    for count, budget_ms, families, bases in SERIES_BANDS:
        for _ in range(count):
            family, b = rng.choice(families), rng.choice(bases)
            draws.append((family, b, "functional", _order(family, b, budget_ms)))
    for _ in range(CLOSED_FORM_JOBS):
        family, b, order = rng.choice(CLOSED_FORM)
        draws.append((family, b, "closed-form", order))
    budget_ms, families, bases = HIGH_ORDER
    for family in families:
        b = rng.choice(bases)
        draws.append((family, b, "functional", _order(family, b, budget_ms)))
    rng.shuffle(draws)

    # Fill each table once at its largest extent; later reads are lookups.
    for family in "ghr":
        sizes = [(b, o) for f, b, _, o in draws if f in (family, "c")]
        recurrences.table(family, max(o for _, o in sizes), max(b for b, _ in sizes))
    jobs = []
    for family, b, method, order in draws:
        argv = ["series", family, "--b", str(b), "--order", str(order)]
        if method != "functional":
            argv += ["--method", method]
        values = (recurrences.family_value(family, b, n) for n in range(order + 1))
        jobs.append(Job(argv, "".join(f"{n} {v}\n" for n, v in enumerate(values))))
    return jobs


def make(name: str, seed: int) -> Workload:
    rng = random.Random(seed)
    if name == "oracle":
        return Workload(name, seed, oracle(rng))
    if name == "counts":
        return Workload(name, seed, *counts(rng))
    if name == "series":
        return Workload(name, seed, series(rng))
    raise ValueError(f"unknown workload {name!r}")
