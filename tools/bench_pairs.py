"""Alternated pairs of bench runs on two checkouts, written to one JSON file.

    python3 tools/bench_pairs.py BEFORE AFTER --out BENCH_<pr>.json \\
        --workloads oracle counts series --seed 97 --seconds 6 --pairs 6

BEFORE and AFTER are the roots of two checkouts, for instance a clone at the
parent commit and the changed tree.  Use checkouts with no ``__pycache__``
under ``src/`` so that both sides start cold.  Pair i runs
``python3 bench/run.py --workload W --seed S --seconds T`` for each workload,
BEFORE first when i is even and AFTER first when i is odd, each run from its
own checkout's root so that it times that checkout's ``src/``.  The last line
of a run's stdout is one JSON object (see ``bench/run.py``); the file keeps
every such object, and per side each metric's median and quartiles, the
failed job counts and, per metric, the number of pairs in which that side
read lower (a tie counts for neither side).  It records each checkout's
commit, whether its tracked files differ from that commit, and a digest of
its ``src/``, with the Python version and ``os.cpu_count()``.  Nothing
under ``bench/`` is edited.  Standard library only.

After the runs it prints one line per workload and metric: each side's
median and quartiles, the change in %, the pairs in which AFTER read lower,
and whether the claim rule is met.  Every metric of a bench run is better
lower, so the rule reads: AFTER lower in at least nine tenths of the pairs,
and its median below BEFORE's by more than BEFORE's q3 - q1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("before", "after")


def last_json(stdout: str) -> dict:
    """The JSON object on the last non-empty line of a bench run's stdout."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the bench run printed nothing")
    return json.loads(lines[-1])


def summarize(runs: list[dict]) -> dict:
    """Each metric's unit, median and quartiles over runs' final objects."""
    out = {}
    for name, metric in runs[0]["metrics"].items():
        values = sorted(run["metrics"][name]["value"] for run in runs)
        q1, _, q3 = (
            statistics.quantiles(values, n=4, method="inclusive")
            if len(values) > 1 else values * 3
        )
        out[name] = {
            "unit": metric["unit"],
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
        }
    return out


def lower_counts(before: list[dict], after: list[dict]) -> dict:
    """Per side, per metric, the pairs in which that side read lower; a tie
    counts for neither side."""
    counts = {side: dict.fromkeys(before[0]["metrics"], 0) for side in SIDES}
    for pair in zip(before, after):
        for name in counts["before"]:
            b, a = (run["metrics"][name]["value"] for run in pair)
            if b != a:
                counts["before" if b < a else "after"][name] += 1
    return counts


def workload_report(sides: dict) -> dict:
    """Per side: failed job counts, summary, pairs read lower, and the runs."""
    lower = lower_counts(sides["before"], sides["after"])
    return {
        side: {
            "failed": [run["failed"] for run in sides[side]],
            "summary": summarize(sides[side]),
            "lower_in_pairs": lower[side],
            "runs": sides[side],
        }
        for side in SIDES
    }


def claim_met(before: dict, after: dict, lower: int, pairs: int) -> bool:
    """AFTER lower in nine tenths of the pairs, and its median below BEFORE's
    by more than BEFORE's quartile spread."""
    spread = before["q3"] - before["q1"]
    return 10 * lower >= 9 * pairs and before["median"] - after["median"] > spread


def claim_lines(report: dict) -> list[str]:
    """One line per workload and metric of a report that `main` writes."""
    pairs, lines = report["pairs"], []
    for workload, sides in report["workloads"].items():
        for name, before in sides["before"]["summary"].items():
            after = sides["after"]["summary"][name]
            lower = sides["after"]["lower_in_pairs"][name]
            change = 100 * (after["median"] / before["median"] - 1)
            verdict = "met" if claim_met(before, after, lower, pairs) else "not met"
            lines.append(
                f"{workload} {name}: before {before['median']:.4g} [{before['q1']:.4g},"
                f" {before['q3']:.4g}], after {after['median']:.4g} [{after['q1']:.4g},"
                f" {after['q3']:.4g}] {before['unit']}, {change:+.1f} %, after lower in"
                f" {lower} of {pairs} pairs, claim rule {verdict}"
            )
    return lines


def git(tree: Path, *args: str) -> str | None:
    done = subprocess.run(["git", "-C", str(tree), *args], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def describe(tree: Path) -> dict:
    """The checkout's commit, whether tracked files differ from it, and its src digest."""
    digest = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(tree).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    status = git(tree, "status", "--porcelain", "--untracked-files=no")
    return {
        "commit": git(tree, "rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "src_sha256": digest.hexdigest(),
    }


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    command = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
    ]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{tree}: {workload} run exited {done.returncode}: {done.stderr}")
    return last_json(done.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    trees = {"before": args.before.resolve(), "after": args.after.resolve()}
    runs = {w: {side: [] for side in SIDES} for w in args.workloads}
    for i in range(args.pairs):
        for workload in args.workloads:
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                result = bench(trees[side], workload, args.seed, args.seconds)
                runs[workload][side].append(result)
                print(f"pair {i} {workload} {side}: failed {result['failed']}", flush=True)
    report = {
        **{side: describe(trees[side]) for side in SIDES},
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "first_in_pair": [SIDES[i % 2] for i in range(args.pairs)],
        "workloads": {workload: workload_report(sides) for workload, sides in runs.items()},
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print("\n".join(claim_lines(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
