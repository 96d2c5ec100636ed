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
every such object, and per side each metric's median and quartiles and the
failed job counts.  It records each checkout's commit, whether its tracked
files differ from that commit, and a digest of its ``src/``, with the Python
version and ``os.cpu_count()``.  Nothing under ``bench/`` is edited.
Standard library only.
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
        "workloads": {
            workload: {
                side: {
                    "failed": [run["failed"] for run in sides[side]],
                    "summary": summarize(sides[side]),
                    "runs": sides[side],
                }
                for side in SIDES
            }
            for workload, sides in runs.items()
        },
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
