"""Seeded end-to-end benchmark of the dominotowers command line.

    python3 bench/run.py --workload oracle|counts|series --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout.  Each run of a workload is one fresh child
interpreter that imports the package from ``src/`` and feeds the workload's
job list, one job after another, to ``dominotowers.cli.main`` with stdout
captured in memory, so every run starts from the cold tables a CLI user
starts from.  Runs repeat until ``--seconds`` is used up (at least
MIN_RUNS); the figures are medians over runs, and times are the child's CPU
seconds scaled to a reference CPU speed (see child.py).  Every job's output
is checked against an expected value from another route.  The last line of
stdout is one JSON object; the lines before it are a readable summary.
With ``--trace 1`` runs alternate between untraced and traced children and
the metrics are the per-layer ones (see README.md); spans of the last
traced run are written to .bench_run/spans/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("oracle", "counts", "series")
MIN_RUNS = 3
SETUP_SAMPLES = 15
CHILD_TIMEOUT_S = 150
SHOWN_PROBLEMS = 5
# CPU seconds of child.probe on the machine the benchmark was written on,
# in one of its fast spells; times are reported at that speed.
PROBE_REF_S = 1.2e-3


@dataclass
class Run:
    traced: bool
    cpu: list[float] = field(default_factory=list)  # seconds per job
    wall: list[float] = field(default_factory=list)
    speed: list[float] = field(default_factory=list)  # probe seconds while each job ran
    failed: int = 0
    peak_rss_mb: float = 0.0
    layers: dict = field(default_factory=dict)


def child_env(workdir: Path) -> dict:
    return dict(
        os.environ,
        DOMINOTOWERS_CACHE_DIR=str(workdir / "cache"),
        PYTHONHASHSEED="0",
    )


def start_child(args: list[str], env: dict, workdir: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=workdir, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )


def setup_sample(src: Path, env: dict, workdir: Path) -> tuple[float, float]:
    proc = start_child([str(src)], env, workdir)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    summary = json.loads(proc.stdout)
    return summary["setup_s"], summary["speed"]


def scaled(run: Run) -> list[float]:
    """Job CPU times at the speed where the probe takes PROBE_REF_S."""
    return [cpu * PROBE_REF_S / speed for cpu, speed in zip(run.cpu, run.speed)]


def run_jobs(workload, src: Path, env: dict, workdir: Path, spans: Path | None,
             problems: list[str]) -> Run:
    """One child over the whole job list; every job's output is checked."""
    run = Run(traced=spans is not None)
    args = [str(src), str(workdir / "jobs.json")] + ([str(spans)] if spans else [])
    try:
        proc = start_child(args, env, workdir)
    except subprocess.TimeoutExpired:
        proc = None
    lines = proc.stdout.split("\n")[:-1] if proc else []  # complete lines only
    summary = json.loads(lines.pop()) if proc and proc.returncode == 0 else None
    for line in lines:
        result = json.loads(line)
        job = workload.jobs[result["job"]]
        run.cpu.append(result["cpu"] - result.get("probe_cpu", 0.0))
        run.wall.append(result["wall"])
        run.speed.append(result.get("speed", PROBE_REF_S))
        problem = job.problem(result["code"], result["out"], result["err"])
        if problem:
            run.failed += 1
            problems.append(f"job {result['job']} {' '.join(job.argv)}: {problem}")
    if summary is None:
        missing = len(workload.jobs) - len(lines)
        run.failed += missing
        reason = "timed out" if proc is None else f"exited {proc.returncode}"
        tail = proc.stderr.strip()[-500:] if proc else ""
        problems.append(f"child {reason} with {missing} jobs not run: {tail}")
        return run
    run.peak_rss_mb = summary["peak_rss_mb"]
    run.layers = summary.get("layers", {})
    return run


def measure(workload, src: Path, scratch: Path, seconds: float, trace: bool,
            min_runs: int = MIN_RUNS, setup_samples: int = SETUP_SAMPLES) -> dict:
    """Run one workload for ``seconds`` and return the result object.

    ``src`` holds the package; ``scratch`` receives the run's temporary
    files and the spans of a traced run.
    """
    scratch.mkdir(exist_ok=True)
    spans = scratch / "spans" / f"{workload.name}-seed{workload.seed}.tsv.gz"
    if trace:
        spans.parent.mkdir(exist_ok=True)
    problems: list[str] = []
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        workdir = Path(tmp)
        for name, text in workload.files.items():
            (workdir / name).parent.mkdir(parents=True, exist_ok=True)
            (workdir / name).write_text(text, encoding="utf-8")
        (workdir / "jobs.json").write_text(
            json.dumps([job.argv for job in workload.jobs]), encoding="utf-8"
        )
        env = child_env(workdir)
        setups = [setup_sample(src, env, workdir) for _ in range(setup_samples)]
        runs: list[Run] = []
        started = time.monotonic()
        while True:
            traced = trace and len(runs) % 2 == 1
            run_started = time.monotonic()
            runs.append(run_jobs(workload, src, env, workdir,
                                 spans if traced else None, problems))
            now = time.monotonic()
            plain = sum(not r.traced for r in runs)
            done = plain >= (1 if trace else min_runs) and (not trace or plain < len(runs))
            if done and 2 * now - run_started - started > seconds:
                break  # another run like the last would overrun
    plain = [r for r in runs if not r.traced and len(r.cpu) == len(workload.jobs)]

    def median(values):
        values = list(values)
        return statistics.median(values) if values else 0.0

    if trace:
        traced = [r for r in runs if r.traced and r.layers]
        metrics = {
            name: median(r.layers[name] for r in traced)
            for name in (traced[0].layers if traced else {})
        }
        # Unscaled CPU on both sides: traced children run no speed probe.
        untraced = median(sum(r.cpu) for r in plain)
        metrics["trace.untraced_cpu_s"] = untraced
        metrics["trace.overhead_s"] = median(sum(r.cpu) for r in traced) - untraced
    else:
        times = [scaled(r) for r in plain]
        metrics = {
            "jobs_cpu_s": median(sum(t) for t in times),
            "job_p50_cpu_ms": 1000 * median(statistics.median(t) for t in times),
            "job_p90_cpu_ms": 1000 * median(statistics.quantiles(t, n=10)[-1] for t in times),
            "setup_s": median(cpu * PROBE_REF_S / speed for cpu, speed in setups),
            "peak_rss_mb": median(r.peak_rss_mb for r in plain),
        }
    return {
        "workload": workload.name,
        "seed": workload.seed,
        "digest": workload.digest(),
        "jobs": len(workload.jobs),
        "runs": len(runs),
        "attempted": len(workload.jobs) * len(runs),
        "failed": sum(r.failed for r in runs),
        "wall_s": median(sum(r.wall) for r in plain),
        "unscaled_cpu_s": median(sum(r.cpu) for r in plain),
        "problems": problems,
        "metrics": metrics,
    }


UNITS = {"per_s": "1/s", "_s": "s", ".s": "s", "_ms": "ms", "_mb": "MB"}  # first match wins


def unit(name: str) -> str:
    for suffix, text in UNITS.items():
        if name.endswith(suffix):
            return text
    if name.endswith(("efficiency", "per_yielded")):
        return "ratio"
    return "count"


def report(result: dict) -> dict:
    """Print the readable summary and return the final JSON object."""
    print(f"workload {result['workload']} seed {result['seed']}: "
          f"{result['jobs']} jobs per run, job list digest {result['digest']}")
    print(f"runs {result['runs']}; median untraced job list {result['wall_s']:.3f} s "
          f"wall, {result['unscaled_cpu_s']:.3f} s CPU before scaling")
    print(f"jobs attempted {result['attempted']}, "
          f"failed {result['failed']} (failed_ratio "
          f"{result['failed'] / result['attempted']:.6f} of {result['attempted']})")
    for problem in result["problems"][:SHOWN_PROBLEMS]:
        print(f"  failed: {problem}")
    metrics = {
        name: {"value": value, "unit": unit(name)}
        for name, value in result["metrics"].items()
    }
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "dominotowers" / "__init__.py").is_file():
        print(f"error: {src}/dominotowers not found; run from the root of a "
              "dominotowers checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    workload = workloads.make(args.workload, args.seed)
    result = measure(workload, src, root / ".bench_run", args.seconds, bool(args.trace))
    print(json.dumps(report(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
