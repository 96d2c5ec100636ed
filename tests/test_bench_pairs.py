"""The reader of tools/bench_pairs.py on canned bench output; no bench runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def canned(cpu, rss, failed=0):
    """A bench run's stdout: readable lines, then its final JSON object."""
    final = {
        "correct": failed == 0,
        "attempted": 121,
        "failed": failed,
        "metrics": {
            "jobs_cpu_s": {"value": cpu, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        },
    }
    return f"workload oracle seed 97: 121 jobs per run\n  jobs_cpu_s = {cpu} s\n{json.dumps(final)}\n"


def test_reads_the_last_line():
    run = bench_pairs.last_json(canned(0.18, 29.9, failed=2) + "\n")
    assert run["failed"] == 2
    assert run["metrics"]["jobs_cpu_s"] == {"value": 0.18, "unit": "s"}


def test_empty_output_is_refused():
    with pytest.raises(ValueError):
        bench_pairs.last_json("\n")


def test_summary_gives_median_and_quartiles():
    runs = [bench_pairs.last_json(canned(cpu, 30.0)) for cpu in (0.5, 0.1, 0.3, 0.2, 0.4)]
    summary = bench_pairs.summarize(runs)
    assert summary["jobs_cpu_s"] == {"unit": "s", "median": 0.3, "q1": 0.2, "q3": 0.4}
    assert summary["peak_rss_mb"] == {"unit": "MB", "median": 30.0, "q1": 30.0, "q3": 30.0}
    one = bench_pairs.summarize(runs[:1])["jobs_cpu_s"]
    assert one["median"] == one["q1"] == one["q3"] == 0.5


def test_lower_counts_skip_ties():
    before = [bench_pairs.last_json(canned(cpu, 30.0)) for cpu in (0.3, 0.2, 0.4, 0.2)]
    after = [bench_pairs.last_json(canned(cpu, rss)) for cpu, rss in
             ((0.2, 30.0), (0.1, 29.0), (0.5, 31.0), (0.2, 30.0))]
    assert bench_pairs.lower_counts(before, after) == {
        "before": {"jobs_cpu_s": 1, "peak_rss_mb": 1},
        "after": {"jobs_cpu_s": 2, "peak_rss_mb": 1},
    }
