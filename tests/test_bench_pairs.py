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


def test_claim_lines_apply_the_rule():
    # jobs_cpu_s: after lower in 9 of 10 pairs, medians 0.0745 apart against
    # a before spread of 0.0045: met.  peak_rss_mb: lower in all 10, but the
    # medians are 0.1 apart against a spread of 0.5: not met
    cpus = [(0.10 + 0.001 * i, 0.03 if i else 0.2) for i in range(10)]
    rss = [(30.0 + (i % 2), 29.9 + (i % 2)) for i in range(10)]
    sides = {
        side: [bench_pairs.last_json(canned(cpu[k], mb[k])) for cpu, mb in zip(cpus, rss)]
        for k, side in enumerate(bench_pairs.SIDES)
    }
    report = {"pairs": 10, "workloads": {"series": bench_pairs.workload_report(sides)}}
    assert report["workloads"]["series"]["after"]["lower_in_pairs"] == {
        "jobs_cpu_s": 9, "peak_rss_mb": 10
    }
    assert bench_pairs.claim_lines(report) == [
        "series jobs_cpu_s: before 0.1045 [0.1023, 0.1068], after 0.03 [0.03, 0.03] s,"
        " -71.3 %, after lower in 9 of 10 pairs, claim rule met",
        "series peak_rss_mb: before 30.5 [30, 31], after 30.4 [29.9, 30.9] MB,"
        " -0.3 %, after lower in 10 of 10 pairs, claim rule not met",
    ]
