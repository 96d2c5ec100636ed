"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py

The smoke tests run every workload once untraced and once traced, about a
minute in all.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import gf  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from dominotowers import recurrences  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_generating_functions_match_recurrences():
    for family, ks in (("g", (2, 3)), ("h", (2, 3)), ("r", (2, 3)), ("c", (2,))):
        for k in ks:
            cols = gf.columns(family, k, 9, 40)
            assert all(
                cols[b][n] == recurrences.family_value(family, b, n, k)
                for b in range(1, 10) for n in range(41)
            ), (family, k)
    assert gf.limit_constant_digits(12) == "346274661945"


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_seed_fixes_the_job_list(name):
    first, again, other = (workloads.make(name, s) for s in (7, 7, 8))
    assert first.digest() == again.digest() != other.digest()
    assert len(first.jobs) >= 100


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_run_emits_every_metric(name, tmp_path):
    workload = workloads.make(name, 1)
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result = run.measure(workload, SRC, tmp_path, seconds=0, trace=trace,
                             min_runs=1, setup_samples=1)
        out = run.report(result)
        assert out["failed"] == 0 and out["correct"], result["problems"][:3]
        assert out["attempted"] == len(workload.jobs) * result["runs"]
        units = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert {k: v["unit"] for k, v in out["metrics"].items()} == units
    layers = {k: v["value"] for k, v in out["metrics"].items()}
    top, plain = layers["trace.top_level_s"], layers["trace.untraced_cpu_s"]
    assert abs(top - plain - layers["trace.overhead_s"]) < 0.05 * top
    if name == "counts":
        assert layers["recurrences.count_c_job.refills_max"] > 1
    assert (tmp_path / "spans" / f"{name}-seed1.tsv.gz").is_file()


def test_wrong_output_is_a_failed_job_not_a_crash(tmp_path):
    jobs = [
        workloads.Job(["count", "c", "--b", "4", "--n", "10"], "531\n"),
        workloads.Job(["count", "c", "--b", "4", "--n", "10"], "530\n"),
        workloads.Job(["count", "c", "--b", "4", "--n", "10", "--k", "3"], "0\n"),
        workloads.Job(["count", "x"], ""),
    ]
    workload = workloads.Workload("wrong", 0, jobs)
    result = run.measure(workload, SRC, tmp_path, seconds=0, trace=False,
                         min_runs=2, setup_samples=1)
    out = run.report(result)
    assert (out["attempted"], out["failed"], out["correct"]) == (8, 6, False)
    assert "expected '530'" in result["problems"][0]


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
