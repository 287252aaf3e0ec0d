"""The benchmark command prints one JSON result line with the declared metrics."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _check_one_json_result(workload, *extra, section="end_to_end"):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seconds", "1", *extra],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    assert set(result["metrics"]) == {m["name"] for m in declared}


def test_bench_prints_one_json_result():
    _check_one_json_result("campaign-subcubic-min2")


def test_solve_cubic_bench_prints_one_json_result():
    _check_one_json_result("solve-cubic")


def test_color_bench_prints_one_json_result():
    # the decompose->color path untraced: the timed run and its output checks
    _check_one_json_result("color-cubic-large")


def test_traced_bench_prints_one_json_result():
    # a traced run reports one constructive.rule.<field> metric per
    # SubcubicStats field, so renaming, adding or removing a field, or a
    # library print to stdout, breaks the declared per-layer metric names
    _check_one_json_result("campaign-subcubic-min2", "--trace", "1", section="per_layer")


def test_traced_color_bench_prints_one_json_result():
    # the decompose->color path, traced: the same checks on its output line
    _check_one_json_result("color-cubic-large", "--trace", "1", section="per_layer")
