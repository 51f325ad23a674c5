"""The benchmark's own output checks, run at tiny sizes untraced for every
workload in BENCHMARK.json and traced for one: a change to the package
that breaks what the benchmark verifies (repeatable greedy output, beam
width 1 equal to greedy, a sorted beam list, a checkpoint that reads back)
or what its tracer wraps fails here."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def run_benchmark(workload, trace):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, run.stderr


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_checks_pass(workload):
    run_benchmark(workload, trace=0)


def test_traced_benchmark_checks_pass():
    # the tracer wraps the package's public functions and the backward
    # closures of its primitive ops, so it breaks when their names change
    run_benchmark("templated-short", trace=1)
