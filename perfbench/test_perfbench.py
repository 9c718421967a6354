"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.load_program()

from layers import Counters, Tracer  # noqa: E402
from workloads import CliSmall, Lemmas, Theorems, gate  # noqa: E402

SMOKE = ["smoke-01-gl-q3n3", "smoke-02-heis-diag-c5", "smoke-03-c3-c5-c7"]


def _expected(workload: str, names: list[str]) -> dict:
    table = json.loads((run.HERE / "expected.json").read_text())[workload]
    return {k: v for k, v in table.items() if k.split(":")[0] in names}


def _round(workload, seed, tmp_path, instrument=None):
    if instrument is None:
        return workload.check(workload.setup(tmp_path)[0], seed)
    tracer = instrument if isinstance(instrument, Tracer) else None
    with instrument:
        return workload.check(workload.setup(tmp_path)[0], seed, tracer)


@pytest.mark.parametrize("cls", [Lemmas, Theorems, CliSmall])
def test_counts_repeat_exactly_for_a_fixed_seed(cls, tmp_path):
    workload = cls(names=SMOKE)
    _round(workload, 7, tmp_path)  # fills the program's block cache, as the plain round does
    counts, calls = [], []
    for _ in range(2):
        counters = Counters()
        _round(workload, 7, tmp_path, counters)
        counts.append(counters.metrics())
        tracer = Tracer()
        _round(workload, 7, tmp_path, tracer)
        calls.append({k: v for k, v in tracer.rollup().items() if k.endswith(".calls")})
    assert counts[0] == counts[1]
    assert calls[0] == calls[1]
    assert counts[0]["perms.mul_calls"] > 0
    assert any(v > 0 for v in calls[0].values())


def test_gate_passes_real_reports_and_trips_on_a_corrupted_expectation(tmp_path):
    workload = CliSmall(names=SMOKE)
    expected = _expected("cli-small", SMOKE)
    outcome = workload.check(workload.setup(tmp_path)[0], seed=3)
    attempted, failed, problems = gate(expected, outcome)
    assert (attempted, failed, problems) == (len(expected), 0, [])

    corrupted = copy.deepcopy(expected)
    key = sorted(corrupted)[0]
    corrupted[key]["sha256"] = "0" * 64
    assert gate(corrupted, outcome)[1] == 1

    failing = copy.deepcopy(outcome)
    report = failing.reports[sorted(failing.reports)[-1]]
    next(iter(report["checks"].values()))["status"] = "fail"
    assert gate(expected, failing)[1] == 1

    del failing.reports[key]
    assert gate(expected, failing)[1] == 2


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
