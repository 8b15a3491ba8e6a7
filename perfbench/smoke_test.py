"""Smoke test of the benchmark at a tiny input scale: every workload runs
untraced and traced, passes its output check, and prints every metric
named in BENCHMARK.json with its unit.

    python3 -m pytest perfbench/smoke_test.py -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def _leftovers() -> list[str]:
    """Ray processes outside this test's own chain that run in the
    repository or under its ``.bench_data/`` (Ray's temp dir): a finished
    run left them."""
    mine, pid = set(), os.getpid()
    while pid > 1:
        mine.add(pid)
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
        pid = int(stat[stat.rindex(")") + 2:].split()[1])
    out = []
    for name in os.listdir("/proc"):
        if not name.isdigit() or int(name) in mine:
            continue
        try:
            cwd = os.readlink(f"/proc/{name}/cwd")
            with open(f"/proc/{name}/cmdline", "rb") as f:
                cmd = f.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:  # ended while we looked, or not ours to read
            continue
        if "ray" in cmd and (cwd == ROOT or ".bench_data" in cmd):
            out.append(f"{name}: {cmd[:120]}")
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_checks_and_reports(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--scale", "0.25"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert _leftovers() == []
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}


def test_refuses_to_run_without_the_engine(tmp_path):
    """In a directory holding only the benchmark, the run fails without
    printing a result."""
    import shutil

    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "geo_sink", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
