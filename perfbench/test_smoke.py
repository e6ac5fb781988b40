"""Smoke test of the benchmark at its tiny size.

Run from the repository root with `python -m pytest perfbench`. For every
workload it checks that each named metric is emitted, that the per-layer
counts repeat exactly between two traced runs, and that the output check
rejects a perturbed reference.
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def bench(tmp_path, workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_and_repeatable_counts(tmp_path, workload):
    plain = bench(tmp_path, workload, 0)
    assert {n: m["unit"] for n, m in plain["metrics"].items()} == END_TO_END
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    first, second = (bench(tmp_path, workload, 1) for _ in range(2))
    assert {n: m["unit"] for n, m in first["metrics"].items()} == PER_LAYER
    for name, unit in PER_LAYER.items():
        if unit != "s":
            assert first["metrics"][name] == second["metrics"][name], name
    # the timed part builds one Operators per level, and none on a fixed mesh
    layer = {n: m["value"] for n, m in first["metrics"].items()}
    assert layer["forms.operators_builds"] == layer["adapt.levels"]
    assert (tmp_path / ".perfbench_out"
            / f"spans-{workload}-tiny-seed3.csv").stat().st_size > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_check_rejects_perturbed_reference(tmp_path, workload):
    bench(tmp_path, workload, 0)
    record = json.loads((tmp_path / ".perfbench_out"
                         / f"result-{workload}-tiny-seed3-trace0.json").read_text())
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import REFERENCE, WORKLOADS as DEFS

    wl = DEFS[workload]
    ref = json.loads(REFERENCE.read_text())[workload]["tiny"]
    assert wl.check(record["last_values"], ref, "tiny") == []
    bad = copy.deepcopy(ref)
    target = bad["levels"][0] if "levels" in bad else bad
    target["err_norm_k"] *= 1 + 1e-4
    assert wl.check(record["last_values"], bad, "tiny")
