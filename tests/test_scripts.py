"""Smoke test of the scripts: each runs to completion on tiny arguments."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# every script runs in tmp_path, so relative output paths land there
@pytest.mark.parametrize("script,args", [
    ("uniform_convergence.py", ["--levels", "2", "--n0", "1",
                                "--problems", "poisson_singleton", "--out", "out"]),
    ("adaptive_study.py", ["--p", "2", "--max-dofs", "200", "--out", "out"]),
    ("monotonicity_probe.py", ["--levels", "1", "--samples", "2"]),
    ("bench.py", ["--tag", "tiny", "--size", "tiny"]),
])
def test_script_runs(script, args, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    if script == "bench.py":
        bench = json.loads((tmp_path / "BENCH_tiny.json").read_text())
        lines = sum(path.read_bytes().count(b"\n")
                    for path in (ROOT / "src" / "cordesfem").glob("*.py"))
        assert bench["src_lines"] == lines > 0
        layers = bench["layers"]
        for layer in layers.values():
            assert layer["operators_peak_mb"] > 0 and layer["solve_peak_mb"] > 0
            assert layer["operators_retained_mb"] > 0 and layer["pattern_peak_mb"] > 0
            assert layer["table_peak_mb"] > 0 and layer["table_retained_mb"] > 0
            assert layer["solve_rss_mb"] > 0 and layer["solve_minflt"] > 0
            assert all(run["calibration_s"] > 0 for run in layer["runs"])
            assert layer["scaled"]["operators_s"] > 0
            assert layer["jacobian_s"] > 0 and layer["factorize_s"] > 0
            assert layer["residual_s"] > 0
            assert layer["refine_s"] > 0 and layer["cordes_s"] > 0
            assert layer["transfer_s"] > 0 and layer["tabulate_s"] > 0
            assert all(run["lu_factors"] == 1 for run in layer["runs"])
            assert all(run["lu_solves"] >= 1 for run in layer["runs"])
            parts = ("pattern_s", "volume_s", "faces_s")
            for run in layer["runs"]:
                assert all(run[part] > 0 for part in parts)
                assert sum(run[part] for part in parts) <= run["operators_s"]
                assert 0 < run["face_traces_s"] <= run["faces_s"]
