"""Tests of the benchmark itself, at smoke size.

Every run goes through a subprocess, because the benchmark pins BLAS to
one thread before numpy is imported; this module imports no numpy.
"""

import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(args, cwd=ROOT, timeout=300):
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run([*SPEC["command"][1:], "--workload", workload, "--seed", "3",
                 "--seconds", "0.5", "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    for m, v in result["metrics"].items():
        assert isinstance(v["value"], float) and v["value"] == v["value"], m
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)
        assert "failed_frac" in proc.stdout and "_per_s " in proc.stdout


def test_tracer_leaves_train_outputs_unchanged(tmp_path):
    script = textwrap.dedent(f"""
        import os, sys
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = "1"
        sys.path[:0] = [{str(ROOT / "src")!r}, {str(HERE)!r}]
        from pathlib import Path
        from tracer import Tracer
        from workloads import Train

        wl = Train(seed=5, smoke=True, scratch=Path({str(tmp_path)!r}))
        wl.setup()
        plain = wl.fingerprint(wl.unit(0))
        tr = Tracer()
        with tr.installed(), tr.unit_span(0):
            traced = wl.fingerprint(wl.unit(0))
        assert tr.counts["tinynet.tape_nodes"] > 0
        assert plain == traced, "tracing changed the checkpoint or metrics.jsonl bytes"
        print("same")
    """)
    proc = _run(["-c", script])
    assert proc.returncode == 0 and proc.stdout.strip() == "same", proc.stderr


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run([*SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "1",
                 "--seconds", "1", "--trace", "0"], cwd=tmp_path, timeout=180)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
