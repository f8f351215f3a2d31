"""tools/ab.py: a smoke run of a few interleaved rounds on a throwaway git repo."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _git(repo, *args):
    subprocess.run(["git", "-c", "user.name=ab", "-c", "user.email=ab@example.com", *args],
                   cwd=repo, check=True, capture_output=True)


def _ab_in_throwaway_repo(tmp_path, workload: str, rounds: int) -> dict:
    """Run ``tools/ab.py HEAD HEAD`` in a one-commit copy of the repo; check it exits 0, passes every
    unit check and leaves nothing behind under TMPDIR or in the copy; return its JSON result."""
    repo, tmp = tmp_path / "repo", tmp_path / "tmp"
    tmp.mkdir()
    for part in ("src", "perfbench", "tools"):
        shutil.copytree(ROOT / part, repo / part, ignore=shutil.ignore_patterns("__pycache__", ".bench_out"))
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "one")
    files = sorted(p for p in repo.rglob("*") if ".git" not in p.parts)
    out = tmp_path / "ab.json"
    proc = subprocess.run(
        [sys.executable, "tools/ab.py", "HEAD", "HEAD", "--workload", workload, "--rounds", str(rounds),
         "--out", str(out)],
        cwd=repo, capture_output=True, text=True, timeout=300, env={**os.environ, "TMPDIR": str(tmp)},
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert json.loads(proc.stdout.splitlines()[-1]) == result
    assert result["rounds"] == rounds and len(result["ratios"]) == rounds
    assert result["a"]["commit"] == result["b"]["commit"]
    assert result["a"]["failed"] == result["b"]["failed"] == 0
    for side in ("a", "b"):  # minor page faults per timed unit, and the workers' peak memory
        median, most = result[side]["minflt_median"], result[side]["minflt_max"]
        assert type(median) is int and type(most) is int and 0 <= median <= most
        assert type(result[side]["maxrss_mb"]) is float and result[side]["maxrss_mb"] > 0
    # the exported trees and the workload scratch went under TMPDIR and are gone; the repo is untouched
    assert list(tmp.iterdir()) == []
    assert sorted(p for p in repo.rglob("*") if ".git" not in p.parts) == files
    return result


def test_ab_smoke_rounds(tmp_path):
    result = _ab_in_throwaway_repo(tmp_path, "gradcheck", 4)
    lo, hi = result["ci95"]
    assert lo <= result["median_ratio"] <= hi and result["ratio_iqr"] >= 0
    assert result["a_wins"] + result["b_wins"] <= 4
    # the workers were respawned in swapped order after round 2: two halves of 2 rounds each
    first, second = result["halves"]
    assert (first["rounds"], first["spawned_first"]) == ([0, 2], "a")
    assert (second["rounds"], second["spawned_first"]) == ([2, 4], "b")
    for h, ratios in ((first, result["ratios"][:2]), (second, result["ratios"][2:])):
        assert h["median_ratio"] == float(np.median(ratios))
        assert h["a_wins"] + h["b_wins"] <= 2


def test_ab_dataset_rounds(tmp_path):
    # dataset units run the CLI's synth and augment and are timed in user CPU time
    result = _ab_in_throwaway_repo(tmp_path, "dataset", 2)
    assert result["a"]["unit_s_median"] > 0 and result["b"]["unit_s_median"] > 0
    assert [h["rounds"] for h in result["halves"]] == [[0, 1], [1, 2]]
