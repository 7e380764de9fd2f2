"""Tests of the benchmark itself.

Run with: python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
IGNORE = shutil.ignore_patterns("__pycache__")


def _tree(tmp_path, with_src=True):
    """A copy of what a benchmark checkout holds: BENCHMARK.json, bench/ and src/."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=IGNORE)
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src", ignore=IGNORE)
    return tmp_path


def _smoke(root):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke"], cwd=root, capture_output=True, text=True, timeout=600
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_reports_every_metric_with_its_unit(tmp_path):
    code, out = _smoke(_tree(tmp_path))
    assert code == 0, out
    assert set(out["runs"]) == {f"{w}/{t}" for w in ("table", "enum", "queries", "cli") for t in (0, 1)}
    assert all(r["ok"] and r["failed_frac"] == 0 for r in out["runs"].values())


def test_corrupted_pin_makes_failed_frac_positive(tmp_path):
    root = _tree(tmp_path)
    path = root / "bench" / "pool.json"
    pool = json.loads(path.read_text())
    pool["table"]["A1"] = "0" * 16
    for workload in ("queries", "cli"):
        for item in pool[workload]:
            if item["tiny"] and item["kind"] in ("star", "report"):
                item["pin"] = "0" * 16
    path.write_text(json.dumps(pool))
    code, out = _smoke(root)
    assert code == 1
    for key in ("table/0", "table/1", "queries/0", "queries/1", "cli/0", "cli/1"):
        assert out["runs"][key]["failed_frac"] > 0, key
    assert out["runs"]["enum/0"]["failed_frac"] == 0


def test_without_source_exits_nonzero_and_prints_no_result(tmp_path):
    root = _tree(tmp_path, with_src=False)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "table", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_traced_counts_repeat_between_runs(tmp_path):
    root = _tree(tmp_path)
    counts = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "queries", "--seed", "3", "--seconds", "0",
             "--trace", "1"],
            cwd=root, capture_output=True, text=True, timeout=180,
        )
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        assert res["correct"], proc.stdout
        counts.append({k: m["value"] for k, m in res["metrics"].items() if m["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["affine.enumerate_minreps.calls"] > 0
