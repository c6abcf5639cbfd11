"""Tests of the benchmark itself: ``python -m pytest perfbench -q``.

The end-to-end cases run ``run.py --smoke`` (the unit tests' tiny shape) in
a subprocess, each with its own driver JVM, and take about a minute each.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from spans import Span, self_times, total_jobs  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_self_times_add_up_and_jobs_roll_up():
    root = Span(0, "batch", 0.0, 10.0, jobs=1)
    imp = Span(1, "imputation.impute_batch", 1.0, 5.0, parent=0, jobs=14)
    asm = Span(2, "imputation.assemble_instances", 4.0, 4.5, parent=1)
    grid = Span(3, "er_grid.generate_candidates", 6.0, 9.0, parent=0, jobs=3)
    kids = {0: [imp, grid], 1: [asm]}
    st = self_times(root, kids)
    assert st == pytest.approx({"batch": 3.0, "imputation.impute_batch": 3.5,
                                "imputation.assemble_instances": 0.5,
                                "er_grid.generate_candidates": 3.0})
    assert sum(st.values()) == pytest.approx(root.dur)
    assert total_jobs(root, kids)["batch"] == 18


@pytest.mark.parametrize("workload", ["citations", "citations_cdd_er"])
def test_smoke_run_reports_every_metric(workload):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = _run("--workload", workload, "--seed", "11", "--seconds", "1",
                   "--trace", str(trace), "--smoke")
        assert out.returncode == 0, out.stderr[-2000:]
        *_, record_line, result_line = out.stdout.strip().splitlines()
        result = json.loads(result_line)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in bench[key]}
        units = {m["name"]: m["unit"] for m in bench[key]}
        assert all(v["unit"] == units[k] for k, v in result["metrics"].items())
        record = json.loads(record_line)
        assert record["master"] == f"local[{record['nproc']}]"
    spans = json.loads((ROOT / record["trace_file"]).read_text())["spans"]
    kids = {}
    objs = [Span(s["id"], s["name"], s["start"], s["end"], parent=s["parent"])
            for s in spans]
    for sp in objs:
        if sp.parent is not None:
            kids.setdefault(sp.parent, []).append(sp)
    batches = [sp for sp in objs if sp.name == "batch"]
    assert batches
    for b in batches:
        assert sum(self_times(b, kids).values()) == pytest.approx(b.dur)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("--workload", "citations", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
