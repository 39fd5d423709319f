"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result, lines, record = run.run_workload(workload, seed=3, seconds=0.2, trace=trace, tiny=True)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert record["inputs"] and record["seed"] == 3
    assert any("fail_ratio" in line for line in lines)


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_wrong_answer_counts_as_failure(monkeypatch):
    real_import = run.import_fresh

    def import_with_wrong_count():
        cr = real_import()
        real = cr.reidemeister.reidemeister_number
        monkeypatch.setattr(cr.reidemeister, "reidemeister_number", lambda phi: real(phi) + 1)
        return cr

    monkeypatch.setattr(run, "import_fresh", import_with_wrong_count)
    result, lines, _ = run.run_workload(
        "reidnr-large-det", seed=3, seconds=0.2, trace=False, tiny=True
    )
    assert result["attempted"] > 0
    assert result["failed"] == result["attempted"]
    assert not result["correct"]
    assert run.exit_code(result) != 0
    assert any(line.strip().startswith("fail_ratio   1.0000") for line in lines)


def test_same_seed_gives_same_inputs():
    first = run.set_up("cli-queries", seed=5, tiny=True).inputs
    assert run.set_up("cli-queries", seed=5, tiny=True).inputs == first


def test_tracer_wraps_every_binding_and_restores_them():
    cr = run.import_fresh()
    modules = [m for n, m in sys.modules.items() if n == "crysturn" or n.startswith("crysturn.")]
    before = [dict(vars(m)) for m in modules]
    tracer = Tracer()
    tracer.install(cr)
    try:
        closure = cr.groups.matrix_group_closure
        assert closure is cr.reidemeister.matrix_group_closure is cr.cli.matrix_group_closure
        assert closure.__wrapped__ is before[modules.index(cr.groups)]["matrix_group_closure"]
        cr.cli.main(["--json", "validate", "klein-bottle"])
    finally:
        tracer.uninstall()
    assert [dict(vars(m)) for m in modules] == before
    layers = tracer.layer_metrics()
    assert layers["groups.matrix_group_closure.calls"] == 1
    assert layers["cli.meta_closure_s"] > 0


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(Path(__file__).resolve().parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_percentile_keeps_ten_samples_beyond():
    ops = run.set_up("catalog", seed=1, tiny=True).ops
    passes = run.run_passes(ops, seconds=0.001)
    assert len(passes.op_s) * (100 - run.TAIL_PERCENTILE) / 100 >= 10
