"""Tests of the benchmark itself.

Run from the repository root: ``python3 -m pytest perfbench``.  The
workloads are shrunk here so each run takes seconds; the sizes the
benchmark measures are the constants in ``workloads.py``.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.exec import TrialRunner  # noqa: E402

from perfbench import bench, workloads  # noqa: E402
from perfbench.tracer import LAYERS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture
def small(monkeypatch):
    """Workloads small enough for a test, and one set-up per run."""
    monkeypatch.setattr(workloads, "FIG4_DURATION", 1.0)
    monkeypatch.setattr(workloads, "HYBRID_NODES", 1_000)
    monkeypatch.setattr(workloads, "SWITCH_THRESHOLD", 10.0)
    monkeypatch.setattr(workloads, "MASSIVE_NODES", 10_000)
    monkeypatch.setattr(workloads, "MASSIVE_HORIZON", 20.0)
    monkeypatch.setattr(workloads, "TRACED_HORIZON", 20.0)
    monkeypatch.setattr(bench, "SETUP_REPS", 1)


def _run(name, trace, nproc=None, monkeypatch=None):
    if nproc is not None:
        monkeypatch.setattr(bench, "host_nproc", lambda: nproc)
    out = io.StringIO()
    result = bench.run(name, 3, 0.01, trace, ROOT, out=out)
    assert result is not None, out.getvalue()
    return result, out.getvalue()


def test_declared_names_match_the_pattern():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64 and name[0].isalnum(), name
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
def test_reported_names_are_the_declared_ones(small, trace):
    result, text = _run("hybrid-burst", trace)
    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    reported = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert reported == declared
    for line in text.splitlines()[:-1]:
        if not line.startswith("#"):
            assert NAME.fullmatch(line.split(" = ")[0]), line


def test_corrupted_collision_count_raises_failed_frac(small, monkeypatch):
    workload = workloads.HybridBurst(3, 1, ROOT)
    workload.build()
    ledger = bench.Ledger()
    assert ledger.note("reference", workload.reference())
    honest = workload.run_pass
    calls = []

    def corrupt_third_pass():
        calls.append(None)
        result = honest()
        if len(calls) == 3:
            result = dataclasses.replace(result, collisions=result.collisions + 1)
        return result

    monkeypatch.setattr(workload, "run_pass", corrupt_third_pass)
    passes = bench.Passes()
    bench.measure(workload, 0.0, ledger, passes)
    assert ledger.attempted == 1 + bench.MIN_PASSES
    assert ledger.failed == 1
    assert ledger.failed_frac == pytest.approx(1 / (1 + bench.MIN_PASSES))
    assert len(passes.walls) == bench.MIN_PASSES - 1


def test_lost_count_mismatch_is_a_failure(small, tmp_path):
    workload = workloads.HybridTraced(3, 1, tmp_path)
    workload.build()
    assert workload.reference() == []
    output = workload._pass(TrialRunner())
    assert workload.check(output) == []
    assert workload.check(dataclasses.replace(output, lost=output.lost + 1))


def test_fig4_observables_mismatch_is_a_failure(small):
    workload = workloads.Fig4Testbed(3, 1, ROOT)
    workload.build()
    workload.reference()
    index, observed = workload.run_pass()
    assert workload.check((index, observed)) == []
    altered = dict(observed, would_be_lost=observed["would_be_lost"] + 1)
    assert workload.check((index, altered))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_layer_self_times_add_up_to_traced_wall(small, name):
    result, _text = _run(name, True)
    metrics = {key: value["value"] for key, value in result["metrics"].items()}
    layers = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    assert metrics["unattributed_s"] >= 0.0
    assert layers + metrics["unattributed_s"] == pytest.approx(
        metrics["traced_wall_s"], rel=1e-9, abs=1e-12
    )
    assert metrics["traced_wall_s"] > 0.0


@pytest.mark.parametrize("nproc", [1, 2, 3])
def test_no_workload_uses_more_workers_than_nproc(nproc, tmp_path):
    for cls in workloads.WORKLOADS.values():
        workload = cls(3, nproc, tmp_path)
        assert 1 <= workload.workers <= nproc


def test_pooled_run_on_one_processor_uses_one_worker(small, monkeypatch):
    result, text = _run("flow-massive", True, nproc=1, monkeypatch=monkeypatch)
    assert "nproc=1 workers=1" in text
    assert result["correct"]


def test_tail_has_ten_samples_beyond_it():
    assert bench.tail([float(i) for i in range(11)]) == (0.0, pytest.approx(100 / 11))
    value, percentile = bench.tail([float(i) for i in range(40)])
    assert value == 29.0 and percentile == 75.0
    with pytest.raises(ValueError):
        bench.tail([1.0] * 10)


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hybrid-burst",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        env={key: value for key, value in os.environ.items() if key != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
