"""Tests of the benchmark itself, at tiny workload lengths.

    python3 -m pytest benchmarks/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
TINY = 200


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace),
         "--iterations", str(TINY)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_declared_workloads_are_the_benchmarks():
    assert sorted(WORKLOAD_NAMES) == sorted(workloads.PASSES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_workload_completes_and_prints_declared_metrics(workload, trace):
    proc = run_benchmark(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert np.isfinite(printed["value"])
        if not trace:
            assert printed["value"] > 0


def test_fails_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark("reference-memory", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_spans_nest_and_self_times_are_nonnegative(tmp_path):
    from beliefgraph import harness, simulate

    config = workloads.make_config("reference-bundle", 3, TINY)
    world = workloads.generate_world(config)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        # the importing module's binding is the same wrapper as the original
        assert harness.run_simulation is simulate.run_simulation
        assert hasattr(harness.run_simulation, "__wrapped__")
        passes = worker.run_passes(
            workloads.reference_bundle, config, world, tmp_path / "w", 0.0, 2, tracer
        )
    finally:
        uninstall()
    assert harness.run_simulation.__module__ == "beliefgraph.simulate"
    assert not hasattr(harness.run_simulation, "__wrapped__")

    spans = tracer.arrays()
    child = np.nonzero(spans["parent"] >= 0)[0]
    parent = spans["parent"][child]
    assert (spans["start"][parent] <= spans["start"][child]).all()
    assert (spans["end"][child] <= spans["end"][parent]).all()
    assert (tracing.self_times(spans) >= 0).all()
    roots = {tracer.names[i] for i in spans["name_id"][spans["parent"] < 0]}
    assert roots == {"bench.run", "bench.learn"}
    assert set(tracer.names) >= {"cli.learn", "harness.run_experiment",
                                 "estimator.learn_graph", "io.read_belief_stream"}

    metrics = worker.layer_metrics(tracer, passes, config, 1.0)
    assert metrics["simulate.combine_step.calls_per_iter"][0] == 1.0
    assert metrics["estimator.GraphLearner.step.known.calls_per_iter"][0] == 2.0
    assert metrics["simulate.run_simulation.distinct_streams_per_call"][0] == 1.0


def test_sweep_counts_repeat_exactly(tmp_path):
    config = workloads.make_config("desk-sweep", 3, TINY)
    world = workloads.generate_world(config)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        passes = worker.run_passes(
            workloads.desk_sweep, config, world, tmp_path / "w", 0.0, 2, tracer
        )
    finally:
        uninstall()
    metrics = worker.layer_metrics(tracer, passes, config, 1.0)
    grid = len(workloads.MU_GRID)
    assert metrics["harness.sweep.simulated_steps"][0] == grid * TINY
    assert metrics["simulate.run_simulation.distinct_streams_per_call"][0] == 1 / grid
    # one initial draw plus one regeneration per grid point
    assert metrics["model.erdos_renyi_adjacency.calls_per_iter"][0] == 2 / TINY


def test_failing_check_raises_failed_frac(tmp_path, monkeypatch):
    from beliefgraph import estimator

    healthy = worker.run("reference-memory", 5, 0.0, False, TINY, tmp_path / "a")
    assert healthy["failed"] == 0

    def diverging(estimate, *args, **kwargs):
        return np.full_like(estimate, np.nan)

    monkeypatch.setattr(estimator, "gradient_step", diverging)
    broken = worker.run("reference-memory", 5, 0.0, False, TINY, tmp_path / "b")
    assert broken["attempted"] == healthy["attempted"]
    assert broken["failed"] > 0
    assert "known not diverged" in broken["failures"]
