"""One workload run in its own process; started by ``run.py``.

``--probe`` measures set-up only: importing beliefgraph and generating
the workload's network, weights and likelihood model. Otherwise the
worker repeats passes over the workload for ``--seconds`` and prints
one JSON object with the per-pass timings, the outputs' checks, the
peak RSS and, with ``--trace 1``, the per-layer metrics.

Module-level imports are standard library only, so that a probe's
clock starts before numpy, scipy and beliefgraph are loaded.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

# Passes measured per run at the least, whatever --seconds says.
MIN_PASSES = 3

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def probe(workload: str, seed: int, iterations: int | None) -> dict:
    start = time.perf_counter()
    import workloads

    workloads.generate_world(workloads.make_config(workload, seed, iterations))
    return {"setup_s": time.perf_counter() - start}


class Timed:
    """``timed(label)`` blocks: wall time per label, the same time
    rescaled to the calibration step's reference speed, and with a tracer
    a root span around the block.

    The calibration step is timed after every block, outside the timing
    and the span. A block is rescaled by the mean of the step timings on
    either side of it; ``step_us`` is the latest one.
    """

    def __init__(self, step_us: float, tracer=None):
        import calibration

        self._calibration = calibration
        self.step_us = step_us
        self.tracer = tracer
        self.seconds: dict[str, float] = {}
        self.rescaled: dict[str, float] = {}

    @contextlib.contextmanager
    def __call__(self, label: str):
        span = self.tracer.open(f"bench.{label}") if self.tracer else None
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            if span is not None:
                self.tracer.close(span)
        before, self.step_us = self.step_us, self._calibration.step_us()
        scale = self._calibration.REFERENCE_STEP_US / (0.5 * (before + self.step_us))
        self.seconds[label] = self.seconds.get(label, 0.0) + elapsed
        self.rescaled[label] = self.rescaled.get(label, 0.0) + elapsed * scale


def run_passes(run_pass, config, world, work_dir: Path, budget: float,
               min_passes: int, tracer=None) -> list[dict]:
    """Repeat passes until ``budget`` seconds are spent and at least
    ``min_passes`` ran (a traced run also stops when its span store is
    full)."""
    import calibration

    done = []
    start = time.perf_counter()
    step_us = calibration.step_us()
    while len(done) < min_passes or time.perf_counter() - start < budget:
        if tracer is not None:
            if done and tracer.full:
                break
            tracer.new_pass()
        shutil.rmtree(work_dir, ignore_errors=True)
        work_dir.mkdir(parents=True)
        timed = Timed(step_us, tracer)
        result = run_pass(config, world, work_dir, timed)
        step_us = timed.step_us
        done.append({
            "seconds": timed.seconds,
            "rescaled": timed.rescaled,
            "step_us": step_us,
            "result": result,
        })
    shutil.rmtree(work_dir, ignore_errors=True)
    return done


def us_per_iter(passes: list[dict], label: str | None = None,
                rescaled: bool = False) -> float:
    """Median over passes of the timed wall time per simulated iteration;
    ``rescaled`` takes the times at the calibration step's reference speed."""
    key = "rescaled" if rescaled else "seconds"

    def one(p: dict) -> float:
        seconds = sum(p[key].values()) if label is None else p[key][label]
        return 1e6 * seconds / p["result"].iterations

    return statistics.median(one(p) for p in passes)


def computed_costs(config) -> dict[str, tuple[float, str]]:
    """Flops and compulsory bytes per call, computed from the shapes.

    A multiply or an add counts as one flop; bytes are the float64
    inputs read plus the output written once.
    """
    n, s = config.agents, config.states
    m = s - 1
    return {
        "estimator.gradient_step.computed_flop_per_call":
            (4 * n * n * m + 4 * n * m + 2 * n * n, "flop"),
        "estimator.gradient_step.computed_bytes_per_call":
            (8 * (2 * n * n + 3 * n * m), "B"),
        "simulate.combine_step.computed_flop_per_call":
            (2 * n * n * s + 5 * n * s + 2 * n, "flop"),
        "simulate.combine_step.computed_bytes_per_call":
            (8 * (n * n + 2 * n * s), "B"),
    }


def layer_metrics(tracer, passes: list[dict], config, untraced_us: float) -> dict:
    """Per-layer metrics of a traced run, as ``name -> (value, unit)``.
    ``untraced_us`` is the rescaled time per iteration of the untraced
    passes, which the tracing overhead is taken against."""
    import tracing

    summary = tracing.summarize(tracer)
    runs = len(passes)
    iterations = runs * passes[0]["result"].iterations

    def stat(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0.0)

    def per_call(name: str, scale: float) -> float:
        calls = tracer.calls[name]
        return stat(name, "total_ns") / calls / scale if calls else 0.0

    def self_per_call(name: str, scale: float) -> float:
        calls = tracer.calls[name]
        return stat(name, "self_ns") / calls / scale if calls else 0.0

    steps = tracer.counts["simulate.run_simulation.steps"]
    traced_us = us_per_iter(passes, rescaled=True)
    metrics = {}
    for name in (
        "simulate.sample_observations", "simulate.adapt_step",
        "simulate.combine_step", "estimator.GraphLearner.step.known",
        "estimator.GraphLearner.step.estimated", "estimator.belief_log_ratios",
        "estimator.majority_vote", "estimator.gradient_step", "estimator.msd",
        "io.BeliefStreamWriter.append",
    ):
        metrics[f"{name}.us_per_call"] = (per_call(name, 1e3), "us")
    metrics["simulate.run_simulation.self_us_per_step"] = (
        stat("simulate.run_simulation", "self_ns") / steps / 1e3 if steps else 0.0, "us")
    metrics["simulate.run_simulation.distinct_streams_per_call"] = (
        tracer.distinct_streams_per_call(), "ratio")
    metrics["estimator.classify_edges.ms"] = (per_call("estimator.classify_edges", 1e6), "ms")
    metrics["estimator.learn_graph.s"] = (per_call("estimator.learn_graph", 1e9), "s")
    metrics["io.read_belief_stream.s"] = (per_call("io.read_belief_stream", 1e9), "s")
    metrics["io.write_msd_table.ms"] = (per_call("io.write_msd_table", 1e6), "ms")
    metrics["io.write_trace.ms"] = (per_call("io.write_trace", 1e6), "ms")
    metrics["io.bytes_written"] = (
        sum(p["result"].bytes_written for p in passes) / runs, "B")
    metrics["harness.run_experiment.self_us_per_iter"] = (
        stat("harness.run_experiment", "self_ns") / iterations / 1e3, "us")
    metrics["harness.sweep.self_s"] = (self_per_call("harness.sweep", 1e9), "s")
    metrics["harness.sweep.simulated_steps"] = (
        tracer.counts["harness.sweep.simulated_steps"] / runs, "count")
    metrics["cli.learn.self_s"] = (self_per_call("cli.learn", 1e9), "s")
    for name in (
        "model.erdos_renyi_adjacency", "model.random_likelihoods",
        "model.random_combination_matrix",
    ):
        metrics[f"{name}.ms"] = (per_call(name, 1e6), "ms")
    metrics["model.erdos_renyi_adjacency.attempts"] = (
        tracer.counts["model.erdos_renyi_adjacency.attempts"] / runs, "count")
    metrics["model.mean_likelihood_matrix.calls"] = (
        tracer.calls["model.mean_likelihood_matrix"] / runs, "count")
    metrics.update(computed_costs(config))
    for name in tracing.SPAN_NAMES:
        metrics[f"{name}.calls_per_iter"] = (tracer.calls[name] / iterations, "1/iter")
    metrics["trace.spans_per_iter"] = (len(tracer.start) / iterations, "1/iter")
    metrics["trace.traced_ref_us_per_iter"] = (traced_us, "us")
    metrics["trace.overhead_ref_us_per_iter"] = (traced_us - untraced_us, "us")
    return metrics


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break

    def blas(module) -> str:
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info['name']} {info['version']}"
        except (KeyError, TypeError, ValueError):
            return "unknown"

    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "threads": {k: os.environ.get(k, "") for k in THREAD_VARS},
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        iterations: int | None, work_dir: Path) -> dict:
    import tracing
    import workloads

    config = workloads.make_config(workload, seed, iterations)
    world = workloads.generate_world(config)
    run_pass = workloads.PASSES[workload]
    budget = seconds / 2 if trace else seconds

    untraced = run_passes(run_pass, config, world, work_dir, budget, MIN_PASSES)
    every = list(untraced)
    out = {
        "passes": len(untraced),
        "pass_us_per_iter": [us_per_iter([p]) for p in untraced],
        "pass_ref_us_per_iter": [us_per_iter([p], rescaled=True) for p in untraced],
        "pass_step_us": [p["step_us"] for p in untraced],
        "us_per_iter": us_per_iter(untraced),
        "ref_us_per_iter": us_per_iter(untraced, rescaled=True),
        "labels": {
            label: us_per_iter(untraced, label) for label in untraced[0]["seconds"]
        },
    }
    if trace:
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        try:
            traced = run_passes(run_pass, config, world, work_dir, budget, 1, tracer)
        finally:
            uninstall()
        every += traced
        out["traced_passes"] = len(traced)
        out["layers"] = layer_metrics(tracer, traced, config, out["ref_us_per_iter"])
        tracer.save(work_dir.parent / f"spans-{workload}-seed{seed}.npz")

    results = [p["result"] for p in every]
    checks = [(name, ok) for r in results for name, ok in r.checks]
    votes = [r.vote_match_rate for r in results if r.vote_match_rate is not None]
    out.update({
        "msd_ratio": statistics.median(r.msd_ratio for r in results),
        "vote_match_rate": statistics.median(votes) if votes else None,
        "bundle_bytes": statistics.median(r.bundle_bytes for r in results),
        "attempted": len(checks),
        "failed": sum(not ok for _, ok in checks),
        "failures": sorted({name for name, ok in checks if not ok}),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "environment": environment(),
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--iterations", type=int)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--work-dir", type=Path)
    args = parser.parse_args(argv)
    if args.probe:
        result = probe(args.workload, args.seed, args.iterations)
    else:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.iterations, args.work_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
