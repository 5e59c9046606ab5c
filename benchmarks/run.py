"""Run one beliefgraph benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload reference-memory --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Set-up time is the median of several fresh processes that
each import beliefgraph and generate the workload's world. The workload
itself then runs in one more process with BLAS pinned to one thread,
so that its timings and peak RSS are its own. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run
(see benchmarks/README.md).

The report lines name each metric with its unit and the run's
environment. The last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full record,
with the environment and any failed checks, goes to
``.bench_out/result-<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("reference-memory", "reference-bundle", "desk-sweep")
# Fresh processes timed for setup_s; one more runs first, untimed, so
# that compiled bytecode and the file cache are warm.
SETUP_PROBES = 5
# The whole command must end within this many seconds.
DEADLINE = 170.0

THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SOURCE), env.get("PYTHONPATH", "")) if p
    )
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion and parse its last output line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as err:
        raise BenchmarkError(f"worker {args} did not finish in time") from err
    if proc.returncode != 0:
        raise BenchmarkError(f"worker {args} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"worker {args} printed nothing")
    return json.loads(lines[-1])


def git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def end_to_end(setup: list[float], worker: dict) -> dict[str, tuple[float, str]]:
    """The bounded end-to-end metrics, as declared in BENCHMARK.json."""
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ref_us_per_iter": (worker["ref_us_per_iter"], "us"),
        "peak_rss_mb": (worker["peak_rss_kb"] / 1024.0, "MB"),
        "msd_ratio": (worker["msd_ratio"], "ratio"),
    }


def workload_extras(worker: dict) -> dict[str, tuple[float, str]]:
    """Metrics that exist on some workloads only, reported alongside."""
    extras = {"us_per_iter": (worker["us_per_iter"], "us")}
    labels = worker["labels"]
    if "learn" in labels:
        extras["run_us_per_iter"] = (labels["run"], "us")
        extras["learn_us_per_iter"] = (labels["learn"], "us")
        extras["bundle_mb"] = (worker["bundle_bytes"] / 1e6, "MB")
    if worker["vote_match_rate"] is not None:
        extras["vote_match_rate"] = (worker["vote_match_rate"], "share")
    extras["failed_frac"] = (worker["failed"] / worker["attempted"], "share")
    return extras


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--iterations", type=int,
                        help="override the workload length (smoke tests only)")
    args = parser.parse_args(argv)

    if not (SOURCE / "beliefgraph" / "__init__.py").is_file():
        print(f"benchmark: no beliefgraph sources under {SOURCE}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.iterations is not None:
        common += ["--iterations", str(args.iterations)]

    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_PROBES + 1):
                setup.append(run_worker([*common, "--probe"], deadline)["setup_s"])
            setup = setup[1:]
        OUT.mkdir(exist_ok=True)
        worker = run_worker([
            *common, "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work-dir", str(OUT / f"work-{os.getpid()}"),
        ], deadline)
    except BenchmarkError as err:
        print(f"benchmark: {err}", file=sys.stderr)
        return 3

    metrics = worker["layers"] if args.trace else end_to_end(setup, worker)
    extras = workload_extras(worker)
    environment = dict(worker["environment"], commit=git_commit())
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": worker["passes"],
        "traced_passes": worker.get("traced_passes", 0),
        "pass_us_per_iter": worker["pass_us_per_iter"],
        "pass_ref_us_per_iter": worker["pass_ref_us_per_iter"],
        "pass_step_us": worker["pass_step_us"],
        "setup_samples_s": setup, "metrics": metrics, "extras": extras,
        "attempted": worker["attempted"], "failed": worker["failed"],
        "failures": worker["failures"], "environment": environment,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{worker['passes']} untraced passes, "
          f"{worker.get('traced_passes', 0)} traced passes")
    print("environment " + json.dumps(environment, sort_keys=True))
    for name, (value, unit) in {**metrics, **extras}.items():
        print(f"{name} {value:.6g} {unit}")
    for name in worker["failures"]:
        print(f"FAILED check: {name}")
    print(json.dumps({
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
