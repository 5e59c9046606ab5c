"""The benchmark's workloads: inputs derived from a seed, one pass over
the program, and the checks on that pass's outputs.

The network, weights and likelihoods of each workload are the pinned
configurations the project documents (the paper's 30-agent reference
setup and the 10-agent desk setup); the workload seed picks the private
signal stream. At a fixed size and density the cost per iteration does
not depend on which graph was drawn, while ``msd_ratio`` does: pinning
the world keeps that guard comparable from one seed to the next.
"""

from __future__ import annotations

import contextlib
import io as _stdio
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from beliefgraph import cli, harness, io, model
from beliefgraph.simulate import Event, EventSchedule

REFERENCE = dict(
    agents=30, states=4, signals=4, edge_prob=0.2, delta=0.05, mu=0.01,
    true_state=2, seed_graph=0, seed_weights=1, seed_likelihoods=2,
    mode="both",
)
DESK = dict(
    agents=10, states=3, signals=4, edge_prob=0.35, delta=0.3, mu=0.01,
    true_state=1, seed_graph=21, seed_weights=22, seed_likelihoods=23,
    mode="known",
)
# The learning-rate grid of demos/rate_sweep.py.
MU_GRID = (0.02, 0.01, 0.005, 0.0025)
# Seed of the mid-run graph regeneration, as in acceptance criterion 6.
REGEN_SEED = 900

# Iterations simulated by one run of the workload's main call (per grid
# point for desk-sweep). A pass takes 1-1.5 s today, so a loop ten times
# faster still gives passes far above timer resolution. Passes are kept
# short because their times are rescaled by the calibration step timed
# around them, which tracks the machine's speed better over short spans.
ITERATIONS = {
    "reference-memory": 2000,
    "reference-bundle": 1000,
    "desk-sweep": 1000,
}

# Offline learning must reproduce the online estimate (the contract of
# tests/test_cli.py); the stream is stored as text, hence a tolerance.
LEARN_ATOL = 1e-10


def signal_seed(seed: int) -> int:
    return 10_000 + int(seed)


def make_config(workload: str, seed: int, iterations: int | None = None):
    """The experiment configuration a workload runs for ``seed``."""
    T = ITERATIONS[workload] if iterations is None else int(iterations)
    if workload.startswith("reference-"):
        return harness.ExperimentConfig(
            **REFERENCE, iterations=T, seed_signals=signal_seed(seed)
        )
    if workload == "desk-sweep":
        return harness.ExperimentConfig(
            **DESK, iterations=T, seed_signals=signal_seed(seed),
            schedule=EventSchedule((Event(T // 2, "regenerate_graph", REGEN_SEED),)),
        )
    raise KeyError(workload)


@dataclass
class World:
    """The network, weights and likelihood model of a configuration."""

    combination: model.CombinationMatrix
    likelihoods: model.LikelihoodModel

    @property
    def initial_msd(self) -> float:
        return float(np.sum(self.combination.weights**2))


def generate_world(config) -> World:
    """Generate a configuration's world with the public model functions."""
    adjacency, _ = model.erdos_renyi_adjacency(
        config.agents, config.edge_prob, config.seed_graph, config.max_attempts
    )
    return World(
        combination=model.random_combination_matrix(adjacency, config.seed_weights),
        likelihoods=model.random_likelihoods(
            config.agents, config.states, config.signals, config.seed_likelihoods,
            floor=config.likelihood_floor, kl_floor=config.kl_floor,
            max_attempts=config.max_attempts,
        ),
    )


@dataclass
class PassResult:
    """What one pass produced and whether its outputs were right. The
    pass function times its main calls itself, each inside a
    ``timed(label)`` block supplied by the caller."""

    iterations: int
    msd_ratio: float
    vote_match_rate: float | None = None
    bundle_bytes: int = 0
    bytes_written: int = 0
    checks: list[tuple[str, bool]] = field(default_factory=list)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _finite_deviations(label: str, deviations, diverged_at) -> list[tuple[str, bool]]:
    return [
        (f"{label} deviations finite", bool(np.isfinite(deviations).all())),
        (f"{label} not diverged", diverged_at is None),
    ]


def _experiment_checks(result) -> list[tuple[str, bool]]:
    checks = []
    for mode, mres in sorted(result.modes.items()):
        checks += _finite_deviations(mode, mres.msd, mres.diverged_at)
    checks.append(("known msd_ratio < 1", bool(_known_ratio(result) < 1.0)))
    return checks


def _known_ratio(result) -> float:
    """Final-window known-mode deviation over the initial deviation."""
    return result.modes["known"].steady_state_msd / result.initial_msd


def reference_memory(config, world: World, work_dir: Path, timed) -> PassResult:
    with timed("run"):
        result = harness.run_experiment(config)
    return PassResult(
        iterations=config.iterations,
        msd_ratio=_known_ratio(result),
        vote_match_rate=result.vote_match_rate,
        checks=_experiment_checks(result),
    )


def _learned_matches(path: Path, online: np.ndarray) -> bool:
    try:
        offline = io.read_matrix(path)
    except OSError:
        return False
    return offline.shape == online.shape and bool(
        np.allclose(offline, online, rtol=0.0, atol=LEARN_ATOL)
    )


def reference_bundle(config, world: World, work_dir: Path, timed) -> PassResult:
    run_dir, learn_dir = work_dir / "run", work_dir / "learn"
    with timed("run"):
        result = harness.run_experiment(replace(config, out=str(run_dir)))
    with timed("learn"), contextlib.redirect_stdout(_stdio.StringIO()):
        code = cli.main([
            "learn", "--run", str(run_dir), "--mode", "both", "--out", str(learn_dir),
        ])
    checks = _experiment_checks(result)
    checks.append(("learn exit code 0", code == 0))
    for mode, mres in sorted(result.modes.items()):
        checks.append((
            f"offline {mode} estimate equals online",
            _learned_matches(learn_dir / f"learned_matrix_{mode}.csv", mres.estimate),
        ))
    bundle = _dir_bytes(run_dir)
    return PassResult(
        iterations=config.iterations,
        msd_ratio=_known_ratio(result),
        vote_match_rate=result.vote_match_rate,
        bundle_bytes=bundle,
        bytes_written=bundle + _dir_bytes(learn_dir),
        checks=checks,
    )


def desk_sweep(config, world: World, work_dir: Path, timed) -> PassResult:
    with timed("run"):
        rows = harness.sweep(config, mu_values=MU_GRID)
    checks = []
    ratios = []
    for row in rows:
        label = f"mu={row['mu']:g} {row['mode']}"
        ratio = row["steady_state_msd"] / world.initial_msd
        ratios.append(ratio)
        checks += [
            (f"{label} deviation finite", bool(np.isfinite(row["steady_state_msd"]))),
            (f"{label} not diverged", not row["divergent"]),
            (f"{label} msd_ratio < 1", bool(ratio < 1.0)),
        ]
    checks.append(("one row per grid point", len(rows) == len(MU_GRID)))
    return PassResult(
        iterations=len(MU_GRID) * config.iterations,
        msd_ratio=max(ratios) if ratios else float("inf"),
        checks=checks,
    )


PASSES = {
    "reference-memory": reference_memory,
    "reference-bundle": reference_bundle,
    "desk-sweep": desk_sweep,
}

