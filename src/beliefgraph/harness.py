"""Reproducible end-to-end experiments and parameter sweeps.

An experiment generates the hidden network and observation models from
named seeds, runs the forward protocol, feeds the public belief stream
to the requested estimator variants and persists every artifact along
with a manifest echoing the full configuration. Re-running a manifest
reproduces each output file byte for byte; the output directory itself
is not part of the manifest.
"""

from __future__ import annotations

import numbers
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import io
from .estimator import (
    ESTIMATED,
    LearnResult,
    ModeLearners,
    NoSeparationError,
    SteadyStateDiagnostics,
    belief_log_ratios,
    classify_edges,
    steady_state_diagnostics,
)
from .model import (
    CombinationMatrix,
    LikelihoodModel,
    erdos_renyi_adjacency,
    mean_likelihood_matrix,
    random_combination_matrix,
    random_likelihoods,
)
from .simulate import Event, EventSchedule, run_simulation

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ModeResult",
    "ExperimentResult",
    "run_experiment",
    "run_forward",
    "mode_result",
    "write_report",
    "sweep",
    "steady_state_mean",
    "MANIFEST_FORMAT",
]

MANIFEST_FORMAT = "beliefgraph-manifest-v2"

# The number fields of a configuration. A value of another type, such as
# a string from a config file, is named before any check compares it.
_INTEGER_FIELDS = ("agents", "states", "iterations", "true_state", "reference",
                   "max_attempts")
_REAL_FIELDS = ("edge_prob", "delta", "mu", "likelihood_floor", "kl_floor")


def _is_number(value, kind=numbers.Real) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


class ConfigError(ValueError):
    """An experiment configuration violates its invariants."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete, explicit description of one experiment.

    Every random choice is pinned by one of the named seeds, so a
    configuration identifies its outputs exactly. ``mode`` selects
    which estimator variants run: ``"known"``, ``"estimated"`` or
    ``"both"``. ``out`` is the output directory; with ``None`` the
    experiment runs in memory only.
    """

    agents: int = 30
    states: int = 4
    signals: int | tuple[int, ...] = 4
    edge_prob: float = 0.2
    delta: float = 0.05
    mu: float = 0.01
    iterations: int = 15000
    seed_graph: int = 0
    seed_weights: int = 1
    seed_likelihoods: int = 2
    seed_signals: int = 3
    mode: str = "both"
    true_state: int = 0
    reference: int = 0
    schedule: EventSchedule = field(default_factory=EventSchedule)
    test_mode: bool = False
    likelihood_floor: float = 0.01
    kl_floor: float = 1e-3
    max_attempts: int = 1000
    classify_method: str = "two-means"
    classify_threshold: float | None = None
    out: str | None = None

    def validate(self) -> None:
        problems = [f"{name} must be an integer" for name in _INTEGER_FIELDS
                    if not _is_number(getattr(self, name), numbers.Integral)]
        problems += [f"{name} must be a number" for name in _REAL_FIELDS
                     if not _is_number(getattr(self, name))]
        signals = (self.signals if isinstance(self.signals, (tuple, list))
                   else (self.signals,))
        if not all(_is_number(size, numbers.Integral) for size in signals):
            problems.append("signals must be an integer or a list of integers")
        if not (self.classify_threshold is None
                or _is_number(self.classify_threshold)):
            problems.append("classify_threshold must be a number")
        if problems:
            raise ConfigError("; ".join(problems))
        if self.agents < 1:
            problems.append("agents must be at least 1")
        if self.states < 2:
            problems.append("states must be at least 2")
        sizes = (
            (self.signals,) * max(self.agents, 1)
            if np.isscalar(self.signals)
            else tuple(self.signals)
        )
        if not np.isscalar(self.signals) and len(sizes) != self.agents:
            problems.append("signals must be a scalar or one size per agent")
        if sizes and min(sizes) < 2:
            problems.append("signal spaces need at least two outcomes")
        if not 0 < self.edge_prob <= 1:
            problems.append("edge_prob must be in (0, 1]")
        if not 0 < self.delta < 1:
            problems.append("delta must be in (0, 1)")
        if not 0 < self.mu < np.inf:
            problems.append("mu must be positive and finite")
        if self.iterations < 1:
            problems.append("iterations must be at least 1")
        for name in ("seed_graph", "seed_weights", "seed_likelihoods", "seed_signals"):
            if not isinstance(getattr(self, name), int):
                problems.append(f"{name} must be an explicit integer")
        if self.mode not in ("known", "estimated", "both"):
            problems.append("mode must be known, estimated or both")
        if not 0 <= self.true_state < self.states:
            problems.append("true_state out of range")
        if not 0 <= self.reference < self.states:
            problems.append("reference out of range")
        if not 0 < self.likelihood_floor < np.inf:
            problems.append("likelihood_floor must be positive and finite")
        elif sizes and self.likelihood_floor * max(sizes) >= 1:
            problems.append("likelihood_floor too large for the signal space")
        if not 0 < self.kl_floor < np.inf:
            problems.append("kl_floor must be positive and finite")
        if self.max_attempts < 1:
            problems.append("max_attempts must be at least 1")
        if self.classify_method not in ("two-means", "threshold"):
            problems.append("classify_method must be two-means or threshold")
        if self.classify_method == "threshold" and self.classify_threshold is None:
            problems.append("threshold classification needs classify_threshold")
        if self.classify_threshold is not None and not np.isfinite(
            self.classify_threshold
        ):
            problems.append("classify_threshold must be finite")
        for event in self.schedule:
            if event.iteration > self.iterations:
                problems.append(
                    f"event at iteration {event.iteration} is beyond the run"
                )
            if event.action == "set_true_state" and not 0 <= event.value < self.states:
                problems.append(f"event state {event.value} out of range")
        if problems:
            raise ConfigError("; ".join(problems))

    def to_dict(self) -> dict:
        """JSON-ready mapping of all fields except the output directory."""
        payload = {}
        for f in fields(self):
            if f.name == "out":
                continue
            value = getattr(self, f.name)
            if f.name == "schedule":
                value = [
                    {"iteration": e.iteration, "action": e.action, "value": e.value}
                    for e in value
                ]
            elif isinstance(value, tuple):
                value = list(value)
            payload[f.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: dict, out: str | None = None) -> "ExperimentConfig":
        """Build a configuration from a mapping (a config file or the
        ``config`` section of a manifest)."""
        payload = dict(payload)
        payload.pop("out", None)
        known_names = {f.name for f in fields(cls)}
        unknown = set(payload) - known_names
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if "schedule" in payload:
            payload["schedule"] = EventSchedule(
                tuple(
                    Event(int(e["iteration"]), str(e["action"]), int(e["value"]))
                    for e in payload["schedule"]
                )
            )
        if isinstance(payload.get("signals"), list):
            payload["signals"] = tuple(payload["signals"])
        return cls(out=out, **payload)


def steady_state_mean(values: np.ndarray) -> float:
    """Mean over the final tenth of a trajectory (at least one point)."""
    values = np.asarray(values, dtype=float)
    window = max(1, values.shape[0] // 10)
    return float(values[-window:].mean())


@dataclass
class ModeResult(LearnResult):
    """Estimator outcome for one variant: the learner's record plus its
    summary and edge classification."""

    steady_state_msd: float
    final_msd: float
    classified: np.ndarray | None
    edge_accuracy: float | None
    classify_error: str | None

    def summary(self) -> dict:
        """The mode's entry in ``summary.json``, where a deviation
        without ground truth (NaN) or diverged (inf) is null."""
        return {
            "steady_state_msd": self.steady_state_msd,
            "final_msd": self.final_msd,
            "diverged_at": self.diverged_at,
            "edge_accuracy": self.edge_accuracy,
            "classify_error": self.classify_error,
        }


@dataclass
class ExperimentResult:
    """Everything produced by one experiment."""

    config: ExperimentConfig
    model: LikelihoodModel
    combination: CombinationMatrix
    final_combination: CombinationMatrix
    initial_msd: float
    graph_attempts: int
    modes: dict[str, ModeResult]
    true_states: np.ndarray
    graph_epochs: np.ndarray
    diagnostics: SteadyStateDiagnostics | None
    out_dir: Path | None

    @property
    def divergent(self) -> bool:
        return any(m.diverged_at is not None for m in self.modes.values())

    @property
    def vote_match_rate(self) -> float | None:
        est = self.modes.get(ESTIMATED)
        if est is None or est.votes is None:
            return None
        return float((est.votes == self.true_states).mean())


def _diagnostics_payload(diag: SteadyStateDiagnostics | None):
    if diag is None:
        return None
    return {f.name: np.asarray(getattr(diag, f.name)).tolist() for f in fields(diag)}


def _generate(config: ExperimentConfig):
    """The run's initial combination matrix, its likelihood model and
    the number of graph draws it took, all from the named seeds."""
    adjacency, graph_attempts = erdos_renyi_adjacency(
        config.agents, config.edge_prob, config.seed_graph, config.max_attempts
    )
    combination = random_combination_matrix(adjacency, config.seed_weights)
    model = random_likelihoods(
        config.agents,
        config.states,
        config.signals,
        config.seed_likelihoods,
        floor=config.likelihood_floor,
        kl_floor=config.kl_floor,
        max_attempts=config.max_attempts,
    )
    return combination, model, graph_attempts


def _simulate(
    config: ExperimentConfig,
    combination: CombinationMatrix,
    model: LikelihoodModel,
    out: Path | None,
    consumers=(),
):
    """Run the forward protocol once, hand every chunk to each of
    ``consumers`` as ``(block, true_state, combination)`` and, with
    ``out`` set, write the forward bundle there. A chunk's truth is
    recorded and its block appended to the stream once per chunk; only
    the private rows of test mode are copied step by step.

    Returns the true state and graph epoch of every iteration, the
    events by iteration, the combination matrix of every graph epoch and
    the private signal ratios of every iteration (``None`` unless
    ``config.test_mode``).
    """
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    T = config.iterations
    true_states = np.empty(T, dtype=int)
    graph_epochs = np.empty(T, dtype=int)
    events: dict[int, str] = {}
    # Epoch 0 is the run's initial matrix, also when a regenerate_graph
    # event at iteration 1 means no step runs under it.
    epochs = [combination]
    n, S = model.num_agents, model.num_states
    private = np.empty((T, n, S - 1)) if config.test_mode else None
    with (
        io.BeliefStreamWriter(out / "beliefs.npy", (T, n, S)) if out else nullcontext()
    ) as beliefs:
        steps = run_simulation(
            model,
            combination,
            config.true_state,
            config.delta,
            T,
            config.seed_signals,
            schedule=config.schedule,
            record_private=config.test_mode,
            edge_prob=config.edge_prob,
            regen_max_attempts=config.max_attempts,
            reference=config.reference,
        )
        for step in steps:
            if private is not None:
                private[step.iteration - 1] = step.signal_log_ratios
            if step.row:
                continue
            rows = slice(step.iteration - 1, step.iteration - 1 + len(step.block))
            true_states[rows] = step.true_state
            graph_epochs[rows] = step.graph_epoch
            if step.event:
                events[step.iteration] = step.event
            if step.graph_epoch == len(epochs):
                epochs.append(step.combination)
            if beliefs is not None:
                beliefs.append(step.block)
            for consume in consumers:
                consume(step.block, step.true_state, step.combination)

    if out is not None:
        if private is not None:
            with io.BeliefStreamWriter(out / "private_ratios.npy", private.shape) as w:
                w.append(private)
        for epoch, truth in enumerate(epochs):
            io.write_matrix(out / f"true_matrix_{epoch:03d}.csv", truth.weights)
            io.write_adjacency(out / f"true_adjacency_{epoch:03d}.csv", truth.adjacency)
        io.save_model(out / "model.json", model)
        io.write_trace(
            out / "trace.csv", np.arange(1, T + 1), true_states, graph_epochs, events
        )
        io.save_json(out / "manifest.json", {
            "format": MANIFEST_FORMAT,
            "config": config.to_dict(),
        })
    return true_states, graph_epochs, events, epochs, private


def mode_result(
    learned: LearnResult,
    final_combination: CombinationMatrix | None,
    config: ExperimentConfig,
    out: Path | None,
) -> ModeResult:
    """Classify a learned estimate as ``config`` says and score it.

    Edge accuracy is taken against ``final_combination``, the graph in
    force at the end of the stream, and is ``None`` without it or when
    the classification finds no separation. With ``out`` set, the
    learned matrix and its classification are written there.
    """
    classified = None
    classify_error = None
    edge_accuracy = None
    try:
        classified = classify_edges(
            learned.estimate, config.classify_method, config.classify_threshold
        )
    except NoSeparationError as err:
        classify_error = str(err)
    else:
        if final_combination is not None:
            edge_accuracy = float((classified == final_combination.adjacency).mean())
    if out is not None:
        io.write_matrix(out / f"learned_matrix_{learned.mode}.csv", learned.estimate)
        if classified is not None:
            io.write_adjacency(
                out / f"classified_adjacency_{learned.mode}.csv", classified
            )
    return ModeResult(
        **vars(learned),
        steady_state_msd=steady_state_mean(learned.msd),
        final_msd=float(learned.msd[-1]),
        classified=classified,
        edge_accuracy=edge_accuracy,
        classify_error=classify_error,
    )


def write_report(
    out: Path, modes: dict[str, ModeResult], events: dict[int, str], **extra
) -> None:
    """Write ``msd.csv``, the modes with a finite deviation marked with
    ``events`` (iteration to name), and ``summary.json``, each mode's
    :meth:`ModeResult.summary` under ``"modes"`` plus ``extra``."""
    deviations = {m: r.msd for m, r in modes.items() if np.isfinite(r.msd).any()}
    if deviations:
        T = len(next(iter(deviations.values())))
        io.write_msd_table(out / "msd.csv", np.arange(1, T + 1), deviations, events)
    io.save_json(out / "summary.json", {
        **extra, "modes": {m: r.summary() for m, r in modes.items()},
    })


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Generate, simulate, learn and persist one full experiment.

    The observer variants see only the shared belief stream and the
    likelihood model; private signals are recorded (to the ratio stream
    file and for the steady-state diagnostics) only when
    ``config.test_mode`` is set.
    """
    config.validate()
    out = Path(config.out) if config.out else None
    combination, model, graph_attempts = _generate(config)

    learners = ModeLearners(model, config.mu, config.delta, config.mode,
                            config.reference)
    consumers = [learners.consume]
    blocks: list[np.ndarray] = []
    if config.test_mode:
        consumers.append(lambda block, *_: blocks.append(block))
    true_states, graph_epochs, events, epochs, private = _simulate(
        config, combination, model, out, consumers
    )
    final_combination = epochs[-1]
    # The zero estimate's deviation at step 1, from the matrix in force
    # there: epoch 1 after a regenerate_graph event at iteration 1.
    initial_msd = float(np.sum(epochs[graph_epochs[0]].weights**2))

    diagnostics = None
    if private is not None:
        # The stationary stretch runs from the last event on.
        first = max(1, config.schedule.last_iteration()) - 1
        expected = mean_likelihood_matrix(
            model, int(true_states[-1]), config.reference
        )
        try:
            diagnostics = steady_state_diagnostics(
                belief_log_ratios(np.concatenate(blocks)[first:], config.reference),
                private[first:],
                expected,
                config.mu,
                config.delta,
            )
        except ValueError:
            diagnostics = None  # run too short for moment estimates

    mode_results = {
        mode: mode_result(learned, final_combination, config, out)
        for mode, learned in learners.results().items()
    }
    result = ExperimentResult(
        config=config,
        model=model,
        combination=combination,
        final_combination=final_combination,
        initial_msd=initial_msd,
        graph_attempts=graph_attempts,
        modes=mode_results,
        true_states=true_states,
        graph_epochs=graph_epochs,
        diagnostics=diagnostics,
        out_dir=out,
    )

    if out is not None:
        write_report(
            out, mode_results, events,
            initial_msd=initial_msd,
            graph_attempts=graph_attempts,
            divergent=result.divergent,
            vote_match_rate=result.vote_match_rate,
            diagnostics=_diagnostics_payload(diagnostics),
        )

    return result


def run_forward(config: ExperimentConfig) -> Path:
    """Run and persist the forward simulation only.

    Writes the manifest, the likelihood model, the true matrices per
    graph epoch, the public belief stream and the ground-truth trace
    (plus the private ratio stream in test mode) to ``config.out``,
    which is required here. Returns the output directory.
    """
    config.validate()
    if not config.out:
        raise ConfigError("a forward run needs an output directory")
    out = Path(config.out)
    combination, model, _ = _generate(config)
    _simulate(config, combination, model, out)
    return out


def sweep(
    config: ExperimentConfig,
    mu_values=None,
    delta_values=None,
) -> list[dict]:
    """Run one experiment per grid point over ``mu`` and/or ``delta``.

    Each grid point reruns the base configuration, in memory, with the
    substituted parameters; the steady-state deviation is the mean over
    the final tenth of each trajectory. Rows come back sorted by
    (mu, delta, mode) and are written to ``sweep.csv`` under the base
    configuration's output directory, when one is set.

    Every grid point is validated before any runs; an invalid one raises
    :class:`ConfigError`, a failure while running a valid one
    ``RuntimeError``, each with the point named. Divergent runs are
    flagged in their row, not raised.
    """
    config.validate()
    mu_list = (
        [config.mu] if mu_values is None
        else sorted(set(float(m) for m in mu_values))
    )
    delta_list = (
        [config.delta] if delta_values is None
        else sorted(set(float(d) for d in delta_values))
    )
    if not mu_list or not delta_list:
        raise ConfigError("the sweep grid is empty")

    points = [
        replace(config, mu=mu, delta=delta, out=None)
        for mu in mu_list for delta in delta_list
    ]
    for point in points:
        try:
            point.validate()
        except ConfigError as err:
            raise ConfigError(
                f"grid point mu={point.mu}, delta={point.delta}: {err}"
            ) from err

    rows: list[dict] = []
    for point in points:
        try:
            result = run_experiment(point)
        except Exception as err:
            raise RuntimeError(
                f"grid point mu={point.mu}, delta={point.delta} failed: {err}"
            ) from err
        for mode in sorted(result.modes):
            mres = result.modes[mode]
            rows.append({
                "mu": point.mu,
                "delta": point.delta,
                "mode": mode,
                "steady_state_msd": mres.steady_state_msd,
                "divergent": mres.diverged_at is not None,
            })

    if config.out:
        out = Path(config.out)
        out.mkdir(parents=True, exist_ok=True)
        lines = ["mu,delta,mode,steady_state_msd,divergent"]
        for row in rows:
            lines.append(
                f"{row['mu']:.17g},{row['delta']:.17g},{row['mode']},"
                f"{row['steady_state_msd']:.17g},{int(row['divergent'])}"
            )
        (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    return rows
