"""Forward simulation of the adaptive social learning protocol.

Each iteration every agent (1) tilts its belief towards the likelihood
of its private signal, controlled by the step size ``delta``, and
(2) replaces its belief with the weighted geometric mean of its
neighbours' shared beliefs. The shared (post-adapt, pre-combine)
beliefs are the public output of a run; signals stay private unless a
run explicitly records them for validation.

All belief arithmetic is carried out on log-probabilities with
max-shifted log-sum-exp normalization, so long runs neither underflow
nor drift.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import (
    CombinationMatrix,
    LikelihoodModel,
    erdos_renyi_adjacency,
    log_likelihood_ratio_matrix,
    random_combination_matrix,
)

__all__ = [
    "Event",
    "EventSchedule",
    "SimulationStep",
    "sample_observations",
    "adapt_step",
    "combine_step",
    "state_estimates",
    "run_simulation",
    "check_log_beliefs",
]

SET_TRUE_STATE = "set_true_state"
REGENERATE_GRAPH = "regenerate_graph"

ROW_SUM_TOL = 1e-10


@dataclass(frozen=True)
class Event:
    """A timed change applied before the adapt step of ``iteration``.

    ``action`` is either ``"set_true_state"`` (``value`` is the new
    hypothesis index) or ``"regenerate_graph"`` (``value`` seeds the
    fresh adjacency and weight draw).
    """

    iteration: int
    action: str
    value: int

    def __post_init__(self):
        if self.action not in (SET_TRUE_STATE, REGENERATE_GRAPH):
            raise ValueError(f"unknown event action {self.action!r}")
        if self.iteration < 1:
            raise ValueError("events start at iteration 1")


@dataclass(frozen=True)
class EventSchedule:
    """Ordered timed events; at most one event per iteration."""

    events: tuple[Event, ...] = ()

    def __post_init__(self):
        events = tuple(self.events)
        iterations = [e.iteration for e in events]
        if any(b <= a for a, b in zip(iterations, iterations[1:])):
            raise ValueError("event iterations must be strictly increasing")
        object.__setattr__(self, "events", events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def last_iteration(self) -> int:
        return self.events[-1].iteration if self.events else 0


@dataclass
class SimulationStep:
    """Public snapshot of one iteration plus its ground truth.

    ``shared_log_beliefs`` (the public quantity) has shape
    ``(num_agents, num_states)``; each row is a normalized
    log-probability vector. ``combination`` is the matrix in force for
    this iteration's combine stage, ``graph_epoch`` counts graph
    regenerations, and ``signal_log_ratios`` is populated only when the
    run records private data for validation.
    """

    iteration: int
    shared_log_beliefs: np.ndarray
    true_state: int | None = None
    graph_epoch: int = 0
    combination: CombinationMatrix | None = None
    event: str | None = None
    signal_log_ratios: np.ndarray | None = field(default=None, repr=False)


def _log_normalize(rows: np.ndarray) -> np.ndarray:
    """Subtract from each row (the last axis) of an array its log-sum-exp.

    The sum runs over ``exp(rows - row max)``, so it lies in
    ``[1, num_columns]`` and neither overflows nor underflows, and the
    result is formed as ``(rows - max) - log(sum)``: the shift is exact
    for the entries that carry the mass, which keeps each output row
    normalized to rounding even when the input sits far from zero.
    """
    shifted = rows - rows.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def check_log_beliefs(log_beliefs: np.ndarray, tol: float = ROW_SUM_TOL) -> None:
    """Raise if any row fails to be a finite normalized log-distribution."""
    log_beliefs = np.asarray(log_beliefs, dtype=float)
    if not np.isfinite(log_beliefs).all():
        raise ValueError("log-beliefs must be finite")
    # Normalizing a row moves every entry by the row's log-sum-exp.
    residual = np.abs(log_beliefs - _log_normalize(log_beliefs))
    if residual.max() > tol:
        raise ValueError(f"belief rows not normalized (residual {residual.max():.2e})")


def sample_observations(
    model: LikelihoodModel, true_state: int, rng: np.random.Generator
) -> np.ndarray:
    """One private signal per agent, drawn under ``true_state``.

    Consumes exactly ``num_agents`` uniforms from ``rng``, so a signal
    stream is a pure function of the generator state.
    """
    cdf = model.sampling_cdf(true_state)
    u = rng.random(model.num_agents)
    return (cdf < u).sum(axis=0, dtype=np.intp)


def adapt_step(
    log_beliefs: np.ndarray,
    signals: np.ndarray,
    model: LikelihoodModel,
    delta: float,
) -> np.ndarray:
    """Tilt each agent's belief towards its signal's likelihood.

    Row ``k`` of the result is the normalization of
    ``delta * log L_k(signal_k | .) + (1 - delta) * log_beliefs[k]``.
    ``delta`` must lie in ``(0, 1)``; the value 1 (pure likelihood) is
    accepted for testing.
    """
    if not 0 < delta <= 1:
        raise ValueError("delta must be in (0, 1]")
    log_lik = model.signal_log_likelihoods(signals)
    return _log_normalize(delta * log_lik + (1.0 - delta) * np.asarray(log_beliefs))


def combine_step(
    shared_log_beliefs: np.ndarray, combination: CombinationMatrix
) -> np.ndarray:
    """Weighted geometric mean of neighbours' shared beliefs.

    Row ``k`` of the result is the normalization of
    ``sum_l A[l, k] * shared_log_beliefs[l]``.
    """
    shared_log_beliefs = np.asarray(shared_log_beliefs)
    if shared_log_beliefs.shape[0] != combination.size:
        raise ValueError("belief rows do not match the combination matrix")
    return _log_normalize(combination.weights.T @ shared_log_beliefs)


def state_estimates(log_beliefs: np.ndarray):
    """Per-agent most believed hypothesis; ties go to the lowest index.

    Accepts a single belief row (returns an ``int``) or a matrix
    (returns one index per row).
    """
    log_beliefs = np.asarray(log_beliefs)
    if log_beliefs.ndim == 1:
        return int(np.argmax(log_beliefs))
    return np.argmax(log_beliefs, axis=1)


def _apply_event(event, model, edge_prob, regen_max_attempts, state):
    if event.action == SET_TRUE_STATE:
        if not 0 <= event.value < model.num_states:
            raise ValueError(f"event state {event.value} out of range")
        state["true_state"] = event.value
    else:
        if edge_prob is None:
            raise ValueError(
                "a regenerate_graph event needs edge_prob to be given"
            )
        rng = np.random.default_rng(event.value)
        adjacency, _ = erdos_renyi_adjacency(
            model.num_agents, edge_prob, rng, regen_max_attempts
        )
        state["combination"] = random_combination_matrix(adjacency, rng)
        state["graph_epoch"] += 1


def run_simulation(
    model: LikelihoodModel,
    combination: CombinationMatrix,
    true_state: int,
    delta: float,
    num_iterations: int,
    seed,
    schedule: EventSchedule | None = None,
    record_private: bool = False,
    edge_prob: float | None = None,
    regen_max_attempts: int = 1000,
    reference: int = 0,
):
    """Run the learning protocol, yielding one step per iteration.

    Agents start from uniform beliefs. Each iteration applies any due
    event, draws one signal per agent under the current true state,
    adapts, yields the shared beliefs, then combines. Private signal
    log-ratios (against ``reference``) are attached to the steps only
    when ``record_private`` is set.

    A regenerated graph keeps the run's ``edge_prob`` and draws both
    the new adjacency and its weights from a generator seeded by the
    event's value.

    Yields
    ------
    SimulationStep
        Iterations are numbered ``1..num_iterations``. The step's
        ``combination`` is the matrix used by this iteration's combine
        stage; consecutive shared beliefs are therefore related through
        the matrix of the *previous* step.
    """
    if num_iterations < 0:
        raise ValueError("num_iterations must be nonnegative")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    if not 0 <= true_state < model.num_states:
        raise ValueError("true_state out of range")
    if combination.size != model.num_agents:
        raise ValueError("combination matrix does not match the model")
    schedule = schedule or EventSchedule()
    if schedule.last_iteration() > num_iterations:
        raise ValueError("schedule event beyond the end of the run")

    rng = np.random.default_rng(seed)
    pending = list(schedule)
    state = {
        "true_state": int(true_state),
        "combination": combination,
        "graph_epoch": 0,
    }
    log_beliefs = np.full(
        (model.num_agents, model.num_states), -np.log(model.num_states)
    )

    for i in range(1, num_iterations + 1):
        event_name = None
        if pending and pending[0].iteration == i:
            event = pending.pop(0)
            _apply_event(event, model, edge_prob, regen_max_attempts, state)
            event_name = event.action
        signals = sample_observations(model, state["true_state"], rng)
        shared = adapt_step(log_beliefs, signals, model, delta)
        private = None
        if record_private:
            private = log_likelihood_ratio_matrix(model, signals, reference)
        yield SimulationStep(
            iteration=i,
            shared_log_beliefs=shared,
            true_state=state["true_state"],
            graph_epoch=state["graph_epoch"],
            combination=state["combination"],
            event=event_name,
            signal_log_ratios=private,
        )
        log_beliefs = combine_step(shared, state["combination"])
