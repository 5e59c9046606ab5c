"""Forward simulation of the adaptive social learning protocol.

Each iteration every agent (1) tilts its belief towards the likelihood
of its private signal, controlled by the step size ``delta``, and
(2) replaces its belief with the weighted geometric mean of its
neighbours' shared beliefs. The shared (post-adapt, pre-combine)
beliefs are the public output of a run; signals stay private unless a
run explicitly records them for validation.

The forward state is carried in log-ratio coordinates: ``lam[k, j] =
log b_k(0) - log b_k(j + 1)``, each agent's belief in state 0 against
every other state. There both stages are linear and need no
normalization, ``lam_i = (1 - delta) A^T lam_{i-1} + delta x_i`` with
``x_i`` the signals' log-likelihood ratios. A run steps this recursion
in chunks of at most ``CHUNK_STEPS`` iterations that end before every
event, and forms the normalized shared log-beliefs ``[0, -lam]`` of a
whole chunk at once with one max-shifted log-sum-exp.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

from .model import (
    CombinationMatrix,
    LikelihoodModel,
    erdos_renyi_adjacency,
    random_combination_matrix,
)

__all__ = [
    "Event",
    "EventSchedule",
    "SimulationStep",
    "sample_observations",
    "adapt_step",
    "combine_step",
    "run_simulation",
]

SET_TRUE_STATE = "set_true_state"
REGENERATE_GRAPH = "regenerate_graph"

# Iterations stepped per chunk at most. Each chunk pays a fixed set of
# about 60 small numpy calls: the draw, the gather and the log-sum-exp
# here, the run loop's bookkeeping and the learners' vote, log-ratios
# and targets. Timed in-process on the 30-agent reference run (2-vCPU
# Xeon), 256 steps take 0.91x the time per iteration of 64 steps, 512
# steps 0.94x and 1024 steps 0.98x, as the chunk's arrays (n x S
# doubles a step, 246 KB for 256 steps at 30 agents and 4 states) grow.
CHUNK_STEPS = 256


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
        for a, b in zip(events, events[1:]):
            if b.iteration == a.iteration:
                raise ValueError(f"two events at iteration {a.iteration}; at most one "
                                 f"event per iteration")
            if b.iteration < a.iteration:
                raise ValueError("event iterations must be strictly increasing")
        object.__setattr__(self, "events", events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def last_iteration(self) -> int:
        return self.events[-1].iteration if self.events else 0


@dataclass(slots=True)
class SimulationStep:
    """Public snapshot of one iteration plus its ground truth.

    A step is row ``row`` of its chunk: ``block`` is the read-only
    ``(steps, num_agents, num_states)`` array of the chunk's consecutive
    shared log-beliefs, and ``shared_log_beliefs`` (the public quantity)
    is its read-only row view ``block[row]``, each row a normalized
    log-probability vector. ``private_block`` is the chunk's read-only
    ``(steps, num_agents, num_states - 1)`` private signal log-ratios,
    set only when the run records private data for validation, and
    ``signal_log_ratios`` its row view (else ``None``). Both views are
    derived on access, so a step stores no array of its own.

    ``combination`` is the matrix in force for this iteration's combine
    stage and ``graph_epoch`` counts graph regenerations. All steps of a
    chunk share one true state, matrix and graph epoch; only row 0 can
    carry an event. :func:`run_simulation` passes the fields by
    position, in the order below.
    """

    iteration: int
    block: np.ndarray = field(repr=False)
    row: int = 0
    true_state: int | None = None
    graph_epoch: int = 0
    combination: CombinationMatrix | None = None
    event: str | None = None
    private_block: np.ndarray | None = field(default=None, repr=False)

    @property
    def shared_log_beliefs(self) -> np.ndarray:
        return self.block[self.row]

    @property
    def signal_log_ratios(self) -> np.ndarray | None:
        return None if self.private_block is None else self.private_block[self.row]


def _ratio_log_beliefs(ratios: np.ndarray) -> np.ndarray:
    """Normalized log-beliefs of log-ratios against state 0: the
    log-sum-exp normalization of ``[0, -ratios]`` along the last axis,
    which gains one column. The result is C-contiguous.

    Each row is shifted by its max and then less the log of its sum of
    ``exp``: that sum lies in ``[1, num_states]``, so it neither
    overflows nor underflows, and the shift is exact for the entries
    that carry the mass, which keeps each row normalized to rounding
    even when the ratios sit far from zero.
    """
    # Normalized with the states as the leading axis of a C-order stack:
    # numpy reduces over a short last axis row by row but over a leading
    # axis slab by slab, which is several times faster for a chunk. The
    # slabs are added in state order; the bits of the sum depend on it.
    # The other axes are transposed, which changes no bit.
    stacked = np.empty((ratios.shape[-1] + 1,) + ratios.shape[-2::-1])
    stacked[0] = 0.0
    np.negative(ratios.T, out=stacked[1:])
    stacked -= stacked.max(axis=0, keepdims=True)
    total = np.exp(stacked).sum(axis=0, keepdims=True)
    np.log(total, out=total)
    log_beliefs = np.empty(ratios.shape[:-1] + (len(stacked),))
    np.subtract(stacked, total, out=log_beliefs.T)
    return log_beliefs


def sample_observations(
    model: LikelihoodModel,
    true_state: int,
    rng: np.random.Generator,
    steps: int | None = None,
) -> np.ndarray:
    """One private signal per agent, drawn under ``true_state``; with
    ``steps``, a ``(steps, num_agents)`` array, one row per iteration.

    Consumes exactly ``num_agents`` uniforms per iteration from ``rng``,
    in iteration order, so a signal stream is a pure function of the
    generator state, whether it is drawn one iteration at a time or
    several at once.
    """
    cdf = model.sampling_cdf(true_state)
    if steps is None:
        return (cdf < rng.random(model.num_agents)).sum(axis=0, dtype=np.intp)
    return (cdf[:, None] < rng.random((steps, model.num_agents))).sum(
        axis=0, dtype=np.intp
    )


def adapt_step(
    ratios: np.ndarray, weighted_signal_ratios: np.ndarray, delta: float
) -> np.ndarray:
    """Tilt each agent's belief towards its signal's likelihood, in
    log-ratio coordinates.

    Returns ``(1 - delta) * ratios + weighted_signal_ratios``, where
    ``weighted_signal_ratios`` is ``delta * x``, the private signals'
    log-likelihood ratios already scaled by ``delta`` (a run scales a
    whole chunk at once). This is the ratio form of normalizing
    ``delta * log L_k(signal_k | .) + (1 - delta) * log b_k``. ``delta``
    must lie in ``(0, 1)``; the value 1 (pure likelihood) is accepted
    for testing.

    This is the one-step form of the chunk loop of
    :func:`run_simulation`, which writes the same operations into each
    row of its chunk in place, with the same bits.
    """
    if not 0 < delta <= 1:
        raise ValueError("delta must be in (0, 1]")
    return (1.0 - delta) * ratios + weighted_signal_ratios


def combine_step(ratios: np.ndarray, combination: CombinationMatrix) -> np.ndarray:
    """Weighted geometric mean of neighbours' shared beliefs, in
    log-ratio coordinates: ``A^T @ ratios``.

    Row ``k`` of the result is ``sum_l A[l, k] * ratios[l]``; the
    columns of ``A`` sum to one, so no normalization is needed.
    """
    transposed = combination._transposed
    if len(ratios) != len(transposed):
        raise ValueError("ratio rows do not match the combination matrix")
    # ndarray.dot is the same BLAS call as @, without matmul's dispatch
    return transposed.dot(ratios)


def _apply_event(event, model, edge_prob, regen_max_attempts, true_state, combination):
    """The true state and combination matrix in force after ``event``."""
    if event.action == SET_TRUE_STATE:
        if not 0 <= event.value < model.num_states:
            raise ValueError(f"event state {event.value} out of range")
        return event.value, combination
    if edge_prob is None:
        raise ValueError("a regenerate_graph event needs edge_prob to be given")
    rng = np.random.default_rng(event.value)
    adjacency, _ = erdos_renyi_adjacency(
        model.num_agents, edge_prob, rng, regen_max_attempts
    )
    return true_state, random_combination_matrix(adjacency, rng)


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

    The iterations are computed in chunks (see the module docstring)
    and yielded one by one; a chunk's steps share one read-only
    log-belief block, and in test mode one read-only private block,
    each step with its own ``row``, so copy a step's beliefs before
    changing them. A chunk ends before every event, so its steps share
    one true state, combination matrix and graph epoch: the row-0 steps'
    ``(block, true_state, combination)`` describe the whole run, and
    their ``private_block`` its private stream.

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
    n = model.num_agents
    # The ratio tables flattened to one row per (agent, signal): a chunk's
    # signal ratios are one take of rows agent * max signal size + signal.
    forward_table = model.signal_log_ratio_table(0)
    agent_rows = np.arange(n) * forward_table.shape[1]
    forward_table = forward_table.reshape(-1, model.num_states - 1)
    private_table = (
        model.signal_log_ratio_table(reference).reshape(forward_table.shape)
        if record_private else None
    )
    pending = list(schedule)
    true_state, epoch = int(true_state), 0
    ratios = np.zeros((n, model.num_states - 1))  # uniform beliefs
    # A 0-d array scales on numpy's fast path; a Python float does not.
    keep = np.array(1.0 - delta)

    first = 1
    while first <= num_iterations:
        event_name = None
        if pending and pending[0].iteration == first:
            event = pending.pop(0)
            true_state, combination = _apply_event(
                event, model, edge_prob, regen_max_attempts, true_state, combination
            )
            if event.action == REGENERATE_GRAPH:
                epoch += 1
            event_name = event.action
        stop = min(first + CHUNK_STEPS, num_iterations + 1)
        if pending:
            stop = min(stop, pending[0].iteration)
        signals = sample_observations(model, true_state, rng, stop - first)
        rows = agent_rows + signals
        # The chunk's weighted signal ratios, each row then stepped in
        # place: adapt_step's operations (its sum's operands swapped,
        # which changes no bit) on the ratios, which each combine_step
        # returns as a fresh array.
        lam = forward_table.take(rows, axis=0)
        lam *= delta
        for row in lam:
            ratios *= keep
            row += ratios
            ratios = combine_step(row, combination)
        # Every step of the chunk reads its rows of these two blocks.
        log_beliefs = _ratio_log_beliefs(lam)
        log_beliefs.flags.writeable = False
        private = None
        if record_private:
            private = private_table.take(rows, axis=0)
            private.flags.writeable = False
        # Only row 0 carries the event.
        yield from map(
            SimulationStep, range(first, stop), repeat(log_beliefs),
            range(stop - first), repeat(true_state), repeat(epoch),
            repeat(combination), chain((event_name,), repeat(None)), repeat(private),
        )
        first = stop
