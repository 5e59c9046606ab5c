"""Helpers shared by several test modules: readers, lookups and oracles
that no package code calls, kept beside the tests that use them."""

import numpy as np

from beliefgraph.estimator import GraphLearner, majority_vote
from beliefgraph.io import MSD_HEADER
from beliefgraph.model import GenerationError, LikelihoodModel, _floor_column


def log_likelihood_ratio_matrix(model, signals, reference: int = 0) -> np.ndarray:
    """Log-likelihood ratios of one signal per agent against the
    reference state.

    Entry ``(k, j)`` is ``log L_k(signal_k | reference) -
    log L_k(signal_k | other_j)`` with the non-reference states
    enumerated ascending: the agents' rows of
    :meth:`LikelihoodModel.signal_log_ratio_table`.
    """
    table = model.signal_log_ratio_table(reference)
    signals = np.asarray(signals, dtype=int)
    if signals.shape != (model.num_agents,):
        raise ValueError("one signal per agent is required")
    outside = (signals < 0) | (signals >= np.array(model.signal_sizes))
    if outside.any():
        bad = int(np.argmax(outside))
        raise ValueError(f"signal {signals[bad]} outside the space of agent {bad}")
    return table[np.arange(model.num_agents), signals]


def read_msd_table(path) -> dict[str, np.ndarray]:
    """Load the deviation trajectories of ``msd.csv`` keyed by mode; also
    returns the iteration axis under the key ``"iteration"``."""
    by_mode: dict[str, list[float]] = {}
    iterations: dict[str, list[int]] = {}
    with open(path) as fh:
        header = fh.readline().strip()
        if header != MSD_HEADER:
            raise ValueError("unrecognized deviation table header")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            i, value, mode, _ = line.split(",")
            by_mode.setdefault(mode, []).append(float(value))
            iterations.setdefault(mode, []).append(int(i))
    out = {mode: np.array(vals) for mode, vals in by_mode.items()}
    first = next(iter(iterations.values()), [])
    out["iteration"] = np.array(first, dtype=int)
    return out


def per_row_adjacency(adjacency) -> str:
    """The text of an adjacency file, one join per row: the oracle of
    :func:`beliefgraph.io.write_adjacency`."""
    lines = [",".join("1" if x else "0" for x in row)
             for row in np.asarray(adjacency, dtype=bool)]
    return "\n".join(lines) + "\n"


def independent_learners(blocks, model, mu, delta, reference: int = 0) -> dict:
    """The known-mode and estimated-mode results of two learners that
    each consume every ``(block, true_state, combination)`` triple on
    their own, the estimated one on ``majority_vote(block)``, by mode:
    the oracle of the learners of a ``both`` run
    (``estimator.ModeLearners``)."""
    results = {}
    for mode in ("known", "estimated"):
        learner = GraphLearner(model, mu, delta, mode, reference)
        votes = []
        for block, true_state, combination in blocks:
            votes.append(majority_vote(block))
            states = [true_state] if mode == "known" else votes[-1][None]
            learner.consume(block[None], states,
                            None if combination is None else [combination])
        results[mode] = learner.result()[0]
    results["estimated"].votes = np.concatenate(votes)
    return results


def log_normalize(rows: np.ndarray, axis: int = -1) -> np.ndarray:
    """Subtract from each row (along ``axis``) of an array its log-sum-exp.

    The sum runs over ``exp(rows - row max)``, so it lies in
    ``[1, num_columns]`` and neither overflows nor underflows, and the
    result is formed as ``(rows - max) - log(sum)``: the shift is exact
    for the entries that carry the mass, which keeps each output row
    normalized to rounding even when the input sits far from zero. The
    forward pass normalizes its chunks with these operations, in this
    order, in place.
    """
    shifted = rows - rows.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def per_column_likelihoods(num_agents, num_states, signal_sizes, seed,
                           floor=0.01, kl_floor=1e-3, max_attempts=1000):
    """:func:`beliefgraph.model.random_likelihoods` one agent and one
    column at a time: a ``(size, num_states)`` draw per agent, normalized
    on its own, and every column clamped by ``_floor_column``. The
    oracle of the generator, which works on all agents at once."""
    sizes = ([int(signal_sizes)] * num_agents if np.isscalar(signal_sizes)
             else [int(z) for z in signal_sizes])
    rng = np.random.default_rng(seed)
    off_diagonal = ~np.eye(num_states, dtype=bool)
    for _ in range(max_attempts):
        tables = []
        for size in sizes:
            t = rng.random((size, num_states))
            t /= t.sum(axis=0, keepdims=True)
            for s in range(num_states):
                t[:, s] = _floor_column(t[:, s], floor)
            tables.append(t)
        model = LikelihoodModel(tables, floor)
        if (model.identifiability_gap()[off_diagonal] > kl_floor).all():
            return model
    raise GenerationError("identifiability gap not reached")


def per_agent_stacks(model) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``LikelihoodModel._stacks`` filled one agent at a time: the
    oracle of the array form."""
    n, z_max = model.num_agents, max(model.signal_sizes)
    cdf = np.full((model.num_states, z_max, n), np.inf)
    probs = np.zeros((n, z_max, model.num_states))
    logs = np.zeros((n, z_max, model.num_states))
    for k, t in enumerate(model.tables):
        cdf[:, : t.shape[0] - 1, k] = np.cumsum(t[:-1], axis=0).T
        probs[k, : t.shape[0]] = t
        logs[k, : t.shape[0]] = np.log(t)
    return cdf, probs, logs
