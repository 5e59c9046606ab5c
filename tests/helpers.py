"""Helpers shared by several test modules: readers and lookups that no
package code calls, kept beside the tests that use them."""

import numpy as np

from beliefgraph.estimator import GraphLearner
from beliefgraph.io import MSD_HEADER


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


def independent_learners(blocks, model, mu, delta, reference: int = 0) -> dict:
    """The known-mode and estimated-mode results of two learners that
    each consume every ``(block, true_state, combination)`` triple on
    their own, by mode: the oracle of an estimated learner that follows
    a known one."""
    results = {}
    for mode in ("known", "estimated"):
        learner = GraphLearner(model, mu, delta, mode, reference)
        for block, true_state, combination in blocks:
            learner.consume(block, true_state, combination)
        results[mode] = learner.result()
    return results
