"""Online recovery of the combination matrix from shared beliefs.

Writing ``lam_i`` for the matrix of log-ratios of the shared beliefs
against a reference hypothesis and ``lbar_i`` for the expected
log-likelihood ratio matrix, consecutive snapshots of the forward
protocol satisfy a linear recursion in the (unknown, transposed)
combination matrix. The estimator runs stochastic gradient descent on
the instantaneous squared residual of that recursion,

    Q(A) = 0.5 * || lam_i - (1-delta) A^T lam_{i-1} - delta lbar_i ||_F^2,

one update per received snapshot. The expected ratios require the true
hypothesis, which is either supplied (``known`` mode) or estimated from
the same snapshot by a majority vote (``estimated`` mode).
"""

from __future__ import annotations

import copy
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .model import CombinationMatrix, LikelihoodModel, mean_likelihood_matrix

__all__ = [
    "NoSeparationError",
    "belief_log_ratios",
    "majority_vote",
    "gradient_step",
    "GraphLearner",
    "LearnResult",
    "ModeLearners",
    "learn_graph",
    "msd",
    "classify_edges",
    "two_means_split",
    "SteadyStateDiagnostics",
    "steady_state_diagnostics",
]

# Estimates this far outside the stochastic-matrix range carry no
# information any more; the learner freezes and flags divergence.
DIVERGENCE_LIMIT = 1e6

# Rows a learner steps before it settles them (see GraphLearner.consume).
# Its scratch buffer holds one K x n^2 update per row, 7.2 KB for one
# trajectory at 30 agents, so 64 rows keep it at 460 KB. It is not the
# simulator's chunk length: on the reference run, a 256-row settle run
# measured no faster than 64 rows and peaked 1.4 MB higher.
SETTLE_STEPS = 64

# The rounds of the two-means split, and the share of each sample stack
# the steady-state diagnostics discard as burn-in and the fewest samples
# they estimate moments from after it.
_TWO_MEANS_ITERATIONS = 100
_BURN_IN_FRACTION = 0.2
_MIN_SAMPLES = 1000

KNOWN = "known"
ESTIMATED = "estimated"
BOTH = "both"


class NoSeparationError(RuntimeError):
    """Two-cluster edge classification found no separation."""


def belief_log_ratios(shared_log_beliefs: np.ndarray, reference: int = 0,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Log-ratios of each agent's shared belief against the reference
    hypothesis, shape ``(num_agents, num_states - 1)``; for a stack of
    snapshots ``(..., num_agents, num_states)``, one such matrix per
    snapshot. Written into ``out``, of that shape, when given.

    Entry ``(k, j)`` is ``log b_k(reference) - log b_k(other_j)`` with
    the non-reference hypotheses enumerated ascending. This is the
    observer's state variable; it is computable from public data alone.
    """
    shared_log_beliefs = np.asarray(shared_log_beliefs)
    num_states = shared_log_beliefs.shape[-1]
    if not 0 <= reference < num_states:
        raise ValueError(f"reference state {reference} out of range")
    if out is None:
        out = np.empty(shared_log_beliefs.shape[:-1] + (num_states - 1,))
    # The states before the reference, then the states after it, on views
    # with the agents last: the learner's buffer holds them so, and numpy
    # then runs its inner loop along them.
    beliefs, ratios = shared_log_beliefs.swapaxes(-1, -2), out.swapaxes(-1, -2)
    kept = beliefs[..., reference:reference + 1, :]
    np.subtract(kept, beliefs[..., :reference, :], out=ratios[..., :reference, :])
    np.subtract(kept, beliefs[..., reference + 1:, :], out=ratios[..., reference:, :])
    return out


def majority_vote(shared_log_beliefs: np.ndarray) -> int | np.ndarray:
    """Network-level hypothesis estimate: the most common per-agent
    argmax. Ties, per agent and across agents, go to the lowest index.

    A ``(num_agents, num_states)`` snapshot gives an ``int``; a stack
    ``(..., num_agents, num_states)`` gives one vote per snapshot, of
    the stack's leading shape.

    A stack's last snapshot is counted first; a learner's blocks end
    before every event, so it is the most settled one. Its vote c is
    then checked on the other snapshots: an agent believes c first, as
    ``np.argmax`` picks it, when its belief in c is above its belief in
    every lower state and at least its belief in every higher one; a
    NaN fails its comparison. A state that more than half the agents
    pick is the only most common one, so a snapshot in which more than
    half of them believe c first votes for c, and only the other
    snapshots are counted.
    """
    beliefs = np.asarray(shared_log_beliefs)
    stack = beliefs.reshape((-1,) + beliefs.shape[-2:])
    votes = _counted_votes(stack[-1:])
    if len(stack) > 1:
        (_, n, num_states), candidate = stack.shape, int(votes[0])
        others = stack[:-1]
        kept, picked = others[..., candidate], None
        for other in range(num_states):
            if other != candidate:
                beats = (np.greater if other < candidate else np.greater_equal)(
                    kept, others[..., other])
                picked = beats if picked is None else np.logical_and(picked, beats,
                                                                     out=picked)
        votes = np.full(len(stack), candidate, dtype=np.intp)
        # A stack whose agents all pick the candidate, the usual case once
        # a run has settled, needs no count. Otherwise one product counts
        # each snapshot: numpy sums a short last axis row by row, 3x slower
        # at 30 agents.
        if picked is not None and not picked.all():
            lost = picked.dot(np.ones(n)) <= n / 2
            if lost.any():
                votes[:-1][lost] = _counted_votes(others[lost])
    return int(votes[0]) if beliefs.ndim == 2 else votes.reshape(beliefs.shape[:-2])


def _counted_votes(stack: np.ndarray) -> np.ndarray:
    """The most common per-agent argmax of each snapshot of a
    ``(steps, num_agents, num_states)`` stack, by one bincount over the
    whole stack: snapshot t counts into bins t * num_states ...
    t * num_states + num_states - 1."""
    steps, _, num_states = stack.shape
    per_agent = np.argmax(stack, axis=-1)
    per_agent += np.arange(0, steps * num_states, num_states)[:, None]
    counts = np.bincount(per_agent.ravel(), minlength=steps * num_states)
    return np.argmax(counts.reshape(steps, num_states), axis=1)


def gradient_step(
    estimate: np.ndarray,
    regressors: np.ndarray,
    targets: np.ndarray,
    mu: float,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """One stochastic-gradient update of the combination-matrix estimate,
    in regression form, written into ``out`` when given: a C-contiguous
    float array of the estimate's shape that is not the estimate.

    The ratio recursion is the linear regression ``Z = A^T Phi + noise``
    with regressors ``Phi = (1 - delta) lam_{i-1}`` and targets
    ``Z = lam_i - delta lbar_i``, so the loss ``Q`` of the module
    docstring is ``0.5 * ||Z - A^T Phi||_F^2``. Both are passed agents
    last, ``regressors = Phi^T`` and ``targets = Z^T``, each of shape
    ``(num_states - 1, num_agents)``, so that each is one contiguous
    row of a block the learner prepares once (see :class:`GraphLearner`).

    Returns ``A + mu * Phi (Z - A^T Phi)^T``, the exact negative
    gradient step of ``Q`` (the LMS step). In the paper's terms the new
    ``A^T`` is ``A^T + mu * (1 - delta) * (lam_i - (1 - delta) A^T
    lam_{i-1} - delta lbar_i) lam_{i-1}^T``. No projection is applied;
    the iterate is free to leave the set of stochastic matrices.

    A stack of K trajectories steps in one call: estimates ``(K, n, n)``,
    regressors and targets ``(K, m, n)``, and ``mu`` a scalar, one value
    per trajectory as ``(K, 1, 1)``, or the full ``(K, m, n)`` operand
    those values broadcast to, which gives the same bits without the
    broadcast and is what :class:`GraphLearner` passes. It goes through
    ``np.matmul``, which gives each trajectory the bits of its own 2-d
    call; a 2-d call, with a scalar or 0-d ``mu``, keeps
    ``ndarray.dot``, which skips matmul's dispatch, and is what
    :class:`GraphLearner` makes at K = 1.
    """
    shape = regressors.shape
    if targets.shape != shape or len(shape) != 2 or estimate.shape != (shape[1],) * 2:
        if targets.shape != shape or len(shape) != 3 or estimate.shape != (
                shape[0], shape[2], shape[2]):
            raise ValueError("estimate, regressors and targets have mismatched shapes")
        residual = np.matmul(regressors, estimate)
        np.subtract(targets, residual, out=residual)
        residual *= mu
        updated = np.matmul(regressors.transpose(0, 2, 1), residual, out=out)
        updated += estimate
        return updated
    residual = regressors.dot(estimate)
    np.subtract(targets, residual, out=residual)
    residual *= mu
    updated = regressors.T.dot(residual, out=out)
    updated += estimate
    return updated


def _squared_norms(rows: np.ndarray) -> np.ndarray:
    """The squared norm of each row of a 2-d array as one stacked
    ``1 x N`` by ``N x 1`` product: per row, the bits of ``np.vdot(row,
    row)``."""
    return np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0]


@dataclass
class LearnResult:
    """Outcome of feeding a belief stream through one learner: its final
    estimate, its squared deviation at every step, its votes (estimated
    mode) and the step it diverged at. A finished run also holds the
    estimate's classified arcs, their accuracy against the final true
    matrix and why classification failed, each ``None`` until then."""

    mode: str
    estimate: np.ndarray
    msd: np.ndarray
    votes: np.ndarray | None
    diverged_at: int | None
    classified: np.ndarray | None = None
    edge_accuracy: float | None = None
    classify_error: str | None = None

    @property
    def steady_state_msd(self) -> float:
        """Mean deviation over the final tenth of the steps (at least one)."""
        return float(self.msd[-max(1, len(self.msd) // 10):].mean())

    @property
    def final_msd(self) -> float:
        """Deviation at the last step."""
        return float(self.msd[-1])


@dataclass
class GraphLearner:
    """A stack of K LMS trajectories of the online graph estimator, a
    single run being K = 1, stepping on the hypotheses it is given: the
    true states or the votes, as :class:`ModeLearners` decides. ``mode``
    only names it and its results.

    ``mu`` and ``delta`` are each one value, or a sequence of one value
    per trajectory (K of them; a single value is then shared). All K
    trajectories step with one kernel call per row (see
    :func:`gradient_step`), and each records the bits of a learner of
    its own ``mu`` and ``delta`` alone.

    The ``(K, n, n)`` estimates start at the zero matrix and the
    previous-ratio register at zero, which makes the very first update a
    no-op. When an update stops being finite (or leaves
    ``DIVERGENCE_LIMIT``), its trajectory keeps its last good estimate,
    records the iteration in its entry of the tuple ``diverged_at`` and
    makes no further updates; the others step on.

    :meth:`consume` takes blocks of consecutive snapshots, one per
    trajectory, with their hypotheses and matrices. Per block it forms
    the belief log-ratios, the regressors and the targets (see
    :func:`gradient_step`), all agents last, the targets from a table of
    ``delta lbar^T`` per trajectory and hypothesis built once per
    learner. Per row, :meth:`step` forms only the update, into the next
    slot of a scratch buffer of ``SETTLE_STEPS x K x n^2`` doubles (460
    KB at K = 1 and 30 agents); per run of at most that many rows,
    :meth:`consume` settles the divergence test and the squared
    deviations as stacked products over the buffer. A block may be
    longer than a run: the simulator's chunks hold up to
    ``simulate.CHUNK_STEPS`` rows. ``deviations`` holds one ``(steps,
    K)`` array per block.
    """

    model: LikelihoodModel
    mu: float | Sequence[float]
    delta: float | Sequence[float]
    mode: str
    reference: int = 0
    estimate: np.ndarray = field(init=False)
    iterations: int = field(init=False, default=0)
    diverged_at: tuple[int | None, ...] = field(init=False)
    deviations: list[np.ndarray] = field(init=False, default_factory=list)

    def __post_init__(self):
        rates = np.array(self.mu, dtype=float)
        steps = np.asarray(self.delta, dtype=float)
        if not ((0 < rates) & (rates < np.inf)).all():
            raise ValueError("mu must be positive and finite")
        if not ((0 < steps) & (steps < 1)).all():
            raise ValueError("delta must be in (0, 1)")
        K = max(rates.size, steps.size)
        if rates.ndim > 1 or steps.ndim > 1 or not K or {rates.size, steps.size} - {1, K}:
            raise ValueError("mu and delta must each be one value or one per trajectory")
        n, S = self.model.num_agents, self.model.num_states
        self.estimate = np.zeros((K, n, n))
        self.diverged_at = (None,) * K
        self._stepping = True
        # 1 - delta as one (1, 1) matrix per trajectory: a block's
        # regressors scale by it once, which at 10 agents and K = 4 took
        # 17 us per 256-row block, against 218 us for a full operand.
        column = (K, 1, 1)
        self._keep = np.broadcast_to(1.0 - steps, K).reshape(column)
        # mu scales the kernel's residual every row, so for K > 1 it is a
        # full (K, S-1, n) operand: at 10 agents and K = 4 the multiply
        # took 0.39 us per row, against 0.87 us broadcast from (K, 1, 1).
        # At K = 1 the kernel takes trajectory 0's 2-d views and a 0-d mu:
        # its ndarray.dot path and numpy's fast scaling took 3.9 us per
        # call at 30 agents, np.matmul 7.9 us and a (1, 1) mu 6.9 us.
        if K == 1:
            self._trajectory, self._rate = 0, rates.reshape(())
        else:
            self._trajectory = slice(None)
            self._rate = np.ascontiguousarray(
                np.broadcast_to(rates.reshape(-1, 1, 1), (K, S - 1, n)))
        # The last log-ratios of the previous block, agents last: the
        # next block's first regressor.
        self._register = np.zeros((K, S - 1, n))
        # delta * lbar^T per trajectory and hypothesis, agents last: a
        # block's targets are its ratios less one entry of this table per
        # snapshot. Read-only, so a fork (see ModeLearners) shares it.
        self._offsets = np.broadcast_to(steps, K).reshape(column + (1,)) * np.stack([
            mean_likelihood_matrix(self.model, state, self.reference).T
            for state in range(S)
        ])
        self._offsets.flags.writeable = False
        # The updates step() has formed since the last settle, flattened,
        # and each row as the kernel's view of its slot, so that a step
        # indexes a list. _current is the kernel's view of the estimate.
        self._updates = np.empty((SETTLE_STEPS, K, n * n))
        self._slots = list(self._updates.reshape(-1, K, n, n)[:, self._trajectory])
        self._current = self.estimate[self._trajectory]
        self._filled = 0
        # Proof that a computed d = vdot(W - U, W - U) below _bound puts
        # every entry of the update U within DIVERGENCE_LIMIT. The settle's
        # pretest is its zero-matrix case: W = 0, d the stacked product of
        # the flattened U with itself.
        # With u = 2**-53 the unit roundoff and N = n**2 terms:
        # - each computed difference D_ij is (W_ij - U_ij)(1 + e) with
        #   |e| <= u, so |W_ij - U_ij| <= |D_ij| / (1 - u); for W = 0,
        #   D_ij = -U_ij exactly;
        # - a computed sum of N squares, in any order, is within
        #   gamma = N u / (1 - N u) of the exact sum relatively (Higham,
        #   Accuracy and Stability of Numerical Algorithms, 2002, 3.1), so
        #   sum D_ij**2 <= d / (1 - gamma) = d (1 - N u) / (1 - 2 N u), and
        #   d < (L - 2)**2 (1 - 4 N u) keeps that below (L - 2)**2 for
        #   N u <= 3/4. Squares that underflow add at most N 2**-1074 more;
        # - W is a validated CombinationMatrix or the zero matrix: entries
        #   in [0, 1 + 1e-12].
        # So |U_ij| <= |W_ij| + |W_ij - U_ij| <= 1 + 1e-12 + (L - 2)(1 + 2u),
        # below L = DIVERGENCE_LIMIT; the spare 1 - 1e-12 also absorbs the
        # rounding of _bound itself. A NaN or inf d fails the comparison.
        eps = np.finfo(float).eps  # 2 u
        self._bound = (DIVERGENCE_LIMIT - 2.0) ** 2 * (1.0 - 2.0 * n * n * eps)

    def step(self, regressors: np.ndarray, targets: np.ndarray) -> None:
        """Form the update from one snapshot of each trajectory in the
        next slot of the scratch buffer and step the estimates to it;
        :meth:`consume` runs the divergence test on it and keeps or
        discards it.

        ``regressors`` is ``Phi^T = (1 - delta) lam_{i-1}^T`` and
        ``targets`` is ``Z^T = lam_i^T - delta lbar_i^T``, each
        ``(K, num_states - 1, num_agents)``, or that of the one trajectory
        at K = 1: the paper's recursion ``lam_i = (1 - delta) A^T lam_{i-1}
        + delta lbar_i + noise`` read as a regression of ``Z`` on ``Phi``
        (see :func:`gradient_step`). Once every trajectory has diverged,
        the step only counts the row.
        """
        self.iterations += 1
        if self._stepping:
            slot = self._slots[self._filled]
            updated = gradient_step(self._current, regressors, targets, self._rate,
                                    out=slot)
            if updated is not slot:  # a kernel wrapped or replaced by name
                slot[...] = updated
            self._current = slot
            self._filled += 1

    def consume(self, block: np.ndarray, states: Sequence[int] | np.ndarray | None = None,
                combinations: Sequence[CombinationMatrix] | None = None) -> None:
        """Update each trajectory from each snapshot of its block and
        record its squared deviation from its matrix: NaN without
        matrices, ``inf`` from the diverging snapshot on. ``block`` is
        ``(K, steps, num_agents, num_states)`` shared log-beliefs,
        ``states`` the integer hypotheses, one per trajectory (``(K,)``)
        or one per trajectory and row (``(K, steps)``), and
        ``combinations`` a sequence of K matrices (or ``None``).

        The rows are stepped in runs of at most ``SETTLE_STEPS``, each
        settled by :meth:`_settle` before the next, so the scratch
        buffer is filled and read within one call. A row after a
        diverging one in its run steps on a trajectory that is thrown
        away, so overflow and invalid operations are not reported."""
        self._check_block(block)
        (K, n, _), num_states = self.estimate.shape, self.model.num_states
        if combinations is not None:
            if len(combinations) != K:
                raise ValueError(f"{len(combinations)} matrices for a stack of {K} "
                                 f"trajectories")
            for matrix in combinations:
                if matrix.weights.shape != (n, n):
                    raise ValueError(f"a {' x '.join(map(str, matrix.weights.shape))} "
                                     f"matrix for {n} agents")
        hypotheses = self._check_states(block, states)
        # Integers in 0..S-1 only: the targets index a table by them, where
        # -1 would silently pick the last hypothesis.
        wrong = ((hypotheses < 0) | (hypotheses >= num_states)
                 | (hypotheses.dtype.kind not in "iu"))
        if wrong.any():
            if hypotheses.ndim == 1:
                raise ValueError(f"known mode needs the current true state in "
                                 f"0..{num_states - 1}, got {states}")
            k, row = np.argwhere(wrong)[0]
            raise ValueError(f"hypothesis {hypotheses[k, row]} at row {row} of "
                             f"trajectory {k} is not a state in 0..{num_states - 1}")
        # The rows first, so that each row of the arrays below holds every
        # trajectory's snapshot.
        block, hypotheses = block.swapaxes(0, 1), hypotheses.T
        offsets = self._offsets[np.arange(K), hypotheses]
        weights = None
        if combinations is not None:
            weights = np.array([c.weights for c in combinations]).reshape(K, -1)
        # Row t + 1 holds the snapshot t ratios, agents last; row 0 the
        # register. Every operation is elementwise per row, so the
        # update does not depend on where blocks begin and end.
        lagged = np.empty((len(block) + 1,) + self._register.shape)
        lagged[0] = self._register
        belief_log_ratios(block, self.reference, out=lagged[1:].swapaxes(-1, -2))
        # A copy, so that the block's arrays go with the block. The
        # regressors are scaled in place once the targets are formed.
        self._register = lagged[-1].copy()
        targets = (lagged[1:] - offsets)[:, self._trajectory]
        regressors = lagged[:-1]
        regressors *= self._keep
        regressors = regressors[:, self._trajectory]
        deviations = np.empty(block.shape[:2])
        self.deviations.append(deviations)
        step = self.step
        with np.errstate(over="ignore", invalid="ignore"):
            for first in range(0, len(block), SETTLE_STEPS):
                run = slice(first, first + SETTLE_STEPS)
                start = self.estimate
                for regressor, target in zip(regressors[run], targets[run]):
                    step(regressor, target)
                self._settle(start, deviations[run], weights)

    def _check_block(self, block: np.ndarray) -> None:
        """Refuse a block that is not ``(K, steps, num_agents,
        num_states)``."""
        (K, n, _), num_states = self.estimate.shape, self.model.num_states
        if block.shape[:1] + block.shape[2:] != (K, n, num_states):
            raise ValueError(f"blocks must be {K} x steps x {n} x {num_states}, not "
                             f"{' x '.join(map(str, block.shape))}")

    def _check_states(self, block: np.ndarray, states) -> np.ndarray:
        """``states`` as an array; refused unless it holds one hypothesis
        per trajectory or one per trajectory and row of ``block``."""
        hypotheses, size = np.asarray(states), block.shape[:2]
        if hypotheses.shape not in (size[:1], size):
            shape = " x ".join(map(str, hypotheses.shape)) or "no"
            raise ValueError(f"{shape} hypotheses for a block of "
                             f"{' x '.join(map(str, size))} rows")
        return hypotheses

    def _settle(self, start: np.ndarray, deviations: np.ndarray,
                weights: np.ndarray | None) -> None:
        """Test the run's updates in the buffer for divergence, keep each
        trajectory's last good one (its row of ``start`` if there is none)
        as a copy, and write each row's squared deviation from the
        flattened matrices ``weights``, one row per trajectory, into
        ``deviations``.

        The pretest is the updates' squared norms: below ``_bound`` they
        certify the update (see ``__post_init__``), so only an update at
        or above it pays for the exact entrywise test, and the verdicts
        are those of the exact test. The deviations are formed in the
        buffer, with the bits :func:`msd` gives them."""
        filled, self._filled, size = self._filled, 0, self._updates.shape[-1]
        updates = self._updates[:filled]
        rows = updates.reshape(-1, size)  # row-major: by row, then by trajectory
        # Rows kept per trajectory; none of one that diverged before.
        kept = [filled if at is None else 0 for at in self.diverged_at]
        for index in np.flatnonzero(~(_squared_norms(rows) < self._bound)):
            row, k = divmod(int(index), len(kept))
            if row < kept[k] and not np.abs(rows[index]).max() <= DIVERGENCE_LIMIT:
                kept[k] = row
        stopped = min(kept) < len(deviations)
        estimate = (updates[filled - 1] if filled else start).reshape(start.shape).copy()
        if stopped:
            first = self.iterations - len(deviations) + 1
            self.diverged_at = tuple(first + row if at is None and row < filled else at
                                     for at, row in zip(self.diverged_at, kept))
            self._stepping = None in self.diverged_at
            flat, begun = estimate.reshape(-1, size), start.reshape(-1, size)
            for k, row in enumerate(kept):
                if row < filled:
                    flat[k] = updates[row - 1, k] if row else begun[k]
        self.estimate, self._current = estimate, estimate[self._trajectory]
        if weights is None:
            deviations[:] = np.nan
        else:
            np.subtract(weights, updates, out=updates)
            deviations[:filled] = _squared_norms(rows).reshape(updates.shape[:-1])
        if stopped:
            deviations[np.arange(len(deviations))[:, None] >= kept] = np.inf

    def result(self) -> list[LearnResult]:
        """Each trajectory's final estimate, as a copy, and the record of
        every step it consumed."""
        msd = np.concatenate([np.empty((0, len(self.estimate))), *self.deviations])
        return [LearnResult(self.mode, estimate.copy(), msd[:, k].copy(), None, at)
                for k, (estimate, at) in enumerate(zip(self.estimate, self.diverged_at))]


class ModeLearners:
    """The learners of one run, or of K runs in lockstep, in ``mode``:
    ``known``, ``estimated`` or ``both``, fed together by
    :meth:`consume`: the known learner on each block's true states, the
    estimated one on the block's votes, which are formed and recorded
    here. Each learner is a stack of K trajectories, one per run (see
    :class:`GraphLearner`); a single run is K = 1.

    In ``both`` the two learners share their trajectories until a vote
    differs: while every vote of a block equals the block's true state,
    the two updates are bit-identical, so only the known learner steps.
    The run's first row is exempt, because the register starts at zero
    and its update is a no-op whatever the target. At the first block
    with any other differing vote (in any trajectory), the estimated
    learner forks from the known learner's state before that block.
    """

    def __init__(self, model: LikelihoodModel, mu: float | Sequence[float],
                 delta: float | Sequence[float], mode: str, reference: int = 0):
        if mode not in (KNOWN, ESTIMATED, BOTH):
            raise ValueError(f"unknown mode {mode!r}")
        self.known: GraphLearner | None = None
        self.estimated: GraphLearner | None = None
        if mode == ESTIMATED:
            self.estimated = GraphLearner(model, mu, delta, ESTIMATED, reference)
        else:
            self.known = GraphLearner(model, mu, delta, KNOWN, reference)
        # The votes of each block, in the modes that vote.
        self._votes: list[np.ndarray] | None = None if mode == KNOWN else []

    def consume(self, block: np.ndarray,
                true_states: Sequence[int] | np.ndarray | None = None,
                combinations: Sequence[CombinationMatrix] | None = None) -> None:
        """Feed one ``(K, steps, num_agents, num_states)`` block, its K
        true states (or ``None``) and K matrices (or ``None``) to each
        learner; see :meth:`GraphLearner.consume`. The votes and a fork
        are recorded only once the learners have taken the block, so a
        refused block leaves every record as it was."""
        votes, estimated = None, self.estimated
        if self._votes is not None:
            # A block of another shape is refused before the vote reads it.
            (self.known or estimated)._check_block(block)
            votes = majority_vote(block)
            if estimated is None:
                # One state per trajectory stands for each of its rows.
                states = self.known._check_states(block, true_states)
                differs = votes != (states[:, None] if states.ndim == 1 else states)
                # The run's first update is a no-op (see the class docstring).
                if self.known.iterations == 0:
                    differs = differs[:, 1:]
                if differs.any():
                    estimated = self._fork()
        if self.known is not None:
            self.known.consume(block, true_states, combinations)
        if estimated is not None:
            estimated.consume(block, votes, combinations)
            self.estimated = estimated
        if votes is not None:
            self._votes.append(votes)

    def _fork(self) -> GraphLearner:
        """The estimated learner at the known learner's state: a shallow
        copy with its own records. The rest stays shared: a learner
        replaces its estimate, register and divergence record, never
        writes into them, only reads the target table, and fills and
        reads its scratch buffer within one :meth:`GraphLearner.consume`,
        copying its estimate out before it returns."""
        fork = copy.copy(self.known)
        fork.mode = ESTIMATED
        fork.deviations = list(fork.deviations)
        return fork

    def results(self) -> list[dict[str, LearnResult]]:
        """Each trajectory's results by mode, the known one first, with
        the votes on the estimated one. An estimated learner that never
        forked reports the known trajectory."""
        results = {} if self.known is None else {KNOWN: self.known.result()}
        if self._votes is not None:
            estimated = (self.estimated or self._fork()).result()
            votes = np.concatenate([np.empty((len(estimated), 0), dtype=np.intp),
                                    *self._votes], axis=1)
            for result, row in zip(estimated, votes):
                result.votes = row
            results[ESTIMATED] = estimated
        return [dict(zip(results, point)) for point in zip(*results.values())]


def learn_graph(
    blocks,
    model: LikelihoodModel,
    mu: float,
    delta: float,
    mode: str = ESTIMATED,
    reference: int = 0,
) -> dict[str, LearnResult]:
    """Run the learners of ``mode`` over one stream: its ``(block,
    true_state, combination)`` triples, consecutive blocks of ``(steps,
    num_agents, num_states)`` log-beliefs, each with the true state and
    matrix of all its rows or ``None``. The one feed of a single run,
    whether its blocks are drawn as the simulation runs or read from a
    recorded stream. The learners are a stack of one trajectory (see
    :class:`ModeLearners`), each block a view of it; returns its result
    of each mode by mode."""
    learners = ModeLearners(model, mu, delta, mode, reference)
    for block, true_state, combination in blocks:
        learners.consume(block[None], None if true_state is None else [true_state],
                         None if combination is None else [combination])
    return learners.results()[0]


def msd(true_matrix: np.ndarray, estimate: np.ndarray) -> float:
    """Squared Frobenius norm of the estimation error."""
    true_matrix = np.asarray(true_matrix, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    if true_matrix.shape != estimate.shape:
        raise ValueError("matrices must have identical shapes")
    diff = true_matrix - estimate
    return float(np.vdot(diff, diff))


def two_means_split(values: np.ndarray) -> float:
    """Boundary of the two-cluster split of scalar values.

    Plain Lloyd iteration, at most 100 rounds, with centers initialized
    at the minimum and maximum; returns the midpoint between the final
    centers, so that ``value > boundary`` selects the upper cluster.

    Raises
    ------
    NoSeparationError
        If all values coincide, or a cluster empties out.
    """
    values = np.asarray(values, dtype=float).ravel()
    low, high = float(values.min()), float(values.max())
    if low == high:
        raise NoSeparationError("all values are identical")
    for _ in range(_TWO_MEANS_ITERATIONS):
        upper = np.abs(values - high) < np.abs(values - low)
        if not upper.any() or upper.all():
            raise NoSeparationError("a cluster emptied out")
        # sum / len: the bits of np.mean, without its Python wrapper.
        lower, higher = values[~upper], values[upper]
        new_low = float(lower.sum() / len(lower))
        new_high = float(higher.sum() / len(higher))
        if new_low == low and new_high == high:
            break
        low, high = new_low, new_high
    return 0.5 * (low + high)


def classify_edges(
    estimate: np.ndarray,
    method: str = "two-means",
    threshold: float | None = None,
) -> np.ndarray:
    """Turn a learned weight matrix into a boolean adjacency estimate.

    ``method="threshold"`` marks entries strictly above ``threshold``.
    ``method="two-means"`` clusters all entries into two groups and
    marks the upper one; it raises :class:`NoSeparationError` on
    degenerate input.

    The two-means split runs on the signed square root
    ``sign(x) * sqrt(|x|)`` of the entries, not on the raw values.
    Column-normalised weights are skewed to the right, so on the raw
    scale the midpoint between the two cluster means lands above many
    true weights; the square root evens out the spread of the weight
    cluster while keeping estimation noise around zero small. The
    transform is odd and monotone, so the result is still a threshold
    on the raw estimate.
    """
    estimate = np.asarray(estimate, dtype=float)
    if not np.isfinite(estimate).all():
        raise ValueError("estimate must be finite")
    if method == "threshold":
        if threshold is None:
            raise ValueError("threshold method needs a threshold")
        return estimate > threshold
    if method == "two-means":
        stabilised = np.sign(estimate) * np.sqrt(np.abs(estimate))
        return stabilised > two_means_split(stabilised)
    raise ValueError(f"unknown classification method {method!r}")


@dataclass(frozen=True)
class SteadyStateDiagnostics:
    """Empirical ingredients of the steady-state error bound.

    ``ratio_second_moment`` is the second-moment matrix of the belief
    log-ratios over the steady-state tail; ``signal_covariance`` the
    covariance of the signal log-ratios around their exact mean. From
    their extreme eigenvalues: ``nu <= kappa``, the per-step contraction
    ``alpha = 1 - 2 mu nu`` (higher-order terms dropped) and the noise
    level ``gamma``. The bound ``mu^2 gamma / (1 - alpha)`` is O(mu)
    and only meaningful while ``stable`` is set.
    """

    alpha: float
    gamma: float
    nu: float
    kappa: float
    signal_covariance: np.ndarray
    ratio_second_moment: np.ndarray
    bound: float
    stable: bool
    samples: int


def steady_state_diagnostics(
    belief_ratio_samples: np.ndarray,
    signal_ratio_samples: np.ndarray,
    expected_ratios: np.ndarray,
    mu: float,
    delta: float,
) -> SteadyStateDiagnostics:
    """Estimate the steady-state deviation bound from sampled streams.

    Both sample stacks have shape ``(samples, num_agents,
    num_states - 1)`` and must come from a stationary stretch of a run;
    the first fifth of each is discarded. The signal
    ratios are private data, so this is a validation tool rather than
    part of the observer pipeline.

    Raises
    ------
    ValueError
        If fewer than 1000 samples remain after burn-in.
    """
    # C order, because einsum's order of summation depends on strides.
    lam = np.ascontiguousarray(belief_ratio_samples, dtype=float)
    sig = np.asarray(signal_ratio_samples, dtype=float)
    if lam.ndim != 3 or sig.ndim != 3:
        raise ValueError("sample stacks must be 3-dimensional")
    lam = lam[int(_BURN_IN_FRACTION * lam.shape[0]):]
    sig = sig[int(_BURN_IN_FRACTION * sig.shape[0]):]
    if min(lam.shape[0], sig.shape[0]) < _MIN_SAMPLES:
        raise ValueError(
            f"need at least {_MIN_SAMPLES} samples after burn-in, have "
            f"{min(lam.shape[0], sig.shape[0])}"
        )
    num_agents = lam.shape[1]
    ratio_moment = np.einsum("mij,mkj->ik", lam, lam) / lam.shape[0]
    centered = sig - np.asarray(expected_ratios)
    signal_cov = np.einsum("mij,mkj->ik", centered, centered) / centered.shape[0]

    scale = (1.0 - delta) ** 2
    ratio_eigs = np.linalg.eigvalsh(ratio_moment)
    nu = scale * float(ratio_eigs[0])
    kappa = scale * float(ratio_eigs[-1])
    alpha = 1.0 - 2.0 * mu * nu
    gamma = delta**2 * kappa * num_agents * float(np.linalg.eigvalsh(signal_cov)[-1])
    stable = alpha < 1.0
    bound = mu**2 * gamma / (1.0 - alpha) if stable else np.inf
    return SteadyStateDiagnostics(
        alpha=alpha,
        gamma=gamma,
        nu=nu,
        kappa=kappa,
        signal_covariance=signal_cov,
        ratio_second_moment=ratio_moment,
        bound=bound,
        stable=stable,
        samples=lam.shape[0],
    )
