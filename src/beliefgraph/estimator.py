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
    ``(steps, num_agents, num_states)`` gives one vote per snapshot.
    """
    shared_log_beliefs = np.asarray(shared_log_beliefs)
    num_states = shared_log_beliefs.shape[-1]
    per_agent = np.argmax(shared_log_beliefs, axis=-1)
    if per_agent.ndim == 1:
        return int(np.argmax(np.bincount(per_agent, minlength=num_states)))
    # One bincount over the whole stack: snapshot t counts into bins
    # t * num_states ... t * num_states + num_states - 1.
    steps = per_agent.shape[0]
    per_agent += num_states * np.arange(steps)[:, None]
    counts = np.bincount(per_agent.ravel(), minlength=steps * num_states)
    return np.argmax(counts.reshape(steps, num_states), axis=1)


def gradient_step(
    estimate: np.ndarray,
    regressors: np.ndarray,
    targets: np.ndarray,
    mu: float,
) -> np.ndarray:
    """One stochastic-gradient update of the combination-matrix estimate,
    in regression form.

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
    """
    shape = regressors.shape
    if targets.shape != shape or len(shape) != 2 or estimate.shape != (shape[1],) * 2:
        raise ValueError("estimate, regressors and targets have mismatched shapes")
    residual = regressors.dot(estimate)
    np.subtract(targets, residual, out=residual)
    residual *= mu
    updated = regressors.T.dot(residual)
    updated += estimate
    return updated


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
    """One LMS trajectory of the online graph estimator, stepping on
    the hypotheses it is given: the true state or the votes, as
    :class:`ModeLearners` decides. ``mode`` only names it and its result.

    The estimate starts at the zero matrix and the previous-ratio
    register at zero, which makes the very first update a no-op.

    When an update stops being finite (or leaves ``DIVERGENCE_LIMIT``),
    the learner keeps its last good estimate, records the iteration in
    ``diverged_at`` and makes no further updates.

    :meth:`consume` takes blocks of consecutive snapshots, each with its
    hypotheses and the combination matrix of all its rows. Per block it
    forms the belief log-ratios, the regressors and the targets (see
    :func:`gradient_step`), all agents last, the targets from a table of
    ``delta lbar^T`` per hypothesis built once per learner; only
    :meth:`step` runs per row. The step also forms the row's squared
    deviation from the block's matrix (the zero matrix without one),
    which doubles as its divergence test. ``deviations`` holds one array
    per block.
    """

    model: LikelihoodModel
    mu: float
    delta: float
    mode: str
    reference: int = 0
    estimate: np.ndarray = field(init=False)
    iterations: int = field(init=False, default=0)
    diverged_at: int | None = field(init=False, default=None)
    deviations: list[np.ndarray] = field(init=False, default_factory=list)

    def __post_init__(self):
        if not 0 < self.mu < np.inf:
            raise ValueError("mu must be positive and finite")
        if not 0 < self.delta < 1:
            raise ValueError("delta must be in (0, 1)")
        n, S = self.model.num_agents, self.model.num_states
        self.estimate = np.zeros((n, n))
        # mu as a 0-d array: numpy scales by one on its fast path, by a
        # Python float on a slower one, with the same result.
        self._rate = np.array(self.mu, dtype=float)
        # The last log-ratios of the previous block, agents last: the
        # next block's first regressor.
        self._register = np.zeros((S - 1, n))
        # delta * lbar^T per hypothesis, agents last: a block's targets
        # are its ratios less one row of this table per snapshot. Read-only,
        # so a fork (see ModeLearners) shares it.
        self._offsets = self.delta * np.stack([
            mean_likelihood_matrix(self.model, state, self.reference).T
            for state in range(S)
        ])
        self._offsets.flags.writeable = False
        self._zero = np.zeros((n, n))
        self._difference = np.empty((n, n))
        # The squared deviation of the last update step() formed; inf
        # before the first.
        self._deviation = np.inf
        # Proof that a computed deviation d = vdot(W - U, W - U) below
        # _bound puts every entry of the update U within DIVERGENCE_LIMIT.
        # With u = 2**-53 the unit roundoff and N = n**2 terms:
        # - each computed difference D_ij is (W_ij - U_ij)(1 + e) with
        #   |e| <= u, so |W_ij - U_ij| <= |D_ij| / (1 - u);
        # - a computed sum of N squares, in any order, is within
        #   gamma = N u / (1 - N u) of the exact sum relatively (Higham,
        #   Accuracy and Stability of Numerical Algorithms, 2002, 3.1), so
        #   sum D_ij**2 <= d / (1 - gamma) = d (1 - N u) / (1 - 2 N u), and
        #   d < (L - 2)**2 (1 - 4 N u) keeps that below (L - 2)**2 for
        #   N u <= 3/4. Squares that underflow add at most N 2**-1074 more;
        # - W is a validated CombinationMatrix, or the zero matrix step()
        #   takes without one: entries in [0, 1 + 1e-12].
        # So |U_ij| <= |W_ij| + |W_ij - U_ij| <= 1 + 1e-12 + (L - 2)(1 + 2u),
        # below L = DIVERGENCE_LIMIT; the spare 1 - 1e-12 also absorbs the
        # rounding of _bound itself. A NaN or inf d fails the comparison.
        eps = np.finfo(float).eps  # 2 u
        self._bound = (DIVERGENCE_LIMIT - 2.0) ** 2 * (1.0 - 2.0 * n * n * eps)

    def step(self, regressors: np.ndarray, targets: np.ndarray,
             combination: CombinationMatrix | None = None) -> np.ndarray:
        """Update from one snapshot and return the estimate.

        ``regressors`` is ``Phi^T = (1 - delta) lam_{i-1}^T`` and
        ``targets`` is ``Z^T = lam_i^T - delta lbar_i^T``, each
        ``(num_states - 1, num_agents)``: the paper's recursion
        ``lam_i = (1 - delta) A^T lam_{i-1} + delta lbar_i + noise`` read
        as a regression of ``Z`` on ``Phi`` (see :func:`gradient_step`).
        Once the learner has diverged, the step changes nothing.

        The squared deviation of the update from the true
        ``combination`` (the zero matrix without one) is formed as
        :func:`msd` does and kept for :meth:`consume`; below a bound it
        also certifies that the update is within ``DIVERGENCE_LIMIT`` (see
        ``__post_init__``), and only an update at or above the bound pays
        for the exact entrywise test. NaN and inf fail both tests.
        """
        self.iterations += 1
        if self.diverged_at is None:
            # The kept estimate is within DIVERGENCE_LIMIT, so no errstate
            # is needed: only a mu near the float64 range could overflow.
            updated = gradient_step(self.estimate, regressors, targets, self._rate)
            weights = self._zero if combination is None else combination.weights
            difference = self._difference
            np.subtract(weights, updated, out=difference)
            self._deviation = np.vdot(difference, difference)
            if (self._deviation < self._bound
                    or np.abs(updated).max() <= DIVERGENCE_LIMIT):
                self.estimate = updated
            else:
                self.diverged_at = self.iterations
        return self.estimate

    def consume(self, block: np.ndarray, states: int | np.ndarray | None = None,
                combination: CombinationMatrix | None = None) -> None:
        """Update from each snapshot of ``block``, ``(steps, num_agents,
        num_states)`` shared log-beliefs, on ``states``, one hypothesis
        for the block or one per row, and record its squared deviation
        from ``combination``: NaN without a matrix, ``inf`` from the
        diverging snapshot on."""
        if np.shape(states) not in ((), (len(block),)):
            raise ValueError(f"{len(states)} hypotheses for a block of {len(block)} rows")
        if np.ndim(states) == 0 and states not in range(self.model.num_states):
            raise ValueError(f"known mode needs the current true state in "
                             f"0..{self.model.num_states - 1}, got {states}")
        # Row t + 1 holds the snapshot t ratios, agents last; row 0 the
        # register. Every operation is elementwise per row, so the
        # update does not depend on where blocks begin and end.
        lagged = np.empty((len(block) + 1,) + self._register.shape)
        lagged[0] = self._register
        belief_log_ratios(block, self.reference, out=lagged[1:].transpose(0, 2, 1))
        self._register = lagged[-1]
        regressors = (1.0 - self.delta) * lagged[:-1]
        targets = lagged[1:] - self._offsets[states]
        deviations = np.empty(len(block))
        self.deviations.append(deviations)
        first = self.iterations
        step = self.step
        for row, (regressor, target) in enumerate(zip(regressors, targets)):
            step(regressor, target, combination)
            deviations[row] = self._deviation
        if combination is None:
            deviations[:] = np.nan
        if self.diverged_at is not None:
            deviations[max(self.diverged_at - first - 1, 0):] = np.inf

    def result(self) -> LearnResult:
        """The final estimate, as a copy, and the record of every
        consumed step."""
        return LearnResult(
            mode=self.mode,
            estimate=self.estimate.copy(),
            msd=np.concatenate([np.empty(0), *self.deviations]),
            votes=None,
            diverged_at=self.diverged_at,
        )


class ModeLearners:
    """The learners of one run in ``mode``: ``known``, ``estimated`` or
    ``both``, fed together by :meth:`consume`: the known learner on each
    block's true state, the estimated one on the block's votes, which
    are formed and recorded here.

    In ``both`` the two learners share one trajectory until a vote
    differs: while every vote of a block equals the block's true state,
    the two updates are bit-identical, so only the known learner steps.
    The run's first row is exempt, because the register starts at zero
    and its update is a no-op whatever the target. At the first block
    with any other differing vote, the estimated learner forks from the
    known learner's state before that block.
    """

    def __init__(self, model: LikelihoodModel, mu: float, delta: float,
                 mode: str, reference: int = 0):
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

    def consume(self, block: np.ndarray, true_state: int | None = None,
                combination: CombinationMatrix | None = None) -> None:
        """Feed one block to each learner; see :meth:`GraphLearner.consume`."""
        votes = None
        if self._votes is not None:
            votes = majority_vote(block)
            self._votes.append(votes)
            if self.estimated is None:
                # The run's first update is a no-op (see the class docstring).
                checked = votes[1:] if self.known.iterations == 0 else votes
                if (checked != true_state).any():
                    self.estimated = self._fork()
        if self.known is not None:
            self.known.consume(block, true_state, combination)
        if self.estimated is not None:
            self.estimated.consume(block, votes, combination)

    def _fork(self) -> GraphLearner:
        """The estimated learner at the known learner's state: a shallow
        copy with its own records. The rest stays shared: a learner
        replaces its estimate and register, never writes into them, only
        reads the target table, and fills and reads its scratch buffer
        within one step."""
        fork = copy.copy(self.known)
        fork.mode = ESTIMATED
        fork.deviations = list(fork.deviations)
        return fork

    def results(self) -> dict[str, LearnResult]:
        """Each learner's result by mode, the known one first, with the
        votes on the estimated one. An estimated learner that never
        forked reports the known trajectory."""
        results = {} if self.known is None else {KNOWN: self.known.result()}
        if self._votes is not None:
            estimated = (self.estimated or self._fork()).result()
            estimated.votes = np.concatenate([np.empty(0, dtype=np.intp), *self._votes])
            results[ESTIMATED] = estimated
        return results


def learn_graph(
    blocks,
    model: LikelihoodModel,
    mu: float,
    delta: float,
    mode: str = ESTIMATED,
    reference: int = 0,
) -> dict[str, LearnResult]:
    """Run the learners of ``mode`` over ``(block, true_state,
    combination)`` triples: consecutive blocks of a belief stream, each
    with the true state and matrix of all its rows or ``None``. Returns
    the result of each mode by mode; see :class:`ModeLearners`."""
    learners = ModeLearners(model, mu, delta, mode, reference)
    for block, true_state, combination in blocks:
        learners.consume(block, true_state, combination)
    return learners.results()


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
        new_low = float(values[~upper].mean())
        new_high = float(values[upper].mean())
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
