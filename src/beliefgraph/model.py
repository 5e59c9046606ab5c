"""Domain objects and seeded random generation.

Conventions used throughout the package:

* Agents are indexed ``k = 0..n-1``, hypotheses ``0..num_states-1``.
* A combination matrix ``A`` stores in entry ``(l, k)`` the weight that
  agent ``k`` assigns to neighbour ``l``; every column sums to one.
* Log-ratio matrices have shape ``(n, num_states - 1)``: column ``j``
  corresponds to the j-th hypothesis different from the reference one,
  in ascending index order.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "GenerationError",
    "LikelihoodModel",
    "CombinationMatrix",
    "erdos_renyi_adjacency",
    "random_combination_matrix",
    "random_likelihoods",
    "mean_likelihood_matrix",
    "ratio_columns",
    "is_strongly_connected",
]

COLUMN_SUM_TOL = 1e-12

# LikelihoodModel.validate's value faults, in the order it tests them.
_TABLE_FAULTS = (
    "agent {} has a non-finite entry",
    "agent {} has entries below the floor",
    "columns of agent {} must sum to one",
)


class GenerationError(RuntimeError):
    """Random generation could not satisfy its constraints within the
    allowed number of attempts."""


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _reaches_all(adjacency: np.ndarray) -> bool:
    """True if node 0 reaches every node along the arcs of a boolean
    adjacency, found by expanding a breadth-first frontier."""
    seen = np.zeros(adjacency.shape[0], dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = adjacency[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def is_strongly_connected(adjacency: np.ndarray) -> bool:
    """True if the directed graph of ``adjacency`` is strongly connected.

    Every nonzero entry ``(l, k)`` is an arc from ``l`` to ``k``. The
    graph is strongly connected iff node 0 reaches every node both
    along the arcs and along the reversed arcs. A graph without nodes
    is not connected.
    """
    adjacency = np.asarray(adjacency, dtype=bool)
    if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
        raise ValueError("adjacency must be a square matrix")
    if adjacency.shape[0] == 0:
        return False
    return _reaches_all(adjacency) and _reaches_all(adjacency.T)


def ratio_columns(num_states: int, reference: int) -> list[int]:
    """Hypothesis indices forming the columns of a log-ratio matrix:
    all states except ``reference``, ascending."""
    if not 0 <= reference < num_states:
        raise ValueError(f"reference state {reference} out of range")
    return [j for j in range(num_states) if j != reference]


class CombinationMatrix:
    """Column-stochastic influence weights over a directed graph.

    Parameters
    ----------
    weights : ndarray, shape (n, n)
        Nonnegative matrix; entry ``(l, k)`` is the weight agent ``k``
        places on agent ``l``. Columns must sum to one and the support
        must coincide with ``adjacency``.
    adjacency : ndarray of bool, shape (n, n)
        Directed adjacency, ``adjacency[l, k]`` true iff ``l`` influences
        ``k``. Must be strongly connected with at least one self-loop.

    Instances are immutable after construction and safe to share.
    """

    def __init__(self, weights: np.ndarray, adjacency: np.ndarray):
        self.weights = np.array(weights, dtype=float)
        self.adjacency = np.array(adjacency, dtype=bool)
        self.validate()
        self.weights.flags.writeable = False
        self.adjacency.flags.writeable = False

    @property
    def size(self) -> int:
        return self.weights.shape[0]

    def validate(self) -> None:
        w, adj = self.weights, self.adjacency
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("weights must be a square matrix")
        if adj.shape != w.shape:
            raise ValueError("adjacency shape does not match weights")
        if not np.isfinite(w).all() or (w < 0).any():
            raise ValueError("weights must be finite and nonnegative")
        if np.abs(w.sum(axis=0) - 1.0).max() > COLUMN_SUM_TOL:
            raise ValueError("columns must sum to one")
        if ((w > 0) != adj).any():
            raise ValueError("positive weights must coincide with the adjacency")
        if not adj.diagonal().any():
            raise ValueError("at least one self-loop is required")
        if not is_strongly_connected(adj):
            raise ValueError("the weight graph must be strongly connected")


class LikelihoodModel:
    """Per-agent categorical observation models.

    Parameters
    ----------
    tables : sequence of ndarray
        One ``(signal_size_k, num_states)`` table per agent; column ``s``
        is the signal distribution under hypothesis ``s``. Every column
        sums to one and no entry is below ``floor``.
    floor : float
        Lower bound enforced on all probabilities. A positive floor keeps
        every log-likelihood ratio finite.
    """

    def __init__(self, tables, floor: float):
        if not 0 < floor < np.inf:
            raise ValueError("floor must be positive and finite")
        self.tables = [np.array(t, dtype=float) for t in tables]
        self.floor = float(floor)
        self.validate()
        for t in self.tables:
            t.flags.writeable = False
        self._stack_cache = None
        self._ratio_tables: dict[int, np.ndarray] = {}

    @property
    def num_agents(self) -> int:
        return len(self.tables)

    @property
    def num_states(self) -> int:
        return self.tables[0].shape[1]

    @property
    def signal_sizes(self) -> list[int]:
        return [t.shape[0] for t in self.tables]

    def validate(self) -> None:
        """Raise ``ValueError`` naming the first agent whose table is at
        fault. Shapes and signal counts are checked for every agent
        first; then the first agent with a non-finite entry, an entry
        below the floor or a column that does not sum to one is named,
        with the first of those faults its table has."""
        if not self.tables:
            raise ValueError("at least one agent is required")
        num_states = self.tables[0].shape[1]
        if num_states < 2:
            raise ValueError("at least two hypotheses are required")
        for k, t in enumerate(self.tables):
            if t.ndim != 2 or t.shape[1] != num_states:
                raise ValueError(f"table of agent {k} has inconsistent shape")
        sizes = np.array(self.signal_sizes)
        if (sizes < 2).any():
            raise ValueError(f"agent {np.argmax(sizes < 2)} needs at least two signals")
        # One row per (agent, signal); agent k's rows start at starts[k].
        entries = np.concatenate(self.tables)
        starts = np.cumsum(sizes) - sizes
        with np.errstate(invalid="ignore"):  # inf - inf in a column sum
            unbalanced = np.abs(np.add.reduceat(entries, starts) - 1.0) > 1e-12
        faults = np.stack([
            np.logical_or.reduceat(~np.isfinite(entries), starts).any(axis=1),
            np.logical_or.reduceat(entries < self.floor - 1e-15, starts).any(axis=1),
            unbalanced.any(axis=1),
        ])
        if faults.any():
            k = np.argmax(faults.any(axis=0))
            raise ValueError(_TABLE_FAULTS[np.argmax(faults[:, k])].format(k))

    # Tables are stacked into padded arrays so that per-iteration
    # sampling and likelihood lookups are single vectorized operations
    # even when agents have unequal signal spaces.

    def _stacks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sampling cdf, the probabilities and their logs; the last
        two are ``(agents, signals, states)`` and zero past each agent's
        signal space."""
        if self._stack_cache is None:
            sizes = np.array(self.signal_sizes)
            signals = np.arange(sizes.max())
            # The (agent, signal) cells of each agent's space, in the
            # order of the concatenated tables' rows.
            in_space = signals < sizes[:, None]
            entries = np.concatenate(self.tables)
            probs = np.zeros(in_space.shape + (self.num_states,))
            probs[in_space] = entries
            logs = np.zeros_like(probs)
            logs[in_space] = np.log(entries)
            # Per state, a contiguous (signals, agents) block. The last
            # in-space entry is +inf, not a sum that may round below 1.0.
            cdf = np.cumsum(probs, axis=1).T.copy()
            cdf[:, signals[:, None] >= sizes - 1] = np.inf
            self._stack_cache = cdf, probs, logs
        return self._stack_cache

    def sampling_cdf(self, state: int) -> np.ndarray:
        """Stacked cumulative signal distributions under ``state``, shape
        ``(max signal size, num_agents)``. Entry ``[z, k]`` is
        ``P(signal_k <= z)``, but ``+inf`` from agent ``k``'s last signal
        on, so a uniform draw always falls inside the agent's space."""
        if not 0 <= state < self.num_states:
            raise ValueError("state out of range")
        cdf, _, _ = self._stacks()
        return cdf[state]

    def signal_log_ratio_table(self, reference: int = 0) -> np.ndarray:
        """Log-likelihood ratios of every signal against ``reference``,
        shape ``(num_agents, max signal size, num_states - 1)``, read-only.

        Entry ``[k, z, j]`` is ``log L_k(z | reference) - log L_k(z |
        other_j)`` with the non-reference states ascending; entries past
        agent ``k``'s signal space are zero. Built once per reference.
        """
        table = self._ratio_tables.get(reference)
        if table is None:
            cols = ratio_columns(self.num_states, reference)
            _, _, logs = self._stacks()
            table = logs[:, :, [reference]] - logs[:, :, cols]
            table.flags.writeable = False
            self._ratio_tables[reference] = table
        return table

    def identifiability_gap(self) -> np.ndarray:
        """Best across agents, for each ordered pair of distinct states,
        of the KL divergence between the two signal distributions.

        Entry ``(s, t)`` is ``max_k KL(table_k[:, s] || table_k[:, t])``
        with a zero diagonal. Every off-diagonal entry must be strictly
        positive for the true state to be collectively learnable.
        """
        _, probs, logs = self._stacks()
        # kl[k, s, t] = sum_z p_k(z | s) (log p_k(z | s) - log p_k(z | t))
        kl = (probs[..., None] * (logs[..., None] - logs[:, :, None, :])).sum(axis=1)
        return np.maximum(kl.max(axis=0), 0.0)


def erdos_renyi_adjacency(
    n: int, edge_prob: float, seed, max_attempts: int = 1000
) -> tuple[np.ndarray, int]:
    """Draw a strongly connected directed adjacency with all self-loops.

    Every off-diagonal arc is included independently with probability
    ``edge_prob``; all diagonal entries are forced true. Masks are
    redrawn from the same generator stream until strongly connected.

    Returns
    -------
    adjacency : ndarray of bool, shape (n, n)
    attempts : int
        Number of masks drawn; 1 means the first draw was connected.

    Raises
    ------
    GenerationError
        If no connected mask appears within ``max_attempts`` draws,
        which signals that ``edge_prob`` is too small for ``n``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 < edge_prob <= 1:
        raise ValueError("edge_prob must be in (0, 1]")
    rng = _as_rng(seed)
    for attempt in range(1, max_attempts + 1):
        mask = rng.random((n, n)) < edge_prob
        np.fill_diagonal(mask, True)
        if is_strongly_connected(mask):
            return mask, attempt
    raise GenerationError(
        f"no strongly connected draw in {max_attempts} attempts "
        f"(n={n}, edge_prob={edge_prob})"
    )


def random_combination_matrix(adjacency: np.ndarray, seed) -> CombinationMatrix:
    """Random column-stochastic weights on a given adjacency.

    One uniform draw per arc, then each column is normalized to sum to
    one. Draws cover the full ``n x n`` grid so the result is a pure
    function of (adjacency, seed); draws off the adjacency are
    discarded. Uses ``1 - U`` with ``U ~ [0, 1)`` so supported weights
    are strictly positive.
    """
    adjacency = np.asarray(adjacency, dtype=bool)
    if not adjacency.diagonal().any() or not is_strongly_connected(adjacency):
        raise ValueError("adjacency must be strongly connected with a self-loop")
    rng = _as_rng(seed)
    weights = (1.0 - rng.random(adjacency.shape)) * adjacency
    col_sums = weights.sum(axis=0)
    if (col_sums == 0).any():
        raise GenerationError("a column has no support")
    weights /= col_sums
    return CombinationMatrix(weights, adjacency)


def _floor_column(column: np.ndarray, eps: float) -> np.ndarray:
    """Clamp a probability column to ``>= eps`` while keeping its sum.

    Entries below the floor are fixed at ``eps`` and the remaining mass
    is rescaled over the free entries; rescaling can push further
    entries under the floor, so the clamp repeats until stable (at most
    ``len(column)`` rounds).
    """
    out = column.copy()
    low = out < eps
    while True:
        out[low] = eps
        free = ~low
        out[free] *= (1.0 - eps * low.sum()) / out[free].sum()
        newly = free & (out < eps)
        if not newly.any():
            return out
        low |= newly


def _floor_columns(columns: np.ndarray, eps: float) -> None:
    """Apply :func:`_floor_column` to every row of a C-contiguous
    ``(columns, size)`` array, in place.

    A column with no entry below ``eps`` ends after one rescale by
    ``1 / sum``, unless that pushes an entry below ``eps``. That rescale
    runs for all columns at once: each row sum adds the same elements
    in the same order as the sum of one column does. Only the columns
    it does not settle go through :func:`_floor_column`.
    """
    scaled = columns * (1.0 / columns.sum(axis=1))[:, None]
    clamped = (columns < eps).any(axis=1) | (scaled < eps).any(axis=1)
    for row in np.flatnonzero(clamped):
        scaled[row] = _floor_column(columns[row], eps)
    columns[...] = scaled


def random_likelihoods(
    num_agents: int,
    num_states: int,
    signal_sizes,
    seed,
    floor: float = 0.01,
    kl_floor: float = 1e-3,
    max_attempts: int = 1000,
) -> LikelihoodModel:
    """Draw a random likelihood model satisfying the validity checks.

    Each column is a vector of uniform draws normalized to sum to one,
    then floored at ``floor`` (sum preserved). The whole draw repeats,
    consuming the same generator stream, until for every ordered pair
    of distinct states some agent separates the pair by more than
    ``kl_floor`` in KL divergence.

    An attempt draws every agent's ``(size, num_states)`` table from one
    call, agent after agent, and floors the columns of all agents of one
    signal size at once (see :func:`_floor_columns`).

    Raises
    ------
    GenerationError
        If the identifiability requirement is still violated after
        ``max_attempts`` draws (``kl_floor`` too demanding for the
        signal spaces).
    """
    if num_agents < 1:
        raise ValueError("num_agents must be at least 1")
    if num_states < 2:
        raise ValueError("num_states must be at least 2")
    if np.isscalar(signal_sizes):
        sizes = [int(signal_sizes)] * num_agents
    else:
        sizes = [int(z) for z in signal_sizes]
        if len(sizes) != num_agents:
            raise ValueError("one signal size per agent is required")
    if min(sizes) < 2:
        raise ValueError("every signal space needs at least two outcomes")
    if floor * max(sizes) >= 1.0:
        raise ValueError("floor too large for the signal space")

    rng = _as_rng(seed)
    off_diagonal = ~np.eye(num_states, dtype=bool)
    # Per signal size, its agents and their rows of an attempt's draw.
    # A set, not np.unique: the first np.unique call of a process pays a
    # one-off set-up several times the cost of the whole draw.
    ends = np.cumsum(sizes)
    groups = []
    for size in set(sizes):
        agents = np.flatnonzero(np.array(sizes) == size)
        rows = ends[agents, None] - size + np.arange(size)
        groups.append((size, agents, rows.ravel()))
    tables = [None] * num_agents
    for _ in range(max_attempts):
        draw = rng.random((ends[-1], num_states))
        for size, agents, rows in groups:
            group = draw[rows].reshape(len(agents), size, num_states)
            group /= group.sum(axis=1, keepdims=True)
            # One contiguous row per (agent, state) column.
            columns = np.ascontiguousarray(group.transpose(0, 2, 1))
            _floor_columns(columns.reshape(-1, size), floor)
            for k, table in zip(agents, columns.transpose(0, 2, 1)):
                tables[k] = table
        model = LikelihoodModel(tables, floor)
        if (model.identifiability_gap()[off_diagonal] > kl_floor).all():
            return model
    raise GenerationError(
        f"identifiability gap above {kl_floor} not reached in "
        f"{max_attempts} attempts"
    )


def mean_likelihood_matrix(
    model: LikelihoodModel, generating_state: int, reference: int = 0
) -> np.ndarray:
    """Expected log-likelihood ratio matrix when signals are drawn under
    ``generating_state``.

    Entry ``(k, j)`` equals ``KL_k(generating || other_j) -
    KL_k(generating || reference)``: the exact mean, over agent ``k``'s
    signal distribution, of its rows of
    :meth:`LikelihoodModel.signal_log_ratio_table`.
    """
    if not 0 <= generating_state < model.num_states:
        raise ValueError("generating_state out of range")
    table = model.signal_log_ratio_table(reference)
    # Zero weight, and a zero table entry, past each agent's signal space;
    # contiguous, because einsum's order of summation depends on strides.
    _, probs, _ = model._stacks()
    weights = np.ascontiguousarray(probs[:, :, generating_state])
    return np.einsum("kz,kzj->kj", weights, table)
