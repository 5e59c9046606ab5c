"""Domain types, random generation and the likelihood-side formulas."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from beliefgraph.model import (
    CombinationMatrix,
    GenerationError,
    LikelihoodModel,
    _floor_column,
    _floor_columns,
    erdos_renyi_adjacency,
    is_strongly_connected,
    mean_likelihood_matrix,
    random_combination_matrix,
    random_likelihoods,
    ratio_columns,
)

from helpers import log_likelihood_ratio_matrix, per_agent_stacks, per_column_likelihoods

# Expected values computed by direct summation, independent of the
# library (sum of p * log(p/q) evaluated term by term).
KL_HALF_VS_QUARTER = 0.14384103622589042
KL_NINETY_VS_TEN = 1.7577796618689758


def kl_divergence(p, q) -> float:
    """Kullback-Leibler divergence between two categorical distributions,
    in nats: the oracle of :class:`TestMeanLikelihoodMatrix`, itself
    checked by :class:`TestKlDivergence`."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim != 1:
        raise ValueError("p and q must be vectors of identical length")
    if (p <= 0).any() or (q <= 0).any():
        raise ValueError("entries must be strictly positive")
    if abs(p.sum() - 1.0) > 1e-6 or abs(q.sum() - 1.0) > 1e-6:
        raise ValueError("p and q must sum to one")
    return float(np.sum(p * (np.log(p) - np.log(q))))


def _reachable(adjacency, start=0):
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for nxt in np.nonzero(adjacency[node])[0]:
            if nxt not in seen:
                seen.add(int(nxt))
                frontier.append(int(nxt))
    return seen


def strongly_connected_oracle(adjacency):
    """Breadth-first reachability both ways from node 0: a directed graph
    is strongly connected iff node 0 reaches everyone along arcs and
    along reversed arcs."""
    n = adjacency.shape[0]
    forward = _reachable(np.asarray(adjacency, dtype=bool))
    backward = _reachable(np.asarray(adjacency, dtype=bool).T)
    return len(forward) == n and len(backward) == n


class TestErdosRenyiAdjacency:
    def test_single_node(self):
        mask, attempts = erdos_renyi_adjacency(1, 0.5, seed=0)
        assert mask.shape == (1, 1) and mask[0, 0]
        assert attempts == 1

    def test_full_probability_gives_complete_graph(self):
        mask, _ = erdos_renyi_adjacency(4, 1.0, seed=0)
        assert mask.all()

    def test_thirty_agents_connected_with_self_loops(self):
        mask, _ = erdos_renyi_adjacency(30, 0.2, seed=5)
        assert mask.diagonal().all()
        assert strongly_connected_oracle(mask)

    def test_deterministic_in_seed(self):
        a, na = erdos_renyi_adjacency(30, 0.2, seed=17)
        b, nb = erdos_renyi_adjacency(30, 0.2, seed=17)
        assert na == nb
        np.testing.assert_array_equal(a, b)

    def test_connectivity_check_matches_oracle(self):
        """Sizes 1..60; half the densities straddle the connectivity
        threshold near log(n)/n, where both answers are common."""
        rng = np.random.default_rng(1)
        answers = set()
        for n in range(1, 61):
            for draw in range(24):
                if draw % 2:
                    p = rng.uniform(0.5 / n, min(1.0, 4.0 * np.log(n + 1) / n))
                else:
                    p = rng.uniform(0.0, 0.9)
                mask = rng.random((n, n)) < p
                expected = strongly_connected_oracle(mask)
                assert is_strongly_connected(mask) == expected, (n, p)
                answers.add((n > 1, expected))
        assert answers == {(False, True), (True, False), (True, True)}

    def test_connectivity_check_input(self):
        assert is_strongly_connected(np.array([[0.0, 2.0], [0.5, 0.0]]))
        assert not is_strongly_connected(np.zeros((0, 0), dtype=bool))
        with pytest.raises(ValueError):
            is_strongly_connected(np.ones((2, 3), dtype=bool))

    @pytest.mark.parametrize("edge_prob, attempts, arcs, digest", [
        (0.2, 1, 200,
         "eae293991c960708fcf45147ae2666af5844e81d8e9c5284e8f48444e38971b8"),
        (0.08, 40, 109,
         "88309d628336c1d101b3ecf5fc013bf52561ac3549dbf5ae6183ca55f8e24712"),
    ])
    def test_pinned_draws(self, edge_prob, attempts, arcs, digest):
        """The reference-size draw for seed 0, and a sparse one that
        rejects 39 disconnected masks first, stay exactly as pinned."""
        mask, used = erdos_renyi_adjacency(30, edge_prob, seed=0)
        assert used == attempts
        assert int(mask.sum()) == arcs
        assert hashlib.sha256(np.packbits(mask).tobytes()).hexdigest() == digest

    def test_gives_up_when_probability_too_small(self):
        with pytest.raises(GenerationError):
            erdos_renyi_adjacency(20, 0.01, seed=0, max_attempts=5)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            erdos_renyi_adjacency(0, 0.5, seed=0)
        with pytest.raises(ValueError):
            erdos_renyi_adjacency(3, 0.0, seed=0)


class TestRandomCombinationMatrix:
    def test_single_node_weight_is_one(self):
        matrix = random_combination_matrix(np.array([[True]]), seed=0)
        np.testing.assert_array_equal(matrix.weights, [[1.0]])

    def test_columns_sum_to_one(self):
        for seed in range(10):
            mask, _ = erdos_renyi_adjacency(12, 0.3, seed=seed)
            matrix = random_combination_matrix(mask, seed=seed + 100)
            np.testing.assert_allclose(matrix.weights.sum(axis=0), 1.0, atol=1e-12)

    def test_support_matches_adjacency(self):
        mask, _ = erdos_renyi_adjacency(9, 0.4, seed=2)
        matrix = random_combination_matrix(mask, seed=3)
        np.testing.assert_array_equal(matrix.weights > 0, mask)

    def test_pinned_three_node_matrix(self):
        """Regression pin from the first seeded run of this generator."""
        mask = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]], dtype=bool)
        matrix = random_combination_matrix(mask, seed=123)
        expected = np.array([
            [0.8055937312067805, 0.5344819349213151, 0.0],
            [0.0, 0.4655180650786848, 0.5104034164748559],
            [0.19440626879321948, 0.0, 0.4895965835251442],
        ])
        np.testing.assert_allclose(matrix.weights, expected, rtol=0, atol=1e-16)

    def test_rejects_disconnected_adjacency(self):
        mask = np.array([[1, 0], [0, 1]], dtype=bool)
        with pytest.raises(ValueError):
            random_combination_matrix(mask, seed=0)

    @pytest.mark.parametrize("weights, message", [
        ([[0.5, 0.5]], "weights must be a square matrix"),
        ([1.0], "weights must be a square matrix"),
        ([[[1.0]]], "weights must be a square matrix"),
        (np.zeros((0, 0)), "weights must be a square matrix"),
        ([[1.5, 0.5], [-0.5, 0.5]], "weights must be finite and nonnegative"),
        ([[np.nan, 0.5], [0.5, 0.5]], "weights must be finite and nonnegative"),
        ([[np.inf, 0.5], [0.0, 0.5]], "weights must be finite and nonnegative"),
        ([[0.6, 0.5], [0.5, 0.5]], "columns must sum to one"),
        ([[0.0, 1.0], [1.0, 0.0]], "at least one self-loop is required"),
        ([[1.0, 0.5], [0.0, 0.5]], "the weight graph must be strongly connected"),
    ], ids=["not-square", "one-dimensional", "three-dimensional", "empty", "negative",
            "nan", "infinite", "column-sum", "no-self-loop", "not-strongly-connected"])
    def test_validation_catches_bad_matrices(self, weights, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            CombinationMatrix(np.array(weights))

    def test_adjacency_is_the_read_only_support_of_the_weights(self):
        weights = np.array([[0.5, 0.0, 1.0], [0.5, 0.25, 0.0], [0.0, 0.75, 0.0]])
        matrix = CombinationMatrix(weights)
        assert matrix.adjacency.dtype == bool
        np.testing.assert_array_equal(matrix.adjacency, weights > 0)
        with pytest.raises(ValueError, match="read-only"):
            matrix.adjacency[0, 1] = True


def identifiability_gap_oracle(model):
    """The identifiability gap agent by agent and pair by pair: entry
    ``(a, b)`` is the largest ``sum_z p(z | a) (log p(z | a) - log p(z |
    b))`` over the agents, and at least zero."""
    s_count = model.num_states
    gap = np.zeros((s_count, s_count))
    for t in model.tables:
        log_t = np.log(t)
        for a in range(s_count):
            for b in range(s_count):
                if a != b:
                    d = float(np.sum(t[:, a] * (log_t[:, a] - log_t[:, b])))
                    gap[a, b] = max(gap[a, b], d)
    return gap


# (agents, states, signal sizes, seed, kl_floor): the reference and desk
# worlds, the desk world with a margin that takes 8 draws to reach, and
# 50 small worlds with mixed signal sizes.
GAP_WORLDS = [
    (30, 4, 4, 2, 1e-3),
    (10, 3, 4, 23, 1e-3),
    (10, 3, 4, 23, 1.0),
    (3, 2, [2, 3, 4], 5, 2.0),
    *(
        (2 + k % 7, 2 + k % 4, [2 + (k + i) % 4 for i in range(2 + k % 7)],
         100 + k, 1e-3)
        for k in range(50)
    ),
]


class TestIdentifiabilityGap:
    def test_matches_the_oracle(self):
        for agents, states, sizes, seed, kl_floor in GAP_WORLDS:
            model = random_likelihoods(agents, states, sizes, seed, kl_floor=kl_floor)
            gap = model.identifiability_gap()
            np.testing.assert_allclose(
                gap, identifiability_gap_oracle(model), rtol=0, atol=1e-15
            )
            assert (np.diag(gap) == 0).all()

    def test_random_likelihoods_draws_what_the_oracle_draws(self, monkeypatch):
        """The accept-or-redraw decision is unchanged: with the oracle
        in place of the gap, every world draws the same tables in the
        same number of attempts, redraws included."""
        calls = []

        def count(gap):
            def counted(model):
                calls.append(1)
                return gap(model)
            return counted

        def draws(gap):
            monkeypatch.setattr(LikelihoodModel, "identifiability_gap", count(gap))
            out = []
            for agents, states, sizes, seed, kl_floor in GAP_WORLDS:
                calls.clear()
                model = random_likelihoods(
                    agents, states, sizes, seed, kl_floor=kl_floor
                )
                out.append((model.tables, len(calls)))
            return out

        vectorised = draws(LikelihoodModel.identifiability_gap)
        oracle = draws(identifiability_gap_oracle)
        assert [n for _, n in vectorised] == [n for _, n in oracle]
        assert max(n for _, n in oracle) > 1
        for (a, _), (b, _) in zip(vectorised, oracle):
            assert len(a) == len(b)
            assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestRandomLikelihoods:
    def test_floor_and_normalization(self):
        model = random_likelihoods(5, 3, 2, seed=0, floor=0.1)
        for table in model.tables:
            assert (table >= 0.1).all() and (table <= 0.9 + 1e-15).all()
            np.testing.assert_allclose(table.sum(axis=0), 1.0, atol=1e-12)

    def test_reference_scale_model_passes_checks(self):
        model = random_likelihoods(30, 4, 4, seed=1)
        assert model.num_agents == 30
        assert model.signal_sizes == [4] * 30
        gap = model.identifiability_gap()
        off = ~np.eye(4, dtype=bool)
        assert (gap[off] > 1e-3).all()

    def test_per_agent_signal_sizes(self):
        model = random_likelihoods(3, 2, [2, 3, 4], seed=2)
        assert model.signal_sizes == [2, 3, 4]

    def test_unreachable_identifiability_raises(self):
        # The largest possible KL at this floor is below 10, so every
        # redraw fails and the attempt budget is exhausted.
        with pytest.raises(GenerationError):
            random_likelihoods(4, 3, 4, seed=3, kl_floor=10.0, max_attempts=20)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            random_likelihoods(2, 3, 1, seed=0)
        with pytest.raises(ValueError, match="^num_agents must be at least 1$"):
            random_likelihoods(0, 3, 4, seed=0)
        with pytest.raises(ValueError, match="^one signal size per agent is required$"):
            random_likelihoods(3, 3, [2, 3], seed=0)
        with pytest.raises(ValueError):
            random_likelihoods(2, 3, 4, seed=0, floor=0.3)
        with pytest.raises(ValueError):
            random_likelihoods(2, 1, 4, seed=0)

    def test_deterministic_in_seed(self):
        a = random_likelihoods(4, 3, 3, seed=9)
        b = random_likelihoods(4, 3, 3, seed=9)
        for ta, tb in zip(a.tables, b.tables):
            np.testing.assert_array_equal(ta, tb)


def valid_tables(sizes=(2, 5, 3, 4), num_states=3):
    """Tables of the given signal sizes whose columns sum to one exactly:
    each column is the signal-size-th part of one, the last signal
    taking the rest; every entry is at least 0.2."""
    tables = []
    for size in sizes:
        t = np.full((size, num_states), 1.0 / size)
        t[-1] = 1.0 - t[:-1].sum(axis=0)
        tables.append(t)
    return tables


class TestLikelihoodModelRejections:
    """Every check of LikelihoodModel, each fault placed on an agent
    other than the first, so that an agent index off by one in the
    array checks names the wrong agent."""

    def test_valid_tables_pass(self):
        model = LikelihoodModel(valid_tables(), floor=0.2)
        assert model.signal_sizes == [2, 5, 3, 4]

    @pytest.mark.parametrize("agent", [1, 3])
    @pytest.mark.parametrize("fault, message", [
        ("shape", "table of agent {} has inconsistent shape"),
        ("flat", "table of agent {} has inconsistent shape"),
        ("ragged", "table of agent {} has inconsistent shape"),
        ("text", "agent {} has an entry that is not a number"),
        ("one-signal", "agent {} needs at least two signals"),
        ("below", "agent {} has entries below the floor"),
        ("unbalanced", "columns of agent {} must sum to one"),
        ("nan", "agent {} has a non-finite entry"),
        ("inf", "agent {} has a non-finite entry"),
        ("-inf", "agent {} has a non-finite entry"),
    ])
    def test_names_the_agent_at_fault(self, agent, fault, message):
        tables = valid_tables()
        t = tables[agent]
        if fault == "shape":
            tables[agent] = np.full((t.shape[0], 4), 1.0 / t.shape[0])
        elif fault == "flat":
            tables[agent] = t[:, 0]
        elif fault == "ragged":
            tables[agent] = [*t[:-1].tolist(), t[-1, :2].tolist()]
        elif fault == "text":
            tables[agent] = t.tolist()
            tables[agent][1][2] = "x"
        elif fault == "one-signal":
            tables[agent] = np.ones((1, 3))
        elif fault == "below":
            # The column still sums to one: only the floor is broken.
            t[0, 1] -= 0.1
            t[1, 1] += 0.1
        elif fault == "unbalanced":
            t[0, 2] += 1e-9
        else:
            t[1, 2] = float(fault)
        with pytest.raises(ValueError, match=f"^{message.format(agent)}$"):
            LikelihoodModel(tables, floor=0.2)

    def test_names_agent_0_for_a_flat_table(self):
        """Agent 0's table is checked for two dimensions before the
        number of hypotheses is read from it."""
        with pytest.raises(ValueError, match="^table of agent 0 has inconsistent shape$"):
            LikelihoodModel([np.array([0.5, 0.5]), np.eye(2)], 0.01)

    def test_names_the_first_agent_at_fault(self):
        """Agent 1's columns do not sum to one and agent 3 has a NaN:
        agent 1 is named, with its own fault."""
        tables = valid_tables()
        tables[1][0, 0] += 1e-9
        tables[3][0, 0] = np.nan
        with pytest.raises(ValueError, match="^columns of agent 1 must sum to one$"):
            LikelihoodModel(tables, floor=0.2)

    def test_the_first_fault_of_an_agent_is_named(self):
        """Infinite entries also break their column's sum, here to NaN
        (inf - inf) without a warning; they are named as non-finite,
        the first check."""
        tables = valid_tables()
        tables[2][0, 0] = np.inf
        tables[2][1, 0] = -np.inf
        with pytest.raises(ValueError, match="^agent 2 has a non-finite entry$"):
            LikelihoodModel(tables, floor=0.2)

    @pytest.mark.parametrize("floor", [0.0, -0.1, np.nan, np.inf])
    def test_rejects_a_floor_that_is_not_positive_and_finite(self, floor):
        with pytest.raises(ValueError, match="^floor must be positive and finite$"):
            LikelihoodModel(valid_tables(), floor=floor)

    def test_rejects_no_agents_and_one_hypothesis(self):
        with pytest.raises(ValueError, match="at least one agent"):
            LikelihoodModel([], floor=0.2)
        with pytest.raises(ValueError, match="two hypotheses"):
            LikelihoodModel([np.full((2, 1), 0.5)] * 2, floor=0.2)


@st.composite
def generator_worlds(draw):
    """Arguments of random_likelihoods: one signal size for all agents
    or one per agent, a floor up to just below one over the largest
    signal size, so that a rescale often pushes further entries under
    it, and a kl_floor up to one that most draws miss."""
    agents = draw(st.integers(1, 8))
    if draw(st.booleans()):
        sizes = draw(st.integers(2, 40))
        largest = sizes
    else:
        sizes = draw(st.lists(st.integers(2, 24), min_size=agents, max_size=agents))
        largest = max(sizes)
    floor = draw(st.floats(0.05, 0.95)) / largest
    kl_floor = draw(st.sampled_from([1e-3, 0.1, 1.0]))
    return (agents, draw(st.integers(2, 5)), sizes, draw(st.integers(0, 2**32 - 1)),
            floor, kl_floor)


# Worlds the oracle tests always run: the reference world, signal sizes
# of 8 and more, unequal sizes, a floor just below one over the signal
# size and kl_floors that take redraws (TestArrayForms checks each).
EXACT_WORLDS = {
    "reference": (30, 4, 4, 2, 0.01, 1e-3),
    "wide": (5, 3, 130, 7, 0.007, 1e-3),
    "unequal": (6, 4, [2, 9, 3, 17, 9, 2], 11, 0.05, 1e-3),
    "tight-floor": (4, 3, [8, 12, 10, 12], 12, 0.08, 1e-3),
    "redraws": (10, 3, 4, 23, 0.01, 1.0),
    "unequal-redraws": (3, 2, [2, 3, 4], 5, 0.01, 2.0),
}


class TestArrayForms:
    """The generator, the model's stacks and its ratio tables, formed
    for all agents at once, equal the per-agent and per-column forms
    kept in tests/helpers.py, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(generator_worlds())
    @example(EXACT_WORLDS["reference"])
    @example(EXACT_WORLDS["wide"])
    @example(EXACT_WORLDS["unequal"])
    @example(EXACT_WORLDS["tight-floor"])
    @example(EXACT_WORLDS["redraws"])
    @example(EXACT_WORLDS["unequal-redraws"])
    def test_matches_the_per_agent_forms(self, world):
        agents, states, sizes, seed, floor, kl_floor = world
        try:
            model = random_likelihoods(agents, states, sizes, seed, floor, kl_floor,
                                       max_attempts=30)
        except GenerationError:
            with pytest.raises(GenerationError):
                per_column_likelihoods(agents, states, sizes, seed, floor, kl_floor,
                                       max_attempts=30)
            return
        oracle = per_column_likelihoods(agents, states, sizes, seed, floor, kl_floor,
                                        max_attempts=30)
        assert len(model.tables) == len(oracle.tables)
        assert all(np.array_equal(a, b) for a, b in zip(model.tables, oracle.tables))
        stacks = per_agent_stacks(model)
        assert all(np.array_equal(a, b) for a, b in zip(model._stacks(), stacks))
        logs = stacks[2]
        for reference in range(states):
            cols = ratio_columns(states, reference)
            assert np.array_equal(model.signal_log_ratio_table(reference),
                                  logs[:, :, [reference]] - logs[:, :, cols])

    def test_the_worlds_reach_every_branch(self, monkeypatch):
        """The fixed worlds clamp columns in more than one round and
        redraw; the tight floor does both in one world's first draw."""
        rounds = []

        def counted(column, eps):
            out = _floor_column(column, eps)
            # A second round clamps an entry that was above the floor.
            rounds.append(((out == eps) & (column >= eps)).any())
            return out

        monkeypatch.setattr("beliefgraph.model._floor_column", counted)
        agents, states, sizes, seed, floor, _ = EXACT_WORLDS["tight-floor"]
        random_likelihoods(agents, states, sizes, seed, floor)
        assert any(rounds)
        for name in ("redraws", "unequal-redraws"):
            agents, states, sizes, seed, floor, kl_floor = EXACT_WORLDS[name]
            with pytest.raises(GenerationError):
                random_likelihoods(agents, states, sizes, seed, floor, kl_floor,
                                   max_attempts=1)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 40), st.integers(1, 12), st.floats(0.05, 0.99),
           st.integers(0, 2**32 - 1))
    def test_floor_columns_clamps_each_row_as_floor_column(self, size, count, share,
                                                           seed):
        rng = np.random.default_rng(seed)
        columns = rng.random((count, size))
        columns /= columns.sum(axis=1, keepdims=True)
        eps = share / size
        expected = np.array([_floor_column(row, eps) for row in columns])
        _floor_columns(columns, eps)
        assert np.array_equal(columns, expected)

    def test_floor_column_can_take_two_rounds(self):
        """Clamping the zero entry rescales 0.105 to 0.0945, under the
        floor, so a second round clamps it too."""
        column = np.array([0.0, 0.105, 0.895])
        assert np.array_equal(_floor_column(column, 0.1), [0.1, 0.1, 0.8])
        columns = column[None].copy()
        _floor_columns(columns, 0.1)
        assert np.array_equal(columns, [[0.1, 0.1, 0.8]])


class TestKlDivergence:
    """The test-local oracle against hand values and its own checks."""

    def test_identical_distributions(self):
        assert kl_divergence([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_pinned_values(self):
        assert kl_divergence([0.5, 0.5], [0.25, 0.75]) == pytest.approx(
            KL_HALF_VS_QUARTER, abs=1e-15
        )
        assert kl_divergence([0.9, 0.1], [0.1, 0.9]) == pytest.approx(
            KL_NINETY_VS_TEN, abs=1e-15
        )

    def test_nonnegative_and_zero_only_at_equality(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            p = rng.random(4) + 1e-3
            p /= p.sum()
            q = rng.random(4) + 1e-3
            q /= q.sum()
            value = kl_divergence(p, q)
            assert value >= 0.0
            if np.abs(p - q).max() > 1e-12:
                assert value > 0.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            kl_divergence([0.5, 0.5], [0.3, 0.3, 0.4])
        with pytest.raises(ValueError):
            kl_divergence([1.0, 0.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            kl_divergence([0.4, 0.4], [0.5, 0.5])


class TestLogLikelihoodRatioMatrix:
    def test_indistinguishable_states_give_zeros(self):
        tables = [np.tile([[0.6], [0.4]], (1, 3))] * 2
        model = LikelihoodModel(tables, floor=0.1)
        out = log_likelihood_ratio_matrix(model, [0, 1])
        np.testing.assert_array_equal(out, np.zeros((2, 2)))

    def test_two_state_hand_value(self, two_state_model):
        out = log_likelihood_ratio_matrix(two_state_model, [0, 0])
        assert out[0, 0] == pytest.approx(np.log(0.8 / 0.2), abs=1e-15)
        assert out[1, 0] == pytest.approx(np.log(0.6 / 0.3), abs=1e-15)

    def test_entries_respect_analytic_bound(self):
        model = random_likelihoods(8, 4, 5, seed=6)
        # With probabilities floored at eps and unit column sums, an entry
        # is at most 1 - 4 eps among 5 signals, so a log-ratio is at most
        # log((1 - 4 eps) / eps) in magnitude.
        bound = np.log((1.0 - 4 * model.floor) / model.floor)
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(10_000):
            signals = rng.integers(0, 5, size=8)
            worst = max(worst, np.abs(log_likelihood_ratio_matrix(model, signals)).max())
        assert worst <= bound + 1e-12

    def test_signal_outside_space(self, two_state_model):
        with pytest.raises(ValueError):
            log_likelihood_ratio_matrix(two_state_model, [0, 2])

    def test_reads_the_cached_signal_table(self):
        """Rows of the per-reference table, bit for bit the differences
        of the signal's log-likelihoods; the table is built once and is
        read-only."""
        model = random_likelihoods(4, 4, [2, 3, 4, 5], seed=11)
        rng = np.random.default_rng(12)
        for reference in range(4):
            table = model.signal_log_ratio_table(reference)
            assert table.shape == (4, 5, 3)
            assert model.signal_log_ratio_table(reference) is table
            with pytest.raises(ValueError):
                table[0, 0, 0] = 1.0
            cols = ratio_columns(4, reference)
            for _ in range(50):
                signals = [int(rng.integers(z)) for z in model.signal_sizes]
                log_lik = np.log([t[z] for t, z in zip(model.tables, signals)])
                np.testing.assert_array_equal(
                    log_likelihood_ratio_matrix(model, signals, reference),
                    log_lik[:, [reference]] - log_lik[:, cols],
                )
        with pytest.raises(ValueError):
            model.signal_log_ratio_table(4)


def kl_difference_oracle(model, generating_state, reference):
    """``KL_k(generating || other_j) - KL_k(generating || reference)``
    entry by entry, with the checked oracle :func:`kl_divergence`."""
    cols = ratio_columns(model.num_states, reference)
    out = np.empty((model.num_agents, model.num_states - 1))
    for k, t in enumerate(model.tables):
        d_ref = kl_divergence(t[:, generating_state], t[:, reference])
        for jj, j in enumerate(cols):
            out[k, jj] = kl_divergence(t[:, generating_state], t[:, j]) - d_ref
    return out


class TestMeanLikelihoodMatrix:
    def test_matches_the_kl_difference_oracle(self):
        """The probability-weighted mean of the cached signal table equals
        the difference of divergences, for every (generating, reference)
        pair of a model with mixed 3- and 4-signal agents."""
        model = random_likelihoods(30, 4, [3, 4] * 15, seed=5)
        for generating in range(4):
            for reference in range(4):
                np.testing.assert_allclose(
                    mean_likelihood_matrix(model, generating, reference),
                    kl_difference_oracle(model, generating, reference),
                    rtol=0, atol=1e-14,
                )
        with pytest.raises(ValueError):
            mean_likelihood_matrix(model, 4)
        with pytest.raises(ValueError):
            mean_likelihood_matrix(model, 0, reference=4)

    def test_reference_as_generating_state(self, two_state_model):
        out = mean_likelihood_matrix(two_state_model, 0, reference=0)
        for k, table in enumerate(two_state_model.tables):
            expected = kl_divergence(table[:, 0], table[:, 1])
            assert out[k, 0] == pytest.approx(expected, abs=1e-15)
            assert out[k, 0] >= 0.0

    def test_indistinguishable_states_give_zeros(self):
        tables = [np.tile([[0.7], [0.3]], (1, 4))]
        model = LikelihoodModel(tables, floor=0.1)
        out = mean_likelihood_matrix(model, 2)
        np.testing.assert_array_equal(out, np.zeros((1, 3)))

    @pytest.mark.parametrize("state", [-1, 3])
    def test_sampling_cdf_rejects_a_state_outside_the_model(self, state):
        model = random_likelihoods(4, 3, 4, seed=8)
        with pytest.raises(ValueError, match="^state out of range$"):
            model.sampling_cdf(state)

    def test_monte_carlo_mean(self):
        """The sampled mean of the ratio matrices must approach the
        closed form; the full-scale check lives in the acceptance suite."""
        model = random_likelihoods(4, 3, 4, seed=8)
        rng = np.random.default_rng(9)
        samples = 100_000
        u = rng.random((samples, 4))
        cdf = model.sampling_cdf(1)
        signals = (cdf[None, :, :] < u[:, None, :]).sum(axis=1)
        mean = np.zeros((4, 2))
        for z in range(4):
            ratio = log_likelihood_ratio_matrix(model, np.full(4, z))
            freq = (signals == z).mean(axis=0)
            mean += freq[:, None] * ratio
        np.testing.assert_allclose(mean, mean_likelihood_matrix(model, 1), atol=0.01)

    def test_nonuniform_reference(self):
        model = random_likelihoods(3, 4, 4, seed=10)
        out = mean_likelihood_matrix(model, 2, reference=1)
        assert out.shape == (3, 3)
        assert ratio_columns(4, 1) == [0, 2, 3]
        # column for the generating state itself has entries <= 0:
        # it is minus the divergence against the reference.
        gen_col = ratio_columns(4, 1).index(2)
        assert (out[:, gen_col] <= 0).all()
