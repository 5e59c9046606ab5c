"""Forward protocol: adapt, combine, event handling and full runs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from beliefgraph.estimator import belief_log_ratios
from beliefgraph.model import (
    CombinationMatrix,
    LikelihoodModel,
    erdos_renyi_adjacency,
    random_combination_matrix,
    random_likelihoods,
)
from beliefgraph.simulate import (
    CHUNK_STEPS,
    Event,
    EventSchedule,
    _ratio_log_beliefs,
    adapt_step,
    combine_step,
    run_simulation,
    sample_observations,
)

from helpers import log_likelihood_ratio_matrix, log_normalize

ROW_SUM_TOL = 1e-10


def state_estimates(log_beliefs):
    """Per-agent most believed hypothesis, ties to the lowest index: an
    ``int`` for one belief row, one index per row for a matrix."""
    log_beliefs = np.asarray(log_beliefs)
    if log_beliefs.ndim == 1:
        return int(np.argmax(log_beliefs))
    return np.argmax(log_beliefs, axis=1)


def uniform_log(n, s):
    return np.full((n, s), -np.log(s))


def check_log_beliefs(log_beliefs, tol=ROW_SUM_TOL):
    """Raise if any row fails to be a finite normalized log-distribution."""
    log_beliefs = np.asarray(log_beliefs, dtype=float)
    if not np.isfinite(log_beliefs).all():
        raise ValueError("log-beliefs must be finite")
    # Normalizing a row moves every entry by the row's log-sum-exp.
    residual = np.abs(log_beliefs - log_normalize(log_beliefs))
    if residual.max() > tol:
        raise ValueError(f"belief rows not normalized (residual {residual.max():.2e})")


# The forward protocol in the probability domain, step by step: the
# oracle the ratio-coordinate forward pass is checked against.

def oracle_adapt(log_beliefs, signals, model, delta):
    """Normalization of ``delta * log L_k(signal_k | .) + (1 - delta) *
    log_beliefs[k]``, row by row."""
    log_lik = np.log([table[z] for table, z in zip(model.tables, signals)])
    return log_normalize(delta * log_lik + (1.0 - delta) * log_beliefs)


def oracle_combine(shared_log_beliefs, combination):
    """Normalization of ``sum_l A[l, k] * shared_log_beliefs[l]``."""
    return log_normalize(combination.weights.T @ shared_log_beliefs)


def oracle_run(model, combination, true_state, delta, num_iterations, seed,
               events=(), edge_prob=None, reference=0):
    """Per iteration: signals, private ratios, shared log-beliefs, true
    state and combination matrix, from single-step draws."""
    rng = np.random.default_rng(seed)
    due = {e.iteration: e for e in events}
    log_beliefs = uniform_log(model.num_agents, model.num_states)
    out = []
    for i in range(1, num_iterations + 1):
        event = due.get(i)
        if event is not None and event.action == "set_true_state":
            true_state = event.value
        elif event is not None:
            regen = np.random.default_rng(event.value)
            adjacency, _ = erdos_renyi_adjacency(model.num_agents, edge_prob, regen)
            combination = random_combination_matrix(adjacency, regen)
        signals = sample_observations(model, true_state, rng)
        shared = oracle_adapt(log_beliefs, signals, model, delta)
        out.append((
            signals,
            log_likelihood_ratio_matrix(model, signals, reference),
            shared,
            true_state,
            combination,
        ))
        log_beliefs = oracle_combine(shared, combination)
    return out


def plain_forward_ratios(model, combination, true_state, delta, num_iterations,
                         seed, events=(), edge_prob=None):
    """The shared log-ratios of every iteration from a plain loop of the
    public ``adapt_step`` and ``combine_step``, one signal draw per
    iteration and events applied as ``oracle_run`` applies them."""
    rng = np.random.default_rng(seed)
    due = {e.iteration: e for e in events}
    table = model.signal_log_ratio_table(0)
    agents = np.arange(model.num_agents)
    ratios = np.zeros((model.num_agents, model.num_states - 1))
    shared = []
    for i in range(1, num_iterations + 1):
        event = due.get(i)
        if event is not None and event.action == "set_true_state":
            true_state = event.value
        elif event is not None:
            regen = np.random.default_rng(event.value)
            adjacency, _ = erdos_renyi_adjacency(model.num_agents, edge_prob, regen)
            combination = random_combination_matrix(adjacency, regen)
        signals = sample_observations(model, true_state, rng)
        ratios = adapt_step(ratios, delta * table[agents, signals], delta)
        shared.append(ratios)
        ratios = combine_step(ratios, combination)
    return np.stack(shared)


def fsum_log_sum_exp(row):
    """Log-sum-exp of one row in scalar arithmetic, with the shifted
    exponentials summed exactly rounded by ``math.fsum``."""
    peak = max(row)
    return peak + math.log(math.fsum(math.exp(v - peak) for v in row))


def fsum_mass(row):
    """Total probability of a log-probability row, exactly rounded."""
    return math.fsum(math.exp(v) for v in row)


def extreme_rows(rng, shape):
    """Rows far below zero with entries spread over 1e3 within each row."""
    return -1e5 - 1e3 * rng.random(shape)


class TestLogNormalization:
    @pytest.mark.parametrize("kind", ["random", "extreme"])
    def test_matches_fsum_reference(self, kind):
        rng = np.random.default_rng(50)
        for num_states in range(2, 9):
            shape = (40, num_states)
            rows = (
                10.0 * rng.standard_normal(shape) if kind == "random"
                else extreme_rows(rng, shape)
            )
            out = log_normalize(rows)
            assert np.isfinite(out).all()
            expected = [fsum_log_sum_exp(row) for row in rows.tolist()]
            # Normalizing moves every entry of a row by its log-sum-exp.
            np.testing.assert_allclose(
                rows - out, np.repeat(np.array(expected)[:, None], num_states, 1),
                rtol=1e-15, atol=1e-14,
            )
            for row in out.tolist():
                assert abs(fsum_mass(row) - 1.0) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=9),
        elements=st.floats(-1e6, 1e6),
    ))
    def test_chunk_normalization_is_the_oracle_bit_for_bit(self, ratios):
        """The forward pass normalizes a chunk in place on a transposed
        stack; the result is log_normalize of ``[0, -ratios]`` with the
        states as the leading axis, bit for bit, for one row, one
        snapshot and a stack of snapshots."""
        # C order: a sum over the leading axis of this layout adds slab
        # after slab, in state order.
        stacked = np.empty((ratios.shape[-1] + 1,) + ratios.shape[:-1])
        stacked[0] = 0.0
        stacked[1:] = -np.moveaxis(ratios, -1, 0)
        out = _ratio_log_beliefs(ratios)
        assert out.flags.c_contiguous
        assert np.array_equal(out, np.moveaxis(log_normalize(stacked, axis=0), 0, -1))

    def test_adapt_and_combine_normalize_extreme_rows(self, small_setup):
        """Log-ratios far from zero, spread over 1e3 within each row, stay
        finite through adapt and combine, and their log-beliefs are
        normalized; so are the oracle's outputs on extreme log-beliefs."""
        model, combination = small_setup
        rng = np.random.default_rng(51)
        shape = (model.num_agents, model.num_states - 1)
        ratios = extreme_rows(rng, shape) * rng.choice([-1.0, 1.0], size=shape)
        signals = sample_observations(model, 0, rng)
        weighted = 0.5 * log_likelihood_ratio_matrix(model, signals)
        log_beliefs = extreme_rows(rng, (model.num_agents, model.num_states))
        for out in (
            _ratio_log_beliefs(adapt_step(ratios, weighted, 0.5)),
            _ratio_log_beliefs(combine_step(ratios, combination)),
            oracle_adapt(log_beliefs, signals, model, 0.5),
            oracle_combine(log_beliefs, combination),
        ):
            assert np.isfinite(out).all()
            for row in out.tolist():
                assert abs(fsum_mass(row) - 1.0) <= 1e-12
            check_log_beliefs(out)


class TestSampleObservations:
    def test_concentrated_column_frequency(self):
        table = np.array([
            [0.97, 0.25],
            [0.01, 0.25],
            [0.01, 0.25],
            [0.01, 0.25],
        ])
        model = LikelihoodModel([table], floor=0.01)
        rng = np.random.default_rng(0)
        draws = np.array([sample_observations(model, 0, rng)[0] for _ in range(10_000)])
        assert abs((draws == 0).mean() - 0.97) <= 0.01

    def test_deterministic_under_seed(self):
        model = random_likelihoods(5, 3, 4, seed=1)
        a = [sample_observations(model, 1, np.random.default_rng(7)) for _ in range(3)]
        b = [sample_observations(model, 1, np.random.default_rng(7)) for _ in range(3)]
        np.testing.assert_array_equal(a[0], b[0])

    def test_histogram_matches_table_in_total_variation(self):
        model = random_likelihoods(4, 3, 4, seed=2)
        rng = np.random.default_rng(3)
        counts = np.zeros((4, 4))
        samples = 100_000
        for _ in range(samples):
            counts[np.arange(4), sample_observations(model, 2, rng)] += 1
        freq = counts / samples
        for k, table in enumerate(model.tables):
            tv = 0.5 * np.abs(freq[k] - table[:, 2]).sum()
            assert tv <= 0.01

    def test_a_draw_just_below_one_stays_in_every_space(self):
        """Next to a 4-signal agent, a 3-signal column whose cumulative
        sum rounds to 1 - 2**-52: a uniform draw above that sum (the
        largest double below 1.0) gives the 3-signal agent its last
        signal, not a signal from the larger space."""
        column = [0.7380289979116733, 0.21375794350507327, 0.04821305858325322]
        top = np.nextafter(1.0, 0.0)
        assert np.cumsum(column)[-1] < top
        model = LikelihoodModel(
            [np.array([column, column[::-1]]).T, np.full((4, 2), 0.25)],
            floor=0.01,
        )

        class TopDraw:
            def random(self, size):
                return np.full(size, top)

        signals = sample_observations(model, 0, TopDraw())
        np.testing.assert_array_equal(signals, [2, 3])
        log_likelihood_ratio_matrix(model, signals)

    def test_a_chunk_equals_single_step_draws(self):
        model = random_likelihoods(5, 3, [2, 3, 4, 5, 4], seed=6)
        chunk = sample_observations(model, 2, np.random.default_rng(8), steps=37)
        rng = np.random.default_rng(8)
        single = [sample_observations(model, 2, rng) for _ in range(37)]
        assert chunk.shape == (37, 5)
        np.testing.assert_array_equal(chunk, single)

    def test_per_agent_signal_spaces(self):
        model = random_likelihoods(3, 2, [2, 3, 5], seed=4)
        rng = np.random.default_rng(5)
        for _ in range(200):
            signals = sample_observations(model, 0, rng)
            assert (signals < np.array([2, 3, 5])).all()


class TestAdaptStep:
    def test_full_weight_on_likelihood(self, two_state_model):
        """With delta = 1 the prior is forgotten: the ratios are the
        signal's log-likelihood ratios."""
        x = log_likelihood_ratio_matrix(two_state_model, [0, 0])
        prior = np.array([[3.0], [-7.0]])
        ratios = adapt_step(prior, 1.0 * x, delta=1.0)
        np.testing.assert_array_equal(ratios, x)
        shared = _ratio_log_beliefs(ratios)
        np.testing.assert_allclose(np.exp(shared[0]), [0.8, 0.2], atol=1e-15)

    def test_uninformative_signal_keeps_uniform(self):
        tables = [np.tile([[0.5], [0.5]], (1, 2))]
        model = LikelihoodModel(tables, floor=0.1)
        x = log_likelihood_ratio_matrix(model, [0])
        ratios = adapt_step(np.zeros((1, 1)), 0.4 * x, delta=0.4)
        np.testing.assert_array_equal(ratios, [[0.0]])
        np.testing.assert_allclose(
            np.exp(_ratio_log_beliefs(ratios)), [[0.5, 0.5]], atol=1e-15
        )

    def test_half_step_hand_value(self, two_state_model):
        """From uniform beliefs half a step towards 0.8 / 0.2 gives the
        ratio log 2, the belief 2/3 against 1/3."""
        x = log_likelihood_ratio_matrix(two_state_model, [0, 0])
        ratios = adapt_step(np.zeros((2, 1)), 0.5 * x, delta=0.5)
        assert ratios[0, 0] == pytest.approx(np.log(2.0), abs=1e-15)
        shared = _ratio_log_beliefs(ratios)
        np.testing.assert_allclose(np.exp(shared[0]), [2 / 3, 1 / 3], atol=1e-12)

    def test_rejects_bad_delta(self, two_state_model):
        for delta in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                adapt_step(np.zeros((2, 1)), np.zeros((2, 1)), delta=delta)

    def test_matches_the_probability_domain_oracle(self, small_setup):
        model, _ = small_setup
        rng = np.random.default_rng(52)
        log_beliefs = np.log(rng.dirichlet(np.ones(model.num_states), model.num_agents))
        signals = sample_observations(model, 1, rng)
        for delta in (0.05, 0.3, 1.0):
            ratios = adapt_step(
                belief_log_ratios(log_beliefs),
                delta * log_likelihood_ratio_matrix(model, signals),
                delta,
            )
            expected = oracle_adapt(log_beliefs, signals, model, delta)
            np.testing.assert_allclose(
                _ratio_log_beliefs(ratios), expected, rtol=0, atol=1e-14
            )


class TestCombineStep:
    def test_single_agent_identity(self):
        matrix = random_combination_matrix(np.array([[True]]), seed=0)
        ratios = np.array([[np.log(0.3 / 0.7)]])
        np.testing.assert_array_equal(combine_step(ratios, matrix), ratios)

    def test_balanced_weights_cancel_opposite_beliefs(self):
        matrix = CombinationMatrix(np.full((2, 2), 0.5))
        ratios = np.array([[np.log(4.0)], [-np.log(4.0)]])
        combined = combine_step(ratios, matrix)
        np.testing.assert_array_equal(combined, np.zeros((2, 1)))
        np.testing.assert_allclose(
            np.exp(_ratio_log_beliefs(combined)), np.full((2, 2), 0.5), atol=1e-15
        )

    def test_weighted_geometric_mean_hand_value(self):
        weights = np.array([[0.75, 0.25], [0.25, 0.75]])
        matrix = CombinationMatrix(weights)
        shared = np.log(np.array([[0.9, 0.1], [0.5, 0.5]]))
        combined = combine_step(belief_log_ratios(shared), matrix)
        assert combined[0, 0] == pytest.approx(0.75 * np.log(9.0), abs=1e-15)
        ratio = 9.0**0.75
        np.testing.assert_allclose(
            np.exp(_ratio_log_beliefs(combined)[0]),
            [ratio / (1 + ratio), 1 / (1 + ratio)],
            atol=1e-12,
        )

    def test_shape_mismatch(self, small_setup):
        _, combination = small_setup
        with pytest.raises(ValueError):
            combine_step(np.zeros((3, 2)), combination)

    @pytest.mark.parametrize("n", [7, 10, 30, 64])
    @pytest.mark.parametrize("columns", [1, 2, 3])
    def test_equals_the_matmul_form(self, n, columns):
        """``W.T.dot(ratios)`` is bit for bit ``W.T @ ratios``."""
        adjacency, _ = erdos_renyi_adjacency(n, 0.3, seed=n)
        combination = random_combination_matrix(adjacency, seed=n + 1)
        rng = np.random.default_rng(n * columns)
        for scale in (1.0, 1e-3, 1e3):
            ratios = scale * rng.standard_normal((n, columns))
            assert np.array_equal(combine_step(ratios, combination),
                                  combination.weights.T @ ratios)

    def test_matches_the_probability_domain_oracle(self, small_setup):
        model, combination = small_setup
        rng = np.random.default_rng(53)
        shared = np.log(rng.dirichlet(np.ones(model.num_states), model.num_agents))
        combined = combine_step(belief_log_ratios(shared), combination)
        np.testing.assert_allclose(
            _ratio_log_beliefs(combined), oracle_combine(shared, combination),
            rtol=0, atol=1e-14,
        )


class TestStateEstimates:
    def test_plain_argmax(self):
        assert state_estimates(np.log([0.7, 0.1, 0.1, 0.1])) == 0
        assert state_estimates(np.log([0.1, 0.1, 0.7, 0.1])) == 2

    def test_tie_breaks_to_lowest_index(self):
        assert state_estimates(np.log([0.5, 0.5])) == 0

    def test_matrix_input(self):
        rows = np.log([[0.6, 0.4], [0.4, 0.6]])
        np.testing.assert_array_equal(state_estimates(rows), [0, 1])


class TestRunSimulation:
    def test_zero_iterations_is_empty(self, small_setup):
        model, combination = small_setup
        steps = list(run_simulation(model, combination, 0, 0.3, 0, seed=0))
        assert steps == []

    def test_streams_are_bit_identical_under_seed(self, small_setup):
        model, combination = small_setup
        def collect():
            return np.array([
                s.shared_log_beliefs
                for s in run_simulation(model, combination, 1, 0.3, 60, seed=11)
            ])
        np.testing.assert_array_equal(collect(), collect())

    def test_rows_stay_normalized_and_finite(self, small_setup):
        model, combination = small_setup
        for step in run_simulation(model, combination, 2, 0.3, 300, seed=12):
            check_log_beliefs(step.shared_log_beliefs)

    def test_private_data_only_on_request(self, small_setup):
        model, combination = small_setup
        step = next(iter(run_simulation(model, combination, 0, 0.3, 5, seed=13)))
        assert step.signal_log_ratios is None
        step = next(iter(run_simulation(
            model, combination, 0, 0.3, 5, seed=13, record_private=True
        )))
        assert step.signal_log_ratios.shape == (6, 2)

    def test_most_agents_find_the_true_state(self):
        """End-to-end learning check: with a small step size the network
        identifies the true hypothesis almost always late in a run."""
        adjacency_model = random_likelihoods(30, 4, 4, seed=20)
        mask, _ = erdos_renyi_adjacency(30, 0.2, seed=21)
        combination = random_combination_matrix(mask, seed=22)
        hits = []
        for step in run_simulation(adjacency_model, combination, 2, 0.05, 2000, seed=23):
            if step.iteration > 1000:
                estimates = state_estimates(step.shared_log_beliefs)
                hits.append((estimates == 2).mean())
        assert np.mean(hits) >= 0.95

    def test_error_rate_trend_is_nonincreasing(self):
        """Windowed per-agent error rates may not regress by more than
        0.01 between consecutive 500-iteration windows."""
        model = random_likelihoods(30, 4, 4, seed=24)
        mask, _ = erdos_renyi_adjacency(30, 0.2, seed=25)
        combination = random_combination_matrix(mask, seed=26)
        errors = [
            (state_estimates(step.shared_log_beliefs) != 1).mean()
            for step in run_simulation(model, combination, 1, 0.05, 2000, seed=27)
        ]
        windows = np.array(errors).reshape(4, 500).mean(axis=1)
        assert (np.diff(windows) <= 0.01).all()

    def test_recursion_identity_with_events(self, small_setup):
        """Consecutive shared-belief ratio matrices obey the linear
        recursion through the previous step's combination matrix, also
        across state changes and graph regeneration."""
        model, combination = small_setup
        delta = 0.3
        schedule = EventSchedule((
            Event(40, "set_true_state", 2),
            Event(80, "regenerate_graph", 99),
        ))
        prev_ratios = np.zeros((6, 2))
        prev_combination = combination
        worst = 0.0
        epochs = set()
        for step in run_simulation(
            model, combination, 0, delta, 120, seed=14,
            schedule=schedule, record_private=True, edge_prob=0.5,
        ):
            ratios = belief_log_ratios(step.shared_log_beliefs)
            predicted = (
                (1 - delta) * (prev_combination.weights.T @ prev_ratios)
                + delta * step.signal_log_ratios
            )
            worst = max(worst, np.abs(ratios - predicted).max())
            prev_ratios = ratios
            prev_combination = step.combination
            epochs.add(step.graph_epoch)
            if step.iteration >= 40:
                assert step.true_state == 2
        assert worst <= 1e-9
        assert epochs == {0, 1}

    def test_regenerated_graph_is_valid(self, small_setup):
        model, combination = small_setup
        schedule = EventSchedule((Event(10, "regenerate_graph", 5),))
        last = None
        for step in run_simulation(
            model, combination, 0, 0.3, 20, seed=15,
            schedule=schedule, edge_prob=0.5,
        ):
            last = step
        assert last.graph_epoch == 1
        assert last.combination is not combination
        np.testing.assert_allclose(last.combination.weights.sum(axis=0), 1.0, atol=1e-12)

    def test_event_validation(self, small_setup):
        model, combination = small_setup
        with pytest.raises(ValueError):
            Event(0, "set_true_state", 1)
        with pytest.raises(ValueError):
            Event(5, "unknown_action", 1)
        with pytest.raises(ValueError):
            EventSchedule((Event(5, "set_true_state", 1), Event(5, "set_true_state", 2)))
        with pytest.raises(ValueError):
            list(run_simulation(
                model, combination, 0, 0.3, 10, seed=0,
                schedule=EventSchedule((Event(11, "set_true_state", 1),)),
            ))
        with pytest.raises(ValueError):
            list(run_simulation(
                model, combination, 0, 0.3, 10, seed=0,
                schedule=EventSchedule((Event(5, "regenerate_graph", 1),)),
            ))

    def test_bad_arguments(self, small_setup):
        model, combination = small_setup
        with pytest.raises(ValueError):
            list(run_simulation(model, combination, 9, 0.3, 5, seed=0))
        with pytest.raises(ValueError):
            list(run_simulation(model, combination, 0, 1.0, 5, seed=0))
        with pytest.raises(ValueError, match="^num_iterations must be nonnegative$"):
            list(run_simulation(model, combination, 0, 0.3, -1, seed=0))
        adjacency, _ = erdos_renyi_adjacency(4, 0.5, seed=30)
        other = random_combination_matrix(adjacency, seed=31)
        with pytest.raises(ValueError,
                           match="^combination matrix does not match the model$"):
            list(run_simulation(model, other, 0, 0.3, 5, seed=0))

    def test_an_event_state_outside_the_model_is_named(self, small_setup):
        """The state of a set_true_state event is checked when the event
        is due: the steps before it run."""
        model, combination = small_setup
        steps = run_simulation(model, combination, 0, 0.3, 10, seed=0,
                               schedule=EventSchedule((Event(5, "set_true_state", 3),)))
        assert [next(steps).iteration for _ in range(4)] == [1, 2, 3, 4]
        with pytest.raises(ValueError, match="^event state 3 out of range$"):
            next(steps)


class TestForwardPassAgainstOracle:
    """The chunked ratio-coordinate forward pass against the step-by-step
    probability-domain oracle under the same seed: private ratios (so
    the signals) bit for bit, shared log-beliefs within 1e-12."""

    def compare(self, model, combination, true_state, delta, num_iterations,
                seed, events=(), edge_prob=None, reference=0):
        expected = oracle_run(
            model, combination, true_state, delta, num_iterations, seed,
            events, edge_prob, reference,
        )
        due = {e.iteration: e.action for e in events}
        steps = run_simulation(
            model, combination, true_state, delta, num_iterations, seed,
            schedule=EventSchedule(tuple(events)), record_private=True,
            edge_prob=edge_prob, reference=reference,
        )
        worst = 0.0
        count = 0
        for step, (_, private, shared, state, matrix) in zip(steps, expected):
            count += 1
            assert step.iteration == count
            assert step.event == due.get(count)
            assert step.true_state == state
            np.testing.assert_array_equal(step.combination.weights, matrix.weights)
            np.testing.assert_array_equal(step.signal_log_ratios, private)
            worst = max(worst, np.abs(step.shared_log_beliefs - shared).max())
        assert count == num_iterations
        assert worst <= 1e-12

    def test_reference_config(self):
        adjacency, _ = erdos_renyi_adjacency(30, 0.2, seed=0)
        combination = random_combination_matrix(adjacency, seed=1)
        model = random_likelihoods(30, 4, 4, seed=2)
        assert 10_000 % CHUNK_STEPS != 0
        self.compare(model, combination, 2, 0.05, 10_000, seed=3)

    def test_desk_run_with_events_around_chunk_ends(self):
        """Events on the first iteration, one before, at and one after
        the chunk size, and a graph regeneration later on; private
        ratios against a nonzero reference."""
        adjacency, _ = erdos_renyi_adjacency(10, 0.35, seed=21)
        combination = random_combination_matrix(adjacency, seed=22)
        model = random_likelihoods(10, 3, 4, seed=23)
        events = [
            Event(1, "set_true_state", 0),
            Event(CHUNK_STEPS - 1, "set_true_state", 2),
            Event(CHUNK_STEPS, "regenerate_graph", 900),
            Event(CHUNK_STEPS + 1, "set_true_state", 1),
            Event(3 * CHUNK_STEPS + 1, "regenerate_graph", 901),
        ]
        num_iterations = 10_007
        assert num_iterations % CHUNK_STEPS != 0
        self.compare(
            model, combination, 1, 0.3, num_iterations, seed=4,
            events=events, edge_prob=0.35, reference=1,
        )

    @pytest.mark.parametrize("case", ["reference", "desk-events"])
    def test_blocks_equal_a_plain_loop_of_the_public_steps(self, case):
        """The chunk loop adapts in place; its blocks equal, bit for bit,
        a plain loop of the public adapt_step and combine_step normalized
        with _ratio_log_beliefs: on the reference configuration and on a
        desk run with events just before, at and after chunk ends."""
        if case == "reference":
            adjacency, _ = erdos_renyi_adjacency(30, 0.2, seed=0)
            combination = random_combination_matrix(adjacency, seed=1)
            model = random_likelihoods(30, 4, 4, seed=2)
            args = (model, combination, 2, 0.05, 10_000, 3)
            events, edge_prob = (), None
        else:
            adjacency, _ = erdos_renyi_adjacency(10, 0.35, seed=21)
            combination = random_combination_matrix(adjacency, seed=22)
            model = random_likelihoods(10, 3, 4, seed=23)
            args = (model, combination, 1, 0.3, 10_007, 4)
            events = (
                Event(1, "set_true_state", 0),
                Event(CHUNK_STEPS - 1, "set_true_state", 2),
                Event(CHUNK_STEPS, "regenerate_graph", 900),
                Event(CHUNK_STEPS + 1, "set_true_state", 1),
                Event(3 * CHUNK_STEPS + 1, "regenerate_graph", 901),
            )
            edge_prob = 0.35
        steps = run_simulation(*args, schedule=EventSchedule(events),
                               edge_prob=edge_prob)
        blocks = np.concatenate([s.block for s in steps if s.row == 0])
        expected = _ratio_log_beliefs(
            plain_forward_ratios(*args, events=events, edge_prob=edge_prob)
        )
        assert blocks.shape == expected.shape
        assert np.array_equal(blocks, expected)

    def test_every_step_field_holds_its_own_value(self):
        """Steps are built by position, so each field is checked against
        a source of its own: the trace the schedule implies (a true state
        never equal to the graph epoch, so a swap shows), the private
        stream of plain single-step draws and the chunk boundaries that
        CHUNK_STEPS and the events imply."""
        adjacency, _ = erdos_renyi_adjacency(10, 0.35, seed=21)
        combination = random_combination_matrix(adjacency, seed=22)
        model = random_likelihoods(10, 4, 4, seed=23)
        switch, regen, T = CHUNK_STEPS + 5, 2 * CHUNK_STEPS - 1, 3 * CHUNK_STEPS + 7
        schedule = EventSchedule((
            Event(switch, "set_true_state", 2), Event(regen, "regenerate_graph", 900),
        ))
        steps = list(run_simulation(
            model, combination, 3, 0.3, T, seed=24, schedule=schedule,
            record_private=True, edge_prob=0.35, reference=1,
        ))
        iterations = np.arange(1, T + 1)
        true_states = np.where(iterations < switch, 3, 2)
        graph_epochs = (iterations >= regen).astype(int)
        assert (true_states != graph_epochs).all()
        events = {switch: "set_true_state", regen: "regenerate_graph"}
        regen_rng = np.random.default_rng(900)
        regenerated = random_combination_matrix(
            erdos_renyi_adjacency(10, 0.35, regen_rng)[0], regen_rng
        )
        rng = np.random.default_rng(24)
        private = np.stack([
            model.signal_log_ratio_table(1)[
                np.arange(10), sample_observations(model, state, rng)
            ]
            for state in true_states
        ])
        starts, first = [], 1
        while first <= T:
            starts.append(first)
            first = min([first + CHUNK_STEPS] + [i for i in (switch, regen) if i > first])
        assert starts == [1, 1 + CHUNK_STEPS, switch, regen, regen + CHUNK_STEPS]
        ends = starts[1:] + [T + 1]

        assert len(steps) == T
        for step, i in zip(steps, iterations):
            chunk = np.searchsorted(starts, i, side="right") - 1
            assert type(step.iteration) is int and step.iteration == i
            assert type(step.true_state) is int
            assert step.true_state == true_states[i - 1]
            assert type(step.graph_epoch) is int
            assert step.graph_epoch == graph_epochs[i - 1]
            if i < regen:
                assert step.combination is combination
            else:
                assert np.array_equal(step.combination.weights, regenerated.weights)
            assert step.event == events.get(i)
            assert np.array_equal(step.signal_log_ratios, private[i - 1])
            assert step.block.shape == (ends[chunk] - starts[chunk], 10, 4)
            assert type(step.row) is int and step.row == i - starts[chunk]
            assert step.shared_log_beliefs.shape == (10, 4)
            assert np.shares_memory(step.shared_log_beliefs, step.block)
            assert np.array_equal(step.shared_log_beliefs, step.block[step.row])
        assert not hasattr(steps[0], "__dict__")

    @pytest.mark.parametrize("reference", [0, 2])
    def test_gather_and_combine_equal_the_fancy_index_and_matmul_forms(
            self, reference):
        """Ragged signal spaces, so the ratio tables are padded: the
        private ratios are ``table[agents, signals]`` and the shared
        log-beliefs follow from the recursion stepped with ``W.T @``,
        both bit for bit."""
        n, delta, T = 7, 0.3, 2 * CHUNK_STEPS + 11
        model = random_likelihoods(n, 4, [2, 5, 3, 4, 2, 5, 3], seed=54)
        adjacency, _ = erdos_renyi_adjacency(n, 0.4, seed=55)
        combination = random_combination_matrix(adjacency, seed=56)
        steps = list(run_simulation(model, combination, 1, delta, T, seed=57,
                                    record_private=True, reference=reference))
        signals = sample_observations(model, 1, np.random.default_rng(57), T)
        agents = np.arange(n)
        private = model.signal_log_ratio_table(reference)[agents, signals]
        assert np.array_equal(np.stack([s.signal_log_ratios for s in steps]), private)
        weighted = delta * model.signal_log_ratio_table(0)[agents, signals]
        lam = np.empty_like(weighted)
        ratios = np.zeros((n, 3))
        for t in range(T):
            lam[t] = ratios = (1.0 - delta) * ratios + weighted[t]
            ratios = combination.weights.T @ ratios
        shared = np.stack([s.shared_log_beliefs for s in steps])
        assert np.array_equal(shared, _ratio_log_beliefs(lam))

    def test_log_belief_blocks_are_read_only(self, small_setup):
        """Steps of one chunk share one block, so a write into a step's
        beliefs raises instead of changing later steps."""
        model, combination = small_setup
        steps = list(run_simulation(model, combination, 0, 0.3, CHUNK_STEPS + 3, seed=16))
        assert steps[0].shared_log_beliefs.base is steps[1].shared_log_beliefs.base
        for step in (steps[0], steps[-1]):
            with pytest.raises(ValueError):
                step.shared_log_beliefs[0, 0] = 0.0

    def test_chunk_steps_share_their_row_0_truth(self):
        """A chunk ends before every event: each step is row ``row`` of
        its chunk's block and has the true state, matrix and graph epoch
        of the chunk's row-0 step, and only row 0 carries an event.
        Block consumers rely on this."""
        adjacency, _ = erdos_renyi_adjacency(10, 0.35, seed=21)
        combination = random_combination_matrix(adjacency, seed=22)
        model = random_likelihoods(10, 3, 4, seed=23)
        schedule = EventSchedule((
            Event(1, "set_true_state", 0),
            Event(CHUNK_STEPS - 1, "set_true_state", 2),
            Event(CHUNK_STEPS, "regenerate_graph", 900),
            Event(CHUNK_STEPS + 1, "set_true_state", 1),
            Event(2 * CHUNK_STEPS + 5, "regenerate_graph", 901),
        ))
        steps = list(run_simulation(
            model, combination, 1, 0.3, 4 * CHUNK_STEPS + 3, seed=4,
            schedule=schedule, edge_prob=0.35,
        ))
        for step in steps:
            if step.row == 0:
                first = step
            else:
                assert step.event is None
            assert step.block is first.block
            assert step.iteration == first.iteration + step.row
            assert np.array_equal(step.shared_log_beliefs, first.block[step.row])
            assert np.shares_memory(step.shared_log_beliefs, first.block)
            assert step.true_state == first.true_state
            assert step.combination is first.combination
            assert step.graph_epoch == first.graph_epoch
        lengths = [len(s.block) for s in steps if s.row == 0]
        assert lengths == [62, 1, 1, CHUNK_STEPS, 4, CHUNK_STEPS, 63]
        assert {s.iteration for s in steps if s.event} == {
            e.iteration for e in schedule
        }


class TestCheckLogBeliefs:
    def test_accepts_normalized_rows(self):
        rows = np.log([[0.2, 0.8], [0.5, 0.5]])
        check_log_beliefs(rows)

    def test_normalizes_along_the_last_axis(self):
        stack = np.log(np.random.default_rng(3).dirichlet(np.ones(4), size=(5, 3)))
        check_log_beliefs(stack)
        check_log_beliefs(stack[0, 0])
        with pytest.raises(ValueError):
            check_log_beliefs(stack + np.log(2.0))

    def test_rejects_unnormalized_or_infinite(self):
        with pytest.raises(ValueError):
            check_log_beliefs(np.log([[0.2, 0.9]]))
        with pytest.raises(ValueError):
            check_log_beliefs(np.array([[-np.inf, 0.0]]))
