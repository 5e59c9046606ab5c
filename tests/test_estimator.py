"""Observer side: ratios, voting, the gradient update, classification
and the steady-state diagnostics."""

import numpy as np
import pytest

from beliefgraph import estimator
from beliefgraph.estimator import (
    GraphLearner,
    NoSeparationError,
    belief_log_ratios,
    classify_edges,
    gradient_step,
    learn_graph,
    majority_vote,
    msd,
    steady_state_diagnostics,
    two_means_split,
)
from beliefgraph.model import (
    erdos_renyi_adjacency,
    random_combination_matrix,
    ratio_columns,
)
from beliefgraph.simulate import run_simulation

LOG4 = 1.3862943611198906


def instantaneous_loss(estimate, prev_ratios, ratios, expected, delta):
    residual = ratios - (1 - delta) * estimate.T @ prev_ratios - delta * expected
    return 0.5 * np.sum(residual**2)


def fd_loss_gradient(estimate, prev_ratios, ratios, expected, delta, h=1e-6):
    """Central finite differences of the instantaneous loss in every
    entry of the estimate; exact for this quadratic up to rounding."""
    grad = np.zeros_like(estimate)
    for i in range(estimate.shape[0]):
        for j in range(estimate.shape[1]):
            bump = np.zeros_like(estimate)
            bump[i, j] = h
            up = instantaneous_loss(estimate + bump, prev_ratios, ratios, expected, delta)
            down = instantaneous_loss(estimate - bump, prev_ratios, ratios, expected, delta)
            grad[i, j] = (up - down) / (2 * h)
    return grad


def best_two_partition(values):
    """Enumerate every split of the sorted values into a low and a high
    group and return the boundary of the split with the smallest total
    within-group sum of squares."""
    values = np.sort(np.asarray(values, dtype=float))
    best, best_cut = np.inf, None
    for cut in range(1, len(values)):
        low, high = values[:cut], values[cut:]
        ss = ((low - low.mean()) ** 2).sum() + ((high - high.mean()) ** 2).sum()
        if ss < best:
            best, best_cut = ss, cut
    return 0.5 * (values[best_cut - 1] + values[best_cut])


class TestBeliefLogRatios:
    def test_uniform_beliefs_give_zeros(self):
        shared = np.full((3, 4), np.log(0.25))
        np.testing.assert_array_equal(belief_log_ratios(shared), np.zeros((3, 3)))

    def test_two_state_hand_value(self):
        shared = np.log([[0.8, 0.2]])
        assert belief_log_ratios(shared)[0, 0] == pytest.approx(LOG4, abs=1e-12)

    def test_nonzero_reference(self):
        shared = np.log([[0.1, 0.2, 0.7]])
        out = belief_log_ratios(shared, reference=2)
        np.testing.assert_allclose(
            out, [[np.log(7.0), np.log(3.5)]], atol=1e-12
        )

    def test_equals_column_selection_for_every_reference(self):
        rng = np.random.default_rng(60)
        for num_states in range(2, 7):
            shared = np.log(rng.dirichlet(np.ones(num_states), size=9))
            for reference in range(num_states):
                cols = ratio_columns(num_states, reference)
                np.testing.assert_array_equal(
                    belief_log_ratios(shared, reference),
                    shared[:, [reference]] - shared[:, cols],
                )

    def test_reference_out_of_range(self):
        shared = np.full((2, 3), -np.log(3))
        for reference in (-1, 3):
            with pytest.raises(ValueError):
                belief_log_ratios(shared, reference)


class TestMajorityVote:
    def test_unanimous(self):
        shared = np.log(np.tile([0.1, 0.1, 0.8], (5, 1)))
        assert majority_vote(shared) == 2

    def test_split_vote_breaks_to_lowest(self):
        shared = np.log(np.array([
            [0.9, 0.1], [0.9, 0.1], [0.1, 0.9], [0.1, 0.9],
        ]))
        assert majority_vote(shared) == 0

    def test_long_run_vote_matches_truth(self, small_setup):
        model, combination = small_setup
        votes = [
            majority_vote(step.shared_log_beliefs)
            for step in run_simulation(model, combination, 2, 0.05, 2000, seed=40)
        ]
        assert np.mean(np.array(votes[-1000:]) == 2) >= 0.99


class TestGradientStep:
    def test_zero_rate_freezes_estimate(self, small_setup):
        rng = np.random.default_rng(0)
        estimate = rng.random((6, 6))
        out = gradient_step(estimate, rng.random((6, 2)), rng.random((6, 2)),
                            rng.random((6, 2)), mu=0.0, delta=0.3)
        np.testing.assert_array_equal(out, estimate)

    def test_truth_is_a_fixed_point(self, small_setup):
        """When the new ratios are exactly the recursion of the old ones
        and the estimate already equals the truth, the residual is zero."""
        _, combination = small_setup
        rng = np.random.default_rng(1)
        delta = 0.2
        prev = rng.standard_normal((6, 3))
        expected = rng.standard_normal((6, 3))
        ratios = (1 - delta) * combination.weights.T @ prev + delta * expected
        out = gradient_step(combination.weights, prev, ratios, expected,
                            mu=0.5, delta=delta)
        np.testing.assert_allclose(out, combination.weights, atol=1e-12)

    def test_scalar_hand_case(self):
        out = gradient_step(
            np.array([[0.6]]), np.array([[0.8]]), np.array([[0.5]]),
            np.array([[1.2]]), mu=0.1, delta=0.3,
        )
        assert out[0, 0] == pytest.approx(0.589024, abs=1e-12)

    def test_matches_finite_difference_gradient(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            estimate = rng.standard_normal((5, 5))
            prev = rng.standard_normal((5, 3))
            ratios = rng.standard_normal((5, 3))
            expected = rng.standard_normal((5, 3))
            mu, delta = 0.05, 0.25
            stepped = gradient_step(estimate, prev, ratios, expected, mu, delta)
            grad = fd_loss_gradient(estimate, prev, ratios, expected, delta)
            reference = estimate - mu * grad
            np.testing.assert_allclose(stepped, reference, rtol=1e-6, atol=1e-9)

    def test_small_steps_do_not_increase_the_loss(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            estimate = rng.standard_normal((4, 4))
            prev = rng.standard_normal((4, 2))
            ratios = rng.standard_normal((4, 2))
            expected = rng.standard_normal((4, 2))
            delta = rng.uniform(0.05, 0.5)
            curvature = (1 - delta) ** 2 * np.linalg.eigvalsh(prev @ prev.T)[-1]
            mu = 1.0 / curvature
            before = instantaneous_loss(estimate, prev, ratios, expected, delta)
            after = instantaneous_loss(
                gradient_step(estimate, prev, ratios, expected, mu, delta),
                prev, ratios, expected, delta,
            )
            assert after <= before + 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            gradient_step(np.zeros((3, 3)), np.zeros((3, 2)), np.zeros((3, 1)),
                          np.zeros((3, 2)), 0.1, 0.3)


class TestGraphLearner:
    def test_modes_agree_once_the_vote_is_right(self, small_setup):
        """With the majority voting for the true state, the variant that
        is told the truth and the variant that estimates it perform the
        literally identical update."""
        model, _ = small_setup
        known = GraphLearner(model, 0.05, 0.3, "known")
        estimated = GraphLearner(model, 0.05, 0.3, "estimated")
        shared = np.log(np.tile([0.02, 0.08, 0.9], (6, 1)))
        shared -= np.log(np.exp(shared).sum(axis=1, keepdims=True))
        for _ in range(3):
            a = known.step(shared, true_state=2)
            b = estimated.step(shared)
        assert estimated.last_vote == 2
        np.testing.assert_array_equal(a, b)

    def test_known_mode_requires_the_state(self, small_setup):
        model, _ = small_setup
        learner = GraphLearner(model, 0.05, 0.3, "known")
        with pytest.raises(ValueError):
            learner.step(np.full((6, 3), -np.log(3)))

    def test_divergence_freezes_the_estimate(self, small_setup):
        model, combination = small_setup
        steps = list(run_simulation(model, combination, 1, 0.3, 300, seed=41))
        result = learn_graph(iter(steps), model, mu=50.0, delta=0.3, mode="known")
        assert result.diverged_at is not None
        assert np.isfinite(result.estimate).all()
        assert result.msd[-1] == np.inf

    @pytest.mark.parametrize("bad, diverges", [
        (np.nan, True), (np.inf, True), (-np.inf, True), (2e6, True), (-2e6, True),
        (0.5e6, False),
    ])
    def test_divergence_test_on_one_entry(self, small_setup, monkeypatch, bad, diverges):
        """A single NaN, infinite or over-limit entry in an update trips
        the divergence test; a large entry within the limit does not."""
        model, _ = small_setup

        def update(estimate, *args, **kwargs):
            out = np.zeros_like(estimate)
            out[2, 3] = bad
            return out

        monkeypatch.setattr(estimator, "gradient_step", update)
        learner = GraphLearner(model, 0.05, 0.3, "known")
        estimate = learner.step(np.full((6, 3), -np.log(3)), true_state=0)
        if diverges:
            assert learner.diverged_at == 1
            np.testing.assert_array_equal(estimate, np.zeros((6, 6)))
        else:
            assert learner.diverged_at is None
            assert estimate[2, 3] == bad

    def test_learn_without_truth_reports_nan(self, small_setup):
        model, combination = small_setup
        steps = [
            type(s)(iteration=s.iteration, shared_log_beliefs=s.shared_log_beliefs)
            for s in run_simulation(model, combination, 1, 0.3, 20, seed=42)
        ]
        result = learn_graph(iter(steps), model, 0.05, 0.3, mode="estimated")
        assert np.isnan(result.msd).all()
        assert result.votes.shape == (20,)


class TestMsd:
    def test_zero_for_equal_matrices(self, small_setup):
        _, combination = small_setup
        assert msd(combination.weights, combination.weights) == 0.0

    def test_single_entry_definition(self):
        a = np.zeros((3, 3))
        b = np.zeros((3, 3))
        b[1, 2] = 0.1
        assert msd(a, b) == pytest.approx(0.01, abs=1e-16)

    def test_matches_elementwise_sum(self):
        rng = np.random.default_rng(4)
        a, b = rng.random((7, 7)), rng.random((7, 7))
        oracle = sum(
            (a[i, j] - b[i, j]) ** 2 for i in range(7) for j in range(7)
        )
        assert msd(a, b) == pytest.approx(oracle, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            msd(np.zeros((2, 2)), np.zeros((3, 3)))


class TestClassifyEdges:
    def test_threshold_recovers_exact_matrix(self, small_setup):
        _, combination = small_setup
        smallest = combination.weights[combination.adjacency].min()
        for tau in (smallest / 2, smallest * 0.99):
            np.testing.assert_array_equal(
                classify_edges(combination.weights, "threshold", tau),
                combination.adjacency,
            )

    def test_threshold_is_monotone(self):
        rng = np.random.default_rng(5)
        estimate = rng.standard_normal((8, 8))
        previous = None
        for tau in np.linspace(estimate.min(), estimate.max(), 25):
            edges = classify_edges(estimate, "threshold", tau)
            if previous is not None:
                assert (edges <= previous).all()
            previous = edges

    def test_two_means_on_pinned_values(self):
        estimate = np.array([[0.0, 0.01], [0.3, 0.4]])
        edges = classify_edges(estimate, "two-means")
        np.testing.assert_array_equal(edges, [[False, False], [True, True]])

    def test_two_means_matches_enumeration_oracle(self):
        """On well-separated value clouds the iterative split must agree
        with exhaustive enumeration of all two-group partitions."""
        rng = np.random.default_rng(6)
        for _ in range(50):
            low = rng.normal(0.0, 0.01, size=12)
            high = rng.uniform(0.4, 0.6, size=6)
            values = np.concatenate([low, high])
            boundary = two_means_split(values)
            oracle = best_two_partition(values)
            np.testing.assert_array_equal(values > boundary, values > oracle)

    def test_two_means_recovers_exact_reference_matrices(self):
        """On the exact weights of reference-scale worlds (30 agents,
        edge probability 0.2) two-means finds at least 95% of the
        adjacency; a split of the raw, right-skewed weights stays below
        0.94 on these worlds."""
        for k in range(12):
            adjacency, _ = erdos_renyi_adjacency(30, 0.2, 4 * k)
            weights = random_combination_matrix(adjacency, 4 * k + 1).weights
            accuracy = (classify_edges(weights, "two-means") == adjacency).mean()
            assert accuracy >= 0.95, f"world {k}: accuracy {accuracy:.4f}"

    def test_degenerate_input_raises(self):
        with pytest.raises(NoSeparationError):
            classify_edges(np.full((3, 3), 0.25), "two-means")

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            classify_edges(np.zeros((2, 2)), "threshold")
        with pytest.raises(ValueError):
            classify_edges(np.zeros((2, 2)), "median")
        with pytest.raises(ValueError):
            classify_edges(np.array([[np.nan, 0.0], [0.0, 0.0]]))


class TestSteadyStateDiagnostics:
    def _streams(self, scale, samples=2000, agents=1, cols=1, seed=7):
        rng = np.random.default_rng(seed)
        lam = rng.normal(0.0, scale, size=(samples, agents, cols))
        sig = rng.normal(0.0, 1.0, size=(samples, agents, cols))
        return lam, sig, np.zeros((agents, cols))

    def test_scalar_case_extremes_coincide(self):
        lam, sig, expected = self._streams(scale=0.5)
        diag = steady_state_diagnostics(lam, sig, expected, mu=0.01, delta=0.2)
        assert diag.nu == pytest.approx(diag.kappa, rel=1e-12)
        tail = lam[int(0.2 * len(lam)):]
        assert diag.nu == pytest.approx(
            (1 - 0.2) ** 2 * np.mean(tail**2), rel=1e-9
        )

    def test_bound_is_linear_in_mu(self):
        lam, sig, expected = self._streams(scale=0.5, agents=3, cols=2)
        d1 = steady_state_diagnostics(lam, sig, expected, mu=0.01, delta=0.2)
        d2 = steady_state_diagnostics(lam, sig, expected, mu=0.002, delta=0.2)
        assert d1.bound / d2.bound == pytest.approx(0.01 / 0.002, rel=1e-9)

    def test_moment_ordering_and_stability(self):
        lam, sig, expected = self._streams(scale=0.3, agents=4, cols=3, seed=8)
        diag = steady_state_diagnostics(lam, sig, expected, mu=0.05, delta=0.1)
        assert diag.nu <= diag.kappa
        assert diag.stable and diag.alpha < 1.0
        assert diag.bound >= 0.0

    def test_insufficient_samples(self):
        lam, sig, expected = self._streams(scale=0.5, samples=500)
        with pytest.raises(ValueError):
            steady_state_diagnostics(lam, sig, expected, mu=0.01, delta=0.2)


class TestObserverAgainstSimulator:
    def test_deviation_decreases_on_a_short_run(self, small_setup):
        model, combination = small_setup
        steps = run_simulation(model, combination, 1, 0.3, 2000, seed=43)
        result = learn_graph(steps, model, mu=0.05, delta=0.3, mode="known")
        assert result.msd[0] == pytest.approx(np.sum(combination.weights**2))
        assert result.msd[-100:].mean() < 0.2 * result.msd[0]

    def test_estimated_mode_tracks_known_mode(self, small_setup):
        model, combination = small_setup
        steps = list(run_simulation(model, combination, 1, 0.3, 2000, seed=44))
        known = learn_graph(iter(steps), model, 0.05, 0.3, mode="known")
        estimated = learn_graph(iter(steps), model, 0.05, 0.3, mode="estimated")
        k = known.msd[-200:].mean()
        e = estimated.msd[-200:].mean()
        assert abs(k - e) / k < 0.5
