"""Observer side: ratios, voting, the gradient update, classification
and the steady-state diagnostics."""

import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from beliefgraph import estimator
from beliefgraph.estimator import (
    SETTLE_STEPS,
    GraphLearner,
    ModeLearners,
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
from beliefgraph.harness import ExperimentConfig, _generate, _recorded_blocks
from beliefgraph.model import (
    CombinationMatrix,
    erdos_renyi_adjacency,
    mean_likelihood_matrix,
    random_combination_matrix,
    random_likelihoods,
    ratio_columns,
)
from beliefgraph.simulate import (
    CHUNK_STEPS,
    Event,
    EventSchedule,
    run_simulation,
)

from helpers import independent_learners, vote_oracle

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


def paper_gradient_step(estimate, prev_ratios, ratios, expected_ratios, mu, delta):
    """The update in the paper's form, operation for operation:
    ``A^T + mu (1 - delta) (ratios - (1 - delta) A^T prev - delta
    expected) prev^T``, transposed."""
    scale = 1.0 - delta
    residual = estimate.T @ prev_ratios
    residual *= scale
    np.subtract(ratios, residual, out=residual)
    residual -= delta * expected_ratios
    updated = prev_ratios @ residual.T
    updated *= mu * scale
    updated += estimate
    return updated


def replay_paper_form(steps, model, mu, delta, mode):
    """A learner written out snapshot by snapshot with the paper-form
    update: the estimate, the deviation of every step and, in estimated
    mode, the votes."""
    n = model.num_agents
    estimate = np.zeros((n, n))
    prev = np.zeros((n, model.num_states - 1))
    expected = {}
    deviations, votes = [], []
    for step in steps:
        ratios = belief_log_ratios(step.shared_log_beliefs)
        if mode == "known":
            state = step.true_state
        else:
            state = vote_oracle(step.shared_log_beliefs)
            votes.append(state)
        if state not in expected:
            expected[state] = mean_likelihood_matrix(model, state)
        estimate = paper_gradient_step(estimate, prev, ratios, expected[state], mu, delta)
        prev = ratios
        deviations.append(float(np.sum((step.combination.weights - estimate) ** 2)))
    return estimate, np.array(deviations), votes


def simulator_blocks(steps):
    """The ``(block, true_state, combination)`` triples of simulation
    steps: one per chunk, read from its row-0 step."""
    return [(s.block, s.true_state, s.combination) for s in steps if s.row == 0]


def cycle_matrix(n):
    """The combination matrix of the cycle ``k - 1 -> k``: weight 1 on the
    predecessor, except agent 0, which splits its weight with itself."""
    weights = np.zeros((n, n))
    weights[np.arange(n) - 1, np.arange(n)] = 1.0
    weights[[0, n - 1], 0] = 0.5
    return CombinationMatrix(weights)


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


def mean_two_means_split(values):
    """:func:`two_means_split` with each center from ``np.mean``: its
    oracle, bit for bit. Returns the boundary, or the error's message."""
    values = np.asarray(values, dtype=float).ravel()
    low, high = float(values.min()), float(values.max())
    if low == high:
        return "all values are identical"
    for _ in range(100):
        upper = np.abs(values - high) < np.abs(values - low)
        if not upper.any() or upper.all():
            return "a cluster emptied out"
        new_low, new_high = float(values[~upper].mean()), float(values[upper].mean())
        if new_low == low and new_high == high:
            break
        low, high = new_low, new_high
    return 0.5 * (low + high)


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
                expected = shared[:, [reference]] - shared[:, cols]
                np.testing.assert_array_equal(belief_log_ratios(shared, reference),
                                              expected)
                # Written into a transposed buffer, as the learner does.
                buffer = np.empty((num_states - 1, 9))
                out = belief_log_ratios(shared, reference, out=buffer.T)
                assert out.base is buffer
                np.testing.assert_array_equal(buffer, expected.T)

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


class TestStackedSnapshots:
    """Ratios and votes of a ``(steps, agents, states)`` stack, as the
    learners compute them once per block, equal those of each snapshot."""

    def test_simulated_block_matches_each_snapshot(self, small_setup):
        model, combination = small_setup
        steps = list(run_simulation(model, combination, 2, 0.05, 150, seed=45))
        stack = np.stack([s.shared_log_beliefs for s in steps])
        for reference in range(model.num_states):
            ratios = belief_log_ratios(stack, reference)
            for t, step in enumerate(steps):
                assert np.array_equal(
                    ratios[t], belief_log_ratios(step.shared_log_beliefs, reference)
                )
        votes = majority_vote(stack)
        assert votes.tolist() == [majority_vote(s.shared_log_beliefs) for s in steps]

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=3, max_dims=3, min_side=1, max_side=6).filter(
            lambda shape: shape[2] >= 2
        ),
        elements=st.sampled_from([-2.0, -1.0, -0.5]),
    ))
    def test_votes_with_ties_go_to_the_lowest_index(self, stack):
        """Entries from three values make ties frequent, within an
        agent's row and between agents' counts."""
        votes = majority_vote(stack)
        assert votes.tolist() == [majority_vote(x) for x in stack]
        assert votes.tolist() == [vote_oracle(x) for x in stack]
        for reference in range(stack.shape[2]):
            ratios = belief_log_ratios(stack, reference)
            for t in range(len(stack)):
                assert np.array_equal(ratios[t], belief_log_ratios(stack[t], reference))


def agents_believing(*firsts, states=3):
    """One row of agents' log-beliefs, agent k believing ``firsts[k]``
    first: log 0.6 there and log 0.2 elsewhere."""
    row = np.full((len(firsts), states), np.log(0.2))
    row[np.arange(len(firsts)), firsts] = np.log(0.6)
    return row


class TestCheckedVotes:
    """``majority_vote`` counts a stack's last snapshot, checks that vote
    on the other snapshots, and counts only those it does not win by
    strict majority; its votes are those of a count of every snapshot
    and of :func:`vote_oracle`. ``ModeLearners`` takes its votes from it."""

    @staticmethod
    def counted(stack):
        """The votes as a list, checked against a count of every snapshot,
        and the number of snapshots counted besides the last."""
        count, calls = estimator._counted_votes, []

        def counting(snapshots):
            calls.append(len(snapshots))
            return count(snapshots)

        with mock.patch.object(estimator, "_counted_votes", counting):
            votes = majority_vote(stack)
        flat = stack.reshape((-1,) + stack.shape[-2:])
        assert calls[:1] == [min(1, len(flat))] and len(calls) <= 2
        if stack.ndim == 2:
            assert type(votes) is int
        else:
            assert votes.dtype == np.intp and votes.shape == stack.shape[:-2]
        assert np.ravel(votes).tolist() == count(flat).tolist()
        if not np.isnan(stack).any():  # Python's max orders no NaN
            assert np.ravel(votes).tolist() == [vote_oracle(x) for x in flat]
        return np.asarray(votes).tolist(), sum(calls[1:])

    @staticmethod
    def snapshots_lost(stack):
        """The snapshots but the last in which the last one's vote is not
        the first most believed state of more than half the agents, by
        hand."""
        flat = stack.reshape((-1,) + stack.shape[-2:])
        candidate = vote_oracle(flat[-1])
        return sum(2 * sum(list(agent).index(max(agent)) == candidate for agent in row)
                   <= len(row) for row in flat[:-1])

    @staticmethod
    def ending_on(candidate, *rows, states=3):
        """A stack of the given snapshots, then one whose agents all
        believe ``candidate`` first."""
        last = agents_believing(*[candidate] * len(rows[0]), states=states)
        return np.stack([*rows, last])

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=2, max_dims=4, min_side=1, max_side=5),
        elements=st.sampled_from([-2.0, -1.0, -0.5]),
    ))
    def test_ties_at_and_around_the_candidate(self, stack):
        """Entries from three values make ties frequent, between the
        candidate and the states below and above it and among the others.
        A stack of one state has nothing to compare and votes it."""
        _, counted = self.counted(stack)
        assert counted == self.snapshots_lost(stack)

    @pytest.mark.parametrize("candidate, counted", [(1, 0), (0, 1), (2, 1)])
    def test_a_tie_goes_to_the_lower_state(self, candidate, counted):
        """Agents 0 and 1 tie states 1 and 2 first, agent 2 states 0 and
        1: argmax gives 1, 1, 0, so state 1 wins by two of three."""
        row = np.log([[0.2, 0.4, 0.4], [0.2, 0.4, 0.4], [0.4, 0.4, 0.2]])
        assert self.counted(self.ending_on(candidate, row)) == ([1, candidate], counted)

    @pytest.mark.parametrize("candidate", [0, 2])
    def test_exactly_half_of_an_even_count_is_counted(self, candidate):
        """Two of four agents for each of states 0 and 2: the count gives
        state 0, but neither has a strict majority."""
        row = agents_believing(0, 2, 0, 2)
        assert self.counted(self.ending_on(candidate, row)) == ([0, candidate], 1)
        won = agents_believing(0, 2, candidate, candidate)
        assert self.counted(self.ending_on(candidate, won)) == ([candidate] * 2, 0)

    @pytest.mark.parametrize("candidate", [0, 3])
    def test_the_lowest_and_highest_candidates(self, candidate):
        """Candidate 0 has no lower state to beat, candidate S-1 no higher
        one; each wins a snapshot of four states by three of five agents,
        and loses one whose third agent ties it with the other end."""
        other = 3 - candidate
        row = agents_believing(candidate, candidate, candidate, 1, 2, states=4)
        assert self.counted(self.ending_on(candidate, row, states=4)) == (
            [candidate] * 2, 0)
        tied = row.copy()
        tied[2, other] = tied[2, candidate]
        _, counted = self.counted(self.ending_on(candidate, tied, states=4))
        assert counted == (candidate == 3)

    def test_a_nan_fails_its_comparison(self):
        """A NaN anywhere in an agent's row keeps it from the check: the
        snapshot is then counted, even where the count gives the
        candidate (argmax picks a NaN as the maximum)."""
        row = agents_believing(1, 1, 1, 0, 2)
        row[0, 2] = np.nan
        assert self.counted(self.ending_on(1, row)) == ([1, 1], 1)
        row = agents_believing(1, 1, 1, 1, 0)
        row[0, 2] = np.nan
        assert self.counted(self.ending_on(1, row)) == ([1, 1], 0)
        row[:, 1] = np.nan
        assert self.counted(self.ending_on(1, row)) == ([1, 1], 1)

    def test_infinities_compare_as_argmax_orders_them(self):
        """``inf`` at the candidate ties ``inf`` above it and loses to
        ``inf`` below it; a snapshot all ``-inf`` is state 0's."""
        row = np.array([[-np.inf, np.inf, np.inf], [0.0, np.inf, -np.inf],
                        [np.inf, np.inf, 0.0]])
        assert self.counted(self.ending_on(1, row)) == ([1, 1], 0)
        row[1, 0] = np.inf
        assert self.counted(self.ending_on(1, row)) == ([0, 1], 1)
        floor = np.full((3, 3), -np.inf)
        assert self.counted(self.ending_on(0, floor)) == ([0, 0], 0)
        assert self.counted(self.ending_on(1, floor)) == ([0, 1], 1)
        assert self.counted(np.stack([floor] * 3)) == ([0] * 3, 0)

    def test_only_the_lost_snapshots_are_counted(self):
        """A K = 3 stack is checked on its last snapshot's vote: every
        trajectory that votes for it is not counted, a snapshot another
        state wins is counted alone, and a trajectory that votes
        otherwise is counted whole."""
        stack = np.stack([np.stack([agents_believing(2, 2, k, 2)] * 6)
                          for k in range(3)])
        votes, counted = self.counted(stack)
        assert votes == [[2] * 6] * 3 and counted == 0
        stack[1, 4] = agents_believing(1, 1, 1, 2)
        votes, counted = self.counted(stack)
        assert votes[1] == [2] * 4 + [1, 2] and counted == 1
        stack[0] = agents_believing(0, 0, 0, 2)
        votes, counted = self.counted(stack)
        assert votes[0] == [0] * 6 and counted == 7

    def test_a_snapshot_is_one_count_and_an_empty_stack_none(self):
        """A 2-d snapshot is a stack of one: counted once, its vote an
        ``int``. A stack without snapshots counts nothing and votes
        nothing, in its leading shape."""
        assert self.counted(agents_believing(2, 1, 2)) == (2, 0)
        assert self.counted(np.empty((2, 0, 4, 3))) == ([[], []], 0)

    @pytest.fixture
    def vote_calls(self, monkeypatch):
        """The number of snapshots of each count."""
        calls = []
        count = estimator._counted_votes

        def counting(stack):
            calls.append(len(stack))
            return count(stack)

        monkeypatch.setattr(estimator, "_counted_votes", counting)
        return calls

    def test_a_won_block_is_not_counted_and_a_lost_row_is(self, small_setup,
                                                         vote_calls):
        """In ``both`` mode a block that its last row's vote wins in every
        row is counted only in that row, and of one with a single row won
        by another state only that row is counted besides, which forks
        the estimated learner."""
        model, combination = small_setup
        won = np.stack([agents_believing(2, 2, 2, 2, 0, 1)] * 5)
        learners = ModeLearners(model, 0.05, 0.3, "both")
        learners.consume(won[None], [2], [combination])
        assert vote_calls == [1] and learners.estimated is None
        lost = won.copy()
        lost[3] = agents_believing(0, 0, 0, 2, 2, 1)
        learners.consume(lost[None], [2], [combination])
        assert vote_calls == [1, 1, 1] and learners.estimated is not None
        votes = learners.results()[0]["estimated"].votes
        assert votes.tolist() == [2] * 8 + [0, 2]

    def test_a_stack_checks_each_trajectory_on_the_last_vote(self, small_setup,
                                                             vote_calls):
        """K = 3 trajectories in ``both`` mode, each with its own true
        state, record what separate learners record; the rows of the two
        trajectories that the last row's vote does not win are counted."""
        model, combination = small_setup
        streams = [np.stack([agents_believing(k, k, k, k, 2 - k, 1)] * 4)
                   for k in range(3)]
        stack = ModeLearners(model, [0.05, 0.1, 0.2], 0.3, "both")
        stack.consume(np.stack(streams), np.array([0, 1, 2]), [combination] * 3)
        assert vote_calls == [1, 8] and stack.estimated is None
        for k, (mu, got) in enumerate(zip([0.05, 0.1, 0.2], stack.results())):
            want = learn_graph([(streams[k], k, combination)], model, mu, 0.3, "both")
            assert got["estimated"].votes.tolist() == [k] * 4
            for mode in ("known", "estimated"):
                assert got[mode].estimate.tobytes() == want[mode].estimate.tobytes()
                assert got[mode].msd.tobytes() == want[mode].msd.tobytes()

    def test_estimated_mode_counts_each_block_on_its_own(self, small_setup,
                                                         vote_calls):
        """Estimated mode checks each block on that block's last vote, so
        the rows another state wins are counted, and an empty block
        records nothing; the records are those of the blocks fed whole."""
        model, combination = small_setup
        first = np.stack([agents_believing(0, 0, 0, 1, 1, 1),
                          agents_believing(1, 1, 1, 1, 0, 0)])
        then = np.stack([agents_believing(1, 1, 1, 1, 2, 2)] * 3)
        other = np.stack([agents_believing(2, 2, 2, 2, 1, 1)] * 3)
        learners = ModeLearners(model, 0.05, 0.3, "estimated")
        for block in (first, then, then[:0], then, np.concatenate([then, other])):
            learners.consume(block[None], None, [combination])
        assert vote_calls == [1, 1, 1, 0, 1, 1, 3]
        votes = learners.results()[0]["estimated"].votes
        assert votes.tolist() == [0, 1] + [1] * 6 + [1] * 3 + [2] * 3
        want = learn_graph([(b, None, combination) for b in (first, then, then, then,
                                                             other)],
                           model, 0.05, 0.3, "estimated")["estimated"]
        assert np.array_equal(votes, want.votes)
        assert learners.results()[0]["estimated"].msd.tobytes() == want.msd.tobytes()


class TestGradientStep:
    """The kernel takes the regression operands ``Phi^T = (1 - delta)
    prev^T`` and ``Z^T = (ratios - delta * expected)^T``; the losses stay
    in the paper's form."""

    def test_zero_rate_freezes_estimate(self, small_setup):
        rng = np.random.default_rng(0)
        estimate = rng.random((6, 6))
        prev, ratios, expected = rng.random((6, 2)), rng.random((6, 2)), rng.random((6, 2))
        out = gradient_step(estimate, (0.7 * prev).T, (ratios - 0.3 * expected).T, mu=0.0)
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
        out = gradient_step(combination.weights, ((1 - delta) * prev).T,
                            (ratios - delta * expected).T, mu=0.5)
        np.testing.assert_allclose(out, combination.weights, atol=1e-12)

    def test_scalar_hand_case(self):
        delta = 0.3
        out = gradient_step(
            np.array([[0.6]]), np.array([[(1 - delta) * 0.8]]),
            np.array([[0.5 - delta * 1.2]]), mu=0.1,
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
            stepped = gradient_step(estimate, ((1 - delta) * prev).T,
                                    (ratios - delta * expected).T, mu)
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
            stepped = gradient_step(estimate, ((1 - delta) * prev).T,
                                    (ratios - delta * expected).T, mu)
            after = instantaneous_loss(stepped, prev, ratios, expected, delta)
            assert after <= before + 1e-12

    @pytest.mark.parametrize("K", [1, 3])
    def test_a_full_rate_operand_gives_the_bits_of_a_column(self, K):
        """A stack's mu as ``(K, 1, 1)`` or as the full ``(K, m, n)``
        operand it broadcasts to (which the learner passes) gives the same
        bits, and each trajectory those of its own 2-d call with a 0-d mu."""
        rng = np.random.default_rng(8)
        n, m = 10, 2
        estimate = rng.standard_normal((K, n, n))
        regressors, targets = rng.standard_normal((2, K, m, n))
        column = np.array([0.02, 5.0, 1e-3][:K]).reshape(K, 1, 1)
        full = np.ascontiguousarray(np.broadcast_to(column, (K, m, n)))
        stepped = gradient_step(estimate, regressors, targets, full)
        assert stepped.tobytes() == gradient_step(
            estimate, regressors, targets, column).tobytes()
        for k in range(K):
            assert stepped[k].tobytes() == gradient_step(
                estimate[k], regressors[k], targets[k], column[k].reshape(())).tobytes()

    def test_shape_mismatch(self):
        for estimate, regressors, targets in [
            ((3, 3), (2, 3), (1, 3)),
            ((3, 3), (2, 4), (2, 4)),
            ((3, 4), (2, 3), (2, 3)),
            ((3, 3), (3,), (3,)),
            ((3, 3), (3, 2), (3, 2)),
        ]:
            with pytest.raises(ValueError):
                gradient_step(np.zeros(estimate), np.zeros(regressors),
                              np.zeros(targets), 0.1)


    def test_shape_check_rejects_what_the_former_check_rejected(self):
        """Over operands of rank 0 to 3, the one-chain shape check rejects
        exactly the shapes the former three-part check rejected (an
        estimate of rank 0 made that one fail with an IndexError), but for
        a stack: a ``(K, n, n)`` estimate with ``(K, m, n)`` regressors and
        targets."""

        def former_rejects(estimate, regressors, targets):
            if len(regressors) == 3 and targets == regressors and estimate == (
                    regressors[0], regressors[2], regressors[2]):
                return False
            try:
                n = estimate[0]
            except IndexError:
                return True
            return (estimate != (n, n) or targets != regressors
                    or regressors[1:] != (n,))

        shapes = [(), (3,), (2,), (2, 3), (3, 3), (3, 2), (2, 4), (4, 4), (1, 3),
                  (3, 4), (2, 2, 3), (3, 3, 3)]
        checked = rejected = 0
        for estimate in shapes:
            for regressors in shapes:
                for targets in shapes:
                    args = [np.zeros(shape) for shape in (estimate, regressors, targets)]
                    if former_rejects(estimate, regressors, targets):
                        with pytest.raises(ValueError):
                            gradient_step(*args, 0.1)
                        rejected += 1
                    else:
                        assert gradient_step(*args, 0.1).shape == estimate
                    checked += 1
        assert checked == len(shapes) ** 3 and 0 < rejected < checked


class TestRegressionForm:
    """The regression-form kernel against the paper-form update it
    replaced, which stays here as the oracle."""

    def test_kernel_matches_the_paper_form(self):
        rng = np.random.default_rng(10)
        instances = 0
        for n in (1, 5, 30):
            for columns in (1, 3):
                for _ in range(40):
                    estimate = rng.standard_normal((n, n))
                    prev, ratios, expected = (
                        rng.standard_normal((n, columns)) for _ in range(3)
                    )
                    mu = float(rng.uniform(1e-3, 0.5))
                    delta = float(rng.uniform(0.01, 0.99))
                    oracle = paper_gradient_step(
                        estimate, prev, ratios, expected, mu, delta
                    )
                    kernel = gradient_step(
                        estimate, ((1 - delta) * prev).T,
                        (ratios - delta * expected).T, mu,
                    )
                    # An entry where the update cancels the estimate keeps
                    # no relative precision, so entries are also allowed
                    # 1e-13 of the largest one.
                    np.testing.assert_allclose(
                        kernel, oracle, rtol=1e-13, atol=1e-13 * np.abs(oracle).max()
                    )
                    instances += 1
        assert instances >= 200

    def test_reference_run_matches_the_paper_form(self):
        """The 15k-iteration reference run (30 agents, 4 states), both
        modes, replayed snapshot by snapshot through the paper-form
        update: same votes, estimates within 1e-14, deviations within
        1e-12 relative."""
        config = ExperimentConfig(iterations=15000)
        combination, model, _ = _generate(config)
        steps = list(run_simulation(
            model, combination, config.true_state, config.delta,
            config.iterations, config.seed_signals,
        ))
        for mode in ("known", "estimated"):
            learned = learn_graph(
                simulator_blocks(steps), model, config.mu, config.delta, mode
            )[mode]
            estimate, deviations, votes = replay_paper_form(
                steps, model, config.mu, config.delta, mode
            )
            np.testing.assert_allclose(learned.estimate, estimate, rtol=0, atol=1e-14)
            np.testing.assert_allclose(learned.msd, deviations, rtol=1e-12)
            if mode == "estimated":
                assert learned.votes.tolist() == votes


class TestGraphLearner:
    def test_modes_agree_once_the_vote_is_right(self, small_setup):
        """With the majority voting for the true state, the variant that
        is told the truth and the variant that estimates it perform the
        literally identical update."""
        model, _ = small_setup
        known = GraphLearner(model, 0.05, 0.3, "known")
        estimated = ModeLearners(model, 0.05, 0.3, "estimated")
        shared = np.log(np.tile([0.02, 0.08, 0.9], (6, 1)))
        shared -= np.log(np.exp(shared).sum(axis=1, keepdims=True))
        for _ in range(3):
            known.consume(shared[None, None], [2])
            estimated.consume(shared[None, None])
        result = estimated.results()[0]["estimated"]
        assert result.votes.tolist() == [2, 2, 2]
        np.testing.assert_array_equal(known.estimate[0], result.estimate)

    def test_steps_on_one_hypothesis_per_row(self, small_setup):
        """A block's hypotheses, one per row, give the update of one-row
        blocks each given its own; one for the whole block, that of the
        same hypothesis repeated per row."""
        model, combination = small_setup
        block = np.stack([s.shared_log_beliefs for s in
                          run_simulation(model, combination, 1, 0.3, 6, seed=43)])
        states = np.array([0, 2, 1, 1, 0, 2])
        per_row = GraphLearner(model, 0.05, 0.3, "estimated")
        per_row.consume(block[None], states[None], [combination])
        one_row = GraphLearner(model, 0.05, 0.3, "estimated")
        for row, state in zip(block, states):
            one_row.consume(row[None, None], [state], [combination])
        assert np.array_equal(per_row.estimate, one_row.estimate)
        assert np.array_equal(per_row.result()[0].msd, one_row.result()[0].msd)
        voted = GraphLearner(model, 0.05, 0.3, "estimated")
        voted.consume(block[None], majority_vote(block)[None], [combination])
        assert not np.array_equal(per_row.estimate, voted.estimate)
        scalar = GraphLearner(model, 0.05, 0.3, "known")
        scalar.consume(block[None], [1], [combination])
        repeated = GraphLearner(model, 0.05, 0.3, "known")
        repeated.consume(block[None], np.ones((1, 6), dtype=int), [combination])
        assert np.array_equal(scalar.estimate, repeated.estimate)

    @pytest.mark.parametrize("count", [5, 7])
    def test_rejects_hypotheses_of_another_length(self, small_setup, count):
        model, combination = small_setup
        learner = GraphLearner(model, 0.05, 0.3, "estimated")
        with pytest.raises(ValueError,
                           match=f"1 x {count} hypotheses for a block of 1 x 6 rows"):
            learner.consume(np.full((1, 6, 6, 3), -np.log(3)),
                            np.ones((1, count), dtype=int), [combination])
        assert learner.iterations == 0 and not learner.deviations

    @pytest.mark.parametrize("K, count", [(1, 2), (2, 1)])
    def test_rejects_a_matrix_count_other_than_the_stack(self, small_setup, K, count):
        """One matrix per trajectory: a block with another count is
        refused, naming both counts, before any row is stepped, and the
        learner then goes on as if it never came."""
        model, combination = small_setup
        block = np.stack([s.shared_log_beliefs for s in
                          run_simulation(model, combination, 1, 0.3, 10, seed=43)])
        stack = np.stack([block] * K)
        learner = GraphLearner(model, [0.05] * K, 0.3, "known")
        clean = GraphLearner(model, [0.05] * K, 0.3, "known")
        for fed in (learner, clean):
            fed.consume(stack, [1] * K, [combination] * K)
        register, estimate = learner._register.copy(), learner.estimate.copy()
        with pytest.raises(ValueError,
                           match=f"^{count} matrices for a stack of {K} trajectories$"):
            learner.consume(stack, [1] * K, [combination] * count)
        assert learner.iterations == 10 and len(learner.deviations) == 1
        assert np.array_equal(learner._register, register)
        assert np.array_equal(learner.estimate, estimate)
        for fed in (learner, clean):
            fed.consume(stack, [1] * K, [combination] * K)
        for got, want in zip(learner.result(), clean.result()):
            assert got.estimate.tobytes() == want.estimate.tobytes()
            assert got.msd.tobytes() == want.msd.tobytes()

    @pytest.mark.parametrize("sizes", [[4], [6], [5, 4]],
                             ids=["smaller", "larger", "second-of-two"])
    def test_rejects_a_matrix_of_another_size(self, sizes):
        """A matrix of other than n x n, smaller or larger, is refused,
        naming its size and n, before any row of any trajectory is
        stepped."""
        matrices = [random_combination_matrix(erdos_renyi_adjacency(size, 0.5, seed=30)[0],
                                              seed=31)
                    for size in sizes]
        K, size = len(sizes), sizes[-1]
        learner = GraphLearner(random_likelihoods(5, 3, 4, seed=32), [0.05] * K, 0.3,
                               "known")
        estimate = learner.estimate.tobytes()
        with pytest.raises(ValueError, match=f"^a {size} x {size} matrix for 5 agents$"):
            learner.consume(np.full((K, 10, 5, 3), -np.log(3)), [1] * K, matrices)
        assert learner.iterations == 0 and learner.deviations == []
        assert learner.estimate.tobytes() == estimate

    def test_known_mode_requires_the_state(self, small_setup):
        model, _ = small_setup
        learner = GraphLearner(model, 0.05, 0.3, "known")
        with pytest.raises(ValueError):
            learner.consume(np.full((1, 1, 6, 3), -np.log(3)))

    @pytest.mark.parametrize("states, match", [
        ([-1], "true state"), ([3], "true state"),
        (np.full((1, 2), -1), r"hypothesis -1 at row 0 of trajectory 0 is not a state "
                              r"in 0\.\.2"),
        (np.array([[0, 7]]), "hypothesis 7 at row 1 of trajectory 0"),
        (np.array([[1.0, 2.5]]), r"hypothesis 1\.0 at row 0 of trajectory 0"),
    ], ids=["-1", "3", "row-minus-1", "row-7", "row-float"])
    def test_known_mode_rejects_a_state_out_of_range(self, small_setup, states, match):
        """The targets index a table of the 3 hypotheses by the true
        state, where -1 would silently pick hypothesis 2: a state outside
        0..2, like a missing one, is rejected before anything is
        consumed, and so is a per-row hypothesis outside 0..2 or not an
        integer, by its row."""
        model, combination = small_setup
        learner = GraphLearner(model, 0.05, 0.3, "known")
        with pytest.raises(ValueError, match=match):
            learner.consume(np.full((1, 2, 6, 3), -np.log(3)), states, [combination])
        assert learner.iterations == 0 and not learner.deviations

    @pytest.mark.parametrize("reference", [-1, 3])
    def test_rejects_a_reference_out_of_range_at_construction(self, small_setup,
                                                             reference):
        model, _ = small_setup
        with pytest.raises(ValueError, match="reference"):
            GraphLearner(model, 0.05, 0.3, "estimated", reference)

    def test_divergence_freezes_the_estimate(self, small_setup):
        model, combination = small_setup
        steps = run_simulation(model, combination, 1, 0.3, 300, seed=41)
        result = learn_graph(
            simulator_blocks(steps), model, mu=50.0, delta=0.3, mode="known"
        )["known"]
        assert result.diverged_at is not None
        assert np.isfinite(result.estimate).all()
        assert result.msd[-1] == np.inf

    @pytest.mark.parametrize("bad, diverges", [
        (np.nan, True), (np.inf, True), (-np.inf, True), (2e6, True), (-2e6, True),
        (0.5e6, False), (1e6, False), (-1e6, False),
        (np.nextafter(1e6, np.inf), True), (np.nextafter(-1e6, -np.inf), True),
    ])
    def test_divergence_test_on_one_entry(self, small_setup, monkeypatch, bad, diverges):
        """A single NaN, infinite or over-limit entry in an update trips
        the divergence test that consume settles a one-row block with; a
        large entry within the limit does not."""
        model, _ = small_setup

        def update(estimate, *args, **kwargs):
            out = np.zeros_like(estimate)
            out[2, 3] = bad
            return out

        monkeypatch.setattr(estimator, "gradient_step", update)
        learner = GraphLearner(model, 0.05, 0.3, "known")
        learner.consume(np.full((1, 1, 6, 3), -np.log(3)), [0])
        estimate = learner.estimate[0]
        if diverges:
            assert learner.diverged_at[0] == 1
            np.testing.assert_array_equal(estimate, np.zeros((6, 6)))
        else:
            assert learner.diverged_at[0] is None
            assert estimate[2, 3] == bad

    @pytest.mark.parametrize("fill, diverges", [
        (9e5, False), (-9e5, False), (1e6, False), (np.nan, True), (np.inf, True),
    ])
    def test_divergence_test_on_a_full_update(self, monkeypatch, fill, diverges):
        """An update whose every entry is within the limit does not
        diverge even though its sum of squares is far above the squared
        limit (30 x 30 entries of 9e5 sum to 7.3e14)."""
        model = random_likelihoods(30, 3, 3, seed=46)

        def update(estimate, *args, **kwargs):
            return np.full_like(estimate, fill)

        monkeypatch.setattr(estimator, "gradient_step", update)
        learner = GraphLearner(model, 0.05, 0.3, "known")
        learner.consume(np.full((1, 1, 30, 3), -np.log(3)), [0])
        estimate = learner.estimate[0]
        assert (learner.diverged_at[0] == 1) == diverges
        assert (estimate == (0.0 if diverges else fill)).all()

    @pytest.mark.parametrize("bad, diverges", [
        (np.nan, True), (np.inf, True), (-np.inf, True), (2e6, True), (-2e6, True),
        (0.5e6, False), (1e6, False), (-1e6, False),
        (np.nextafter(1e6, np.inf), True), (np.nextafter(-1e6, -np.inf), True),
    ])
    def test_divergence_test_with_a_matrix_on_one_entry(self, monkeypatch, bad,
                                                        diverges):
        """Given the true matrix, the settle gives the verdicts of the test
        without it. The bad entry sits where the matrix holds 1, so the
        deviation of an update just over the limit is just under the
        squared limit: the pretest reads the update's own squared norm,
        not its deviation, and the exact test keeps an update at the
        limit."""
        truth = cycle_matrix(6)
        assert truth.weights[2, 3] == 1.0

        def update(estimate, *args, **kwargs):
            out = np.zeros_like(estimate)
            out[2, 3] = bad
            return out

        monkeypatch.setattr(estimator, "gradient_step", update)
        learner = GraphLearner(random_likelihoods(6, 3, 4, seed=32), 0.05, 0.3, "known")
        learner.consume(np.full((1, 1, 6, 3), -np.log(3)), [0], [truth])
        estimate = learner.estimate[0]
        if diverges:
            assert learner.diverged_at[0] == 1
            np.testing.assert_array_equal(estimate, np.zeros((6, 6)))
        else:
            assert learner.diverged_at[0] is None
            assert estimate[2, 3] == bad

    @pytest.mark.parametrize("fill, diverges", [
        (9e5, False), (-9e5, False), (1e6, False), (np.nan, True), (np.inf, True),
    ])
    def test_divergence_test_with_a_matrix_on_a_full_update(self, monkeypatch, fill,
                                                            diverges):
        """The deviation of 30 x 30 entries of 9e5 is far above the bound,
        yet the update is within the limit: the exact test decides."""
        model = random_likelihoods(30, 3, 3, seed=46)
        adjacency, _ = erdos_renyi_adjacency(30, 0.2, seed=47)
        truth = random_combination_matrix(adjacency, seed=48)

        def update(estimate, *args, **kwargs):
            return np.full_like(estimate, fill)

        monkeypatch.setattr(estimator, "gradient_step", update)
        learner = GraphLearner(model, 0.05, 0.3, "known")
        learner.consume(np.full((1, 1, 30, 3), -np.log(3)), [0], [truth])
        estimate = learner.estimate[0]
        assert (learner.diverged_at[0] == 1) == diverges
        assert (estimate == (0.0 if diverges else fill)).all()

    @pytest.mark.parametrize("rows, bad", [
        (SETTLE_STEPS, 40), (2 * SETTLE_STEPS + 22, SETTLE_STEPS + 36),
        (2 * SETTLE_STEPS + 22, SETTLE_STEPS), (2 * SETTLE_STEPS + 22, 0),
    ], ids=["row-40", "second-run", "first-of-a-run", "row-0"])
    def test_a_divergence_inside_a_block(self, small_setup, monkeypatch, rows, bad):
        """A kernel that adds 1e300 to every entry of the update from row
        ``bad`` of one block on: the learner diverges at that row, keeps
        the update before it bit for bit (the zero matrix before row 0),
        records each earlier row's deviation as msd() gives it and inf
        from that row on. The rows after it step on an overflowing
        trajectory, yet no floating-point warning is raised."""
        model, combination = small_setup
        kernel, updates = estimator.gradient_step, []

        def overflowing(*args, **kwargs):
            updated = kernel(*args, **kwargs)
            if len(updates) >= bad:
                updated += 1e300
            updates.append(updated.copy())
            return updated

        monkeypatch.setattr(estimator, "gradient_step", overflowing)
        block = np.stack([s.shared_log_beliefs for s in
                          run_simulation(model, combination, 1, 0.3, rows, seed=44)])
        learner = GraphLearner(model, 0.05, 0.3, "known")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            learner.consume(block[None], [1], [combination])
        assert learner.diverged_at[0] == bad + 1
        assert learner.iterations == rows
        kept = updates[bad - 1] if bad else np.zeros((6, 6))
        assert learner.estimate[0].tobytes() == kept.tobytes()
        deviations = learner.result()[0].msd
        assert deviations.tolist() == (
            [msd(combination.weights, u) for u in updates[:bad]] + [np.inf] * (rows - bad))
        # the rows of the block's later settle runs are counted, not stepped
        assert len(updates) == min(rows, -(-(bad + 1) // SETTLE_STEPS) * SETTLE_STEPS)

    @pytest.mark.parametrize("mode", ["known", "estimated"])
    def test_each_deviation_is_the_msd_of_its_estimate(self, small_setup, mode):
        """The deviation the step forms for its divergence test is the one
        recorded: exactly ``msd`` of the matrix and the new estimate."""
        model, combination = small_setup
        learner = GraphLearner(model, 0.5, 0.3, mode)
        for step in run_simulation(model, combination, 1, 0.3, 150, seed=49):
            block = step.shared_log_beliefs[None]
            states = [1] if mode == "known" else majority_vote(block)[None]
            learner.consume(block[None], states, [combination])
            assert learner.deviations[-1][0, 0] == msd(combination.weights,
                                                        learner.estimate[0])
        assert learner.diverged_at[0] is None

    @pytest.mark.parametrize("mu", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_a_rate_that_is_not_positive_and_finite(self, small_setup, mu):
        model, _ = small_setup
        with pytest.raises(ValueError):
            GraphLearner(model, mu, 0.3, "known")

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.1, np.nan])
    def test_rejects_a_step_size_outside_the_unit_interval(self, small_setup, delta):
        model, _ = small_setup
        with pytest.raises(ValueError, match=r"^delta must be in \(0, 1\)$"):
            GraphLearner(model, 0.05, delta, "known")

    def test_learn_without_truth_reports_nan(self, small_setup):
        model, combination = small_setup
        blocks = [
            (block, None, None) for block, _, _ in simulator_blocks(
                run_simulation(model, combination, 1, 0.3, 20, seed=42)
            )
        ]
        result = learn_graph(blocks, model, 0.05, 0.3, mode="estimated")["estimated"]
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

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(1, 80), elements=st.floats(-1e6, 1e6)
                      | st.sampled_from([0.0, -0.0, 1e-300, 0.1, 0.3])))
    def test_two_means_gives_the_bits_of_np_mean(self, values):
        try:
            boundary = two_means_split(values)
        except NoSeparationError as err:
            boundary = str(err)
        # A float's repr tells every bit apart, the sign of a zero included.
        assert repr(boundary) == repr(mean_two_means_split(values))

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

    def test_rejects_stacks_that_are_not_3_dimensional(self):
        lam, sig, expected = self._streams(scale=0.5)
        for lam_in, sig_in in ((lam[:, 0], sig), (lam, sig[:, 0])):
            with pytest.raises(ValueError, match="^sample stacks must be 3-dimensional$"):
                steady_state_diagnostics(lam_in, sig_in, expected, mu=0.01, delta=0.2)


class TestObserverAgainstSimulator:
    def test_deviation_decreases_on_a_short_run(self, small_setup):
        model, combination = small_setup
        blocks = simulator_blocks(
            run_simulation(model, combination, 1, 0.3, 2000, seed=43)
        )
        result = learn_graph(blocks, model, mu=0.05, delta=0.3, mode="known")["known"]
        assert result.msd[0] == pytest.approx(np.sum(combination.weights**2))
        assert result.msd[-100:].mean() < 0.2 * result.msd[0]

    def test_estimated_mode_tracks_known_mode(self, small_setup):
        model, combination = small_setup
        blocks = simulator_blocks(
            run_simulation(model, combination, 1, 0.3, 2000, seed=44)
        )
        known = learn_graph(blocks, model, 0.05, 0.3, mode="known")["known"]
        estimated = learn_graph(blocks, model, 0.05, 0.3, mode="estimated")["estimated"]
        k = known.msd[-200:].mean()
        e = estimated.msd[-200:].mean()
        assert abs(k - e) / k < 0.5


class TestBlockwiseLearner:
    """The learner works block by block. One fed one-row blocks, one fed
    the simulator's chunks and one fed the blocks `learn` cuts from a
    recorded stream record the same estimate, deviations and votes,
    across events just before and just after a chunk boundary."""

    @pytest.fixture(scope="class")
    def chunked_steps(self):
        adjacency, _ = erdos_renyi_adjacency(10, 0.35, seed=21)
        combination = random_combination_matrix(adjacency, seed=22)
        model = random_likelihoods(10, 3, 4, seed=23)
        schedule = EventSchedule((
            Event(CHUNK_STEPS - 1, "set_true_state", 2),
            Event(CHUNK_STEPS + 1, "regenerate_graph", 900),
            Event(2 * CHUNK_STEPS, "set_true_state", 0),
        ))
        steps = list(run_simulation(
            model, combination, 1, 0.3, 4 * CHUNK_STEPS + 44, seed=24,
            schedule=schedule, edge_prob=0.35,
        ))
        return model, steps

    @pytest.mark.parametrize("mode, mu", [
        ("known", 0.01), ("estimated", 0.01), ("known", 5.0), ("estimated", 5.0),
    ], ids=["known", "estimated", "known-diverging", "estimated-diverging"])
    def test_three_feeds_record_the_same_run(self, chunked_steps, mode, mu):
        """At mu=5 the learner diverges inside the first chunk: every feed
        records the deviations of the rows before it as msd() gives them,
        inf from the diverging row on, and goes on counting and voting."""
        model, steps = chunked_steps
        stream = np.stack([s.shared_log_beliefs for s in steps])
        true_states = np.array([s.true_state for s in steps])
        epochs = np.array([s.graph_epoch for s in steps])
        matrices = {s.graph_epoch: s.combination for s in steps}
        one_row = [
            (stream[i:i + 1].copy(), s.true_state, s.combination)
            for i, s in enumerate(steps)
        ]
        chunks = simulator_blocks(steps)
        recorded = list(_recorded_blocks(stream, true_states, epochs, matrices))
        feeds = {"one-row": one_row, "chunks": chunks, "recorded": recorded}
        assert max(len(b) for b, _, _ in chunks) == CHUNK_STEPS
        assert [len(b) for b, _, _ in recorded] == [len(b) for b, _, _ in chunks]
        results = {
            name: learn_graph(blocks, model, mu, 0.3, mode)[mode]
            for name, blocks in feeds.items()
        }
        base = results["chunks"]
        if mu < 1:
            assert np.isfinite(base.msd).all()
        else:
            chunk_starts = np.cumsum([0] + [len(b) for b, _, _ in chunks])
            assert base.diverged_at - 1 not in chunk_starts
            learner = GraphLearner(model, mu, 0.3, mode)
            oracle = []
            for block, true_state, combination in one_row:
                states = [true_state] if mode == "known" else majority_vote(block)[None]
                learner.consume(block[None], states, [combination])
                oracle.append(msd(combination.weights, learner.estimate[0]))
            assert learner.iterations == len(steps)
            assert learner.diverged_at[0] == base.diverged_at
            diverged = base.diverged_at - 1
            assert np.array_equal(base.msd[:diverged], oracle[:diverged])
            assert np.isinf(base.msd[diverged:]).all()
        for name, result in results.items():
            assert np.array_equal(result.estimate, base.estimate), name
            assert np.array_equal(result.msd, base.msd), name
            if mode == "estimated":
                assert np.array_equal(result.votes, base.votes), name
                assert result.votes.tolist() == [
                    majority_vote(s.shared_log_beliefs) for s in steps
                ]

    @pytest.mark.parametrize("mode", ["known", "estimated"])
    def test_the_learner_equals_a_plain_loop_of_the_kernel(self, chunked_steps, mode):
        """The learner hands the kernel mu as a 0-d array; a plain loop of
        gradient_step with mu as a Python float, over regressors and
        targets formed snapshot by snapshot, gives the same estimate and
        deviations bit for bit."""
        model, steps = chunked_steps
        mu, delta = 0.01, 0.3
        learned = learn_graph(simulator_blocks(steps), model, mu, delta, mode)[mode]
        estimate = np.zeros((10, 10))
        previous = np.zeros((2, 10))
        deviations = []
        for step in steps:
            ratios = belief_log_ratios(step.shared_log_beliefs).T
            state = (step.true_state if mode == "known"
                     else majority_vote(step.shared_log_beliefs))
            targets = ratios - delta * mean_likelihood_matrix(model, state).T
            estimate = gradient_step(
                estimate, (1.0 - delta) * previous, targets, float(mu)
            )
            previous = ratios
            deviations.append(msd(step.combination.weights, estimate))
        assert np.array_equal(learned.estimate, estimate)
        assert np.array_equal(learned.msd, deviations)

    @pytest.fixture(scope="class")
    def reference_steps(self):
        """300 steps of a 30-agent, 4-state world at delta 0.05."""
        adjacency, _ = erdos_renyi_adjacency(30, 0.2, seed=31)
        combination = random_combination_matrix(adjacency, seed=32)
        model = random_likelihoods(30, 4, 5, seed=33)
        return model, list(run_simulation(model, combination, 2, 0.05, 300, seed=34))

    @pytest.mark.parametrize("feed", ["chunks", "one-block"])
    @pytest.mark.parametrize("mode", ["known", "estimated"])
    def test_30_agents_equal_a_plain_loop(self, reference_steps, mode, feed):
        """At 30 agents, fed the simulator's chunks or the whole stream
        as one block of more than CHUNK_STEPS rows, the learner's
        estimate and deviations equal a plain loop of the kernel and
        msd() bit for bit."""
        model, steps = reference_steps
        mu, delta = 0.01, 0.05
        if feed == "chunks":
            blocks = simulator_blocks(steps)
        else:
            block = np.stack([s.shared_log_beliefs for s in steps])
            blocks = [(block, steps[0].true_state, steps[0].combination)]
            assert len(block) > CHUNK_STEPS
        learned = learn_graph(blocks, model, mu, delta, mode)[mode]
        estimate = np.zeros((30, 30))
        previous = np.zeros((3, 30))
        deviations = []
        for step in steps:
            ratios = belief_log_ratios(step.shared_log_beliefs).T
            state = (step.true_state if mode == "known"
                     else majority_vote(step.shared_log_beliefs))
            targets = ratios - delta * mean_likelihood_matrix(model, state).T
            estimate = gradient_step(estimate, (1.0 - delta) * previous, targets, mu)
            previous = ratios
            deviations.append(msd(step.combination.weights, estimate))
        assert learned.diverged_at is None
        assert np.array_equal(learned.estimate, estimate)
        assert np.array_equal(learned.msd, deviations)

    @pytest.mark.parametrize("reference", [0, 1, 2], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("mode", ["known", "estimated"])
    def test_every_reference_equals_a_plain_loop(self, chunked_steps, mode, reference):
        """The learner writes a block's ratios into its own buffer; a
        plain loop that forms each snapshot's ratios on their own, by
        column selection, gives the same estimate and deviations bit for
        bit, whichever column the reference is."""
        model, steps = chunked_steps
        mu, delta = 0.01, 0.3
        cols = ratio_columns(model.num_states, reference)
        learner = GraphLearner(model, mu, delta, mode, reference)
        for block, true_state, combination in simulator_blocks(steps):
            states = [true_state] if mode == "known" else majority_vote(block)[None]
            learner.consume(block[None], states, [combination])
        learned = learner.result()[0]
        estimate = np.zeros((10, 10))
        previous = np.zeros((2, 10))
        deviations = []
        for step in steps:
            shared = step.shared_log_beliefs
            ratios = (shared[:, [reference]] - shared[:, cols]).T
            state = step.true_state if mode == "known" else majority_vote(shared)
            expected = mean_likelihood_matrix(model, state, reference)
            estimate = gradient_step(
                estimate, (1.0 - delta) * previous, ratios - delta * expected.T, mu
            )
            previous = ratios
            deviations.append(msd(step.combination.weights, estimate))
        assert np.array_equal(learned.estimate, estimate)
        assert np.array_equal(learned.msd, deviations)

    @pytest.mark.parametrize("mu", [0.01, 5.0])
    def test_blocks_without_a_matrix_record_nan(self, chunked_steps, mu):
        """A block without its matrix records NaN for each row the learner
        has not diverged by, inf for the others, and the same update."""
        model, steps = chunked_steps
        chunks = simulator_blocks(steps)
        blind = [
            (block, state, None if index % 2 == 0 else combination)
            for index, (block, state, combination) in enumerate(chunks)
        ]
        full = learn_graph(chunks, model, mu, 0.3, "known")["known"]
        partial = learn_graph(blind, model, mu, 0.3, "known")["known"]
        assert np.array_equal(partial.estimate, full.estimate)
        assert partial.diverged_at == full.diverged_at
        assert (partial.diverged_at is None) == (mu < 1)
        without = np.concatenate([np.full(len(b), m is None) for b, _, m in blind])
        expected = np.where(without & np.isfinite(full.msd), np.nan, full.msd)
        assert np.array_equal(partial.msd, expected, equal_nan=True)
        assert np.isnan(partial.msd).any()

    @pytest.mark.parametrize("mode", ["known", "estimated"])
    def test_an_empty_feed_records_nothing(self, chunked_steps, mode):
        model, _ = chunked_steps
        result = learn_graph([], model, 0.01, 0.3, mode)[mode]
        assert result.msd.shape == (0,) and result.msd.dtype == float
        assert result.diverged_at is None
        assert not result.estimate.any()
        if mode == "estimated":
            assert result.votes.shape == (0,)
        else:
            assert result.votes is None

    def test_recorded_blocks_are_bounded_and_end_before_changes(self):
        """`learn` cuts a stream of T = 4 C + 44 steps, C = CHUNK_STEPS,
        at a state switch (step C + 36) and a regeneration (step 3 C +
        38), then every C steps from each cut; without a trace, only the
        length bound cuts."""
        C = CHUNK_STEPS
        T = 4 * C + 44
        stream = np.zeros((T, 2, 2))
        true_states = np.where(np.arange(T) < C + 35, 1, 0)
        epochs = np.where(np.arange(T) < 3 * C + 37, 0, 1)
        matrices = {0: "first", 1: "second"}
        blocks = list(_recorded_blocks(stream, true_states, epochs, matrices))
        assert [len(b) for b, _, _ in blocks] == [C, 35, C, C, 2, C, 7]
        assert [(s, m) for _, s, m in blocks] == (
            [(1, "first")] * 2 + [(0, "first")] * 3 + [(0, "second")] * 2
        )
        blind = list(_recorded_blocks(stream, None, np.zeros(T, int), {}))
        assert [len(b) for b, _, _ in blind] == [C] * 4 + [44]
        assert {(s, m) for _, s, m in blind} == {(None, None)}


class TestFollower:
    """The estimated learner of a ``both`` run, which follows the known
    one until a vote differs, records what two independent learners
    record, bit for bit: online through :class:`ModeLearners` and through
    ``learn_graph(..., "both")``, whether it follows to the end, forks at
    a block whose votes differ from its true state, or follows through a
    divergence. The desk stream's votes differ from its true state at
    iteration 1 only; at delta 0.2 that holds over its five chunks."""

    T = 4 * CHUNK_STEPS + 44
    DELTA = 0.2

    @pytest.fixture(scope="class")
    def desk(self):
        adjacency, _ = erdos_renyi_adjacency(10, 0.35, seed=21)
        combination = random_combination_matrix(adjacency, seed=22)
        model = random_likelihoods(10, 3, 4, seed=23)
        steps = list(run_simulation(model, combination, 1, self.DELTA, self.T, seed=20))
        votes = np.array([majority_vote(s.shared_log_beliefs) for s in steps])
        assert np.flatnonzero(votes != 1).tolist() == [0]
        return model, simulator_blocks(steps)

    @pytest.fixture
    def step_calls(self, monkeypatch):
        counts = Counter()
        step = GraphLearner.step

        def counting_step(self, *args, **kwargs):
            counts[self.mode] += 1
            return step(self, *args, **kwargs)

        monkeypatch.setattr(GraphLearner, "step", counting_step)
        return counts

    @classmethod
    def follow(cls, blocks, model, mu):
        """Feed the learners of a ``both`` run online."""
        learners = ModeLearners(model, mu, cls.DELTA, "both")
        for block, true_state, combination in blocks:
            learners.consume(block[None], [true_state], [combination])
        return learners

    @staticmethod
    def assert_matches_the_oracle(results, oracle):
        assert list(results) == ["known", "estimated"]
        for mode in ("known", "estimated"):
            got, want = results[mode], oracle[mode]
            assert got.mode == mode
            assert np.array_equal(got.estimate, want.estimate), mode
            assert np.array_equal(got.msd, want.msd), mode
            assert got.diverged_at == want.diverged_at, mode
            if mode == "estimated":
                assert np.array_equal(got.votes, want.votes)
            else:
                assert got.votes is want.votes is None

    def check(self, blocks, model, mu):
        """Compare both feeds with the oracle; return the online learners."""
        oracle = independent_learners(blocks, model, mu, self.DELTA)
        learners = self.follow(blocks, model, mu)
        self.assert_matches_the_oracle(learners.results()[0], oracle)
        self.assert_matches_the_oracle(
            learn_graph(blocks, model, mu, self.DELTA, "both"), oracle)
        return learners

    def test_a_differing_vote_at_iteration_1_only_does_not_fork(self, desk,
                                                                step_calls):
        model, blocks = desk
        learners = self.check(blocks, model, 0.01)
        assert learners.estimated is None
        # the oracle's two learners, the online pair, then learn_graph's
        assert step_calls == {"known": 3 * self.T, "estimated": self.T}
        assert learners.results()[0]["estimated"].votes[0] != 1

    @pytest.mark.parametrize("k, rows", [(0, None), (2, None), (4, None), (2, 1)],
                             ids=["first", "middle", "last", "middle-row-0"])
    def test_a_block_whose_votes_differ_forks_it(self, desk, step_calls, k, rows):
        """The first ``rows`` rows of block k (all of them by default), as
        a block of their own, are given true state 2 while every vote in
        them is 1. In block 0 only rows 1.. count, since the run's first
        row is exempt; the first row of a later block is not."""
        model, blocks = desk
        assert len(blocks) == 5
        block, state, matrix = blocks[k]
        cut = len(block) if rows is None else rows
        pieces = [(block[:cut], 2, matrix), (block[cut:], state, matrix)]
        forced = blocks[:k] + [p for p in pieces if len(p[0])] + blocks[k + 1:]
        start = sum(len(b) for b, _, _ in blocks[:k])
        learners = self.check(forced, model, 0.01)
        assert learners.estimated is not None
        assert step_calls == {"known": 3 * self.T, "estimated": 3 * self.T - 2 * start}

    def test_a_divergence_while_following(self, desk, step_calls):
        model, blocks = desk
        learners = self.check(blocks, model, 5.0)
        assert learners.estimated is None
        assert step_calls["estimated"] == self.T
        results = learners.results()[0]
        diverged = results["estimated"].diverged_at
        assert diverged is not None and diverged == results["known"].diverged_at
        for result in results.values():
            assert np.isfinite(result.msd[:diverged - 1]).all()
            assert np.isinf(result.msd[diverged - 1:]).all()

    def test_results_share_no_memory(self, desk):
        model, blocks = desk
        results = learn_graph(blocks, model, 0.01, self.DELTA, "both")
        kept = results["estimated"].estimate.copy()
        assert np.array_equal(results["known"].estimate, kept)
        results["known"].estimate += 1.0
        assert np.array_equal(results["estimated"].estimate, kept)
        assert not np.shares_memory(results["known"].msd, results["estimated"].msd)

    def test_a_fork_shares_the_target_table(self, desk, monkeypatch):
        """The table of delta * lbar^T is built once per pair: the known
        learner computes one mean ratio matrix per hypothesis, the fork
        none."""
        model, blocks = desk
        calls = []
        mean = estimator.mean_likelihood_matrix

        def counted(*args):
            calls.append(args)
            return mean(*args)

        monkeypatch.setattr(estimator, "mean_likelihood_matrix", counted)
        learners = ModeLearners(model, 0.01, self.DELTA, "both")
        assert len(calls) == model.num_states
        block, _, matrix = blocks[1]
        learners.consume(block[None], [2], [matrix])
        assert learners.estimated._offsets is learners.known._offsets
        assert len(calls) == model.num_states

    @pytest.mark.parametrize("mode, refused, match", [
        ("both", lambda block, state: (block[None], [7]), r"true state in 0\.\.2"),
        ("both", lambda block, state: (block[None], None), "^no hypotheses for a block"),
        ("estimated", lambda block, state: (block[None, ..., :2], [state]),
         r"^blocks must be 1 x steps x 10 x 3, not 1 x \d+ x 10 x 2$"),
        *[(mode, lambda block, state: (block, [state]),
           r"^blocks must be 1 x steps x 10 x 3, not \d+ x 10 x 3$")
          for mode in ("known", "estimated", "both")],
    ], ids=["both-state-out-of-range", "both-no-states", "estimated-block-shape",
            "known-3d-block", "estimated-3d-block", "both-3d-block"])
    def test_a_refused_block_changes_no_record(self, desk, mode, refused, match):
        """A block the learners refuse, whose votes differ from its true
        states in ``both``, leaves the votes, the fork and the deviations
        as they were, at the run's first block or later, and the run then
        goes on as if it never came. A
        block without its stack axis is refused by its shape in every
        mode, before the vote reads it."""
        model, blocks = desk

        def assert_same_records(got, want):
            assert list(got) == list(want)
            for name, result in want.items():
                assert got[name].estimate.tobytes() == result.estimate.tobytes()
                assert got[name].msd.tobytes() == result.msd.tobytes()
                assert (got[name].votes is None) == (result.votes is None)
                if result.votes is not None:
                    assert got[name].votes.tobytes() == result.votes.tobytes()
                    assert len(result.votes) == len(result.msd)

        learners = ModeLearners(model, 0.01, self.DELTA, mode)
        clean = ModeLearners(model, 0.01, self.DELTA, mode)
        for k, (block, state, matrix) in enumerate(blocks):
            if k in (0, 2):
                estimated = learners.estimated
                with pytest.raises(ValueError, match=match):
                    learners.consume(*refused(block, state), [matrix])
                assert learners.estimated is estimated
                assert_same_records(learners.results()[0], clean.results()[0])
            for fed in (learners, clean):
                fed.consume(block[None], [state], [matrix])
        if mode == "both":
            assert learners.estimated is None
        assert_same_records(learners.results()[0], clean.results()[0])

    @pytest.mark.parametrize("states", [np.zeros((2, 5), int), np.zeros((5, 1), int)],
                             ids=["2x5", "5x1"])
    def test_states_of_another_shape_are_refused_before_the_vote(self, desk, states):
        """In ``both`` as in ``known`` mode, the learner's own check names
        the states' shape, and nothing is recorded."""
        model, blocks = desk
        block = blocks[1][0][None, :5]
        shape = " x ".join(map(str, states.shape))
        for mode in ("known", "both"):
            learners = ModeLearners(model, 0.01, self.DELTA, mode)
            with pytest.raises(ValueError, match=f"^{shape} hypotheses for a block of "
                                                 f"1 x 5 rows$"):
                learners.consume(block, states)
            assert learners.estimated is None
            assert learners.known.iterations == 0

    @staticmethod
    def voting_block(votes, agents, states):
        """A ``(1, rows, agents, states)`` block of log-beliefs in which
        every agent of row t believes ``votes[t]`` most."""
        rows = len(votes)
        block = np.log(np.random.default_rng(9).dirichlet(np.ones(states), (rows, agents)))
        block[np.arange(rows), :, votes] += 10.0
        return block[None]

    @pytest.mark.parametrize("later, states, forks", [
        (False, [2, 0, 2, 2, 1], False),
        (False, [0, 0, 2, 2, 1], False),
        (False, [2, 0, 2, 1, 1], True),
        (True, [2, 0, 2, 2, 1], False),
        (True, [0, 0, 2, 2, 1], True),
    ], ids=["first-the-votes", "first-row-0-differs", "first-row-3-differs",
            "later-the-votes", "later-row-0-differs"])
    def test_per_row_states_are_compared_row_by_row(self, desk, later, states, forks):
        """Each row's vote is compared with its own row's true state: fed
        exactly its votes, a block forks nothing. A row whose vote differs
        forks, but for the run's first row. The records are those of two
        independent learners either way."""
        model = desk[0]
        votes = [2, 0, 2, 2, 1]
        block = self.voting_block(votes, model.num_agents, model.num_states)
        assert majority_vote(block).tolist() == [votes]
        fed = [(votes, votes)] * later + [(states, votes)]
        learners = ModeLearners(model, 0.01, self.DELTA, "both")
        for known_states, _ in fed:
            learners.consume(block, [known_states])
        assert (learners.estimated is not None) == forks
        results = learners.results()[0]
        for k, mode in enumerate(("known", "estimated")):
            alone = GraphLearner(model, 0.01, self.DELTA, mode)
            for pair in fed:
                alone.consume(block, [pair[k]])
            assert results[mode].estimate.tobytes() == alone.result()[0].estimate.tobytes()
        assert results["estimated"].votes.tolist() == votes * (1 + later)

    def test_an_unknown_mode_is_rejected(self, desk):
        with pytest.raises(ValueError, match="unknown mode 'all'"):
            ModeLearners(desk[0], 0.01, self.DELTA, "all")


class TestStackedLearners:
    """A stack of K trajectories, one ``mu`` and ``delta`` each, fed the
    blocks of K streams with a leading K axis, records per trajectory
    what a separate learner of that ``mu`` and ``delta`` records on its
    own stream, bit for bit, in every mode: the estimate, every step's
    deviation, the divergence and the votes. At mu 50 one trajectory
    diverges inside a block while the others step on."""

    T = 300
    POINTS = ((0.01, 0.3), (50.0, 0.3), (0.02, 0.2))
    SCHEDULE = EventSchedule((Event(100, "set_true_state", 0),
                              Event(200, "regenerate_graph", 900)))

    @pytest.fixture(scope="class")
    def desk(self):
        """The desk world's blocks at each delta of ``POINTS``."""
        adjacency, _ = erdos_renyi_adjacency(10, 0.35, seed=21)
        combination = random_combination_matrix(adjacency, seed=22)
        model = random_likelihoods(10, 3, 4, seed=23)
        streams = {delta: simulator_blocks(run_simulation(
            model, combination, 1, delta, self.T, seed=20, schedule=self.SCHEDULE,
            edge_prob=0.35)) for delta in {delta for _, delta in self.POINTS}}
        return model, streams

    @staticmethod
    def feed(learners, streams):
        """Feed the learners each chunk of every stream at once."""
        for chunk in zip(*streams):
            blocks, states, matrices = zip(*chunk)
            learners.consume(np.stack(blocks), np.array(states), list(matrices))

    def test_the_diverging_trajectory_diverges_inside_a_block(self, desk):
        model, streams = desk
        blocks = streams[0.3]
        starts = np.cumsum([0] + [len(block) for block, _, _ in blocks])
        diverged = learn_graph(blocks, model, 50.0, 0.3, "known")["known"].diverged_at
        assert diverged is not None and diverged - 1 not in starts

    @pytest.mark.parametrize("points", [POINTS, POINTS[:1], POINTS[1:2]],
                             ids=["K=3", "K=1", "K=1-diverging"])
    @pytest.mark.parametrize("mode", ["known", "estimated", "both"])
    def test_a_stack_records_what_separate_learners_record(self, desk, mode, points):
        model, streams = desk
        stack = ModeLearners(model, [mu for mu, _ in points],
                             [delta for _, delta in points], mode)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.feed(stack, [streams[delta] for _, delta in points])
        stacked = stack.results()
        assert len(stacked) == len(points)
        for (mu, delta), got in zip(points, stacked):
            want = learn_graph(streams[delta], model, mu, delta, mode)
            assert list(got) == list(want)
            for name, result in want.items():
                assert got[name].mode == name
                assert got[name].estimate.tobytes() == result.estimate.tobytes()
                assert got[name].msd.tobytes() == result.msd.tobytes()
                assert got[name].diverged_at == result.diverged_at
                if result.votes is None:
                    assert got[name].votes is None
                else:
                    assert np.array_equal(got[name].votes, result.votes)

    @pytest.mark.parametrize("points, calls", [(POINTS, T), (((50.0, 0.3),) * 2, 64)],
                             ids=["one-diverges", "all-diverge"])
    def test_one_kernel_call_per_row_for_the_stack(self, desk, monkeypatch, points,
                                                    calls):
        """The stack steps while any trajectory does: every row, or the
        rows up to the end of the run in which the last one diverged."""
        model, streams = desk
        count = Counter()
        kernel = estimator.gradient_step

        def counting(*args, **kwargs):
            count["gradient_step"] += 1
            return kernel(*args, **kwargs)

        monkeypatch.setattr(estimator, "gradient_step", counting)
        stack = ModeLearners(model, [mu for mu, _ in points],
                             [delta for _, delta in points], "known")
        self.feed(stack, [streams[delta] for _, delta in points])
        assert count == {"gradient_step": calls}
        assert stack.known.iterations == self.T

    @pytest.mark.parametrize("points, shape", [(POINTS, (3, 2, 10)), (POINTS[:1], ())],
                             ids=["K=3", "K=1"])
    def test_the_kernel_scales_by_a_full_rate_operand(self, desk, monkeypatch, points,
                                                      shape):
        """For K > 1 the learner passes mu as one contiguous ``(K, S-1,
        n)`` operand, so the kernel's residual scales without a
        broadcast; at K = 1 as a 0-d array."""
        model, streams = desk
        rates = []
        kernel = estimator.gradient_step

        def recording(estimate, regressors, targets, mu, out=None):
            rates.append(mu)
            return kernel(estimate, regressors, targets, mu, out=out)

        monkeypatch.setattr(estimator, "gradient_step", recording)
        stack = ModeLearners(model, [mu for mu, _ in points],
                             [delta for _, delta in points], "known")
        self.feed(stack, [streams[delta] for _, delta in points])
        assert len(rates) == self.T
        rate = rates[0]
        assert all(mu is rate for mu in rates)
        assert rate.shape == shape and rate.flags.c_contiguous
        assert np.array_equal(rate.reshape(len(points), -1).max(axis=1),
                              rate.reshape(len(points), -1).min(axis=1))
        assert rate.reshape(len(points), -1)[:, 0].tolist() == [mu for mu, _ in points]

    def test_a_stack_rejects_hypotheses_of_another_shape(self, desk):
        model, streams = desk
        learner = GraphLearner(model, [0.01, 0.02], 0.3, "known")
        block, _, matrix = streams[0.3][0]
        with pytest.raises(ValueError,
                           match=f"3 hypotheses for a block of 2 x {len(block)} rows"):
            learner.consume(np.stack([block, block]), np.ones(3, dtype=int))
        with pytest.raises(ValueError, match=r"true state in 0\.\.2, got \[1 3\]"):
            learner.consume(np.stack([block, block]), np.array([1, 3]))
        rows = np.ones((2, len(block)), dtype=int)
        for k, row, bad in [(0, 0, -1), (1, 5, 7), (1, len(block) - 1, 3)]:
            states = rows.copy()
            states[k, row] = bad
            with pytest.raises(ValueError, match=f"hypothesis {bad} at row {row} of "
                                                 f"trajectory {k} is not a state"):
                learner.consume(np.stack([block, block]), states)
        with pytest.raises(ValueError, match=r"hypothesis 1\.0 at row 0 of trajectory 0"):
            learner.consume(np.stack([block, block]), rows.astype(float))
        with pytest.raises(ValueError,
                           match=f"blocks must be 2 x steps x 10 x 3, not {len(block)} "
                                 f"x 10 x 3"):
            learner.consume(block, np.array([1, 1]))
        assert learner.iterations == 0 and not learner.deviations

    def test_rates_and_step_sizes_are_checked_per_trajectory(self, desk):
        model, _ = desk
        with pytest.raises(ValueError, match="mu must be positive"):
            GraphLearner(model, [0.01, 0.0], 0.3, "known")
        with pytest.raises(ValueError, match=r"delta must be in \(0, 1\)"):
            GraphLearner(model, 0.01, [0.3, 1.0], "known")
        with pytest.raises(ValueError, match="one per trajectory"):
            GraphLearner(model, [[0.01]], 0.3, "known")
        with pytest.raises(ValueError,
                           match="^mu and delta must each be one value or one per "
                                 "trajectory$"):
            GraphLearner(model, [], 0.3, "known")
        with pytest.raises(ValueError,
                           match="^mu and delta must each be one value or one per "
                                 "trajectory$"):
            GraphLearner(model, [0.01, 0.02], [0.1, 0.2, 0.3], "known")
