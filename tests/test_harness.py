"""Configuration, end-to-end experiments, persistence and sweeps."""

import json
import warnings
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefgraph import estimator, harness, io
from beliefgraph.estimator import (
    GraphLearner,
    belief_log_ratios,
    learn_graph,
    majority_vote,
    steady_state_diagnostics,
)
from beliefgraph.harness import (
    ConfigError,
    ExperimentConfig,
    run_experiment,
    run_forward,
    steady_state_mean,
    sweep,
)
from beliefgraph.simulate import Event, EventSchedule, run_simulation
from beliefgraph.model import CombinationMatrix, mean_likelihood_matrix


def desk_config(**overrides):
    base = dict(
        agents=6, states=3, signals=3, edge_prob=0.5, delta=0.3, mu=0.05,
        iterations=300, seed_graph=50, seed_weights=51, seed_likelihoods=52,
        seed_signals=53, true_state=1,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def bundle_bytes(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


class TestConfigValidation:
    def test_default_config_is_valid(self):
        ExperimentConfig().validate()

    @pytest.mark.parametrize("overrides", [
        {"agents": 0},
        {"states": 1},
        {"signals": 1},
        {"edge_prob": 0.0},
        {"edge_prob": 1.2},
        {"delta": 0.0},
        {"delta": 1.0},
        {"mu": 0.0},
        {"iterations": 0},
        {"mode": "oracle"},
        {"true_state": 7},
        {"reference": -1},
        {"likelihood_floor": 0.5},
        {"kl_floor": 0.0},
        {"classify_method": "median"},
        {"classify_method": "threshold"},
        {"schedule": EventSchedule((Event(400, "set_true_state", 1),))},
        {"schedule": EventSchedule((Event(5, "set_true_state", 9),))},
        {"mu": np.nan},
        {"mu": np.inf},
        {"likelihood_floor": np.nan},
        {"likelihood_floor": np.inf},
        {"kl_floor": np.nan},
        {"kl_floor": np.inf},
        {"classify_threshold": np.nan},
        {"classify_method": "threshold", "classify_threshold": np.inf},
        {"agents": "x"},
        {"iterations": 200.0},
        {"true_state": True},
        {"mu": "0.1"},
        {"kl_floor": None},
        {"signals": "4"},
        {"signals": (3, 3, 3, 3, 3, 3.0)},
        {"classify_threshold": "0.5"},
    ])
    def test_invalid_configs_raise(self, overrides):
        with pytest.raises(ConfigError):
            desk_config(**overrides).validate()

    def test_dict_round_trip(self):
        config = desk_config(
            schedule=EventSchedule((Event(10, "set_true_state", 2),)),
            signals=(3, 3, 4, 3, 3, 3),
        )
        restored = ExperimentConfig.from_dict(config.to_dict())
        assert restored == replace(config, out=None)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_dict_round_trip_property(self, data):
        """Any configuration survives ``to_dict``, JSON text (as in a
        manifest) and ``from_dict`` unchanged, valid or not."""
        floats = st.floats(allow_nan=False, allow_infinity=False)
        agents = data.draw(st.integers(1, 12), label="agents")
        iterations = data.draw(st.integers(1, 10**6), label="iterations")
        event_iterations = data.draw(
            st.lists(st.integers(1, iterations), max_size=4, unique=True),
            label="event iterations",
        )
        schedule = EventSchedule(tuple(
            Event(i, data.draw(st.sampled_from(["set_true_state", "regenerate_graph"])),
                  data.draw(st.integers(-2**40, 2**40)))
            for i in sorted(event_iterations)
        ))
        config = ExperimentConfig(
            agents=agents,
            states=data.draw(st.integers(2, 8)),
            signals=data.draw(
                st.integers(2, 9)
                | st.tuples(*[st.integers(2, 9)] * agents)
            ),
            edge_prob=data.draw(floats),
            delta=data.draw(floats),
            mu=data.draw(floats),
            iterations=iterations,
            seed_graph=data.draw(st.integers(0, 2**63)),
            seed_weights=data.draw(st.integers(0, 2**63)),
            seed_likelihoods=data.draw(st.integers(0, 2**63)),
            seed_signals=data.draw(st.integers(0, 2**63)),
            mode=data.draw(st.sampled_from(["known", "estimated", "both"])),
            true_state=data.draw(st.integers(0, 7)),
            reference=data.draw(st.integers(0, 7)),
            schedule=schedule,
            test_mode=data.draw(st.booleans()),
            likelihood_floor=data.draw(floats),
            kl_floor=data.draw(floats),
            max_attempts=data.draw(st.integers(1, 10**6)),
            classify_method=data.draw(st.sampled_from(["two-means", "threshold"])),
            classify_threshold=data.draw(st.none() | floats),
            out="ignored",
        )
        payload = json.loads(json.dumps(config.to_dict(), allow_nan=False))
        assert ExperimentConfig.from_dict(payload) == replace(config, out=None)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"agents": 3, "bogus": 1})


class TestSteadyStateMean:
    def test_final_tenth(self):
        values = np.arange(100, dtype=float)
        assert steady_state_mean(values) == np.mean(np.arange(90, 100))

    def test_short_series_uses_last_point(self):
        assert steady_state_mean(np.array([3.0, 7.0])) == 7.0


class TestRunExperiment:
    def test_single_iteration_msd_equals_initial(self, tmp_path):
        config = desk_config(iterations=1, out=str(tmp_path / "t1"))
        result = run_experiment(config)
        expected = float(np.sum(result.combination.weights**2))
        for mres in result.modes.values():
            assert mres.msd.shape == (1,)
            assert mres.msd[0] == expected
        assert result.initial_msd == expected

    def test_bundle_contents(self, tmp_path):
        out = tmp_path / "bundle"
        run_experiment(desk_config(test_mode=True, out=str(out)))
        names = {p.name for p in out.iterdir()}
        assert {
            "beliefs.npy", "trace.csv", "private_ratios.npy", "model.json",
            "manifest.json", "summary.json", "msd.csv",
            "true_matrix_000.csv", "true_adjacency_000.csv",
            "learned_matrix_known.csv", "learned_matrix_estimated.csv",
        } <= names
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["modes"]) == {"known", "estimated"}

    def test_private_files_absent_without_test_mode(self, tmp_path):
        out = tmp_path / "plain"
        run_experiment(desk_config(out=str(out)))
        assert not (out / "private_ratios.npy").exists()

    def test_observer_blind_to_test_mode(self):
        """Recording private data must not change what the observer
        computes from public data."""
        plain = run_experiment(desk_config())
        probed = run_experiment(desk_config(test_mode=True))
        for mode in plain.modes:
            np.testing.assert_array_equal(
                plain.modes[mode].estimate, probed.modes[mode].estimate
            )
            np.testing.assert_array_equal(
                plain.modes[mode].msd, probed.modes[mode].msd
            )

    def test_events_show_up_in_trace_and_files(self, tmp_path):
        out = tmp_path / "events"
        config = desk_config(
            iterations=60,
            schedule=EventSchedule((
                Event(20, "set_true_state", 2),
                Event(40, "regenerate_graph", 77),
            )),
            out=str(out),
        )
        result = run_experiment(config)
        assert (out / "true_matrix_001.csv").exists()
        trace = io.read_trace(out / "trace.csv")
        assert trace["events"] == {20: "set_true_state", 40: "regenerate_graph"}
        assert trace["true_states"][-1] == 2
        assert result.graph_epochs[-1] == 1
        assert result.final_combination is not result.combination

    def test_manifest_rerun_is_bit_identical(self, tmp_path):
        first = tmp_path / "first"
        config = desk_config(test_mode=True, out=str(first))
        run_experiment(config)
        manifest = json.loads((first / "manifest.json").read_text())
        second = tmp_path / "second"
        rerun = ExperimentConfig.from_dict(manifest["config"], out=str(second))
        run_experiment(rerun)
        assert bundle_bytes(first) == bundle_bytes(second)

    def test_diagnostics_written_for_long_test_runs(self, tmp_path):
        out = tmp_path / "diag"
        result = run_experiment(desk_config(iterations=1500, test_mode=True,
                                            out=str(out)))
        assert result.diagnostics is not None
        assert result.diagnostics.nu <= result.diagnostics.kappa
        payload = json.loads((out / "summary.json").read_text())
        assert payload["diagnostics"]["bound"] == result.diagnostics.bound

    def test_diagnostics_match_a_per_step_oracle(self):
        """The test-mode diagnostics, whose belief ratios are taken once
        per block, equal those of ratios taken snapshot by snapshot from
        the stationary start (after the last event) on."""
        schedule = EventSchedule((
            Event(70, "regenerate_graph", 7), Event(100, "set_true_state", 2),
        ))
        config = desk_config(iterations=1500, test_mode=True, schedule=schedule,
                             reference=1, mode="known")
        result = run_experiment(config)
        lam, sig = [], []
        for step in run_simulation(
            result.model, result.combination, config.true_state, config.delta,
            config.iterations, config.seed_signals, schedule=schedule,
            record_private=True, edge_prob=config.edge_prob,
            regen_max_attempts=config.max_attempts, reference=config.reference,
        ):
            if step.iteration >= 100:
                lam.append(belief_log_ratios(step.shared_log_beliefs, config.reference))
                sig.append(step.signal_log_ratios)
        oracle = steady_state_diagnostics(
            np.array(lam), np.array(sig),
            mean_likelihood_matrix(result.model, 2, config.reference),
            config.mu, config.delta,
        )
        assert result.diagnostics is not None
        for f in fields(oracle):
            assert np.array_equal(
                getattr(result.diagnostics, f.name), getattr(oracle, f.name)
            ), f.name

    def test_diagnostics_skipped_when_too_short(self):
        result = run_experiment(desk_config(iterations=100, test_mode=True))
        assert result.diagnostics is None

    @pytest.mark.parametrize("mu", [5.0, 50.0, 1e3, 1e6, 1e300])
    def test_divergence_raises_no_floating_point_warning(self, mu):
        """The learner stops at the first update that leaves the
        divergence limit, before any arithmetic can overflow, so no
        learning rate makes numpy warn."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_experiment(desk_config(mu=mu))
        for mres in result.modes.values():
            assert mres.diverged_at is not None
            assert np.isfinite(mres.estimate).all()

    def test_divergent_run_is_flagged_not_raised(self):
        result = run_experiment(desk_config(mu=50.0, mode="known"))
        assert result.divergent
        mres = result.modes["known"]
        assert mres.diverged_at is not None
        assert mres.steady_state_msd == np.inf
        assert np.isfinite(mres.estimate).all()


class TestLearnerHooks:
    """The benchmark's tracing and its failing-check test wrap
    ``estimator.gradient_step`` and ``GraphLearner.step`` by name: the
    learners must reach both through those attributes, once per consumed
    step of each distinct learner trajectory. The estimated learner
    follows the known one and runs no kernel until a vote differs from
    the true state."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = Counter()
        kernel, step = estimator.gradient_step, GraphLearner.step

        def counting_kernel(*args, **kwargs):
            counts["gradient_step"] += 1
            return kernel(*args, **kwargs)

        def counting_step(self, *args, **kwargs):
            counts[self.mode] += 1
            return step(self, *args, **kwargs)

        monkeypatch.setattr(estimator, "gradient_step", counting_kernel)
        monkeypatch.setattr(GraphLearner, "step", counting_step)
        return counts

    def test_kernel_and_step_run_once_per_step_and_mode(self, counts):
        """This config votes wrong at iterations 8-11, so the learners
        fork in the first block and run two trajectories."""
        T = 150
        result = run_experiment(desk_config(
            iterations=T, schedule=EventSchedule((Event(80, "set_true_state", 0),)),
        ))
        assert not result.divergent
        assert counts == {"gradient_step": 2 * T, "known": T, "estimated": T}

    def test_one_trajectory_while_the_modes_agree(self, counts):
        """The 10-agent desk config on signal seed 20 votes wrong at
        iteration 1 only, whose update is a no-op: one trajectory, the
        estimated learner makes no step, and both modes record it."""
        T = 300
        result = run_experiment(ExperimentConfig(
            agents=10, states=3, signals=4, edge_prob=0.35, delta=0.3, mu=0.01,
            iterations=T, seed_graph=21, seed_weights=22, seed_likelihoods=23,
            seed_signals=20, true_state=1,
        ))
        assert result.vote_match_rate == 1 - 1 / T
        assert counts == {"gradient_step": T, "known": T}
        known, estimated = result.modes["known"], result.modes["estimated"]
        assert np.array_equal(known.msd, estimated.msd)
        kept = known.estimate.copy()
        assert np.array_equal(estimated.estimate, kept)
        estimated.estimate[0, 0] += 1.0
        assert np.array_equal(known.estimate, kept)


class TestVotes:
    def test_votes_go_on_after_a_divergence(self, tmp_path):
        """A diverged learner stops updating but still votes on every
        step: the recorded votes are the majority vote of each step's
        shared beliefs, across a switch of the true state."""
        config = ExperimentConfig(
            agents=10, states=3, signals=4, edge_prob=0.35, delta=0.3, mu=5.0,
            iterations=600, seed_graph=21, seed_weights=22, seed_likelihoods=23,
            seed_signals=24, true_state=1, mode="estimated",
            schedule=EventSchedule((Event(300, "set_true_state", 2),)),
            out=str(tmp_path / "run"),
        )
        result = run_experiment(config)
        mres = result.modes["estimated"]
        assert mres.diverged_at is not None and mres.diverged_at < 300
        beliefs = io.read_belief_stream(tmp_path / "run" / "beliefs.npy")
        assert mres.votes.tolist() == [majority_vote(b) for b in beliefs]
        assert result.vote_match_rate > 0.9


class TestForwardAndLearn:
    def test_forward_bundle_then_learn_matches_in_memory(self, tmp_path):
        out = tmp_path / "fwd"
        config = desk_config(iterations=400, out=str(out))
        run_forward(config)
        assert {p.name for p in out.iterdir()} >= {
            "beliefs.npy", "trace.csv", "model.json", "manifest.json",
            "true_matrix_000.csv", "true_adjacency_000.csv",
        }

        model = io.load_model(out / "model.json")
        logs = io.read_belief_stream(out / "beliefs.npy")
        trace = io.read_trace(out / "trace.csv")
        truth = CombinationMatrix(
            io.read_matrix(out / "true_matrix_000.csv"),
            io.read_adjacency(out / "true_adjacency_000.csv"),
        )
        blocks = [
            (logs[i:i + 1], int(trace["true_states"][i]), truth)
            for i in range(len(logs))
        ]
        from_file = learn_graph(blocks, model, config.mu, config.delta,
                                mode="known")["known"]
        in_memory = run_experiment(replace(config, mode="known", out=None))
        assert np.array_equal(from_file.estimate, in_memory.modes["known"].estimate)
        assert np.array_equal(from_file.msd, in_memory.modes["known"].msd)


class TestSweep:
    def test_single_point_matches_run_experiment(self):
        config = desk_config(mode="known")
        rows = sweep(config, mu_values=[config.mu])
        result = run_experiment(replace(config, out=None))
        assert len(rows) == 1
        assert rows[0]["steady_state_msd"] == result.modes["known"].steady_state_msd

    def test_rows_sorted_and_written(self, tmp_path):
        out = tmp_path / "sweep"
        config = desk_config(mode="known", iterations=200, out=str(out))
        rows = sweep(config, mu_values=[0.05, 0.01], delta_values=[0.3, 0.2])
        assert [(r["mu"], r["delta"]) for r in rows] == [
            (0.01, 0.2), (0.01, 0.3), (0.05, 0.2), (0.05, 0.3),
        ]
        text = (out / "sweep.csv").read_text().splitlines()
        assert text[0] == "mu,delta,mode,steady_state_msd,divergent"
        assert len(text) == 5

    def test_divergent_point_flagged(self):
        config = desk_config(mode="known", iterations=400)
        rows = sweep(config, mu_values=[0.05, 50.0])
        flags = {row["mu"]: row["divergent"] for row in rows}
        assert flags[0.05] is False
        assert flags[50.0] is True
        assert rows[1]["steady_state_msd"] == np.inf

    def test_errors_carry_grid_point_attribution(self):
        config = desk_config(mode="known")
        with pytest.raises(ConfigError, match="mu=-0.1"):
            sweep(config, mu_values=[-0.1])

    def test_every_grid_point_is_validated_before_any_runs(self, monkeypatch):
        runs = []
        monkeypatch.setattr(harness, "run_experiment", runs.append)
        with pytest.raises(ConfigError, match="mu=0.05, delta=1.5"):
            sweep(desk_config(mode="known"), mu_values=[0.05], delta_values=[0.3, 1.5])
        assert runs == []

    def test_runtime_failure_names_the_grid_point(self, monkeypatch):
        def failing(config):
            raise FloatingPointError("overflow")

        monkeypatch.setattr(harness, "run_experiment", failing)
        with pytest.raises(RuntimeError, match="mu=0.05, delta=0.3 failed: overflow"):
            sweep(desk_config(mode="known"), mu_values=[0.05])

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            sweep(desk_config(), mu_values=[])
