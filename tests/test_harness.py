"""Configuration, end-to-end experiments, persistence and sweeps."""

import json
import tracemalloc
import warnings
import weakref
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefgraph import estimator, harness, io, simulate
from beliefgraph.cli import main
from beliefgraph.estimator import (
    GraphLearner,
    LearnResult,
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
    run_learn,
    sweep,
)
from beliefgraph.simulate import Event, EventSchedule, run_simulation
from beliefgraph.model import CombinationMatrix, mean_likelihood_matrix

from helpers import per_row_adjacency, read_msd_table


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

    INVALID_CONFIGS = [
        ({"agents": 0}, "agents must be at least 1"),
        ({"states": 1}, "states must be at least 2; true_state out of range"),
        ({"signals": 1}, "signal spaces need at least two outcomes"),
        ({"edge_prob": 0.0}, "edge_prob must be in (0, 1]"),
        ({"edge_prob": 1.2}, "edge_prob must be in (0, 1]"),
        ({"delta": 0.0}, "delta must be in (0, 1)"),
        ({"delta": 1.0}, "delta must be in (0, 1)"),
        ({"mu": 0.0}, "mu must be positive and finite"),
        ({"iterations": 0}, "iterations must be at least 1"),
        ({"mode": "oracle"}, "mode must be known, estimated or both"),
        ({"true_state": 7}, "true_state out of range"),
        ({"reference": -1}, "reference out of range"),
        ({"likelihood_floor": 0.5}, "likelihood_floor too large for the signal space"),
        ({"kl_floor": 0.0}, "kl_floor must be positive and finite"),
        ({"classify_method": "median"}, "classify_method must be two-means or threshold"),
        ({"classify_method": "threshold"},
         "threshold classification needs classify_threshold"),
        ({"schedule": EventSchedule((Event(400, "set_true_state", 1),))},
         "event at iteration 400 is beyond the run"),
        ({"schedule": EventSchedule((Event(5, "set_true_state", 9),))},
         "event state 9 out of range"),
        ({"mu": np.nan}, "mu must be positive and finite"),
        ({"mu": np.inf}, "mu must be positive and finite"),
        ({"likelihood_floor": np.nan}, "likelihood_floor must be positive and finite"),
        ({"likelihood_floor": np.inf}, "likelihood_floor must be positive and finite"),
        ({"kl_floor": np.nan}, "kl_floor must be positive and finite"),
        ({"kl_floor": np.inf}, "kl_floor must be positive and finite"),
        ({"classify_threshold": np.nan}, "classify_threshold must be finite"),
        ({"classify_method": "threshold", "classify_threshold": np.inf},
         "classify_threshold must be finite"),
        ({"agents": "x"}, "agents must be an integer"),
        ({"iterations": 200.0}, "iterations must be an integer"),
        ({"true_state": True}, "true_state must be an integer"),
        ({"mu": "0.1"}, "mu must be a number"),
        ({"kl_floor": None}, "kl_floor must be a number"),
        ({"signals": "4"}, "signals must be an integer or a list of integers"),
        ({"signals": (3, 3, 3, 3, 3, 3.0)},
         "signals must be an integer or a list of integers"),
        ({"classify_threshold": "0.5"}, "classify_threshold must be a number"),
        ({"signals": (3, 3, 3, 3, 3, True)},
         "signals must be an integer or a list of integers"),
        ({"signals": (3, 3, 3)}, "signals must be a scalar or one size per agent"),
        ({"max_attempts": 0}, "max_attempts must be at least 1"),
        ({"test_mode": 1}, "test_mode must be true or false"),
        ({"seed_graph": -1}, "seed_graph must be at least 0"),
        ({"seed_signals": 1.5}, "seed_signals must be an integer"),
        ({"seed_weights": True}, "seed_weights must be an integer"),
        ({"schedule": EventSchedule((Event(5, "regenerate_graph", -3),))},
         "event seed -3 out of range"),
        # Several faults are listed in one message: every type fault, or
        # else every range fault, each in a fixed order.
        ({"test_mode": "yes", "classify_threshold": "a", "signals": "4",
          "kl_floor": None, "mu": "0.1", "max_attempts": 1.5, "agents": "x"},
         "agents must be an integer; max_attempts must be an integer; "
         "mu must be a number; kl_floor must be a number; "
         "signals must be an integer or a list of integers; "
         "classify_threshold must be a number; test_mode must be true or false"),
        ({"schedule": EventSchedule((Event(5, "set_true_state", 9),)),
          "classify_method": "x", "max_attempts": 0, "kl_floor": 0.0,
          "likelihood_floor": 1.5, "reference": 5, "true_state": 3, "mode": "oracle",
          "iterations": 0, "mu": -1.0, "delta": 1.0, "edge_prob": 0.0,
          "signals": (1, 1, 1), "agents": 0},
         "agents must be at least 1; signals must be a scalar or one size per agent; "
         "signal spaces need at least two outcomes; "
         "edge_prob must be in (0, 1]; delta must be in (0, 1); "
         "mu must be positive and finite; iterations must be at least 1; "
         "mode must be known, estimated or both; true_state out of range; "
         "reference out of range; likelihood_floor too large for the signal space; "
         "kl_floor must be positive and finite; max_attempts must be at least 1; "
         "classify_method must be two-means or threshold; "
         "event at iteration 5 is beyond the run; event state 9 out of range"),
    ]

    @pytest.mark.parametrize("overrides, message", INVALID_CONFIGS,
                             ids=[f"overrides{i}" for i in range(len(INVALID_CONFIGS))])
    def test_invalid_configs_raise(self, overrides, message):
        with pytest.raises(ConfigError) as raised:
            desk_config(**overrides).validate()
        assert str(raised.value) == message

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


def _record(deviations) -> LearnResult:
    return LearnResult("known", np.zeros((2, 2)), np.asarray(deviations, dtype=float),
                       None, None)


class TestSteadyStateMean:
    def test_final_tenth(self):
        values = np.arange(100, dtype=float)
        assert _record(values).steady_state_msd == np.mean(np.arange(90, 100))

    def test_short_series_uses_last_point(self):
        assert _record([3.0, 7.0]).steady_state_msd == 7.0

    @pytest.mark.parametrize("length", [1, 2, 9, 10, 11, 99, 1001])
    def test_properties_follow_the_record(self, length):
        """Both values are the record's: the mean of its final tenth (at
        least one step) and its last step, as plain floats."""
        values = np.random.default_rng(length).random(length)
        result = _record(values)
        window = max(1, length // 10)
        assert result.steady_state_msd == float(values[-window:].mean())
        assert result.final_msd == float(values[-1])
        assert type(result.steady_state_msd) is float and type(result.final_msd) is float

    def test_properties_are_read_only(self):
        result = _record([1.0, 2.0])
        for name in ("steady_state_msd", "final_msd"):
            with pytest.raises(AttributeError):
                setattr(result, name, 0.0)
        assert "steady_state_msd" not in {f.name for f in fields(LearnResult)}

    def test_learned_results_are_not_yet_classified(self):
        config = desk_config(iterations=40, mode="both")
        model = harness._generate(config)[1]
        beliefs = np.zeros((40, config.agents, config.states))
        learned = learn_graph([(beliefs, 0, None)], model, config.mu, config.delta, "both")
        assert set(learned) == {"known", "estimated"}
        for result in learned.values():
            assert (result.classified, result.edge_accuracy, result.classify_error) == (
                None, None, None)


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
            "manifest.json", "summary.json", "msd.csv", "true_matrix_000.csv",
            "learned_matrix_known.csv", "learned_matrix_estimated.csv",
        } <= names
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["modes"]) == {"known", "estimated"}

    def test_numpy_scalars_write_the_bundle_of_plain_numbers(self, tmp_path):
        """A configuration whose numbers are numpy scalars is valid, and
        its run writes the bytes of the same numbers given as Python
        ones, manifest included."""
        schedule = EventSchedule((Event(100, "regenerate_graph", 9),
                                  Event(150, "set_true_state", 2)))
        plain = desk_config(test_mode=True, schedule=schedule)
        typed = {f.name: getattr(plain, f.name) for f in fields(plain)
                 if f.name not in ("schedule", "test_mode", "mode", "classify_method",
                                   "classify_threshold", "out")}
        typed = {name: (np.int64(value) if isinstance(value, int) else
                        np.float64(value)) for name, value in typed.items()}
        typed["schedule"] = EventSchedule(tuple(
            Event(np.int64(e.iteration), e.action, np.int64(e.value))
            for e in schedule
        ))
        run_experiment(replace(plain, out=str(tmp_path / "plain")))
        run_experiment(replace(plain, **typed, out=str(tmp_path / "typed")))
        assert bundle_bytes(tmp_path / "typed") == bundle_bytes(tmp_path / "plain")
        single = replace(plain, mu=np.float32(0.05)).to_dict()
        assert json.loads(json.dumps(single))["mu"] == float(np.float32(0.05))

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

    @pytest.mark.parametrize("learning", [True, False], ids=["experiment", "forward"])
    def test_private_stream_equals_the_steps_signal_ratios(self, tmp_path, learning):
        """Test mode copies each chunk's private block at once: over chunks
        cut short by events, one of them a single step, and with or
        without learners, ``private_ratios.npy`` holds every step's
        ``signal_log_ratios`` in order, bit for bit."""
        C = simulate.CHUNK_STEPS
        schedule = EventSchedule((
            Event(70, "regenerate_graph", 7), Event(71, "set_true_state", 2),
            Event(C + 100, "set_true_state", 0),
        ))
        out = tmp_path / "run"
        config = desk_config(iterations=2 * C + 50, test_mode=True, schedule=schedule,
                             reference=1, mode="both", out=str(out))
        (run_experiment if learning else run_forward)(config)
        written = io.read_belief_stream(out / "private_ratios.npy")
        combination, model, _ = harness._generate(config)
        steps = run_simulation(
            model, combination, config.true_state, config.delta, config.iterations,
            config.seed_signals, schedule=schedule, record_private=True,
            edge_prob=config.edge_prob, reference=config.reference,
        )
        expected = np.stack([step.signal_log_ratios for step in steps])
        assert written.shape == expected.shape == (2 * C + 50, 6, 2)
        assert written.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("points", [1, 3])
    def test_the_run_loop_keeps_no_older_chunk_alive(self, monkeypatch, points):
        """While a run computes a chunk, only its previous chunk may still
        be held: a block from two chunks back would raise the run's peak
        memory by a chunk per run."""
        chunks = []
        simulate_run = harness.run_simulation

        def recording(*args, **kwargs):
            for step in simulate_run(*args, **kwargs):
                if step.row == 0:
                    chunks.append(weakref.ref(step.block))
                    assert all(chunk() is None for chunk in chunks[:-2 * points])
                yield step

        monkeypatch.setattr(harness, "run_simulation", recording)
        config = desk_config(iterations=6 * simulate.CHUNK_STEPS, mode="both")
        if points == 1:
            run_experiment(config)
        else:
            sweep(config, mu_values=[0.05, 0.02, 0.01])
        assert len(chunks) == 6 * points

    def test_diagnostics_skipped_when_too_short(self):
        result = run_experiment(desk_config(iterations=100, test_mode=True))
        assert result.diagnostics is None

    @pytest.mark.parametrize("mu", [5.0, 50.0, 1e3, 1e6, 1e300])
    def test_divergence_raises_no_floating_point_warning(self, mu):
        """The learner keeps the last update before the first that
        leaves the divergence limit. The rows after that one in its run
        step on a discarded trajectory that may overflow, and run under
        np.errstate, which ignores overflow and invalid operations; so no
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
    the true state. A single run's learners are a stack of one
    trajectory, which hands the kernel 2-d rows (its ``ndarray.dot``
    path), not ``(1, m, n)`` stacks."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = Counter()
        kernel, step = estimator.gradient_step, GraphLearner.step

        def counting_kernel(estimate, regressors, *args, **kwargs):
            counts["gradient_step"] += 1
            counts[f"{regressors.ndim}-d"] += 1
            return kernel(estimate, regressors, *args, **kwargs)

        def counting_step(self, *args, **kwargs):
            counts[self.mode] += 1
            return step(self, *args, **kwargs)

        monkeypatch.setattr(estimator, "gradient_step", counting_kernel)
        monkeypatch.setattr(GraphLearner, "step", counting_step)
        return counts

    def test_kernel_and_step_run_once_per_step_and_mode(self, counts, tmp_path):
        """This config votes wrong at iterations 8-11, so the learners
        fork in the first block and run two trajectories, in the run and
        in the learn on its bundle."""
        T = 150
        result = run_experiment(desk_config(
            iterations=T, schedule=EventSchedule((Event(80, "set_true_state", 0),)),
            out=str(tmp_path / "run"),
        ))
        assert not result.divergent
        assert counts == {"gradient_step": 2 * T, "2-d": 2 * T, "known": T,
                          "estimated": T}
        run_learn({"out": str(tmp_path / "learned")}, tmp_path / "run")
        assert counts == {"gradient_step": 4 * T, "2-d": 4 * T, "known": 2 * T,
                          "estimated": 2 * T}

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
        assert counts == {"gradient_step": T, "2-d": T, "known": T}
        known, estimated = result.modes["known"], result.modes["estimated"]
        assert np.array_equal(known.msd, estimated.msd)
        kept = known.estimate.copy()
        assert np.array_equal(estimated.estimate, kept)
        estimated.estimate[0, 0] += 1.0
        assert np.array_equal(known.estimate, kept)


class TestSharedModeOutputs:
    """With both modes, a trajectory the two learners share is
    classified once and its files formatted once; results that differ in
    any byte, a zero's sign included, are classified and written each on
    their own."""

    # The 10-agent desk config on signal seed 20 never forks (see
    # TestLearnerHooks); the 6-agent desk config with a switch at 80
    # votes wrong at iterations 8-11 and forks.
    AGREEING = dict(
        agents=10, states=3, signals=4, edge_prob=0.35, delta=0.3, mu=0.01,
        iterations=300, seed_graph=21, seed_weights=22, seed_likelihoods=23,
        seed_signals=20, true_state=1,
    )

    @pytest.fixture
    def classify_calls(self, monkeypatch):
        calls = []
        classify = harness.classify_edges

        def counting(*args, **kwargs):
            calls.append(args)
            return classify(*args, **kwargs)

        monkeypatch.setattr(harness, "classify_edges", counting)
        return calls

    def test_a_shared_trajectory_is_classified_and_written_once(
        self, tmp_path, classify_calls
    ):
        out = tmp_path / "run"
        result = run_experiment(ExperimentConfig(**self.AGREEING, out=str(out)))
        assert len(classify_calls) == 1
        known, estimated = result.modes["known"], result.modes["estimated"]
        assert np.array_equal(known.classified, estimated.classified)
        assert known.classified is not estimated.classified
        assert known.edge_accuracy == estimated.edge_accuracy is not None
        for name in ("learned_matrix", "classified_adjacency"):
            assert ((out / f"{name}_known.csv").read_bytes()
                    == (out / f"{name}_estimated.csv").read_bytes())
        table = read_msd_table(out / "msd.csv")
        assert np.array_equal(table["known"], table["estimated"])
        assert np.array_equal(table["known"], known.msd)
        # learn on the bundle classifies once more and writes the same files
        learned = tmp_path / "learned"
        assert main(["learn", "--run", str(out), "--out", str(learned)]) == 0
        assert len(classify_calls) == 2
        for name in ("learned_matrix_known.csv", "learned_matrix_estimated.csv",
                     "classified_adjacency_known.csv",
                     "classified_adjacency_estimated.csv", "msd.csv"):
            assert (learned / name).read_bytes() == (out / name).read_bytes()

    def test_a_forking_run_classifies_each_mode(self, tmp_path, classify_calls):
        out = tmp_path / "run"
        result = run_experiment(desk_config(
            iterations=150, schedule=EventSchedule((Event(80, "set_true_state", 0),)),
            out=str(out),
        ))
        known, estimated = result.modes["known"], result.modes["estimated"]
        assert not np.array_equal(known.estimate, estimated.estimate)
        assert len(classify_calls) == 2
        for mode, mres in result.modes.items():
            assert io.read_matrix(out / f"learned_matrix_{mode}.csv").tobytes() == (
                mres.estimate.tobytes())
            assert (out / f"classified_adjacency_{mode}.csv").read_text() == (
                per_row_adjacency(harness.classify_edges(mres.estimate)))

    def test_a_signed_zero_gets_its_own_text(self, tmp_path, classify_calls):
        """Estimates equal in value but not in the sign of a zero are
        classified and written each on their own (for the deviation
        table, see tests/test_io.py::TestMsdTable)."""
        deviations = np.array([1.0, 0.5])
        known = LearnResult("known", np.array([[0.0, 0.5], [0.5, 1.0]]),
                            deviations, None, None)
        estimated = LearnResult("estimated", np.array([[-0.0, 0.5], [0.5, 1.0]]),
                                deviations.copy(), None, None)
        harness.finish_run({"known": known, "estimated": estimated}, {},
                           np.zeros(2, dtype=int), None, {},
                           ExperimentConfig(agents=2), tmp_path)
        assert len(classify_calls) == 2
        assert (tmp_path / "learned_matrix_known.csv").read_text() == "0,0.5\n0.5,1\n"
        assert (tmp_path / "learned_matrix_estimated.csv").read_text() == (
            "-0,0.5\n0.5,1\n")


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
    def test_forward_run_needs_an_output_directory(self):
        with pytest.raises(ConfigError, match="^a forward run needs an output directory$"):
            run_forward(desk_config())

    def test_a_test_mode_forward_run_holds_no_whole_stream(self, tmp_path):
        """A forward run appends each chunk's private signal ratios to
        its file as the chunk passes. At the reference size over 10k
        iterations that stream (7.2 MB) outweighs all else the run
        holds, so the run's allocation peak stays below its bytes."""
        out = tmp_path / "fwd"
        tracemalloc.start()
        try:
            run_forward(ExperimentConfig(iterations=10_000, test_mode=True, out=str(out)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < (out / "private_ratios.npy").stat().st_size

    def test_forward_bundle_then_learn_matches_in_memory(self, tmp_path):
        out = tmp_path / "fwd"
        config = desk_config(iterations=400, out=str(out))
        run_forward(config)
        assert {p.name for p in out.iterdir()} >= {
            "beliefs.npy", "trace.csv", "model.json", "manifest.json",
            "true_matrix_000.csv",
        }

        model = io.load_model(out / "model.json")
        logs = io.read_belief_stream(out / "beliefs.npy")
        trace = io.read_trace(out / "trace.csv")
        truth = CombinationMatrix(io.read_matrix(out / "true_matrix_000.csv"))
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

    @pytest.mark.parametrize("mode", ["known", "estimated", "both"])
    def test_every_row_equals_its_point_run_alone(self, mode):
        """The grid points run in lockstep, through a state switch and a
        graph regeneration, with test mode on; each row holds what
        run_experiment of its point gives, bit for bit."""
        schedule = EventSchedule((Event(120, "set_true_state", 0),
                                  Event(200, "regenerate_graph", 77)))
        config = desk_config(mode=mode, schedule=schedule, test_mode=True)
        rows = sweep(config, mu_values=[0.05, 0.01], delta_values=[0.3, 0.2])
        assert len(rows) == 4 * (2 if mode == "both" else 1)
        for row in rows:
            result = run_experiment(replace(config, mu=row["mu"], delta=row["delta"]))
            learned = result.modes[row["mode"]]
            assert row["steady_state_msd"] == learned.steady_state_msd
            assert row["divergent"] == (learned.diverged_at is not None)

    def test_one_kernel_call_per_row_for_the_grid(self, monkeypatch):
        """Every grid point's trajectory advances in one stacked step per
        row, whose regressors are 3-d, one row per point; no point's
        estimate is classified."""
        counts = Counter()
        kernel, classify = estimator.gradient_step, harness.classify_edges

        def counting(name, function):
            def counted(*args, **kwargs):
                counts[name] += 1
                if name == "kernel":
                    counts[f"{args[1].ndim}-d"] += 1
                return function(*args, **kwargs)
            return counted

        monkeypatch.setattr(estimator, "gradient_step", counting("kernel", kernel))
        monkeypatch.setattr(harness, "classify_edges", counting("classify", classify))
        sweep(desk_config(mode="known", iterations=200), mu_values=[0.05, 0.01],
              delta_values=[0.3, 0.2])
        assert counts == {"kernel": 200, "3-d": 200}

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
        """A point's run starts with the draw of its world."""
        runs = []
        monkeypatch.setattr(harness, "_generate", runs.append)
        with pytest.raises(ConfigError, match="mu=0.05, delta=1.5"):
            sweep(desk_config(mode="known"), mu_values=[0.05], delta_values=[0.3, 1.5])
        assert runs == []

    def test_runtime_failure_names_the_grid_point(self, monkeypatch):
        """A failure in the lockstep loop names the points it runs."""
        def failing(*args, **kwargs):
            raise FloatingPointError("overflow")

        monkeypatch.setattr(harness, "_simulate", failing)
        with pytest.raises(RuntimeError, match="mu=0.05, delta=0.3 failed: overflow"):
            sweep(desk_config(mode="known"), mu_values=[0.05])

    def test_a_failing_world_names_its_grid_point(self):
        """A graph that cannot be drawn fails the first point's draw; a
        failure in the lockstep run names every point."""
        config = desk_config(mode="known", edge_prob=0.05, max_attempts=1)
        with pytest.raises(RuntimeError, match=r"^grid point mu=0.01, delta=0.3 "
                                               r"failed: "):
            sweep(config, mu_values=[0.05, 0.01])
        config = desk_config(mode="known", edge_prob=0.5, max_attempts=1, schedule=
                             EventSchedule((Event(50, "regenerate_graph", 0),)))
        with pytest.raises(RuntimeError, match=r"^grid points mu=0.01, delta=0.3; "
                                               r"mu=0.05, delta=0.3 failed: "):
            sweep(config, mu_values=[0.05, 0.01])

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            sweep(desk_config(), mu_values=[])


class TestChunkLengths:
    """The simulator's chunk length (``CHUNK_STEPS``, which also cuts
    ``learn``'s blocks) and the learners' settle run (``SETTLE_STEPS``)
    only batch the work: every operation is per row. So a test-mode run
    in both modes through a state switch and a graph regeneration, the
    learn on its bundle and a two-point sweep with a diverging point
    give the same bytes, estimates, deviations and votes at any of
    them."""

    SCHEDULE = EventSchedule((Event(170, "set_true_state", 2),
                              Event(300, "regenerate_graph", 77)))

    @staticmethod
    def records(modes):
        return {mode: (r.estimate.tobytes(), r.msd.tobytes(),
                       None if r.votes is None else r.votes.tobytes(), r.diverged_at)
                for mode, r in modes.items()}

    def outputs(self, path):
        config = desk_config(iterations=600, mode="both", test_mode=True,
                             schedule=self.SCHEDULE)
        result = run_experiment(replace(config, out=str(path / "run")))
        modes, values, _ = run_learn({"mode": "both", "out": str(path / "learned")},
                                     path / "run")
        rows = sweep(config, mu_values=[0.05, 50.0])
        return {
            "run": bundle_bytes(path / "run"),
            "run modes": self.records(result.modes),
            "learned": bundle_bytes(path / "learned"),
            "learned modes": self.records(modes),
            "learned values": values,
            "sweep": rows,
        }

    @pytest.fixture(scope="class")
    def default(self, tmp_path_factory):
        """The outputs at the package's own lengths."""
        return self.outputs(tmp_path_factory.mktemp("default"))

    def test_the_run_forks_and_the_sweep_diverges(self, default):
        run = default["run modes"]
        assert run["known"][:2] != run["estimated"][:2]
        divergent = [row["divergent"] for row in default["sweep"]]
        assert divergent == [False, False, True, True]

    @pytest.mark.parametrize("settle", [1, 7, 64])
    @pytest.mark.parametrize("chunk", [1, 7, 64, 256])
    def test_outputs_do_not_depend_on_the_lengths(self, default, tmp_path, monkeypatch,
                                                 chunk, settle):
        monkeypatch.setattr(simulate, "CHUNK_STEPS", chunk)
        monkeypatch.setattr(harness, "CHUNK_STEPS", chunk)
        monkeypatch.setattr(estimator, "SETTLE_STEPS", settle)
        assert self.outputs(tmp_path) == default
