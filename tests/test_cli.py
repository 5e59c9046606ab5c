"""Command line interface: subcommands, overrides and exit codes."""

import json
import shutil

import numpy as np
import pytest

from beliefgraph import io
from beliefgraph.cli import build_parser, main
from beliefgraph.harness import ExperimentConfig
from beliefgraph.model import random_likelihoods

from helpers import read_msd_table

BASE = [
    "--agents", "6", "--states", "3", "--signals", "3", "--edge-prob", "0.5",
    "--delta", "0.3", "--mu", "0.05", "--iters", "200", "--true-state", "1",
]


def run_cli(*args):
    return main([str(a) for a in args])


def bare_copy(run, path):
    """A directory holding only ``run``'s belief stream and model, as a
    blind learn on outside data has them."""
    path.mkdir()
    for name in ("beliefs.npy", "model.json"):
        shutil.copyfile(run / name, path / name)
    return path


class TestExperimentCommand:
    def test_writes_bundle_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run_cli("experiment", *BASE, "--out", out) == 0
        assert (out / "manifest.json").exists()
        assert "steady-state msd" in capsys.readouterr().out

    def test_invalid_config_exits_one(self, tmp_path, capsys):
        code = run_cli("experiment", *BASE, "--delta", "1.5", "--out", tmp_path / "x")
        assert code == 1
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [
        ["--mu", "nan"], ["--mu", "inf"], ["--kl-floor", "nan"],
        ["--likelihood-floor", "nan"],
        ["--classify-method", "threshold", "--classify-threshold", "nan"],
    ], ids=["mu-nan", "mu-inf", "kl-floor-nan", "likelihood-floor-nan",
            "classify-threshold-nan"])
    def test_non_finite_value_exits_one(self, tmp_path, capsys, flag):
        """A NaN or infinite value is a configuration error, caught
        before anything is generated or written."""
        out = tmp_path / "nonfinite"
        assert run_cli("experiment", *BASE, *flag, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag, message", [
        (["--agents", "x"], "agents must be an integer"),
        (["--mu", "abc"], "mu must be a number"),
        (["--mode", "oracle"], "mode must be known, estimated or both"),
        (["--signals", "3,a"], "signals must be an integer or a list of integers"),
        (["--classify-threshold", "x"], "classify_threshold must be a number"),
        (["--seed-graph", "-1"], "seed_graph must be at least 0"),
        (["--seed-signals", "-5"], "seed_signals must be at least 0"),
        (["--regen-graph-at", "50:-3"], "event seed -3 out of range"),
        (["--seed-graph", "x", "--regen-graph-at", "50"], "seed_graph must be an integer"),
    ], ids=["agents-text", "mu-text", "mode-unknown", "signals-text",
            "classify-threshold-text", "seed-graph-negative", "seed-signals-negative",
            "regen-seed-negative", "seed-graph-text-regen"])
    @pytest.mark.parametrize("command", ["simulate", "experiment"])
    def test_a_malformed_flag_value_exits_one(self, tmp_path, capsys, command, flag,
                                              message):
        """A flag value that is not of its field's kind or out of its
        range is a configuration error naming the field, as the same
        value in a config file is: exit 1, nothing written."""
        out = tmp_path / "malformed"
        assert run_cli(command, *BASE, *flag, "--out", out) == 1
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("agents", "x"), ("mu", "0.1"), ("signals", "4"), ("test_mode", "false"),
        ("seed_graph", True),
    ])
    def test_value_of_the_wrong_type_exits_one(self, tmp_path, capsys, field, value):
        """A config file value of the wrong type is a configuration error
        that names the field, caught before anything is written."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({field: value}))
        out = tmp_path / "typed"
        assert run_cli("experiment", "--config", config, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {field} must be")
        assert err.count("\n") == 1
        assert not out.exists()

    # One non-default value for every configuration flag, and the field
    # of the manifest that it sets. BASE_FLAGS sets a threshold, so that
    # threshold classification is a valid change on its own.
    FLAG_CASES = [
        (["--agents", "7"], "agents", 7),
        (["--states", "4"], "states", 4),
        (["--signals", "4"], "signals", 4),
        (["--signals", "3,4,3,3,3,3"], "signals", [3, 4, 3, 3, 3, 3]),
        (["--edge-prob", "0.75"], "edge_prob", 0.75),
        (["--delta", "0.2"], "delta", 0.2),
        (["--mu", "0.02"], "mu", 0.02),
        (["--iters", "150"], "iterations", 150),
        (["--seed-graph", "5"], "seed_graph", 5),
        (["--seed-weights", "6"], "seed_weights", 6),
        (["--seed-likelihoods", "7"], "seed_likelihoods", 7),
        (["--seed-signals", "8"], "seed_signals", 8),
        (["--mode", "known"], "mode", "known"),
        (["--true-state", "2"], "true_state", 2),
        (["--reference", "2"], "reference", 2),
        (["--set-state-at", "30:2"], "schedule",
         [{"iteration": 30, "action": "set_true_state", "value": 2}]),
        (["--regen-graph-at", "60:9"], "schedule",
         [{"iteration": 60, "action": "regenerate_graph", "value": 9}]),
        (["--test-mode"], "test_mode", True),
        (["--likelihood-floor", "0.02"], "likelihood_floor", 0.02),
        (["--kl-floor", "0.002"], "kl_floor", 0.002),
        (["--max-attempts", "50"], "max_attempts", 50),
        (["--classify-method", "threshold"], "classify_method", "threshold"),
        (["--classify-threshold", "0.3"], "classify_threshold", 0.3),
    ]
    BASE_FLAGS = [*BASE, "--classify-threshold", "0.25"]

    @pytest.mark.parametrize("flag, field, value", FLAG_CASES,
                             ids=[" ".join(case[0]) for case in FLAG_CASES])
    def test_each_flag_sets_its_field_alone(self, tmp_path, flag, field, value):
        """Every configuration field has a flag, and a flag given a value
        other than the base's changes that field of the manifest and no
        other."""
        assert {case[1] for case in self.FLAG_CASES} == set(
            ExperimentConfig().to_dict())
        configs = {}
        for name, flags in (("base", []), ("flag", flag)):
            out = tmp_path / name
            assert run_cli("simulate", *self.BASE_FLAGS, *flags, "--out", out) == 0
            configs[name] = json.loads((out / "manifest.json").read_text())["config"]
        assert configs["flag"][field] == value != configs["base"][field]
        assert {**configs["flag"], field: configs["base"][field]} == configs["base"]

    def test_missing_out_exits_one(self):
        assert run_cli("experiment", *BASE) == 1

    def test_runtime_failure_exits_two(self, tmp_path, capsys):
        code = run_cli("experiment", "--config", tmp_path / "missing.json",
                       "--out", tmp_path / "y")
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_divergent_run_exits_three(self, tmp_path):
        code = run_cli("experiment", *BASE, "--mu", "50.0", "--mode", "known",
                       "--out", tmp_path / "div")
        assert code == 3

    def test_flags_override_config_file(self, tmp_path):
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps({
            "agents": 6, "states": 3, "signals": 3, "edge_prob": 0.5,
            "delta": 0.3, "mu": 0.05, "iterations": 200, "true_state": 1,
            "mode": "known",
        }))
        out = tmp_path / "override"
        assert run_cli("experiment", "--config", config_file, "--iters", "150",
                       "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["iterations"] == 150
        assert manifest["config"]["mode"] == "known"

    def test_schedule_flags(self, tmp_path):
        out = tmp_path / "sched"
        assert run_cli(
            "experiment", *BASE, "--iters", "120",
            "--set-state-at", "30:2", "--regen-graph-at", "60:9",
            "--out", out,
        ) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["schedule"] == [
            {"iteration": 30, "action": "set_true_state", "value": 2},
            {"iteration": 60, "action": "regenerate_graph", "value": 9},
        ]
        trace = io.read_trace(out / "trace.csv")
        assert trace["events"] == {30: "set_true_state", 60: "regenerate_graph"}

    @pytest.mark.parametrize("text", ["30", "x"])
    def test_bad_schedule_flag_exits_one(self, tmp_path, capsys, text):
        assert run_cli("experiment", *BASE, "--set-state-at", text,
                       "--out", tmp_path / "bad") == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: --set-state-at expects")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("seed, values", [([], [1001, 1002]),
                                              (["--seed-graph", "7"], [1008, 1009])],
                             ids=["default-seed-graph", "seed-graph-7"])
    def test_a_regeneration_without_a_seed(self, tmp_path, seed, values):
        """The seed of the n-th --regen-graph-at without one defaults to
        seed_graph + 1001 + n, counting regenerations only; the events
        are recorded in order of iteration."""
        out = tmp_path / "regen"
        assert run_cli("simulate", *BASE, *seed, "--regen-graph-at", "5",
                       "--set-state-at", "7:2", "--regen-graph-at", "9",
                       "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["schedule"] == [
            {"iteration": 5, "action": "regenerate_graph", "value": values[0]},
            {"iteration": 7, "action": "set_true_state", "value": 2},
            {"iteration": 9, "action": "regenerate_graph", "value": values[1]},
        ]

    @pytest.mark.parametrize("command, payload, flags, named", [
        ("experiment", {"schedule": "x"}, [], "schedule"),
        ("experiment", {"schedule": "x"}, ["--set-state-at", "5:1"], "schedule"),
        ("experiment", {"schedule": [{"iteration": 5}]}, [], "schedule"),
        ("experiment", {"schedule": [{"iteration": "a", "action": "set_true_state",
                                      "value": 1}]}, [], "schedule"),
        ("experiment", {"schedule": [{"iteration": 5, "action": "x", "value": 1}]}, [],
         "schedule: unknown event action 'x'"),
        ("experiment", {"seed_graph": "7"}, ["--regen-graph-at", "5"], "seed_graph"),
        ("experiment", {"format": "beliefgraph-manifest-v2"}, [], "'config'"),
        ("experiment", {"format": "beliefgraph-manifest-v9", "config": {}}, [],
         "'format'"),
        ("experiment", {"config": {}}, [], "'format'"),
        ("learn", {"schedule": "x"}, [], "schedule"),
    ], ids=["schedule-not-a-list", "schedule-not-a-list-with-a-flag",
            "event-without-action", "iteration-not-an-integer", "unknown-action",
            "seed-graph-not-an-integer", "manifest-without-config",
            "manifest-of-an-unknown-format", "manifest-without-format",
            "learn-schedule-not-a-list"])
    def test_a_config_file_of_the_wrong_shape_exits_one(
        self, tmp_path, capsys, command, payload, flags, named
    ):
        """A config file, or the manifest a learn run reads, whose
        schedule or manifest section is of the wrong shape is a
        configuration error whose one line names the field; nothing is
        written."""
        if command == "learn":
            run = tmp_path / "fwd"
            assert run_cli("simulate", *BASE, "--out", run) == 0
            path = run / "manifest.json"
            manifest = json.loads(path.read_text())
            manifest["config"].update(payload)
            path.write_text(json.dumps(manifest))
            capsys.readouterr()
            source = ["--run", run]
        else:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(payload))
            source = ["--config", path]
        out = tmp_path / "out"
        assert run_cli(command, *source, *flags, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert named in err
        if "format" in payload:
            assert str(path) in err
        assert not out.exists()


class TestSimulateAndLearn:
    @pytest.fixture
    def forward_run(self, tmp_path):
        out = tmp_path / "fwd"
        assert run_cli("simulate", *BASE, "--out", out) == 0
        return out

    def test_simulate_writes_forward_bundle(self, forward_run):
        names = {p.name for p in forward_run.iterdir()}
        assert "beliefs.npy" in names and "learned_matrix_known.csv" not in names

    def test_learn_from_recorded_run(self, forward_run, tmp_path):
        out = tmp_path / "inv"
        assert run_cli("learn", "--run", forward_run, "--mode", "both",
                       "--out", out) == 0
        assert (out / "learned_matrix_known.csv").exists()
        assert (out / "learned_matrix_estimated.csv").exists()
        table = read_msd_table(out / "msd.csv")
        assert table["known"].shape == (200,)
        assert np.isfinite(table["known"]).all()

    def test_learn_matches_end_to_end_experiment(self, forward_run, tmp_path):
        exp_out = tmp_path / "e2e"
        assert run_cli("experiment", *BASE, "--mode", "known",
                       "--out", exp_out) == 0
        inv_out = tmp_path / "inv2"
        assert run_cli("learn", "--run", forward_run, "--mode", "known",
                       "--out", inv_out) == 0
        name = "learned_matrix_known.csv"
        assert (inv_out / name).read_bytes() == (exp_out / name).read_bytes()

    @pytest.mark.parametrize("config", [
        ["--iters", "2000"],
        [*BASE, "--set-state-at", "80:2", "--regen-graph-at", "120:9"],
    ], ids=["reference", "desk-events"])
    def test_learn_reproduces_the_online_run_bit_for_bit(self, tmp_path, config):
        """The stream holds the log-beliefs the online learners consumed,
        so offline learning gives the online estimate bit for bit and
        writes the same msd.csv, event column included, and the same
        summary.json but for the experiment's graph_attempts and
        diagnostics, in both modes: on the reference configuration
        (shortened) and on a run with a state switch and a graph
        regeneration."""
        run = tmp_path / "run"
        assert run_cli("experiment", *config, "--mode", "both", "--out", run) == 0
        learned = tmp_path / "learned"
        assert run_cli("learn", "--run", run, "--out", learned) == 0
        for mode in ("known", "estimated"):
            name = f"learned_matrix_{mode}.csv"
            assert np.array_equal(io.read_matrix(learned / name),
                                  io.read_matrix(run / name))
        assert (learned / "msd.csv").read_bytes() == (run / "msd.csv").read_bytes()
        online = json.loads((run / "summary.json").read_text())
        offline = json.loads((learned / "summary.json").read_text())
        del online["graph_attempts"], online["diagnostics"]
        assert offline == online
        assert offline["modes"]["known"]["final_msd"] is not None
        assert offline["vote_match_rate"] is not None

    def test_summary_keys(self, tmp_path):
        """summary.json holds the run's values, the experiment's
        graph_attempts and diagnostics, and one entry per mode, each
        with these keys, for experiment and learn alike."""
        run = tmp_path / "run"
        assert run_cli("experiment", *BASE, "--mode", "both", "--test-mode",
                       "--out", run) == 0
        learned = tmp_path / "learned"
        assert run_cli("learn", "--run", run, "--out", learned) == 0
        for out, extra in ((run, ["graph_attempts", "diagnostics"]), (learned, [])):
            summary = json.loads((out / "summary.json").read_text())
            assert set(summary) == {"initial_msd", "divergent", "vote_match_rate",
                                    *extra, "modes"}
            assert set(summary["modes"]) == {"known", "estimated"}
            for entry in summary["modes"].values():
                assert set(entry) == {"steady_state_msd", "final_msd", "diverged_at",
                                      "edge_accuracy", "classify_error"}

    @pytest.mark.parametrize("source", ["run", "stream"])
    @pytest.mark.parametrize("flag", [
        ["--reference", "7"], ["--reference", "3"], ["--mu", "-1"], ["--delta", "1.5"],
        ["--mu", "nan"], ["--mu", "inf"], ["--mu", "abc"], ["--mode", "oracle"],
        ["--reference", "x"],
    ], ids=["reference-7", "reference-3", "mu", "delta", "mu-nan", "mu-inf", "mu-text",
            "mode-unknown", "reference-text"])
    def test_learn_rejects_an_invalid_flag(
        self, forward_run, tmp_path, capsys, source, flag
    ):
        """learn validates its configuration as experiment does: a flag
        out of range, here for a 3-state stream, is a configuration error
        (exit 1), with a manifest or in a directory that holds only a
        stream and a model."""
        if source == "run":
            inputs = ["--run", forward_run]
        else:
            inputs = ["--run", bare_copy(forward_run, tmp_path / "bare"),
                      "--delta", "0.3"]
        assert run_cli("learn", *inputs, *flag, "--out", tmp_path / "bad") == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and err.count("\n") == 1

    @pytest.mark.parametrize("removed, flags", [
        (None, []), (None, ["--delta", "0.3"]), ("beliefs.npy", []), ("model.json", []),
    ], ids=["run", "run-with-delta", "stream", "model"])
    def test_learn_names_an_input_path_that_does_not_exist(
        self, forward_run, tmp_path, capsys, removed, flags
    ):
        """A --run directory that does not exist, or one without its
        belief stream or its model, is bad input: exit 2, one line
        naming the path, nothing written."""
        run = forward_run if removed else tmp_path / "missing"
        missing = run / removed if removed else run
        if removed:
            missing.unlink()
        out = tmp_path / "out"
        assert run_cli("learn", "--run", run, *flags, "--out", out) == 2
        assert capsys.readouterr().err == f"error: {missing} does not exist\n"
        assert not out.exists()

    def test_learn_from_a_stream_and_a_model_alone(self, forward_run, tmp_path):
        """In a directory that holds only beliefs.npy and model.json,
        learn runs the estimated mode with the default mu; --delta is
        required. With no truth, nothing diverges and the run's other
        values are null."""
        bare = bare_copy(forward_run, tmp_path / "bare")
        assert run_cli("learn", "--run", bare, "--out", tmp_path / "nodelta") == 1
        out = tmp_path / "inv"
        assert run_cli("learn", "--run", bare, "--delta", "0.3", "--out", out) == 0
        assert {p.name for p in out.iterdir()} >= {"learned_matrix_estimated.csv"}
        summary = json.loads((out / "summary.json").read_text())
        assert list(summary["modes"]) == ["estimated"]
        assert {key: summary[key] for key in summary if key != "modes"} == {
            "divergent": False, "initial_msd": None, "vote_match_rate": None}

    @pytest.mark.parametrize("classify", [
        ["--classify-method", "two-means"],
        ["--classify-method", "threshold", "--classify-threshold", "0.1"],
    ])
    def test_learn_classifies_as_the_manifest_says(self, tmp_path, classify):
        """Offline learn classifies with the manifest's method and
        threshold, so it writes the same adjacency as the experiment."""
        forward = tmp_path / "fwd"
        assert run_cli("simulate", *BASE, *classify, "--out", forward) == 0
        exp_out = tmp_path / "e2e"
        assert run_cli("experiment", *BASE, *classify, "--mode", "known",
                       "--out", exp_out) == 0
        inv_out = tmp_path / "inv"
        assert run_cli("learn", "--run", forward, "--mode", "known",
                       "--out", inv_out) == 0
        name = "classified_adjacency_known.csv"
        assert (inv_out / name).read_bytes() == (exp_out / name).read_bytes()

    @pytest.mark.parametrize("events", [[], ["--regen-graph-at", "120:9"]])
    def test_learn_reports_the_experiments_edge_accuracy(self, tmp_path, events):
        """Offline learn scores its classification against the graph in
        force at the end of the stream, as the experiment does."""
        forward = tmp_path / "fwd"
        assert run_cli("simulate", *BASE, *events, "--out", forward) == 0
        exp_out = tmp_path / "e2e"
        assert run_cli("experiment", *BASE, *events, "--mode", "both",
                       "--out", exp_out) == 0
        inv_out = tmp_path / "inv"
        assert run_cli("learn", "--run", forward, "--mode", "both",
                       "--out", inv_out) == 0
        online = json.loads((exp_out / "summary.json").read_text())["modes"]
        offline = json.loads((inv_out / "summary.json").read_text())["modes"]
        for mode in ("known", "estimated"):
            assert online[mode]["edge_accuracy"] is not None
            assert offline[mode]["edge_accuracy"] == online[mode]["edge_accuracy"]

    @pytest.mark.parametrize("events", [[], ["--regen-graph-at", "120:9"]])
    def test_learn_without_trace_scores_only_a_single_epoch(self, tmp_path, events):
        """Without the trace the graph epoch of each step is unknown, so
        learn scores against the true matrix only when the bundle holds
        a single epoch, and reports no deviation or accuracy otherwise."""
        forward = tmp_path / "fwd"
        assert run_cli("simulate", *BASE, *events, "--out", forward) == 0
        exp_out = tmp_path / "e2e"
        assert run_cli("experiment", *BASE, *events, "--out", exp_out) == 0
        (forward / "trace.csv").unlink()
        inv_out = tmp_path / "inv"
        assert run_cli("learn", "--run", forward, "--mode", "estimated",
                       "--out", inv_out) == 0
        online = json.loads((exp_out / "summary.json").read_text())["modes"]
        offline = json.loads((inv_out / "summary.json").read_text())["modes"]
        if events:
            assert offline["estimated"]["edge_accuracy"] is None
            assert offline["estimated"]["steady_state_msd"] is None
            assert not (inv_out / "msd.csv").exists()
        else:
            assert offline["estimated"] == {
                key: online["estimated"][key] for key in offline["estimated"]
            }
            assert (inv_out / "msd.csv").exists()

    def test_learn_scores_each_epoch_against_its_own_matrix(self, tmp_path):
        """True matrices are looked up by the epoch number in their file
        name: with epoch 0's files gone, its steps have no deviation and
        epoch 1's steps are still scored against epoch 1."""
        events = ["--regen-graph-at", "120:9"]
        forward = tmp_path / "fwd"
        assert run_cli("simulate", *BASE, *events, "--out", forward) == 0
        exp_out = tmp_path / "e2e"
        assert run_cli("experiment", *BASE, *events, "--mode", "known",
                       "--out", exp_out) == 0
        (forward / "true_matrix_000.csv").unlink()
        inv_out = tmp_path / "inv"
        assert run_cli("learn", "--run", forward, "--mode", "known",
                       "--out", inv_out) == 0
        offline = read_msd_table(inv_out / "msd.csv")["known"]
        online = read_msd_table(exp_out / "msd.csv")["known"]
        assert np.isnan(offline[:119]).all()
        np.testing.assert_allclose(offline[119:], online[119:], rtol=1e-9)
        summary = json.loads((inv_out / "summary.json").read_text())["modes"]
        expected = json.loads((exp_out / "summary.json").read_text())["modes"]
        assert summary["known"]["edge_accuracy"] == expected["known"]["edge_accuracy"]

    @pytest.mark.parametrize("bad", ["nan", "inf", "0", "-0.25"])
    def test_learn_rejects_a_belief_without_a_finite_log(
        self, forward_run, tmp_path, capsys, bad
    ):
        """A NaN, infinite, zero or negative belief, stored as its log
        (NaN, +inf, -inf, NaN), is bad input (exit 2), not an estimator
        divergence (exit 3)."""
        stream = forward_run / "beliefs.npy"
        logs = io.read_belief_stream(stream)
        with np.errstate(divide="ignore", invalid="ignore"):
            logs[13, 1, 1] = np.log(float(bad))
        np.save(stream, logs)
        assert run_cli("learn", "--run", forward_run, "--mode", "both",
                       "--out", tmp_path / "bad") == 2
        err = capsys.readouterr().err
        assert "non-finite log-belief at iteration 14, agent 1, state 1" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_learn_rejects_a_model_with_a_non_finite_entry(
        self, forward_run, tmp_path, capsys, bad
    ):
        """json parses NaN and the infinities, so a model.json can hold
        one: that is bad input (exit 2) that names the agent, not a run
        that diverges at its first update (exit 3)."""
        path = forward_run / "model.json"
        text = path.read_text()
        payload = json.loads(text)
        payload["tables"][4][1][2] = "BAD"
        path.write_text(json.dumps(payload).replace('"BAD"', bad))
        assert run_cli("learn", "--run", forward_run, "--mode", "both",
                       "--out", tmp_path / "bad") == 2
        err = capsys.readouterr().err
        assert err == "error: agent 4 has a non-finite entry\n"

    @pytest.mark.parametrize("keep", [0, 8, 128 + 8 * 6 * 3 * 50 + 40])
    def test_learn_rejects_a_stream_cut_short(
        self, forward_run, tmp_path, capsys, keep
    ):
        """A belief stream cut anywhere, inside the header or mid-block,
        is bad input: exit 2 and a one-line message."""
        stream = forward_run / "beliefs.npy"
        stream.write_bytes(stream.read_bytes()[:keep])
        assert run_cli("learn", "--run", forward_run, "--mode", "both",
                       "--out", tmp_path / "cut") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: beliefs.npy") and err.count("\n") == 1

    def test_learn_rejects_a_v1_bundle(self, forward_run, tmp_path, capsys):
        """A manifest of the older v1 format, whose bundles held a CSV
        stream, is refused by format through both readers: a
        configuration error (exit 1) through --config and bad input
        (exit 2) through learn --run, with the same message after each
        prefix, and nothing written."""
        manifest = forward_run / "manifest.json"
        payload = json.loads(manifest.read_text())
        payload["format"] = "beliefgraph-manifest-v1"
        manifest.write_text(json.dumps(payload))
        assert run_cli("simulate", "--config", manifest, "--out", tmp_path / "s") == 1
        config_err = capsys.readouterr().err
        assert run_cli("learn", "--run", forward_run, "--out", tmp_path / "l") == 2
        learn_err = capsys.readouterr().err
        assert learn_err == (f"error: {manifest}: 'format' must be "
                             f"beliefgraph-manifest-v2, not 'beliefgraph-manifest-v1'\n")
        assert config_err == "configuration error: " + learn_err.removeprefix("error: ")
        assert not (tmp_path / "s").exists() and not (tmp_path / "l").exists()

    def test_learn_writes_strict_json_without_part_of_the_truth(self, tmp_path):
        """With the last epoch's true matrix missing, the steady-state
        deviation is NaN; summary.json holds null there, not a bare NaN
        that strict JSON parsers reject."""
        forward = tmp_path / "fwd"
        assert run_cli("simulate", *BASE, "--regen-graph-at", "120:9",
                       "--out", forward) == 0
        (forward / "true_matrix_001.csv").unlink()
        out = tmp_path / "inv"
        assert run_cli("learn", "--run", forward, "--mode", "known",
                       "--out", out) == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        text = (out / "summary.json").read_text()
        summary = json.loads(text, parse_constant=reject)
        assert summary["modes"]["known"]["steady_state_msd"] is None
        assert "NaN" not in text and "Infinity" not in text

    @pytest.mark.parametrize("case", ["swapped", "duplicated", "gap", "from-zero"])
    def test_learn_rejects_a_trace_out_of_order(self, tmp_path, capsys, case):
        """Each trace row is the truth of the stream row at its position,
        so a trace that is not iterations 1..T in order, one row each, is
        bad input (exit 2), even at the stream's length: here rows 10 and
        150 swapped across a state switch, row 150 repeated, iteration
        100 missing and a trace counted from 0."""
        forward = tmp_path / "fwd"
        assert run_cli("simulate", *BASE, "--set-state-at", "80:2",
                       "--out", forward) == 0
        trace = io.read_trace(forward / "trace.csv")
        order = np.arange(200)
        iterations = trace["iterations"]
        if case == "swapped":
            order[[9, 149]] = [149, 9]
        elif case == "duplicated":
            order[149] = 148
        elif case == "gap":
            iterations = np.r_[1:100, 101:202]
        else:
            iterations = iterations - 1
        io.write_trace(forward / "trace.csv", iterations[order],
                       trace["true_states"][order], trace["graph_epochs"][order],
                       trace["events"])
        assert run_cli("learn", "--run", forward, "--mode", "both",
                       "--out", tmp_path / "bad") == 2
        err = capsys.readouterr().err
        assert "iterations 1..200" in err and err.count("\n") == 1

    def test_learn_rejects_a_trace_with_a_state_out_of_range(
        self, forward_run, tmp_path, capsys
    ):
        """A true state of -1 would index the last hypothesis; known mode
        rejects it (exit 2) rather than learn against the wrong one."""
        trace = io.read_trace(forward_run / "trace.csv")
        trace["true_states"][50:60] = -1
        io.write_trace(forward_run / "trace.csv", trace["iterations"],
                       trace["true_states"], trace["graph_epochs"], trace["events"])
        assert run_cli("learn", "--run", forward_run, "--mode", "known",
                       "--out", tmp_path / "bad") == 2
        err = capsys.readouterr().err
        assert "true state" in err and err.count("\n") == 1

    def test_a_graph_regenerated_at_iteration_1(self, tmp_path):
        """A regeneration at iteration 1 leaves epoch 0 without a step; the
        bundle still holds its matrix next to epoch 1's, and learn on it
        gives the online result bit for bit."""
        config = ["--agents", "6", "--states", "3", "--edge-prob", "0.5",
                  "--iters", "20"]
        run = tmp_path / "D"
        assert run_cli("experiment", *config, "--regen-graph-at", "1:5",
                       "--mode", "both", "--out", run) == 0
        matrices = sorted(p.name for p in run.glob("true_*.csv"))
        assert matrices == ["true_matrix_000.csv", "true_matrix_001.csv"]
        still = tmp_path / "still"
        assert run_cli("simulate", *config, "--out", still) == 0
        assert ((run / "true_matrix_000.csv").read_bytes()
                == (still / "true_matrix_000.csv").read_bytes())
        trace = io.read_trace(run / "trace.csv")
        assert (trace["graph_epochs"] == 1).all()
        learned = tmp_path / "learned"
        assert run_cli("learn", "--run", run, "--mode", "both", "--out", learned) == 0
        for mode in ("known", "estimated"):
            name = f"learned_matrix_{mode}.csv"
            assert (learned / name).read_bytes() == (run / name).read_bytes()
        assert (learned / "msd.csv").read_bytes() == (run / "msd.csv").read_bytes()
        online = json.loads((run / "summary.json").read_text())["modes"]
        offline = json.loads((learned / "summary.json").read_text())["modes"]
        assert offline == online and offline["known"]["final_msd"] is not None

    def test_initial_msd_of_a_graph_regenerated_at_iteration_1(self, tmp_path,
                                                              capsys):
        """With the graph regenerated at iteration 1, every step runs under
        epoch 1: the initial msd is the zero estimate's deviation from
        that matrix, row 1 of msd.csv for each mode, not epoch 0's."""
        run = tmp_path / "D"
        assert run_cli("experiment", "--agents", "6", "--states", "3",
                       "--edge-prob", "0.5", "--iters", "20",
                       "--regen-graph-at", "1:5", "--out", run) == 0
        initial = json.loads((run / "summary.json").read_text())["initial_msd"]
        assert f"initial msd {initial:.6g}\n" in capsys.readouterr().out
        epoch1 = io.read_matrix(run / "true_matrix_001.csv")
        assert initial == float(np.sum(epoch1**2))
        table = read_msd_table(run / "msd.csv")
        for mode in ("known", "estimated"):
            assert table[mode][0] == initial, mode
        epoch0 = io.read_matrix(run / "true_matrix_000.csv")
        assert initial != float(np.sum(epoch0**2))

    @pytest.fixture
    def event_run(self, tmp_path):
        """A 200-step bundle with a state switch at 80 and a regeneration
        at 120, and a function that rewrites its trace."""
        out = tmp_path / "events"
        assert run_cli("simulate", *BASE, "--set-state-at", "80:2",
                       "--regen-graph-at", "120:9", "--out", out) == 0
        trace = io.read_trace(out / "trace.csv")

        def rewrite(true_states=trace["true_states"],
                    graph_epochs=trace["graph_epochs"], events=trace["events"]):
            io.write_trace(out / "trace.csv", trace["iterations"], true_states,
                           graph_epochs, events)
            return out

        return trace, rewrite

    def learn_rejects(self, run, tmp_path, capsys):
        """learn --mode estimated on ``run`` exits 2 with one line and
        writes nothing; returns the line."""
        out = tmp_path / "rejected"
        assert run_cli("learn", "--run", run, "--mode", "estimated",
                       "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the trace") and err.count("\n") == 1
        assert not out.exists()
        return err

    def test_learn_rejects_a_trace_state_outside_the_model(
        self, event_run, tmp_path, capsys
    ):
        """Estimated mode uses the true states only to cut blocks and
        score, yet a state outside 0..S-1 still marks a corrupt trace."""
        trace, rewrite = event_run
        states = trace["true_states"].copy()
        states[50:60] = 7
        err = self.learn_rejects(rewrite(true_states=states), tmp_path, capsys)
        assert "true state 7 at iteration 51, outside 0..2" in err

    @pytest.mark.parametrize("case", ["shifted", "regenerated-at-1"])
    def test_learn_rejects_graph_epochs_that_do_not_start_at_0(
        self, event_run, tmp_path, capsys, case
    ):
        """Epochs start at 0, or at 1 when row 1 carries regenerate_graph:
        here every epoch shifted up by one, and a run regenerated at
        iteration 1 whose trace says epoch 0 throughout."""
        trace, rewrite = event_run
        if case == "shifted":
            run = rewrite(graph_epochs=trace["graph_epochs"] + 1)
            expected = "iteration 1 in graph epoch 1, not 0"
        else:
            run = tmp_path / "at1"
            assert run_cli("simulate", *BASE, "--regen-graph-at", "1:5",
                           "--out", run) == 0
            at1 = io.read_trace(run / "trace.csv")
            io.write_trace(run / "trace.csv", at1["iterations"], at1["true_states"],
                           np.zeros(200, dtype=int), at1["events"])
            expected = "iteration 1 in graph epoch 0, not 1"
        assert expected in self.learn_rejects(run, tmp_path, capsys)

    @pytest.mark.parametrize("case", ["rise-without-event", "event-without-rise",
                                      "rise-by-two"])
    def test_learn_rejects_graph_epochs_that_do_not_follow_the_events(
        self, event_run, tmp_path, capsys, case
    ):
        """Epochs rise by exactly one at each regenerate_graph row and
        nowhere else: here epoch 5 from row 101 on, no rise at the event
        of row 120, and a rise by two there."""
        trace, rewrite = event_run
        epochs = trace["graph_epochs"].copy()
        if case == "rise-without-event":
            epochs[100:] = 5
            expected = "iteration 101 in graph epoch 5, not 0"
        elif case == "event-without-rise":
            epochs[:] = 0
            expected = "iteration 120 in graph epoch 0, not 1"
        else:
            epochs[119:] = 2
            expected = "iteration 120 in graph epoch 2, not 1"
        assert expected in self.learn_rejects(rewrite(graph_epochs=epochs),
                                              tmp_path, capsys)

    def test_learn_rejects_an_epoch_the_bundle_has_no_matrix_for(
        self, event_run, tmp_path, capsys
    ):
        """A trace with a second regeneration marked at row 150, consistent
        in itself, reaches epoch 2; the bundle holds the matrices of
        epochs 0 and 1 and its schedule one regeneration, so epoch 2 is
        no epoch of this run. A run epoch whose matrix file is missing
        only goes unscored (test_learn_scores_each_epoch_against_its_own_matrix,
        test_learn_writes_strict_json_without_part_of_the_truth)."""
        trace, rewrite = event_run
        epochs = trace["graph_epochs"].copy()
        epochs[149:] = 2
        events = {**trace["events"], 150: "regenerate_graph"}
        run = rewrite(graph_epochs=epochs, events=events)
        err = self.learn_rejects(run, tmp_path, capsys)
        assert "graph epoch 2, but the bundle holds no true_matrix_002.csv" in err

    def test_learn_rejects_a_model_of_another_size(self, forward_run, tmp_path, capsys):
        io.save_model(forward_run / "model.json", random_likelihoods(7, 3, 3, seed=5))
        assert run_cli("learn", "--run", forward_run, "--mode", "both",
                       "--out", tmp_path / "bad") == 2
        err = capsys.readouterr().err
        assert "6 agents and 3 states" in err and "7 agents and 3 states" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("name, edit, expected", [
        ("true_matrix_000.csv", lambda text: text.rsplit("\n", 2)[0] + "\n",
         "shape (5, 6), but the model has 6 agents"),
        ("true_matrix_000.csv", lambda text: "",
         "shape (0,), but the model has 6 agents"),
        ("true_matrix_000.csv", lambda text: text.replace("0", "x", 1),
         "could not convert"),
        ("true_matrix_000.csv", lambda text: "1,0\n0,1\n",
         "shape (2, 2), but the model has 6 agents"),
        ("true_matrix_000.csv", lambda text: "1" + text, "columns must sum to one"),
        ("true_matrix_abc.csv", lambda text: text, "graph epoch 'abc' is not a number"),
        ("true_matrix_000.csv", lambda text: text.replace(",", "\n", 1),
         "inhomogeneous shape"),
        ("true_matrix_000.csv", lambda text: text.replace("\n", ",0\n"),
         "shape (6, 7), but the model has 6 agents"),
        ("true_matrix_000.csv", lambda text: "-" + text,
         "weights must be finite and nonnegative"),
        ("true_matrix_000.csv", lambda text: "nan" + text[text.index(","):],
         "weights must be finite and nonnegative"),
        ("true_matrix_000.csv", lambda text: "".join(
            ",".join("1" if c == (r + 1) % 6 else "0" for c in range(6)) + "\n"
            for r in range(6)), "at least one self-loop is required"),
        ("true_matrix_000.csv", lambda text: "".join(
            ",".join("1" if c == r else "0" for c in range(6)) + "\n"
            for r in range(6)), "the weight graph must be strongly connected"),
        ("true_matrix_-1.csv", lambda text: text, "graph epoch '-1' is not a number"),
        ("true_matrix_0.csv", lambda text: text,
         "true_matrix_000.csv both hold graph epoch 0"),
    ], ids=["truncated", "empty", "letter", "smaller", "column-sum", "epoch-name",
            "ragged", "wider", "negative", "nan", "no-self-loop",
            "not-strongly-connected", "negative-epoch", "duplicate-epoch"])
    def test_learn_names_a_malformed_true_matrix_file(
        self, forward_run, tmp_path, capsys, name, edit, expected
    ):
        """A true matrix file that is malformed, of another size than the
        model, not named by an epoch in digits or a second file of an
        epoch, is bad input (exit 2) whose one-line message names the
        file."""
        source = forward_run / "true_matrix_000.csv"
        (forward_run / name).write_text(edit(source.read_text()))
        assert run_cli("learn", "--run", forward_run, "--mode", "both",
                       "--out", tmp_path / "bad") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert name in err and expected in err

    def test_learn_does_not_read_the_true_adjacency_files(self, tmp_path):
        """Each epoch's arcs are the positive weights of its true matrix,
        so a bundle written before true_adjacency_NNN.csv was dropped
        still learns, and its adjacency files are not read: learn on a
        bundle that holds corrupt ones writes the same bytes as without
        them."""
        forward = tmp_path / "fwd"
        assert run_cli("simulate", *BASE, "--regen-graph-at", "120:9",
                       "--out", forward) == 0
        assert not list(forward.glob("true_adjacency_*.csv"))
        intact = tmp_path / "intact"
        assert run_cli("learn", "--run", forward, "--mode", "both",
                       "--out", intact) == 0
        for epoch in range(2):
            (forward / f"true_adjacency_{epoch:03d}.csv").write_text("2,x\n")
        corrupt = tmp_path / "corrupt"
        assert run_cli("learn", "--run", forward, "--mode", "both",
                       "--out", corrupt) == 0
        names = sorted(p.name for p in intact.iterdir())
        assert names == sorted(p.name for p in corrupt.iterdir())
        for name in names:
            assert (intact / name).read_bytes() == (corrupt / name).read_bytes(), name

    def test_learn_without_inputs_exits_one(self, tmp_path):
        assert run_cli("learn", "--out", tmp_path / "nope") == 1

    def test_learn_without_an_output_directory_exits_one(
        self, forward_run, tmp_path, capsys, monkeypatch
    ):
        """learn --run DIR without --out is a configuration error, and
        writes nothing: neither into the bundle nor where it runs."""
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert run_cli("learn", "--run", forward_run, "--mode", "both") == 1
        assert capsys.readouterr().err == (
            "configuration error: an output directory is required (--out)\n")
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("mode", ["known", "both"])
    def test_learn_known_mode_needs_trace(self, forward_run, tmp_path, mode):
        (forward_run / "trace.csv").unlink()
        assert run_cli("learn", "--run", forward_run, "--mode", mode,
                       "--out", tmp_path / "kn") == 1

    @pytest.mark.parametrize("name, edit, field", [
        ("model.json", lambda p: {**p, "floor": None}, "'floor'"),
        ("model.json", lambda p: {k: v for k, v in p.items() if k != "tables"},
         "'tables'"),
        ("model.json", lambda p: [p], "'tables'"),
        ("manifest.json", lambda p: [p], "'config'"),
        ("manifest.json", lambda p: {"format": p["format"]}, "'config'"),
        ("manifest.json", lambda p: {**p, "format": "beliefgraph-manifest-v9"},
         "'format'"),
        ("manifest.json", lambda p: {"config": p["config"]}, "'format'"),
        ("model.json", lambda p: {**p, "tables": [*p["tables"][:2], [
            p["tables"][2][0], p["tables"][2][1][:2], p["tables"][2][2]]]},
         "table of agent 2 has inconsistent shape"),
        ("model.json", lambda p: {**p, "tables": [*p["tables"][:2], [
            p["tables"][2][0], ["x", *p["tables"][2][1][1:]], p["tables"][2][2]]]},
         "agent 2 has an entry that is not a number"),
    ], ids=["model-floor-null", "model-without-tables", "model-list",
            "manifest-list", "manifest-without-config", "manifest-of-an-unknown-format",
            "manifest-without-format", "model-ragged-row", "model-text-entry"])
    def test_learn_names_the_file_and_field_of_a_misshapen_bundle(
        self, forward_run, tmp_path, capsys, name, edit, field
    ):
        """A model.json or manifest.json of the wrong JSON shape is bad
        input (exit 2) whose one-line message names the file and the
        field; a table that does not read as numbers is named by its
        agent, as the model's other table faults are (see
        test_learn_rejects_a_model_with_a_non_finite_entry)."""
        path = forward_run / name
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        assert run_cli("learn", "--run", forward_run, "--mode", "both",
                       "--out", tmp_path / "bad") == 2
        err = capsys.readouterr().err
        if "agent 2" in field:
            assert err == f"error: {field}\n"
        else:
            assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
            assert field in err

    @pytest.mark.parametrize("edit", [lambda p: [p], lambda p: {"format": p["format"]}],
                             ids=["list", "without-config"])
    def test_config_and_learn_name_a_misshapen_manifest_alike(
        self, forward_run, tmp_path, capsys, edit
    ):
        """--config and learn --run read a manifest with one reader: the
        same misshapen manifest gets the same message after each prefix,
        a configuration error (exit 1) through --config and bad input
        (exit 2) through --run, and nothing is written."""
        path = forward_run / "manifest.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        assert run_cli("experiment", "--config", path, "--out", tmp_path / "e") == 1
        config_err = capsys.readouterr().err
        assert run_cli("learn", "--run", forward_run, "--out", tmp_path / "l") == 2
        learn_err = capsys.readouterr().err
        assert config_err.startswith(f"configuration error: {path}: ")
        assert (config_err.removeprefix("configuration error: ")
                == learn_err.removeprefix("error: "))
        assert not (tmp_path / "e").exists() and not (tmp_path / "l").exists()

    def test_learn_estimated_without_truth_still_works(self, forward_run, tmp_path):
        (forward_run / "trace.csv").unlink()
        for stale in forward_run.glob("true_*.csv"):
            stale.unlink()
        out = tmp_path / "blind"
        assert run_cli("learn", "--run", forward_run, "--mode", "estimated",
                       "--out", out) == 0
        assert not (out / "msd.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["modes"]["estimated"]["edge_accuracy"] is None


class TestForwardBundle:
    def test_simulate_writes_a_byte_identical_subset_of_experiment(self, tmp_path):
        """simulate and experiment run the same simulate-and-write loop:
        every file the forward run writes, experiment writes with the
        same bytes."""
        config = [*BASE, "--test-mode", "--set-state-at", "50:2",
                  "--regen-graph-at", "120:9"]
        forward, full = tmp_path / "fwd", tmp_path / "e2e"
        assert run_cli("simulate", *config, "--out", forward) == 0
        assert run_cli("experiment", *config, "--out", full) == 0
        names = sorted(p.name for p in forward.iterdir())
        assert names == sorted([
            "beliefs.npy", "manifest.json", "model.json", "private_ratios.npy",
            "trace.csv", "true_matrix_000.csv", "true_matrix_001.csv",
        ])
        for name in names:
            assert (forward / name).read_bytes() == (full / name).read_bytes(), name


class TestSweepCommand:
    def test_grid_runs_and_prints_table(self, tmp_path, capsys):
        out = tmp_path / "sw"
        assert run_cli("sweep", *BASE, "--mode", "known",
                       "--mu-grid", "0.05,0.02", "--out", out) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3
        assert "mu,delta,mode" in capsys.readouterr().out

    def test_sweep_requires_a_grid(self, tmp_path):
        assert run_cli("sweep", *BASE, "--out", tmp_path / "sw") == 1

    def test_divergent_grid_point_exits_three(self, tmp_path):
        assert run_cli("sweep", *BASE, "--mode", "known",
                       "--mu-grid", "0.05,50.0", "--out", tmp_path / "sw") == 3

    @pytest.mark.parametrize("grid, named", [
        (["--delta-grid", "0.3,1.5"], "delta=1.5"),
        (["--mu-grid", "0.05,-0.1"], "mu=-0.1"),
        (["--mu-grid", "0.05,nan"], "mu=nan"),
        (["--mu-grid", "a"], "--mu-grid"),
        (["--delta-grid", "0.3,"], "--delta-grid"),
    ], ids=["delta-out-of-range", "mu-negative", "mu-nan", "mu-text", "delta-empty"])
    def test_invalid_grid_point_exits_one(self, tmp_path, capsys, grid, named):
        """An invalid grid value is a configuration error, found before
        any grid point runs: exit 1, the value named, no sweep.csv."""
        out = tmp_path / "sw"
        assert run_cli("sweep", *BASE, "--mode", "known", *grid, "--out", out) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error") and named in captured.err
        assert captured.out == ""
        assert not (out / "sweep.csv").exists()


class TestParser:
    COMMANDS = ["simulate", "experiment", "sweep", "learn"]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_subcommand_help_is_that_of_the_full_parser(self, capsys, command):
        """main builds only the invoked subcommand's parser; its --help
        exits 0 with the text of the parser of every subcommand."""
        with pytest.raises(SystemExit) as exited:
            main([command, "--help"])
        assert exited.value.code == 0
        text = capsys.readouterr().out
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--help"])
        assert text == capsys.readouterr().out
        assert text.startswith(f"usage: beliefgraph {command} [-h]")

    @pytest.mark.parametrize("argv, code", [
        (["--help"], 0), ([], 2), (["bogus"], 2), (["--bogus", "experiment"], 2),
    ], ids=["help", "missing", "unknown", "option-first"])
    def test_every_subcommand_is_listed_without_one(self, capsys, argv, code):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == code
        captured = capsys.readouterr()
        assert "{simulate,experiment,sweep,learn}" in captured.out + captured.err


class TestManifestRoundTrip:
    def test_cli_rerun_reproduces_bundle(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        assert run_cli("experiment", *BASE, "--test-mode", "--out", first) == 0
        assert run_cli("experiment", "--config", first / "manifest.json",
                       "--out", second) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes()


class TestUsedOutputDirectory:
    @pytest.fixture
    def runs(self, tmp_path):
        """An experiment bundle (manifest.json and summary.json) and the
        output of learn on it (summary.json alone)."""
        run, learned = tmp_path / "run", tmp_path / "learned"
        assert run_cli("experiment", *BASE, "--mode", "both", "--test-mode",
                       "--regen-graph-at", "150", "--out", run) == 0
        assert run_cli("learn", "--run", run, "--mode", "both", "--out", learned) == 0
        return run, learned

    @pytest.mark.parametrize("command", [
        ["experiment", *BASE, "--mode", "known"],
        ["simulate", *BASE],
        ["learn", "--mode", "both", "--run"],
    ], ids=["experiment", "simulate", "learn"])
    @pytest.mark.parametrize("used", [0, 1], ids=["run", "learned"])
    def test_a_directory_that_holds_a_run_is_refused(self, runs, capsys, command,
                                                     used):
        """A run into a directory that already holds a run's manifest.json
        or summary.json is a configuration error (exit 1) naming the
        directory, before anything is written: the files of the first
        run are left as they were, and no stale one sits beside a new
        manifest."""
        before = {run: {p.name: p.read_bytes() for p in run.iterdir()} for run in runs}
        source = [runs[0]] if command[0] == "learn" else []
        capsys.readouterr()
        assert run_cli(*command, *source, "--out", runs[used]) == 1
        err = capsys.readouterr().err
        assert err == f"configuration error: {runs[used]} already holds a run; " \
                      f"write to another directory\n"
        assert {run: {p.name: p.read_bytes() for p in run.iterdir()}
                for run in runs} == before

    @pytest.mark.parametrize("command, into", [
        (["sweep", *BASE, "--mu-grid", "0.01,0.02"], "run"),
        (["sweep", *BASE, "--mu-grid", "0.01,0.02"], "sweep"),
        (["experiment", *BASE, "--mode", "known"], "sweep"),
    ], ids=["sweep-into-a-run", "sweep-into-a-sweep", "experiment-into-a-sweep"])
    def test_sweep_refuses_a_used_directory_and_marks_one(
            self, runs, tmp_path, capsys, command, into):
        """A sweep.csv marks a directory as used, as a manifest.json does,
        and sweep checks its --out before its first grid point: a sweep
        into a run's or a sweep's directory, and an experiment into a
        sweep's, exit 1 and leave every file there byte for byte."""
        swept = tmp_path / "swept"
        assert run_cli("sweep", *BASE, "--mu-grid", "0.05", "--out", swept) == 0
        used = {"run": runs[0], "sweep": swept}[into]
        before = {p.name: p.read_bytes() for p in used.iterdir()}
        capsys.readouterr()
        assert run_cli(*command, "--out", used) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"configuration error: {used} already holds a run; "
                                f"write to another directory\n")
        assert captured.out == ""
        assert {p.name: p.read_bytes() for p in used.iterdir()} == before
