"""Round trips of every on-disk format, at full precision."""

import json
from io import BytesIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from beliefgraph import io
from beliefgraph.harness import ExperimentConfig, run_experiment
from beliefgraph.model import (
    CombinationMatrix, random_combination_matrix, random_likelihoods,
)
from beliefgraph.simulate import Event, EventSchedule

from helpers import indented_json, per_row_adjacency, read_msd_table

# Awkward doubles: negatives, subnormals, extremes of the exponent range
# and a signed zero.
AWKWARD = [-1.2345678901234567, 5e-324, 2.5e-310, 1e300, -1e-300, -0.0,
           0.1, 1.0 / 3.0, 123456789.125, -2.0**-1074]


def saved_bytes(blocks):
    """The reference layout of both streams: ``np.save`` of the blocks
    stacked in iteration order, each block row by row."""
    buffer = BytesIO()
    np.save(buffer, np.stack(blocks))
    return buffer.getvalue()


def write_stream(path, blocks):
    with io.BeliefStreamWriter(path, (len(blocks), *blocks[0].shape)) as writer:
        writer.append(np.stack(blocks))


# The text writers as they were, one format() call per number: the
# oracles of the one-pass writers, returning the text they wrote.
def per_value_matrix(matrix) -> str:
    lines = [",".join(format(float(x), ".17g") for x in row)
             for row in np.asarray(matrix, dtype=float)]
    return "\n".join(lines) + "\n"


def per_value_trace(iterations, true_states, graph_epochs, events) -> str:
    lines = [io.TRACE_HEADER]
    for i, state, epoch in zip(iterations, true_states, graph_epochs):
        lines.append(f"{i},{state},{epoch},{events.get(int(i), '')}")
    return "\n".join(lines) + "\n"


def per_value_msd_table(iterations, deviations_by_mode, events) -> str:
    lines = [io.MSD_HEADER]
    modes = sorted(deviations_by_mode)
    for idx, i in enumerate(iterations):
        marker = events.get(int(i), "")
        for mode in modes:
            value = format(float(deviations_by_mode[mode][idx]), ".17g")
            lines.append(f"{i},{value},{mode},{marker}")
    return "\n".join(lines) + "\n"


# The readers and writers as they were: one JSON round trip to null the
# non-finite floats, and a trace parsed line by line.
def round_trip_json(path, payload) -> None:
    payload = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n")


def per_line_trace(path) -> dict:
    iterations, states, epochs = [], [], []
    events = {}
    with open(path) as fh:
        if fh.readline().strip() != io.TRACE_HEADER:
            raise ValueError("unrecognized trace header")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            i, state, epoch, event = line.split(",")
            iterations.append(int(i))
            states.append(int(state))
            epochs.append(int(epoch))
            if event:
                events[int(i)] = event
    return {
        "iterations": np.array(iterations, dtype=int),
        "true_states": np.array(states, dtype=int),
        "graph_epochs": np.array(epochs, dtype=int),
        "events": events,
    }


def awkward_blocks(rng, count, shape):
    return [
        rng.choice(AWKWARD, size=shape) * rng.choice([1.0, 1.0, 7.0], size=shape)
        for _ in range(count)
    ]


class TestMatrixFiles:
    def test_matrix_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        matrix = rng.standard_normal((5, 7)) * 10.0 ** rng.integers(-8, 8, (5, 7))
        path = tmp_path / "m.csv"
        io.write_matrix(path, matrix)
        np.testing.assert_array_equal(io.read_matrix(path), matrix)

    def test_adjacency_round_trip(self, tmp_path):
        """A bundle's arcs travel in its matrix file: the support of the
        weights read back equals the support written, a subnormal weight
        included."""
        ring = np.eye(6, dtype=bool) | np.roll(np.eye(6, dtype=bool), 1, axis=1)
        arcs = ring | (np.random.default_rng(1).random((6, 6)) < 0.4)
        weights = random_combination_matrix(arcs, seed=2).weights.copy()
        absent = tuple(np.argwhere(~arcs)[0])
        weights[absent] = 5e-324
        path = tmp_path / "m.csv"
        io.write_matrix(path, weights)
        read = CombinationMatrix(io.read_matrix(path))
        np.testing.assert_array_equal(read.adjacency, weights > 0)

    def test_adjacency_round_trip_of_every_size(self, tmp_path):
        """write_adjacency writes the bytes of the per-row join, which
        parse back to the adjacency, for every size from 1 to 30: random,
        empty and full."""
        rng = np.random.default_rng(4)
        path = tmp_path / "a.csv"
        for n in range(1, 31):
            for adjacency in (rng.random((n, n)) < 0.4, np.zeros((n, n), dtype=bool),
                              np.ones((n, n), dtype=bool)):
                io.write_adjacency(path, adjacency)
                assert path.read_bytes() == per_row_adjacency(adjacency).encode()
                read = np.loadtxt(path, delimiter=",", dtype=int, ndmin=2)
                np.testing.assert_array_equal(read == 1, adjacency)

    @pytest.mark.parametrize("adjacency", [
        np.random.default_rng(3).random((7, 7)) < 0.4,
        np.array([[0.5, 0.0, 1.0], [0.0, 0.25, 0.0], [2.0, 0.0, 0.5]]),
        np.array([[True]]),
    ], ids=["bool", "float", "1x1"])
    def test_adjacency_bytes_match_the_per_row_join(self, tmp_path, adjacency):
        """Each cell is written as the byte 0 or 1: the bytes of the
        per-row join, also for weights, whose nonzero entries are arcs."""
        path = tmp_path / "a.csv"
        io.write_adjacency(path, adjacency)
        assert path.read_bytes() == per_row_adjacency(adjacency).encode()


class TestBeliefStream:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        raw = rng.random((4, 3, 5)) + 1e-3
        logs = np.log(raw / raw.sum(axis=2, keepdims=True))
        path = tmp_path / "beliefs.npy"
        write_stream(path, list(logs))
        np.testing.assert_array_equal(io.read_belief_stream(path), logs)
        assert path.stat().st_size == 128 + 8 * logs.size

    def test_incomplete_grid_rejected(self, tmp_path):
        """A stream cut short, even inside a block, or longer than its
        header declares, is an error."""
        path = tmp_path / "beliefs.npy"
        write_stream(path, [np.full((2, 2), -np.log(2.0))] * 3)
        complete = path.read_bytes()
        for damaged in (complete[:-8], complete + complete[-8:]):
            path.write_bytes(damaged)
            with pytest.raises(ValueError, match="beliefs.npy"):
                io.read_belief_stream(path)

    def test_bytes_match_the_per_row_layout(self, tmp_path):
        rng = np.random.default_rng(5)
        exponents = [-744.0, -709.5, -300.0, -1e-17, 0.0, -1.0 / 3.0, 2.5, 690.0]
        logs = [rng.choice(exponents, size=(7, 3)) for _ in range(6)]
        path = tmp_path / "beliefs.npy"
        write_stream(path, logs)
        assert path.read_bytes() == saved_bytes(logs)

    @pytest.mark.parametrize("stored", [
        np.zeros((3, 2, 2), dtype=np.float32),
        np.zeros((3, 2, 2), dtype=">f8"),
        np.zeros((6, 2)),
        np.zeros((0, 2, 2)),
        np.array([[[None, 1.0]]], dtype=object),
    ], ids=["float32", "big-endian", "2-D", "empty", "object"])
    def test_other_arrays_rejected(self, tmp_path, stored):
        path = tmp_path / "beliefs.npy"
        np.save(path, stored, allow_pickle=True)
        with pytest.raises(ValueError):
            io.read_belief_stream(path)

    def test_writer_holds_to_its_declared_shape(self, tmp_path):
        with io.BeliefStreamWriter(tmp_path / "s.npy", (1, 2, 2)) as writer:
            with pytest.raises(ValueError, match="shape"):
                writer.append(np.zeros((1, 2, 3)))
            writer.append(np.zeros((1, 2, 2)))
            with pytest.raises(ValueError, match="already holds"):
                writer.append(np.zeros((1, 2, 2)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_stream_round_trip_property(tmp_path_factory, data):
    """Any T >= 1 and block shape, any float64 values (subnormals, -0.0,
    infinities and NaN included): the file equals ``np.save`` of the
    stacked blocks and reads back bit for bit."""
    shape = data.draw(st.tuples(*[st.integers(1, 5)] * 3), label="shape")
    stack = data.draw(
        hnp.arrays(np.float64, shape,
                   elements=st.floats() | st.sampled_from([-0.0, 5e-324, -2.5e-310])),
        label="stack",
    )
    path = tmp_path_factory.mktemp("stream") / "s.npy"
    write_stream(path, list(stack))
    assert path.read_bytes() == saved_bytes(list(stack))
    loaded = io.read_belief_stream(path)
    assert loaded.tobytes() == stack.tobytes()


def test_stacks_of_mixed_sizes_equal_one_save(tmp_path):
    """Stacks of one snapshot, of 64 and of the remainder write the same
    file as ``np.save``; a 2-D snapshot or a stack past ``T`` raises."""
    stack = np.stack(awkward_blocks(np.random.default_rng(7), 100, (4, 3)))
    path = tmp_path / "s.npy"
    with io.BeliefStreamWriter(path, stack.shape) as writer:
        writer.append(stack[:1])
        writer.append(stack[1:65])
        with pytest.raises(ValueError, match="shape"):
            writer.append(stack[65])
        with pytest.raises(ValueError, match="already holds"):
            writer.append(stack[64:])
        writer.append(stack[65:])
    assert path.read_bytes() == saved_bytes(list(stack))


DOUBLES = st.floats() | st.sampled_from(
    [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 2.5e-310, 1e308]
)
MARKERS = st.sampled_from(["set_true_state", "regenerate_graph", "a,b", "100%"])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_text_writers_match_the_per_value_writers(tmp_path_factory, data):
    """The one-pass text writers give the per-value writers' bytes for
    any doubles (NaN, infinities, -0.0 and subnormals included), table
    size and event markers."""
    path = tmp_path_factory.mktemp("text")
    rows = data.draw(st.integers(0, 40), label="rows")
    matrix = data.draw(
        hnp.arrays(np.float64, (rows, data.draw(st.integers(1, 6))), elements=DOUBLES),
        label="matrix",
    )
    io.write_matrix(path / "m.csv", matrix)
    assert (path / "m.csv").read_text() == per_value_matrix(matrix)

    iterations = np.arange(1, rows + 1)
    events = data.draw(st.dictionaries(
        st.integers(1, max(rows, 1)), MARKERS, max_size=4), label="events")
    states = data.draw(hnp.arrays(np.int64, rows, elements=st.integers(0, 9)))
    epochs = np.cumsum(data.draw(hnp.arrays(np.int64, rows, elements=st.integers(0, 1))))
    io.write_trace(path / "t.csv", iterations, states, epochs, events)
    assert (path / "t.csv").read_text() == per_value_trace(
        iterations, states, epochs, events)

    modes = data.draw(st.sets(st.sampled_from(["known", "estimated"]), min_size=1))
    deviations = {mode: matrix[:, 0] if mode == "known" else matrix[:, -1]
                  for mode in modes}
    io.write_msd_table(path / "d.csv", iterations, deviations, events)
    assert (path / "d.csv").read_text() == per_value_msd_table(
        iterations, deviations, events)


# JSON payloads: nested dicts, lists and tuples, empty ones included,
# over the leaves a bundle's files hold and the awkward ones: non-finite,
# signed-zero, large and subnormal floats, numpy floats, ints beyond 64
# bits and strings that need escapes.
JSON_LEAVES = (
    DOUBLES | st.sampled_from([1e16, -1e16, 1e-7, 123456789.125])
    | st.floats().map(np.float64)
    | st.integers(-10**40, 10**40) | st.booleans() | st.none()
    | st.text(max_size=8)
    | st.sampled_from(['"quoted"', "back\\slash", "\x00\x1f\t\n\x7f",
                       "\u00e9\u2603\U0001f600"])
)
JSON_PAYLOADS = st.recursive(
    JSON_LEAVES,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.lists(DOUBLES, max_size=4)
                      | st.dictionaries(st.text(max_size=4), children, max_size=4)),
    max_leaves=30,
)


class TestRatioStream:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        stack = rng.standard_normal((6, 4, 2))
        path = tmp_path / "private_ratios.npy"
        write_stream(path, list(stack))
        np.testing.assert_array_equal(io.read_belief_stream(path), stack)

    def test_bytes_match_the_per_row_layout(self, tmp_path):
        blocks = awkward_blocks(np.random.default_rng(6), 8, (5, 3))
        path = tmp_path / "private_ratios.npy"
        write_stream(path, blocks)
        assert path.read_bytes() == saved_bytes(blocks)


class TestTrace:
    def test_round_trip_with_events(self, tmp_path):
        path = tmp_path / "trace.csv"
        io.write_trace(
            path,
            iterations=[1, 2, 3, 4],
            true_states=[0, 0, 2, 2],
            graph_epochs=[0, 0, 0, 1],
            events={3: "set_true_state", 4: "regenerate_graph"},
        )
        trace = io.read_trace(path)
        np.testing.assert_array_equal(trace["true_states"], [0, 0, 2, 2])
        np.testing.assert_array_equal(trace["graph_epochs"], [0, 0, 0, 1])
        assert trace["events"] == {3: "set_true_state", 4: "regenerate_graph"}

    def test_rejects_unknown_header(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("a,b\n")
        with pytest.raises(ValueError):
            io.read_trace(path)

    @pytest.mark.parametrize("rows", [0, 1, 64, 1000])
    def test_matches_the_per_line_reader(self, tmp_path, rows):
        """Events on the first, a middle and the last row, blank lines,
        CRLF line ends and padding around rows read as they always did."""
        path = tmp_path / "trace.csv"
        iterations = np.arange(1, rows + 1)
        events = {i: name for i, name in zip(
            (1, rows // 2, rows), ("set_true_state", "regenerate_graph", "#x y"))}
        io.write_trace(path, iterations, iterations % 3, iterations // 100, events)
        header, *lines = path.read_text().splitlines()
        padded = [header, "", "  "] + [f" {line}\t" for line in lines] + ["", ""]
        path.write_text("\r\n".join(padded))
        expected, read = per_line_trace(path), io.read_trace(path)
        assert read.keys() == expected.keys()
        for key in ("iterations", "true_states", "graph_epochs"):
            assert read[key].dtype == expected[key].dtype
            np.testing.assert_array_equal(read[key], expected[key])
        assert read["events"] == expected["events"]

    @pytest.mark.parametrize("states, epochs, events", [
        ([1, 1, 2, 2, 2, 0], [0, 0, 0, 0, 1, 1], {1: "set_true_state", 6: "regenerate_graph"}),
        ([0, 0, 1, 2, 2, 2], [0, 0, 0, 0, 1, 1],
         {3: "set_true_state", 4: "set_true_state", 5: "regenerate_graph"}),
        ([1, 1, 1, 1, 1, 1], [0, 0, 0, 0, 0, 0], {3: "set_true_state"}),
        ([1, 1, 1, 1, 1, 1], [0, 0, 0, 1, 1, 1], {}),
        ([2], [0], {1: "set_true_state"}),
        ([], [], {}),
    ], ids=["events-at-1-and-T", "consecutive-events", "switch-to-the-same-state",
            "no-event", "one-row", "no-row"])
    def test_matches_the_per_value_writer(self, tmp_path, states, epochs, events):
        """Runs of rows are cut at every event and every change of state
        or epoch: the text is that of one row at a time."""
        iterations = np.arange(1, len(states) + 1)
        io.write_trace(tmp_path / "trace.csv", iterations, states, epochs, events)
        assert (tmp_path / "trace.csv").read_text() == per_value_trace(
            iterations, states, epochs, events)

    @pytest.mark.parametrize("row", [
        "4,0,0", "4,0,0,set_true_state,x", "4,0.5,0,", "4,,0,", "x,0,0,",
        "4,0,0,,",
    ])
    def test_rejects_a_malformed_row(self, tmp_path, row):
        path = tmp_path / "trace.csv"
        path.write_text(f"{io.TRACE_HEADER}\n1,0,0,\n{row}\n2,0,0,\n")
        with pytest.raises(ValueError):
            per_line_trace(path)
        with pytest.raises(ValueError):
            io.read_trace(path)


class TestMsdTable:
    def test_round_trip_two_modes(self, tmp_path):
        path = tmp_path / "msd.csv"
        known = np.array([4.0, 2.0, 1.0])
        estimated = np.array([4.0, 2.5, 1.5])
        io.write_msd_table(path, [1, 2, 3], {"known": known, "estimated": estimated},
                           events={2: "set_true_state"})
        table = read_msd_table(path)
        np.testing.assert_array_equal(table["known"], known)
        np.testing.assert_array_equal(table["estimated"], estimated)
        np.testing.assert_array_equal(table["iteration"], [1, 2, 3])
        assert ",set_true_state" in path.read_text()

    def test_modes_sharing_a_column_keep_each_zeros_sign(self, tmp_path):
        """Deviations of the same bytes share one column of text; equal
        values that differ in a zero's sign are written as they are."""
        path = tmp_path / "msd.csv"
        zero, flipped = np.array([0.0, 0.1, -0.0]), np.array([-0.0, 0.1, 0.0])
        for deviations in ({"known": zero, "estimated": zero.copy()},
                           {"known": zero, "estimated": flipped},
                           {"known": zero, "estimated": zero, "other": flipped}):
            io.write_msd_table(path, [1, 2, 3], deviations, {3: "set_true_state"})
            assert path.read_text() == per_value_msd_table(
                [1, 2, 3], deviations, {3: "set_true_state"})


class TestJsonFiles:
    @pytest.mark.parametrize("payload", [
        {"x": float("nan"), "y": [1.0, float("inf"), (-float("inf"), "s")],
         "z": {"b": {"c": np.float64("nan"), "d": None}, "a": [True, 0, -0.0]},
         "w": [np.float64(0.1), 5e-324, 1e300, 10**30, "NaN"]},
        {"modes": {"known": {"steady_state_msd": float("nan"),
                             "final_msd": float("inf"), "diverged_at": 15}}},
        [], {}, float("nan"), "text",
    ])
    def test_bytes_match_the_round_trip(self, tmp_path, payload):
        io.save_json(tmp_path / "new.json", payload)
        round_trip_json(tmp_path / "old.json", payload)
        assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()

    def test_model_bytes_match_the_round_trip(self, tmp_path):
        model = random_likelihoods(30, 4, 3, seed=5)
        io.save_model(tmp_path / "model.json", model)
        round_trip_json(tmp_path / "old.json", {
            "floor": model.floor, "signal_sizes": model.signal_sizes,
            "tables": [t.tolist() for t in model.tables],
        })
        assert (tmp_path / "model.json").read_bytes() == \
            (tmp_path / "old.json").read_bytes()


    @settings(max_examples=300, deadline=None)
    @given(payload=JSON_PAYLOADS)
    def test_bytes_match_the_indented_encoder(self, tmp_path_factory, payload):
        path = tmp_path_factory.mktemp("json") / "x.json"
        io.save_json(path, payload)
        assert path.read_text() == indented_json(payload)

    @pytest.mark.parametrize("payload", [
        np.int64(3), {"a": [1.0, np.int64(3)]}, {1, 2}, {"a": {"b": {0.5}}},
        [np.float32(1.0)], {("a", "b"): 1},
    ])
    def test_refuses_what_json_refuses(self, tmp_path, payload):
        with pytest.raises(TypeError):
            indented_json(payload)
        with pytest.raises(TypeError):
            io.save_json(tmp_path / "x.json", payload)
        assert not (tmp_path / "x.json").exists()

    def test_every_file_of_a_run_matches_the_indented_encoder(self, tmp_path,
                                                              monkeypatch):
        """The manifest, the model and a summary with its diagnostics, of
        a test-mode run in both modes through a state switch and a graph
        regeneration."""
        payloads = {}
        save_json = io.save_json

        def recorded(path, payload):
            payloads[Path(path).name] = payload
            save_json(path, payload)

        monkeypatch.setattr(io, "save_json", recorded)
        run_experiment(ExperimentConfig(
            agents=6, states=3, signals=3, edge_prob=0.5, delta=0.3, mu=0.05,
            iterations=1600, seed_graph=50, seed_weights=51, seed_likelihoods=52,
            seed_signals=53, true_state=1, mode="both", test_mode=True,
            schedule=EventSchedule((Event(200, "set_true_state", 2),
                                    Event(300, "regenerate_graph", 7))),
            out=str(tmp_path / "run"),
        ))
        assert sorted(payloads) == ["manifest.json", "model.json", "summary.json"]
        assert payloads["summary.json"]["diagnostics"]["ratio_second_moment"]
        for name, payload in payloads.items():
            assert (tmp_path / "run" / name).read_text() == indented_json(payload), name


class TestModelFile:
    def test_round_trip_is_exact(self, tmp_path):
        model = random_likelihoods(4, 3, [2, 3, 4, 5], seed=4)
        path = tmp_path / "model.json"
        io.save_model(path, model)
        loaded = io.load_model(path)
        assert loaded.floor == model.floor
        assert loaded.signal_sizes == model.signal_sizes
        for a, b in zip(loaded.tables, model.tables):
            np.testing.assert_array_equal(a, b)
