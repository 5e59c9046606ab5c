"""Round trips of every on-disk format, at full precision."""

import numpy as np
import pytest

from beliefgraph import io
from beliefgraph.model import random_likelihoods

# Values whose shortest round-trip text is long or unusual: negatives,
# subnormals, extremes of the exponent range and a signed zero.
AWKWARD = [-1.2345678901234567, 5e-324, 2.5e-310, 1e300, -1e-300, -0.0,
           0.1, 1.0 / 3.0, 123456789.125, -2.0**-1074]


def per_row_layout(header, blocks):
    """A stream file formatted one row at a time with
    ``format(value, ".17g")``, the reference layout of both streams."""
    lines = [header]
    for iteration, block in blocks:
        for row in range(block.shape[0]):
            for col in range(block.shape[1]):
                lines.append(
                    f"{iteration},{row},{col},{format(float(block[row, col]), '.17g')}"
                )
    return "\n".join(lines) + "\n"


def awkward_blocks(rng, count, shape):
    return [
        (t + 1, rng.choice(AWKWARD, size=shape) * rng.choice([1.0, 1.0, 7.0], size=shape))
        for t in range(count)
    ]


class TestMatrixFiles:
    def test_matrix_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        matrix = rng.standard_normal((5, 7)) * 10.0 ** rng.integers(-8, 8, (5, 7))
        path = tmp_path / "m.csv"
        io.write_matrix(path, matrix)
        np.testing.assert_array_equal(io.read_matrix(path), matrix)

    def test_adjacency_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        adjacency = rng.random((6, 6)) < 0.4
        path = tmp_path / "a.csv"
        io.write_adjacency(path, adjacency)
        np.testing.assert_array_equal(io.read_adjacency(path), adjacency)
        assert set(path.read_text()) <= {"0", "1", ",", "\n"}


class TestBeliefStream:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        raw = rng.random((4, 3, 5)) + 1e-3
        logs = np.log(raw / raw.sum(axis=2, keepdims=True))
        path = tmp_path / "beliefs.csv"
        with io.BeliefStreamWriter(path) as writer:
            for t in range(4):
                writer.append(t + 1, logs[t])
        iterations, beliefs = io.read_belief_stream(path)
        np.testing.assert_array_equal(iterations, [1, 2, 3, 4])
        np.testing.assert_array_equal(beliefs, np.exp(logs))

    def test_incomplete_grid_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "iteration,agent,state,belief\n1,0,0,0.5\n1,0,1,0.5\n1,1,0,0.3\n"
        )
        with pytest.raises(ValueError):
            io.read_belief_stream(path)


    def test_bytes_match_the_per_row_layout(self, tmp_path):
        rng = np.random.default_rng(5)
        # exp of these gives subnormal, tiny, ordinary and huge values
        exponents = [-744.0, -709.5, -300.0, -1e-17, 0.0, -1.0 / 3.0, 2.5, 690.0]
        logs = [(t + 1, rng.choice(exponents, size=(7, 3))) for t in range(6)]
        path = tmp_path / "beliefs.csv"
        with io.BeliefStreamWriter(path) as writer:
            for iteration, block in logs:
                writer.append(iteration, block)
        expected = per_row_layout(
            io.BELIEF_HEADER, [(t, np.exp(block)) for t, block in logs]
        )
        assert path.read_bytes() == expected.encode()


class TestRatioStream:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        stack = rng.standard_normal((6, 4, 2))
        path = tmp_path / "ratios.csv"
        with io.RatioStreamWriter(path) as writer:
            for t in range(6):
                writer.append(t + 1, stack[t])
        iterations, loaded = io.read_ratio_stream(path)
        np.testing.assert_array_equal(iterations, np.arange(1, 7))
        np.testing.assert_array_equal(loaded, stack)

    def test_bytes_match_the_per_row_layout(self, tmp_path):
        blocks = awkward_blocks(np.random.default_rng(6), 8, (5, 3))
        blocks.append((10_000_000, np.array([[-0.0, 5e-324, -1e300]])))
        path = tmp_path / "ratios.csv"
        with io.RatioStreamWriter(path) as writer:
            for iteration, block in blocks:
                writer.append(iteration, block)
        assert path.read_bytes() == per_row_layout(io.RATIO_HEADER, blocks).encode()


@pytest.mark.parametrize("writer, reader", [
    (io.BeliefStreamWriter, io.read_belief_stream),
    (io.RatioStreamWriter, io.read_ratio_stream),
])
def test_stream_readers_reject_swapped_rows(tmp_path, writer, reader):
    """Both stream readers check the agent/column order of every block;
    swapping two rows of a block is an error, not a silent relabel."""
    path = tmp_path / "stream.csv"
    with writer(path) as stream:
        for t in range(3):
            stream.append(t + 1, np.log(np.full((2, 2), 0.5)) - t)
    lines = path.read_text().splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="out of order"):
        reader(path)


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


class TestMsdTable:
    def test_round_trip_two_modes(self, tmp_path):
        path = tmp_path / "msd.csv"
        known = np.array([4.0, 2.0, 1.0])
        estimated = np.array([4.0, 2.5, 1.5])
        io.write_msd_table(path, [1, 2, 3], {"known": known, "estimated": estimated},
                           events={2: "set_true_state"})
        table = io.read_msd_table(path)
        np.testing.assert_array_equal(table["known"], known)
        np.testing.assert_array_equal(table["estimated"], estimated)
        np.testing.assert_array_equal(table["iteration"], [1, 2, 3])
        assert ",set_true_state" in path.read_text()


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
