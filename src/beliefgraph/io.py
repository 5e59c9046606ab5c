"""Plain-text persistence for runs.

All numeric text is written with 17 significant digits, which
round-trips IEEE doubles exactly: rerunning a configuration reproduces
every output file byte for byte.

File formats
------------
matrix          one line per row, comma-separated ``%.17g`` values
adjacency       same layout with 0/1 entries
belief stream   CSV ``iteration,agent,state,belief`` (shared beliefs,
                probability domain), one row per (iteration, agent, state)
ratio stream    CSV ``iteration,agent,column,value`` (private signal
                log-ratios, validation runs only)
trace           CSV ``iteration,true_state,graph_epoch,event``
deviation table CSV ``iteration,msd,mode,event``
model           JSON with the per-agent probability tables
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .model import LikelihoodModel

__all__ = [
    "write_matrix",
    "read_matrix",
    "write_adjacency",
    "read_adjacency",
    "BeliefStreamWriter",
    "read_belief_stream",
    "RatioStreamWriter",
    "read_ratio_stream",
    "write_trace",
    "read_trace",
    "write_msd_table",
    "read_msd_table",
    "save_model",
    "load_model",
    "save_json",
    "load_json",
]

BELIEF_HEADER = "iteration,agent,state,belief"
RATIO_HEADER = "iteration,agent,column,value"
TRACE_HEADER = "iteration,true_state,graph_epoch,event"
MSD_HEADER = "iteration,msd,mode,event"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_matrix(path, matrix: np.ndarray) -> None:
    matrix = np.asarray(matrix, dtype=float)
    lines = [",".join(_fmt(x) for x in row) for row in matrix]
    Path(path).write_text("\n".join(lines) + "\n")


def read_matrix(path) -> np.ndarray:
    rows = [
        [float(x) for x in line.split(",")]
        for line in Path(path).read_text().splitlines()
        if line
    ]
    return np.array(rows, dtype=float)


def write_adjacency(path, adjacency: np.ndarray) -> None:
    adjacency = np.asarray(adjacency, dtype=bool)
    lines = [",".join("1" if x else "0" for x in row) for row in adjacency]
    Path(path).write_text("\n".join(lines) + "\n")


def read_adjacency(path) -> np.ndarray:
    return read_matrix(path).astype(bool)


class _BlockStreamWriter:
    """CSV stream of one ``(rows, columns)`` block per iteration, written
    as rows ``iteration,row,column,value``.

    Each block is formatted by one ``%``-template, built once per block
    shape, with ``%.17g`` for the value: the bytes are those of
    formatting every row on its own with ``format(value, ".17g")``.
    """

    def __init__(self, path, header: str):
        self._file = open(path, "w")
        self._file.write(header + "\n")
        self._shape = None
        self._template = ""

    def _write_block(self, iteration: int, block: np.ndarray) -> None:
        if block.shape != self._shape:
            rows, cols = block.shape
            self._template = "".join(
                f"%d,{row},{col},%.17g\n" for row in range(rows) for col in range(cols)
            )
            self._shape = block.shape
        values = block.ravel().tolist()
        args = [iteration] * (2 * len(values))
        args[1::2] = values
        self._file.write(self._template % tuple(args))

    def close(self) -> None:
        self._file.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class BeliefStreamWriter(_BlockStreamWriter):
    """Streams shared beliefs to disk, one row per (iteration, agent,
    state), in the probability domain."""

    def __init__(self, path):
        super().__init__(path, BELIEF_HEADER)

    def append(self, iteration: int, shared_log_beliefs: np.ndarray) -> None:
        self._write_block(iteration, np.exp(np.asarray(shared_log_beliefs)))


def _read_block_stream(path, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Read a stream written by :class:`_BlockStreamWriter`, checking
    that every iteration holds the complete block in row-major order."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != 4:
        raise ValueError(f"{name} stream must have four columns")
    num_rows = int(data[:, 1].max()) + 1
    num_cols = int(data[:, 2].max()) + 1
    block = num_rows * num_cols
    if data.shape[0] % block:
        raise ValueError(f"{name} stream has incomplete iterations")
    steps = data.shape[0] // block
    iterations = data[::block, 0].astype(int)
    expected_rows = np.repeat(np.arange(num_rows), num_cols)
    expected_cols = np.tile(np.arange(num_cols), num_rows)
    data = data.reshape(steps, block, 4)
    if (data[:, :, 1] != expected_rows).any() or (data[:, :, 2] != expected_cols).any():
        raise ValueError(f"{name} stream rows out of order")
    if (data[:, :, 0] != iterations[:, None]).any():
        raise ValueError(f"{name} stream iterations out of order")
    return iterations, data[:, :, 3].reshape(steps, num_rows, num_cols)


def read_belief_stream(path) -> tuple[np.ndarray, np.ndarray]:
    """Load a belief stream file.

    Returns
    -------
    iterations : ndarray, shape (T,)
    beliefs : ndarray, shape (T, num_agents, num_states)
        Shared beliefs in the probability domain.
    """
    return _read_block_stream(path, "belief")


class RatioStreamWriter(_BlockStreamWriter):
    """Streams private signal log-ratio matrices to disk."""

    def __init__(self, path):
        super().__init__(path, RATIO_HEADER)

    def append(self, iteration: int, ratios: np.ndarray) -> None:
        self._write_block(iteration, np.asarray(ratios))


def read_ratio_stream(path) -> tuple[np.ndarray, np.ndarray]:
    """Load a ratio stream file; returns iterations and a
    ``(T, num_agents, num_states - 1)`` stack."""
    return _read_block_stream(path, "ratio")


def write_trace(path, iterations, true_states, graph_epochs, events) -> None:
    """Write the ground-truth trace; ``events`` maps an iteration to the
    name of the event applied there."""
    lines = [TRACE_HEADER]
    for i, state, epoch in zip(iterations, true_states, graph_epochs):
        lines.append(f"{i},{state},{epoch},{events.get(int(i), '')}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_trace(path) -> dict:
    iterations, states, epochs = [], [], []
    events: dict[int, str] = {}
    with open(path) as fh:
        header = fh.readline().strip()
        if header != TRACE_HEADER:
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


def write_msd_table(path, iterations, deviations_by_mode: dict, events) -> None:
    """Write deviation trajectories, one row per (iteration, mode)."""
    lines = [MSD_HEADER]
    modes = sorted(deviations_by_mode)
    for idx, i in enumerate(iterations):
        marker = events.get(int(i), "")
        for mode in modes:
            lines.append(f"{i},{_fmt(deviations_by_mode[mode][idx])},{mode},{marker}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_msd_table(path) -> dict[str, np.ndarray]:
    """Load deviation trajectories keyed by mode; also returns the
    iteration axis under the key ``"iteration"``."""
    by_mode: dict[str, list[float]] = {}
    iterations: dict[str, list[int]] = {}
    with open(path) as fh:
        header = fh.readline().strip()
        if header != MSD_HEADER:
            raise ValueError("unrecognized deviation table header")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            i, value, mode, _ = line.split(",")
            by_mode.setdefault(mode, []).append(float(value))
            iterations.setdefault(mode, []).append(int(i))
    out = {mode: np.array(vals) for mode, vals in by_mode.items()}
    first = next(iter(iterations.values()), [])
    out["iteration"] = np.array(first, dtype=int)
    return out


def save_model(path, model: LikelihoodModel) -> None:
    payload = {
        "floor": model.floor,
        "signal_sizes": model.signal_sizes,
        "tables": [t.tolist() for t in model.tables],
    }
    save_json(path, payload)


def load_model(path) -> LikelihoodModel:
    payload = load_json(path)
    return LikelihoodModel(payload["tables"], payload["floor"])


def save_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_json(path):
    return json.loads(Path(path).read_text())
