"""Persistence for runs.

Text files write every number with 17 significant digits, which
round-trips IEEE doubles exactly, and format each table in one pass;
the two streams are binary float64, written a stack of snapshots at a
time, and hold the very values the run produced. Rerunning a
configuration therefore reproduces every output file byte for byte.

File formats
------------
matrix          one line per row, comma-separated ``%.17g`` values
adjacency       same layout with 0/1 entries
belief stream   ``.npy`` (format 1.0), little-endian float64 of shape
                ``(T, num_agents, num_states)``: the shared
                log-beliefs of iterations ``1..T``
ratio stream    ``.npy`` of the same kind, shape
                ``(T, num_agents, num_states - 1)``: the private signal
                log-ratios (validation runs only)
trace           CSV ``iteration,true_state,graph_epoch,event``
deviation table CSV ``iteration,msd,mode,event``
model           JSON with the per-agent probability tables
"""

from __future__ import annotations

import json
import math
from itertools import chain
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
    "write_trace",
    "read_trace",
    "write_msd_table",
    "save_model",
    "load_model",
    "save_json",
    "load_json",
]

TRACE_HEADER = "iteration,true_state,graph_epoch,event"
# One trace row as np.loadtxt parses it: it raises ValueError for a row
# with another number of fields or a non-integer in the first three.
_TRACE_ROW = np.dtype([("iteration", np.int64), ("true_state", np.int64),
                       ("graph_epoch", np.int64), ("event", object)])
MSD_HEADER = "iteration,msd,mode,event"


def write_matrix(path, matrix: np.ndarray) -> None:
    rows, columns = np.shape(matrix)
    line = ",".join(["%.17g"] * columns)
    cells = tuple(np.asarray(matrix, dtype=float).ravel().tolist())
    Path(path).write_text(("\n".join([line] * rows) + "\n") % cells)


def read_matrix(path) -> np.ndarray:
    rows = [
        [float(x) for x in line.split(",")]
        for line in Path(path).read_text().splitlines()
        if line
    ]
    return np.array(rows, dtype=float)


def write_adjacency(path, adjacency: np.ndarray) -> None:
    adjacency = np.asarray(adjacency, dtype=bool)
    # One byte per cell, "0" or "1", each followed by a comma, and the
    # last comma of a row replaced by a newline.
    text = np.full((adjacency.shape[0], 2 * adjacency.shape[1]), ord(","), np.uint8)
    text[:, ::2] = adjacency
    text[:, ::2] += ord("0")
    text[:, -1] = ord("\n")
    Path(path).write_bytes(text.tobytes())


def read_adjacency(path) -> np.ndarray:
    return read_matrix(path).astype(bool)


class BeliefStreamWriter:
    """Writes a float64 stream of ``T`` snapshots, ``(rows, columns)``
    each, fed as ``(k, rows, columns)`` stacks of any ``k``, to an ``.npy``
    file whose header declares ``(T, rows, columns)`` up front; once
    complete, the file equals ``np.save`` of the stream byte for byte.
    Both streams of a bundle use it: the log-beliefs and the log-ratios.
    """

    def __init__(self, path, shape):
        self._shape = tuple(int(n) for n in shape)
        self._snapshots = 0
        self._file = open(path, "wb")
        np.lib.format.write_array_header_1_0(
            self._file, {"descr": "<f8", "fortran_order": False, "shape": self._shape}
        )

    def append(self, stack: np.ndarray) -> None:
        """Write the next ``len(stack)`` snapshots; raises for a stack of
        snapshots of another shape or past the declared ``T``."""
        stack = np.ascontiguousarray(stack, dtype="<f8")
        if stack.shape[1:] != self._shape[1:]:
            raise ValueError(f"stack of shape {stack.shape}, stream of {self._shape}")
        if self._snapshots + len(stack) > self._shape[0]:
            raise ValueError(f"the stream already holds {self._snapshots} of "
                             f"its {self._shape[0]} snapshots")
        self._file.write(stack)
        self._snapshots += len(stack)

    def close(self) -> None:
        self._file.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def read_belief_stream(path) -> np.ndarray:
    """Load a stream written by :class:`BeliefStreamWriter`.

    Returns the ``(T, rows, columns)`` array; row ``t`` is iteration
    ``t + 1``. Raises ``ValueError`` unless the file is exactly an
    ``.npy`` of a 3-D little-endian float64 array with at least one
    block: a stream cut short or too long, a pickled object, another
    dtype or another rank are all rejected.
    """
    with open(path, "rb") as fh:
        try:
            stream = np.lib.format.read_array(fh, allow_pickle=False)
        except ValueError as err:
            raise ValueError(f"{Path(path).name}: {err}") from None
        if fh.read(1):
            raise ValueError(f"{Path(path).name} is longer than its header declares")
    if stream.dtype.str != "<f8" or stream.ndim != 3 or not stream.shape[0]:
        raise ValueError(
            f"{Path(path).name} holds a {stream.dtype.str} array of shape "
            f"{stream.shape}, not little-endian float64 (T >= 1, rows, columns)"
        )
    return stream


def write_trace(path, iterations, true_states, graph_epochs, events) -> None:
    """Write the ground-truth trace; ``events`` maps an iteration to the
    name of the event applied there."""
    iterations = np.asarray(iterations).tolist()
    markers = [events.get(i, "") for i in iterations]
    rows = zip(iterations, np.asarray(true_states).tolist(),
               np.asarray(graph_epochs).tolist(), markers)
    cells = tuple(chain.from_iterable(rows))
    lines = "%s,%s,%s,%s\n" * (len(cells) // 4)
    Path(path).write_text((TRACE_HEADER + "\n" + lines) % cells)


def read_trace(path) -> dict:
    """Load a trace written by :func:`write_trace`. Blank lines are
    skipped; a wrong header or a row without exactly four fields or with
    a non-integer in the first three raises ``ValueError``."""
    header, _, body = Path(path).read_text().partition("\n")
    if header.strip() != TRACE_HEADER:
        raise ValueError("unrecognized trace header")
    lines = [line for line in map(str.strip, body.split("\n")) if line]
    rows = (np.loadtxt(lines, _TRACE_ROW, comments=None, delimiter=",", ndmin=1)
            if lines else np.empty(0, _TRACE_ROW))
    marked = rows[rows["event"] != ""]
    return {
        "iterations": rows["iteration"].astype(int),
        "true_states": rows["true_state"].astype(int),
        "graph_epochs": rows["graph_epoch"].astype(int),
        "events": dict(zip(marked["iteration"].tolist(), marked["event"].tolist())),
    }


def write_msd_table(path, iterations, deviations_by_mode: dict, events) -> None:
    """Write deviation trajectories, one row per (iteration, mode)."""
    iterations = np.asarray(iterations).tolist()
    markers = [events.get(i, "") for i in iterations]
    modes = sorted(deviations_by_mode)
    # An iteration's lines take (iteration, deviation, marker) per mode.
    columns = [column for mode in modes for column in (
        iterations, np.asarray(deviations_by_mode[mode], float).tolist(), markers)]
    lines = "".join(f"%s,%.17g,{mode.replace('%', '%%')},%s\n" for mode in modes)
    cells = tuple(chain.from_iterable(zip(*columns)))
    Path(path).write_text((MSD_HEADER + "\n" + lines * len(iterations)) % cells)


def save_model(path, model: LikelihoodModel) -> None:
    payload = {
        "floor": model.floor,
        "signal_sizes": model.signal_sizes,
        "tables": [t.tolist() for t in model.tables],
    }
    save_json(path, payload)


def load_model(path) -> LikelihoodModel:
    """The model :func:`save_model` wrote to ``path``; a file of another
    JSON shape raises ``ValueError`` naming the file and the field."""
    payload = load_json(path)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object with 'tables' and 'floor'")
    tables, floor = payload.get("tables"), payload.get("floor")
    if not (isinstance(tables, list) and all(
        isinstance(table, list) and all(isinstance(row, list) for row in table)
        for table in tables
    )):
        raise ValueError(f"{path}: 'tables' must be a list of tables of rows")
    if isinstance(floor, bool) or not isinstance(floor, (int, float)):
        raise ValueError(f"{path}: 'floor' must be a number")
    return LikelihoodModel(tables, floor)


def save_json(path, payload) -> None:
    """Write ``payload`` as strict JSON: NaN and infinities, which JSON
    cannot represent, are written as ``null``."""
    text = json.dumps(_finite(payload), indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n")


def _finite(value):
    """``value`` with every non-finite float in its dicts, lists and
    tuples replaced by ``None``, and tuples as lists, as JSON has them."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return value


def load_json(path):
    return json.loads(Path(path).read_text())
