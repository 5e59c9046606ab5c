"""Spans around the calls into each beliefgraph layer, recorded from the
benchmark's side.

:func:`install` replaces every public function the benchmark traces
with a wrapper: both the attribute of the defining module and every
binding another ``beliefgraph`` module took with ``from ... import``
(``harness.run_simulation``, ``harness.msd``, ``cli.learn_graph``, ...).
Methods are wrapped on their class. The program itself is not changed.

A wrapper records only while a root span is open (the benchmark opens
one around each timed call), so calls the benchmark makes for its own
checks stay out of the numbers. Spans are kept in flat arrays in memory
(name, start, end, parent) and written out once, at the end of a run. A layer's self time is its span's
duration minus the durations of its direct children; children nest
inside their parent because all calls run on one thread.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (defining module, function or Class.method). The span name is
# "<module>.<function>"; GraphLearner.step gets its mode appended and
# cli.main its subcommand (the learn subcommand shows as "cli.learn").
TARGETS = (
    ("model", "erdos_renyi_adjacency"),
    ("model", "random_combination_matrix"),
    ("model", "random_likelihoods"),
    ("model", "mean_likelihood_matrix"),
    ("simulate", "run_simulation"),
    ("simulate", "sample_observations"),
    ("simulate", "adapt_step"),
    ("simulate", "combine_step"),
    ("estimator", "GraphLearner.step"),
    ("estimator", "belief_log_ratios"),
    ("estimator", "majority_vote"),
    ("estimator", "gradient_step"),
    ("estimator", "msd"),
    ("estimator", "classify_edges"),
    ("estimator", "learn_graph"),
    ("io", "BeliefStreamWriter.append"),
    ("io", "read_belief_stream"),
    ("io", "write_msd_table"),
    ("io", "write_trace"),
    ("io", "write_matrix"),
    ("io", "read_matrix"),
    ("io", "write_adjacency"),
    ("io", "read_trace"),
    ("io", "save_model"),
    ("io", "load_model"),
    ("io", "save_json"),
    ("harness", "run_experiment"),
    ("harness", "sweep"),
    ("cli", "main"),
)


def _span_names(module: str, attr: str) -> tuple[str, ...]:
    if attr == "GraphLearner.step":
        return tuple(f"estimator.GraphLearner.step.{m}" for m in ("known", "estimated"))
    if attr == "main":
        return ("cli.learn",)  # the only subcommand the workloads call
    return (f"{module}.{attr}",)


# The span names the results report, in TARGETS order.
SPAN_NAMES = tuple(n for module, attr in TARGETS for n in _span_names(module, attr))


class Tracer:
    """In-memory span store plus the counters taken at the same
    boundaries."""

    def __init__(self, max_spans: int = 2_000_000):
        self.max_spans = max_spans
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack: list[int] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._streams: list[set] = []

    @property
    def recording(self) -> bool:
        return bool(self._stack)

    @property
    def full(self) -> bool:
        return len(self.start) >= self.max_spans

    def open(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(self._name_ids[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(-1)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    def new_pass(self) -> None:
        """Start counting a new pass over the workload."""
        self._streams.append(set())

    def note_stream(self, key: str) -> None:
        self._streams[-1].add(key)

    def distinct_streams_per_call(self) -> float:
        """Distinct simulated streams over simulations, averaged over passes."""
        calls = self.calls["simulate.run_simulation"]
        if not calls:
            return 0.0
        return sum(len(s) for s in self._streams) / calls

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Per-span self time in ns: duration minus the direct children's."""
    duration = spans["end"] - spans["start"]
    has_parent = spans["parent"] >= 0
    children = np.bincount(
        spans["parent"][has_parent],
        weights=duration[has_parent],
        minlength=duration.size,
    )
    return duration - children.astype(np.int64)


def summarize(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Total and self time in ns, per span name."""
    spans = tracer.arrays()
    if (spans["end"] < 0).any():
        raise RuntimeError("summarize() called with spans still open")
    duration = spans["end"] - spans["start"]
    own = self_times(spans)
    out = {}
    for index, name in enumerate(tracer.names):
        mask = spans["name_id"] == index
        out[name] = {
            "total_ns": float(duration[mask].sum()),
            "self_ns": float(own[mask].sum()),
        }
    return out


def _stream_key(signature: inspect.Signature, args, kwargs) -> str:
    """Digest of everything that determines a simulated stream."""
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    digest = hashlib.sha1()
    for name, value in bound.arguments.items():
        if name == "model":
            for table in value.tables:
                digest.update(np.ascontiguousarray(table).tobytes())
        elif name == "combination":
            digest.update(np.ascontiguousarray(value.weights).tobytes())
        else:
            digest.update(repr(value).encode())
    return digest.hexdigest()


def _traced_steps(tracer: Tracer, name: str, steps):
    """Re-yield a generator's items, one span around each resumption."""
    while True:
        index = tracer.open(name)
        try:
            item = next(steps)
        except StopIteration:
            return
        finally:
            tracer.close(index)
        tracer.counts[f"{name}.steps"] += 1
        yield item


def _wrapper(tracer: Tracer, module: str, attr: str, original):
    name = f"{module}.{attr}"

    if attr == "run_simulation":
        signature = inspect.signature(original)

        @functools.wraps(original)
        def traced_generator(*args, **kwargs):
            steps = original(*args, **kwargs)
            if not tracer.recording:
                return steps
            tracer.calls[name] += 1
            tracer.note_stream(_stream_key(signature, args, kwargs))
            return _traced_steps(tracer, name, steps)

        return traced_generator

    @functools.wraps(original)
    def traced(*args, **kwargs):
        if not tracer.recording:
            return original(*args, **kwargs)
        span = name
        if attr == "GraphLearner.step":
            span = f"{name}.{args[0].mode}"
        elif attr == "main":
            argv = args[0] if args else kwargs.get("argv")
            span = f"cli.{argv[0] if argv else 'main'}"
        tracer.calls[span] += 1
        if attr == "sweep":
            steps_before = tracer.counts["simulate.run_simulation.steps"]
        index = tracer.open(span)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.close(index)
        if attr == "erdos_renyi_adjacency":
            tracer.counts["model.erdos_renyi_adjacency.attempts"] += result[1]
        elif attr == "sweep":
            tracer.counts["harness.sweep.simulated_steps"] += (
                tracer.counts["simulate.run_simulation.steps"] - steps_before
            )
        return result

    return traced


def install(tracer: Tracer):
    """Wrap every target and return a function that restores them."""
    restore = []
    modules = {m: importlib.import_module(f"beliefgraph.{m}") for m, _ in TARGETS}
    package = [
        mod for key, mod in sorted(sys.modules.items())
        if key == "beliefgraph" or key.startswith("beliefgraph.")
    ]
    for module_name, attr in TARGETS:
        module = modules[module_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, _wrapper(tracer, module_name, attr, original))
            restore.append((cls, method, original))
            continue
        original = getattr(module, attr)
        traced = _wrapper(tracer, module_name, attr, original)
        for mod in package:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    restore.append((mod, key, original))

    def uninstall():
        for owner, key, original in reversed(restore):
            setattr(owner, key, original)

    return uninstall
