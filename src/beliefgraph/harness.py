"""Reproducible end-to-end experiments, offline learning and sweeps.

An experiment generates the hidden network and observation models from
named seeds, runs the forward protocol, feeds the public belief stream
to the requested estimator variants and persists every artifact along
with a manifest echoing the full configuration. Re-running a manifest
reproduces each output file byte for byte; the output directory itself
is not part of the manifest. This module alone also reads the bundle
back: its manifest as a config, and the whole bundle in :func:`run_learn`.
"""

from __future__ import annotations

import numbers
from collections import deque
from contextlib import ExitStack
from dataclasses import dataclass, field, fields, replace
from itertools import islice
from pathlib import Path

import numpy as np

from . import io
from .estimator import (
    ESTIMATED,
    KNOWN,
    LearnResult,
    ModeLearners,
    NoSeparationError,
    SteadyStateDiagnostics,
    belief_log_ratios,
    classify_edges,
    learn_graph,
    steady_state_diagnostics,
)
from .model import (
    CombinationMatrix,
    LikelihoodModel,
    erdos_renyi_adjacency,
    mean_likelihood_matrix,
    random_combination_matrix,
    random_likelihoods,
)
from .simulate import CHUNK_STEPS, REGENERATE_GRAPH, Event, EventSchedule, run_simulation

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "run_forward",
    "run_learn",
    "finish_run",
    "sweep",
    "read_manifest",
    "MANIFEST_FORMAT",
]

MANIFEST_FORMAT = "beliefgraph-manifest-v2"
# A mode's entry in summary.json, where a deviation without ground truth
# (NaN) or diverged (inf) is null.
_SUMMARY_KEYS = ("steady_state_msd", "final_msd", "diverged_at", "edge_accuracy",
                 "classify_error")


def _is_number(value, kind=numbers.Real) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


# The type test and fault of each kind of configuration field, in the
# order validate() lists type faults; a choice or a path has none. A value
# of another type, such as a string from a config file or a flag, is
# named before any check compares it.
_KINDS = {
    "integer": (lambda v: _is_number(v, numbers.Integral), "must be an integer"),
    "real": (_is_number, "must be a number"),
    "integers": (lambda v: all(_is_number(z, numbers.Integral) for z in (
        v if isinstance(v, (tuple, list)) else (v,))),
        "must be an integer or a list of integers"),
    "optional real": (lambda v: v is None or _is_number(v), "must be a number"),
    "flag": (lambda v: isinstance(v, bool), "must be true or false"),
}
_POSITIVE = (lambda v: 0 < v < np.inf, "must be positive and finite")


def _at_least(low: int):
    return (lambda v: v >= low, f"must be at least {low}")


def _field(default, kind: str, help: str, check=None, *, choices=None, flag=None,
           metavar=None):
    """A configuration field with its spec: its kind, its flag's help
    text, its range ``check`` (a test and the fault it names) or its
    ``choices``, and its flag and metavar where argparse's do not fit."""
    if choices is not None:
        check = (lambda v: v in choices,
                 f"must be {', '.join(choices[:-1])} or {choices[-1]}")
    return field(default=default, metadata={
        "kind": kind, "help": help, "check": check, "choices": choices,
        "flag": flag, "metavar": metavar,
    })


def _plain(value):
    """A value as JSON holds it: a numpy scalar as the Python number it
    holds, a tuple as a list."""
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value.item() if isinstance(value, np.generic) else value


class ConfigError(ValueError):
    """An experiment configuration violates its invariants."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete, explicit description of one experiment.

    Every random choice is pinned by one of the named seeds, so a
    configuration identifies its outputs exactly. ``mode`` selects
    which estimator variants run: ``"known"``, ``"estimated"`` or
    ``"both"``. ``out`` is the output directory; with ``None`` the
    experiment runs in memory only.

    Each field but ``schedule`` carries its spec (see ``_field``), from
    which :meth:`validate` and the command line's flags are built.
    """

    agents: int = _field(30, "integer", "number of agents", _at_least(1))
    states: int = _field(4, "integer", "number of hypotheses", _at_least(2))
    signals: int | tuple[int, ...] = _field(
        4, "integers", "signal-space size, one value or one per agent",
        metavar="N[,N...]")
    edge_prob: float = _field(0.2, "real", "arc probability of the random graph",
                              (lambda v: 0 < v <= 1, "must be in (0, 1]"))
    delta: float = _field(0.05, "real", "belief adaptation step size, in (0,1)",
                          (lambda v: 0 < v < 1, "must be in (0, 1)"))
    mu: float = _field(0.01, "real", "estimator learning rate", _POSITIVE)
    iterations: int = _field(15000, "integer", "number of iterations", _at_least(1),
                             flag="--iters")
    seed_graph: int = _field(0, "integer", "seed for the adjacency draw", _at_least(0))
    seed_weights: int = _field(1, "integer", "seed for the weight draw", _at_least(0))
    seed_likelihoods: int = _field(2, "integer", "seed for the observation models",
                                   _at_least(0))
    seed_signals: int = _field(3, "integer", "seed for the signal stream", _at_least(0))
    mode: str = _field("both", "choice", "estimator variant(s) to run",
                       choices=("known", "estimated", "both"))
    true_state: int = _field(0, "integer", "initial true hypothesis index")
    reference: int = _field(0, "integer", "reference hypothesis index")
    schedule: EventSchedule = field(default_factory=EventSchedule)
    test_mode: bool = _field(False, "flag", "record private signal data for validation")
    likelihood_floor: float = _field(0.01, "real", "probability floor", _POSITIVE)
    kl_floor: float = _field(1e-3, "real", "identifiability margin", _POSITIVE)
    max_attempts: int = _field(1000, "integer", "resampling budget for generation",
                               _at_least(1))
    classify_method: str = _field("two-means", "choice", "edge classification method",
                                  choices=("two-means", "threshold"))
    classify_threshold: float | None = _field(
        None, "optional real", "threshold for the threshold classifier",
        (lambda v: v is None or np.isfinite(v), "must be finite"))
    out: str | None = _field(None, "path", "output directory")

    def validate(self) -> None:
        """Raise :class:`ConfigError` naming every type fault or, when
        there is none, every range fault, each list in a fixed order."""
        specs = [f for f in fields(self) if f.metadata]
        problems = [f"{f.name} {fault}" for kind, (test, fault) in _KINDS.items()
                    for f in specs
                    if f.metadata["kind"] == kind and not test(getattr(self, f.name))]
        if problems:
            raise ConfigError("; ".join(problems))
        sizes = (self.signals,) if np.isscalar(self.signals) else tuple(self.signals)
        # The checks of a field against others, made when its own holds.
        related = {
            "signals": [(np.isscalar(self.signals) or len(sizes) == self.agents,
                         "signals must be a scalar or one size per agent"),
                        (min(sizes, default=2) >= 2,
                         "signal spaces need at least two outcomes")],
            "true_state": [(0 <= self.true_state < self.states,
                            "true_state out of range")],
            "reference": [(0 <= self.reference < self.states, "reference out of range")],
            "likelihood_floor": [(self.likelihood_floor * max(sizes, default=0) < 1,
                                  "likelihood_floor too large for the signal space")],
            "classify_threshold": [(self.classify_threshold is not None
                                    or self.classify_method != "threshold",
                                    "threshold classification needs classify_threshold")],
        }
        for f in specs:
            check = f.metadata["check"]
            if check is not None and not check[0](getattr(self, f.name)):
                problems.append(f"{f.name} {check[1]}")
            else:
                problems += [fault for holds, fault in related.get(f.name, ())
                             if not holds]
        for event in self.schedule:
            if event.iteration > self.iterations:
                problems.append(f"event at iteration {event.iteration} is beyond the run")
            if event.action == "set_true_state" and not 0 <= event.value < self.states:
                problems.append(f"event state {event.value} out of range")
            elif event.action == "regenerate_graph" and event.value < 0:
                problems.append(f"event seed {event.value} out of range")
        if problems:
            raise ConfigError("; ".join(problems))

    def to_dict(self) -> dict:
        """JSON-ready mapping of all fields except the output directory,
        with numpy scalars written as plain numbers."""
        payload = {f.name: _plain(getattr(self, f.name)) for f in fields(self)
                   if f.name != "out"}
        payload["schedule"] = [{name: _plain(value) for name, value in vars(e).items()}
                               for e in self.schedule]
        return payload

    @classmethod
    def from_dict(cls, payload: dict, out: str | None = None) -> "ExperimentConfig":
        """Build a configuration from a mapping (a config file or the
        ``config`` section of a manifest). The schedule's events may come
        in any order."""
        payload = dict(payload)
        payload.pop("out", None)
        known_names = {f.name for f in fields(cls)}
        unknown = set(payload) - known_names
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if "schedule" in payload:
            events = payload["schedule"]
            if not isinstance(events, list) or not all(
                isinstance(e, dict) and isinstance(e.get("action"), str)
                and _is_number(e.get("iteration"), numbers.Integral)
                and _is_number(e.get("value"), numbers.Integral) for e in events
            ):
                raise ConfigError("schedule must be a list of objects, each with an "
                                  "integer iteration and value and a string action")
            try:
                payload["schedule"] = EventSchedule(tuple(
                    Event(e["iteration"], e["action"], e["value"])
                    for e in sorted(events, key=lambda e: e["iteration"])
                ))
            except ValueError as err:
                raise ConfigError(f"schedule: {err}") from err
        if isinstance(payload.get("signals"), list):
            payload["signals"] = tuple(payload["signals"])
        return cls(out=out, **payload)


def read_manifest(path, bundle: bool = False) -> dict:
    """The config mapping of the manifest, or of the config file (read
    with ``bundle`` unset and holding no ``format`` or ``config`` key),
    at ``path``. A manifest needs a ``format`` of v2 and a ``config``
    object; a fault names the file, as bad input (``ValueError``) in a
    bundle, else as a :class:`ConfigError`."""
    fault = ValueError if bundle else ConfigError
    payload = io.load_json(path)
    if not isinstance(payload, dict):
        raise fault(f"{path}: expected a JSON object, a config or a manifest with "
                    f"'format' and 'config'")
    if not bundle and not {"format", "config"} & payload.keys():
        return payload
    form = payload.get("format")
    if form != MANIFEST_FORMAT:
        raise fault(f"{path}: 'format' must be {MANIFEST_FORMAT}"
                    + ("" if form is None else f", not {form!r}"))
    if not isinstance(payload.get("config"), dict):
        raise fault(f"{path}: a manifest needs a 'config' object")
    return payload["config"]


# The files whose presence marks a directory as holding a run: a bundle,
# the output of learn, or a sweep's table.
_RUN_FILES = ("manifest.json", "summary.json", "sweep.csv")


def _out_dir(out) -> Path | None:
    """``out`` as a path (``None`` when unset), refused if it holds a
    run's ``manifest.json``, ``summary.json`` or ``sweep.csv`` already,
    so that a run never mixes its files with another's."""
    if not out:
        return None
    out = Path(out)
    if any((out / name).exists() for name in _RUN_FILES):
        raise ConfigError(f"{out} already holds a run; write to another directory")
    return out


@dataclass
class ExperimentResult:
    """Everything produced by one experiment."""

    config: ExperimentConfig
    model: LikelihoodModel
    combination: CombinationMatrix
    final_combination: CombinationMatrix
    initial_msd: float
    divergent: bool
    vote_match_rate: float | None
    graph_attempts: int
    modes: dict[str, LearnResult]
    true_states: np.ndarray
    graph_epochs: np.ndarray
    diagnostics: SteadyStateDiagnostics | None
    out_dir: Path | None


def _diagnostics_payload(diag: SteadyStateDiagnostics | None):
    if diag is None:
        return None
    return {f.name: np.asarray(getattr(diag, f.name)).tolist() for f in fields(diag)}


def _generate(config: ExperimentConfig):
    """The run's initial combination matrix, its likelihood model and
    the number of graph draws it took, all from the named seeds."""
    adjacency, graph_attempts = erdos_renyi_adjacency(
        config.agents, config.edge_prob, config.seed_graph, config.max_attempts
    )
    combination = random_combination_matrix(adjacency, config.seed_weights)
    model = random_likelihoods(
        config.agents,
        config.states,
        config.signals,
        config.seed_likelihoods,
        floor=config.likelihood_floor,
        kl_floor=config.kl_floor,
        max_attempts=config.max_attempts,
    )
    return combination, model, graph_attempts


def _simulate(config: ExperimentConfig, combination: CombinationMatrix,
              model: LikelihoodModel, out: Path | None = None,
              record: dict | None = None):
    """The forward protocol of one run, as the ``(block, true_state,
    combination)`` triples :func:`learn_graph` takes: its chunks' row-0
    steps (see :func:`run_simulation`), whose other steps are drawn and
    dropped. With ``out`` set, each chunk's block (and, in test mode,
    its private signal ratios) is appended to the forward bundle there
    as it passes, and the rest of the bundle is written when the chunks
    run out. Then ``record``, if given, is filled with the true state
    and graph epoch of every iteration (``true_states``,
    ``graph_epochs``), the events by iteration (``events``) and the
    combination matrix of every graph epoch (``epochs``); in test mode
    with the public log-beliefs and private signal ratios of every
    iteration too (``public``, ``private``), which the diagnostics read.
    """
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    T = config.iterations
    true_states = np.empty(T, dtype=int)
    graph_epochs = np.empty(T, dtype=int)
    events: dict[int, str] = {}
    # Epoch 0 is the run's initial matrix, also when a regenerate_graph
    # event at iteration 1 means no step runs under it.
    epochs = [combination]
    n, S = model.num_agents, model.num_states
    kept = config.test_mode and record is not None
    public = np.empty((T, n, S)) if kept else None
    private = np.empty((T, n, S - 1)) if kept else None
    stream = run_simulation(
        model, combination, config.true_state, config.delta, T, config.seed_signals,
        schedule=config.schedule, record_private=config.test_mode,
        edge_prob=config.edge_prob, regen_max_attempts=config.max_attempts,
        reference=config.reference,
    )
    with ExitStack() as files:
        beliefs = ratios = None
        if out is not None:
            beliefs = files.enter_context(
                io.BeliefStreamWriter(out / "beliefs.npy", (T, n, S)))
            if config.test_mode:
                ratios = files.enter_context(
                    io.BeliefStreamWriter(out / "private_ratios.npy", (T, n, S - 1)))
        # Row 0 of each chunk stands for the chunk.
        for step in stream:
            deque(islice(stream, len(step.block) - 1), maxlen=0)
            rows = slice(step.iteration - 1, step.iteration - 1 + len(step.block))
            true_states[rows] = step.true_state
            graph_epochs[rows] = step.graph_epoch
            if step.event:
                events[step.iteration] = step.event
            if step.graph_epoch == len(epochs):
                epochs.append(step.combination)
            if beliefs is not None:
                beliefs.append(step.block)
            if ratios is not None:
                ratios.append(step.private_block)
            if kept:
                public[rows] = step.block
                private[rows] = step.private_block
            yield step.block, step.true_state, step.combination

    if out is not None:
        for epoch, truth in enumerate(epochs):
            io.write_matrix(out / f"true_matrix_{epoch:03d}.csv", truth.weights)
        io.save_model(out / "model.json", model)
        io.write_trace(
            out / "trace.csv", np.arange(1, T + 1), true_states, graph_epochs, events
        )
        io.save_json(out / "manifest.json", {
            "format": MANIFEST_FORMAT,
            "config": config.to_dict(),
        })
    if record is not None:
        record.update(true_states=true_states, graph_epochs=graph_epochs,
                      events=events, epochs=epochs, public=public, private=private)


def finish_run(
    learned: dict[str, LearnResult],
    matrices: dict[int, CombinationMatrix],
    graph_epochs: np.ndarray,
    true_states: np.ndarray | None,
    events: dict[int, str],
    config: ExperimentConfig,
    out: Path | None,
    **extra,
) -> tuple[dict[str, LearnResult], dict]:
    """Classify and score each mode's learned result and compute the
    run's values; with ``out`` set, write them there.

    ``matrices`` holds the combination matrix of each known graph epoch,
    and ``graph_epochs`` and ``true_states`` (``None`` when unknown) the
    epoch and true state of each step. Each estimate is classified as
    ``config`` says and scored against the matrix in force at the end of
    the stream. The run's values are the zero estimate's deviation from
    the matrix in force at step 1 (``initial_msd``), whether a mode
    diverged (``divergent``) and the share of steps whose vote is the
    true state (``vote_match_rate``); a value without its data is
    ``None``. Writes each mode's learned and classified matrices,
    ``msd.csv`` (the modes with a finite deviation, marked with
    ``events``) and ``summary.json``: the run's values, ``extra`` and
    each mode's ``_SUMMARY_KEYS`` under ``"modes"``. Each mode's result
    comes back with its classification filled in.

    A mode whose estimate holds the known result's bytes (``-0.0`` and
    ``0.0`` are written apart) takes over its classification and writes
    the bytes of its files, so a trajectory the modes share is
    classified and formatted once.
    """
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    final = matrices.get(int(graph_epochs[-1]))
    modes: dict[str, LearnResult] = {}
    written: dict[tuple[str, str], bytes] = {}  # each file's bytes by mode and name
    for mode, result in learned.items():
        twin = modes.get(KNOWN)
        shared = twin is not None and twin.estimate.tobytes() == result.estimate.tobytes()
        classified = classify_error = edge_accuracy = None
        if shared:
            classify_error = twin.classify_error
            if twin.classified is not None:
                classified = twin.classified.copy()
        else:
            try:
                classified = classify_edges(
                    result.estimate, config.classify_method, config.classify_threshold
                )
            except NoSeparationError as err:
                classify_error = str(err)
        if classified is not None and final is not None:
            edge_accuracy = float((classified == final.adjacency).mean())
        for name, matrix, write in (
            ("learned_matrix", result.estimate, io.write_matrix),
            ("classified_adjacency", classified, io.write_adjacency),
        ):
            if out is None or matrix is None:
                continue
            if shared:
                (out / f"{name}_{mode}.csv").write_bytes(written[KNOWN, name])
            else:
                written[mode, name] = write(out / f"{name}_{mode}.csv", matrix)
        modes[mode] = replace(result, classified=classified,
                              edge_accuracy=edge_accuracy, classify_error=classify_error)
    first = matrices.get(int(graph_epochs[0]))
    votes = modes[ESTIMATED].votes if ESTIMATED in modes else None
    run = {
        "initial_msd": None if first is None else float(np.sum(first.weights**2)),
        "divergent": any(m.diverged_at is not None for m in modes.values()),
        "vote_match_rate": None if votes is None or true_states is None
        else float((votes == true_states).mean()),
    }
    if out is not None:
        deviations = {m: r.msd for m, r in modes.items() if np.isfinite(r.msd).any()}
        if deviations:
            T = len(graph_epochs)
            io.write_msd_table(out / "msd.csv", np.arange(1, T + 1), deviations, events)
        io.save_json(out / "summary.json", {**run, **extra, "modes": {
            m: {key: getattr(r, key) for key in _SUMMARY_KEYS} for m, r in modes.items()
        }})
    return modes, run


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Generate, simulate, learn and persist one full experiment.

    The observer variants learn through :func:`learn_graph`, as
    :func:`run_learn` does, on the run's chunks as they are drawn: they
    see only the shared belief stream and the likelihood model; private
    signals are recorded (to the ratio stream
    file and for the steady-state diagnostics) only when
    ``config.test_mode`` is set.
    """
    config.validate()
    out = _out_dir(config.out)
    combination, model, graph_attempts = _generate(config)

    record: dict = {}
    learned = learn_graph(_simulate(config, combination, model, out, record), model,
                          config.mu, config.delta, config.mode, config.reference)
    true_states, graph_epochs = record["true_states"], record["graph_epochs"]
    epochs, public = record["epochs"], record["public"]

    diagnostics = None
    if public is not None:
        # The stationary stretch runs from the last event on.
        first = max(1, config.schedule.last_iteration()) - 1
        expected = mean_likelihood_matrix(
            model, int(true_states[-1]), config.reference
        )
        try:
            diagnostics = steady_state_diagnostics(
                belief_log_ratios(public[first:], config.reference),
                record["private"][first:],
                expected,
                config.mu,
                config.delta,
            )
        except ValueError:
            diagnostics = None  # run too short for moment estimates

    modes, run = finish_run(
        learned, dict(enumerate(epochs)), graph_epochs, true_states,
        record["events"], config, out, graph_attempts=graph_attempts,
        diagnostics=_diagnostics_payload(diagnostics),
    )
    return ExperimentResult(
        config=config,
        model=model,
        combination=combination,
        final_combination=epochs[-1],
        graph_attempts=graph_attempts,
        modes=modes,
        true_states=true_states,
        graph_epochs=graph_epochs,
        diagnostics=diagnostics,
        out_dir=out,
        **run,
    )


def run_forward(config: ExperimentConfig) -> Path:
    """Run and persist the forward simulation only.

    Writes the manifest, the likelihood model, the true matrices per
    graph epoch, the public belief stream and the ground-truth trace
    (plus the private ratio stream in test mode) to ``config.out``,
    which is required here. Returns the output directory.
    """
    config.validate()
    out = _out_dir(config.out)
    if out is None:
        raise ConfigError("a forward run needs an output directory")
    combination, model, _ = _generate(config)
    deque(_simulate(config, combination, model, out), maxlen=0)
    return out


def _true_matrix(path: Path, num_agents: int) -> tuple[int, CombinationMatrix]:
    """The graph epoch a bundle's ``true_matrix_NNN.csv`` names, in
    digits, and its matrix. A malformed file or name, or a matrix of
    another size than ``num_agents``, raises ``ValueError`` naming it."""
    epoch = path.stem.removeprefix("true_matrix_")
    try:
        if not (epoch.isascii() and epoch.isdigit()):
            raise ValueError(f"the graph epoch {epoch!r} is not a number in digits")
        epoch, weights = int(epoch), io.read_matrix(path)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    if weights.shape != (num_agents, num_agents):
        raise ValueError(f"{path} holds a matrix of shape {weights.shape}, but the "
                         f"model has {num_agents} agents")
    try:
        return epoch, CombinationMatrix(weights)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def _load_truth(run_dir: Path, num_steps: int, model: LikelihoodModel,
                schedule: EventSchedule):
    """Ground truth of the stream recorded in bundle ``run_dir``: the
    true state of each step (``None`` without a trace), the graph epoch
    of each step, the combination matrix of each epoch the bundle holds
    and the events by iteration. Two matrix files of one epoch are refused.

    A trace must hold iterations ``1..num_steps`` in order, true states
    of the ``model`` and graph epochs that start at 0 and rise by one at
    each ``regenerate_graph`` event and nowhere else. In a bundle that
    holds true matrices, the trace's last epoch must have one or be an
    epoch of the run's ``schedule``: the steps of a run epoch whose
    matrix file is missing are only left unscored.
    """
    num_states, trace = model.num_states, None
    if (run_dir / "trace.csv").exists():
        trace = io.read_trace(run_dir / "trace.csv")
        if not np.array_equal(trace["iterations"], np.arange(1, num_steps + 1)):
            raise ValueError(f"the trace must hold iterations 1..{num_steps} of the "
                             f"belief stream, one row each, in order")
        states = trace["true_states"]
        outside = np.flatnonzero((states < 0) | (states >= num_states))
        if outside.size:
            first = outside[0]
            raise ValueError(f"the trace holds true state {states[first]} at iteration "
                             f"{first + 1}, outside 0..{num_states - 1}")
        regenerated = np.zeros(num_steps, dtype=int)
        for iteration, event in trace["events"].items():
            regenerated[iteration - 1] = event == REGENERATE_GRAPH
        expected = np.cumsum(regenerated)
        wrong = np.flatnonzero(trace["graph_epochs"] != expected)
        if wrong.size:
            first = wrong[0]
            raise ValueError(
                f"the trace puts iteration {first + 1} in graph epoch "
                f"{trace['graph_epochs'][first]}, not {expected[first]}: "
                f"graph epochs start at 0 and rise by one at each "
                f"{REGENERATE_GRAPH} event and nowhere else"
            )
    matrices, paths = {}, {}
    for path in sorted(run_dir.glob("true_matrix_*.csv")):
        epoch, matrix = _true_matrix(path, model.num_agents)
        if epoch in matrices:
            raise ValueError(f"{paths[epoch]} and {path} both hold graph epoch {epoch}")
        matrices[epoch], paths[epoch] = matrix, path
    if trace is None:
        # The trace says which graph epoch each step belongs to; without
        # it, only a single-epoch bundle pins the matrix of every step.
        epochs = np.zeros(num_steps, dtype=int)
        return None, epochs, matrices if len(matrices) == 1 else {}, {}
    last = trace["graph_epochs"][-1]
    regenerations = sum(e.action == REGENERATE_GRAPH for e in schedule)
    if matrices and last > max(max(matrices), regenerations):
        raise ValueError(f"the trace reaches graph epoch {last}, but the bundle "
                         f"holds no true_matrix_{last:03d}.csv")
    return trace["true_states"], trace["graph_epochs"], matrices, trace["events"]


def _recorded_blocks(log_beliefs, true_states, graph_epochs, matrices):
    """The ``(block, true_state, combination)`` triples of a recorded
    stream, with its ground truth as :func:`_load_truth` gives it. Each
    block is a view of at most ``CHUNK_STEPS`` snapshots that ends
    before every change of the true state or the graph epoch, as the
    simulator's chunks do, so the learners' per-block arrays stay
    bounded whatever the stream's length."""
    changed = np.diff(graph_epochs) != 0
    if true_states is not None:
        changed |= np.diff(true_states) != 0
    bounds = [0, *(np.flatnonzero(changed) + 1).tolist(), len(log_beliefs)]
    for start, end in zip(bounds, bounds[1:]):
        for first in range(start, end, CHUNK_STEPS):
            yield (
                log_beliefs[first:min(first + CHUNK_STEPS, end)],
                None if true_states is None else int(true_states[first]),
                matrices.get(int(graph_epochs[first])),
            )


def run_learn(flags: dict, run):
    """Learn the graph offline from the bundle in directory ``run``
    (``beliefs.npy`` and ``model.json``, with the run's ``manifest.json``,
    ``trace.csv`` and true matrices where known) and finish the run in
    ``flags["out"]``. The manifest, else the defaults in estimated mode
    sized to the model, configures it, with ``flags`` (config fields by
    name; without a manifest, ``delta`` among them) applied over it.
    Returns :func:`finish_run`'s modes and run values and the output
    directory."""
    if not run:
        raise ConfigError("learn needs --run DIR")
    run_dir = Path(run)
    for path in (run_dir, run_dir / "beliefs.npy", run_dir / "model.json"):
        if not path.exists():
            raise FileNotFoundError(f"{path} does not exist")
    out = _out_dir(flags.get("out"))
    if out is None:
        raise ConfigError("an output directory is required (--out)")

    manifest = run_dir / "manifest.json"
    config = (ExperimentConfig.from_dict(read_manifest(manifest, bundle=True))
              if manifest.exists() else None)
    if config is None and "delta" not in flags:
        raise ConfigError("learn needs --delta (not found in a manifest)")
    model = io.load_model(run_dir / "model.json")
    if config is None:
        config = ExperimentConfig(
            agents=model.num_agents, states=model.num_states, mode=ESTIMATED
        )
    config = replace(config, **flags)
    config.validate()

    log_beliefs = io.read_belief_stream(run_dir / "beliefs.npy")
    if log_beliefs.shape[1:] != (model.num_agents, model.num_states):
        raise ValueError(
            f"the belief stream has {log_beliefs.shape[1]} agents and "
            f"{log_beliefs.shape[2]} states, the model {model.num_agents} agents "
            f"and {model.num_states} states"
        )
    if not np.isfinite(log_beliefs).all():
        step, agent, state = np.argwhere(~np.isfinite(log_beliefs))[0]
        raise ValueError(f"the belief stream holds a non-finite log-belief at "
                         f"iteration {step + 1}, agent {agent}, state {state}")
    true_states, graph_epochs, matrices, events = _load_truth(
        run_dir, len(log_beliefs), model, config.schedule)
    if config.mode != ESTIMATED and true_states is None:
        raise ConfigError("known mode needs a ground-truth trace")

    blocks = _recorded_blocks(log_beliefs, true_states, graph_epochs, matrices)
    learned = learn_graph(blocks, model, config.mu, config.delta, config.mode,
                          config.reference)
    modes, values = finish_run(learned, matrices, graph_epochs, true_states, events,
                               config, out)
    return modes, values, out


def sweep(
    config: ExperimentConfig,
    mu_values=None,
    delta_values=None,
) -> list[dict]:
    """Run one experiment per grid point over ``mu`` and/or ``delta``.

    Each grid point reruns the base configuration, in memory, with the
    substituted parameters and without test mode's private stream. The
    K points run in lockstep, each on its own world and forward pass
    (see ``_simulate``), into one :class:`ModeLearners` of K
    trajectories, one per point, where :func:`run_experiment` feeds one
    of K = 1; each chunk's K blocks go in stacked, with their true
    states and matrices. The points share their length and schedule
    (they differ only in mu and delta), so their chunks end at the same
    iterations. They go in chunks of at most ``CHUNK_STEPS`` rows per
    point; the learners' scratch holds ``SETTLE_STEPS x K x n^2``
    doubles (see :class:`GraphLearner`). Each point's deviations equal those of
    :func:`run_experiment` on it, bit for bit; no estimate is classified.
    The steady-state deviation is the mean over the final tenth of each
    trajectory. Rows come back sorted by (mu, delta, mode) and are
    written to ``sweep.csv`` under the base configuration's output
    directory, when one is set.

    Every grid point is validated, and the output directory checked,
    before any runs: an invalid point raises :class:`ConfigError` with the
    point named, as does a directory that already holds a run or a sweep
    (see ``_out_dir``). A failure while drawing a valid point's world
    raises ``RuntimeError`` with the point named, and one while the
    points run, with every point named. Divergent runs are flagged in
    their row, not raised.
    """
    config.validate()
    mu_list = (
        [config.mu] if mu_values is None
        else sorted(set(float(m) for m in mu_values))
    )
    delta_list = (
        [config.delta] if delta_values is None
        else sorted(set(float(d) for d in delta_values))
    )
    if not mu_list or not delta_list:
        raise ConfigError("the sweep grid is empty")

    points = [
        replace(config, mu=mu, delta=delta, out=None, test_mode=False)
        for mu in mu_list for delta in delta_list
    ]
    for point in points:
        try:
            point.validate()
        except ConfigError as err:
            raise ConfigError(
                f"grid point mu={point.mu}, delta={point.delta}: {err}"
            ) from err
    out = _out_dir(config.out)

    def failure(failed, err):
        names = "; ".join(f"mu={p.mu}, delta={p.delta}" for p in failed)
        plural = "s" if len(failed) > 1 else ""
        return RuntimeError(f"grid point{plural} {names} failed: {err}")

    runs = []
    for point in points:
        try:
            combination, model, _ = _generate(point)
        except Exception as err:
            raise failure([point], err) from err
        runs.append((point, combination, model))
    # The grid varies only mu and delta, so every point draws one model.
    learners = ModeLearners(model, [p.mu for p in points], [p.delta for p in points],
                            config.mode, config.reference)
    try:
        for chunks in zip(*(_simulate(*run) for run in runs)):
            blocks, states, matrices = zip(*chunks)
            learners.consume(np.array(blocks), np.array(states), matrices)
            # zip refills its own tuple only when nothing else holds it;
            # otherwise it keeps that tuple, and so a chunk two back (245 KB
            # a point at the reference size), alive beside the next one.
            del chunks
    except Exception as err:
        raise failure(points, err) from err

    rows: list[dict] = []
    for point, results in zip(points, learners.results()):
        for mode in sorted(results):
            rows.append({
                "mu": point.mu,
                "delta": point.delta,
                "mode": mode,
                "steady_state_msd": results[mode].steady_state_msd,
                "divergent": results[mode].diverged_at is not None,
            })

    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        lines = ["mu,delta,mode,steady_state_msd,divergent"]
        for row in rows:
            lines.append(
                f"{row['mu']:.17g},{row['delta']:.17g},{row['mode']},"
                f"{row['steady_state_msd']:.17g},{int(row['divergent'])}"
            )
        (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    return rows
