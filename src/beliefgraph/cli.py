"""Command line interface.

Subcommands:

* ``simulate``   forward run only, persisting the public belief stream
* ``learn``      estimate the graph from a recorded belief stream
* ``experiment`` forward run plus online estimation, end to end
* ``sweep``      one experiment per grid point over mu and/or delta

Flags mirror the experiment configuration; ``--config FILE`` loads a
JSON configuration (or a previously written manifest) and explicit
flags override its values. Exit codes: 0 success, 1 invalid
configuration, 2 runtime failure, 3 divergence flagged.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import io
from .estimator import ESTIMATED, learn_graph
from .harness import (
    MANIFEST_FORMAT,
    ConfigError,
    ExperimentConfig,
    finish_run,
    run_experiment,
    run_forward,
    sweep,
)
from .model import CombinationMatrix
from .simulate import CHUNK_STEPS, REGENERATE_GRAPH

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_DIVERGED = 3

# Its bundles hold a probability-domain CSV stream that learn does not
# read; its manifests still configure a re-run.
_V1_FORMAT = "beliefgraph-manifest-v1"


def _parse_signals(text: str):
    parts = [int(p) for p in text.split(",")]
    return parts[0] if len(parts) == 1 else tuple(parts)


# A flag's text read as its field's kind; a choice or a path stays text,
# and so does a value that does not parse, for validate() to name its
# field as it does in a config file.
_PARSERS = {"integer": int, "real": float, "optional real": float,
            "integers": _parse_signals, "flag": bool}
_FIELDS = {f.name: f for f in fields(ExperimentConfig)}


def _add_field_argument(parser, name: str) -> None:
    spec = _FIELDS[name].metadata
    choices = spec["choices"] and "{" + ",".join(spec["choices"]) + "}"
    options = ({"action": "store_true"} if spec["kind"] == "flag"
               else {"metavar": choices or spec["metavar"]})
    parser.add_argument(spec["flag"] or "--" + name.replace("_", "-"), dest=name,
                        default=None, help=spec["help"], **options)


def _flag_values(args) -> dict:
    """The configuration fields set by flags, by name."""
    values = {}
    for name, f in _FIELDS.items():
        text = getattr(args, name, None)
        if text is not None:
            try:
                values[name] = _PARSERS.get(f.metadata["kind"], str)(text)
            except ValueError:
                values[name] = text
    return values


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    g = parser.add_argument_group("experiment configuration")
    g.add_argument("--config", metavar="FILE",
                   help="JSON config file or manifest; flags override it")
    for name, f in _FIELDS.items():
        if f.metadata:
            _add_field_argument(g, name)
            continue
        # The schedule is built from the timed-event flags.
        g.add_argument("--set-state-at", action="append", metavar="ITER:STATE",
                       help="switch the true state at an iteration; repeatable")
        g.add_argument("--regen-graph-at", action="append", metavar="ITER[:SEED]",
                       help="regenerate the graph at an iteration; the seed defaults "
                            "to seed_graph + 1001 + event index")


def _add_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    _add_config_arguments(parser)
    parser.add_argument("--mu-grid", help="comma-separated mu values")
    parser.add_argument("--delta-grid", help="comma-separated delta values")


def _add_learn_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--run", help="directory written by simulate/experiment")
    parser.add_argument("--stream", help="belief stream: a bundle's beliefs.npy "
                                         "(float64 log-beliefs)")
    parser.add_argument("--model-file", help="likelihood model JSON")
    parser.add_argument("--trace-file", help="ground-truth trace CSV")
    for name in ("mode", "mu", "delta", "reference", "out"):
        _add_field_argument(parser, name)


def _parse_timed(text: str, flag: str) -> tuple[int, int | None]:
    match = re.fullmatch(r"(\d+)(?::(-?\d+))?", text.strip())
    if not match:
        raise ConfigError(f"{flag} expects ITER or ITER:VALUE, got {text!r}")
    return int(match.group(1)), None if match.group(2) is None else int(match.group(2))


def build_config(args) -> ExperimentConfig:
    """Merge dataclass defaults, an optional config file and explicit
    flags into a validated configuration."""
    base: dict = {}
    file_out = None
    if getattr(args, "config", None):
        payload = io.load_json(args.config)
        if isinstance(payload, dict) and payload.get("format") in (
            MANIFEST_FORMAT, _V1_FORMAT
        ):
            payload = payload.get("config")
            if not isinstance(payload, dict):
                raise ConfigError(f"{args.config}: a manifest needs a 'config' object")
        if not isinstance(payload, dict):
            raise ConfigError("config file must hold a JSON object")
        file_out = payload.pop("out", None)
        base = payload

    base.update(_flag_values(args))

    events = []
    for text in args.set_state_at or []:
        iteration, value = _parse_timed(text, "--set-state-at")
        if value is None:
            raise ConfigError("--set-state-at expects ITER:STATE")
        events.append({"iteration": iteration, "action": "set_true_state",
                       "value": value})
    seed_graph = base.get("seed_graph", ExperimentConfig.seed_graph)
    for index, text in enumerate(args.regen_graph_at or []):
        iteration, value = _parse_timed(text, "--regen-graph-at")
        if value is None:
            if not isinstance(seed_graph, int):
                raise ConfigError("seed_graph must be an integer")
            value = seed_graph + 1001 + index
        events.append({"iteration": iteration, "action": "regenerate_graph",
                       "value": value})
    # from_dict checks and orders the events, and names a schedule that
    # is not a list.
    schedule = base.get("schedule", [])
    if events and isinstance(schedule, list):
        base["schedule"] = schedule + events

    out = base.pop("out", None) or file_out
    if not out:
        raise ConfigError("an output directory is required (--out)")
    try:
        return ExperimentConfig.from_dict(base, out=out)
    except (TypeError, ValueError) as err:
        raise ConfigError(str(err)) from err


def _print_mode_summary(modes) -> None:
    for mode in sorted(modes):
        mres = modes[mode]
        status = f"diverged at {mres.diverged_at}" if mres.diverged_at else "ok"
        acc = "n/a" if mres.edge_accuracy is None else f"{mres.edge_accuracy:.4f}"
        print(f"{mode:9s} steady-state msd {mres.steady_state_msd:.6g}  "
              f"edge accuracy {acc}  [{status}]")


def _cmd_experiment(args) -> int:
    config = build_config(args)
    result = run_experiment(config)
    print(f"wrote {result.out_dir}")
    print(f"initial msd {result.initial_msd:.6g}")
    _print_mode_summary(result.modes)
    return EXIT_DIVERGED if result.divergent else EXIT_OK


def _cmd_simulate(args) -> int:
    config = build_config(args)
    out = run_forward(config)
    print(f"wrote {out}")
    return EXIT_OK


def _parse_grid(text: str | None, flag: str) -> list[float] | None:
    if not text:
        return None
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag} expects comma-separated numbers: {text!r}") from None


def _cmd_sweep(args) -> int:
    config = build_config(args)
    mu_values = _parse_grid(args.mu_grid, "--mu-grid")
    delta_values = _parse_grid(args.delta_grid, "--delta-grid")
    if not mu_values and not delta_values:
        raise ConfigError("sweep needs --mu-grid and/or --delta-grid")
    rows = sweep(config, mu_values, delta_values)
    print("mu,delta,mode,steady_state_msd,divergent")
    for row in rows:
        print(f"{row['mu']:g},{row['delta']:g},{row['mode']},"
              f"{row['steady_state_msd']:.6g},{int(row['divergent'])}")
    return EXIT_DIVERGED if any(r["divergent"] for r in rows) else EXIT_OK


def _true_matrix(path: Path, num_agents: int) -> tuple[int, CombinationMatrix]:
    """The graph epoch a bundle's ``true_matrix_NNN.csv`` names and its
    matrix, on the arcs of the ``true_adjacency_NNN.csv`` beside it or,
    without one, of its positive weights. A malformed file, or one of
    another size than ``num_agents``, raises ``ValueError`` naming it."""
    tag = path.stem.split("_")[-1]
    try:
        epoch, weights = int(tag), io.read_matrix(path)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
    if weights.shape != (num_agents, num_agents):
        raise ValueError(f"{path} holds a matrix of shape {weights.shape}, but the "
                         f"model has {num_agents} agents")
    adjacency = weights > 0
    adjacency_path = path.with_name(f"true_adjacency_{tag}.csv")
    if adjacency_path.exists():
        adjacency = io.read_adjacency(adjacency_path)
        if adjacency.shape != weights.shape:
            raise ValueError(f"{adjacency_path} holds an adjacency of shape "
                             f"{adjacency.shape}, but the model has {num_agents} "
                             f"agents")
    try:
        return epoch, CombinationMatrix(weights, adjacency)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def _load_truth(run_dir: Path | None, trace_file: Path | None, num_steps: int,
                num_agents: int, num_states: int, regenerations: int):
    """Ground truth of a recorded stream: the true state of each step
    (``None`` without a trace), the graph epoch of each step, the
    combination matrix of each epoch the bundle holds and the events by
    iteration.

    A trace must hold iterations ``1..num_steps`` in order, true states
    in ``0..num_states - 1`` and graph epochs that start at 0 and rise by
    one at each ``regenerate_graph`` event and nowhere else. In a bundle
    that holds true matrices, the trace's last epoch must have one or be
    an epoch of the run, whose schedule holds ``regenerations`` graph
    regenerations: the steps of a run epoch whose matrix file is missing
    are only left unscored.
    """
    trace = None
    if trace_file and trace_file.exists():
        trace = io.read_trace(trace_file)
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
    matrices: dict[int, CombinationMatrix] = {}
    if run_dir is not None:
        for path in run_dir.glob("true_matrix_*.csv"):
            epoch, matrix = _true_matrix(path, num_agents)
            matrices[epoch] = matrix
    if trace is None:
        # The trace says which graph epoch each step belongs to; without
        # it, only a single-epoch bundle pins the matrix of every step.
        epochs = np.zeros(num_steps, dtype=int)
        return None, epochs, matrices if len(matrices) == 1 else {}, {}
    last = trace["graph_epochs"][-1]
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


def _cmd_learn(args) -> int:
    run_dir = Path(args.run) if args.run else None
    stream = Path(args.stream) if args.stream else None
    model_file = Path(args.model_file) if args.model_file else None
    trace_file = Path(args.trace_file) if args.trace_file else None
    for path in (run_dir, stream, model_file, trace_file):
        if path is not None and not path.exists():
            raise FileNotFoundError(f"{path} does not exist")
    if run_dir is not None:
        stream = stream or run_dir / "beliefs.npy"
        model_file = model_file or run_dir / "model.json"
        trace_file = trace_file or run_dir / "trace.csv"
    if stream is None or model_file is None:
        raise ConfigError("learn needs --run DIR or both --stream and --model-file")
    if not args.out:
        raise ConfigError("an output directory is required (--out)")

    config = None
    if run_dir is not None:
        manifest = run_dir / "manifest.json"
        payload = io.load_json(manifest) if manifest.exists() else {}
        if not isinstance(payload, dict):
            raise ValueError(f"{manifest}: expected a JSON object with 'format' "
                             f"and 'config'")
        if payload.get("format") == _V1_FORMAT or (run_dir / "beliefs.csv").exists():
            raise ConfigError(
                f"{run_dir} is a {_V1_FORMAT} bundle, whose CSV belief stream "
                f"learn does not read; re-run `beliefgraph simulate --config "
                f"{manifest} --out DIR` to write it as {MANIFEST_FORMAT}"
            )
        if payload.get("format") == MANIFEST_FORMAT:
            if not isinstance(payload.get("config"), dict):
                raise ValueError(f"{manifest}: 'config' must be a JSON object")
            config = ExperimentConfig.from_dict(payload["config"])
    if config is None and args.delta is None:
        raise ConfigError("learn needs --delta (not found in a manifest)")
    model = io.load_model(model_file)
    if config is None:
        config = ExperimentConfig(
            agents=model.num_agents, states=model.num_states, mode=ESTIMATED
        )
    config = replace(config, **_flag_values(args))
    config.validate()

    log_beliefs = io.read_belief_stream(stream)
    if log_beliefs.shape[1:] != (model.num_agents, model.num_states):
        raise ValueError(
            f"the belief stream has {log_beliefs.shape[1]} agents and "
            f"{log_beliefs.shape[2]} states, the model {model.num_agents} agents "
            f"and {model.num_states} states"
        )
    if not np.isfinite(log_beliefs).all():
        raise ValueError("the belief stream holds a non-finite log-belief")
    regenerations = sum(e.action == REGENERATE_GRAPH for e in config.schedule)
    true_states, graph_epochs, matrices, events = _load_truth(
        run_dir, trace_file, len(log_beliefs), model.num_agents, model.num_states,
        regenerations,
    )
    if config.mode != ESTIMATED and true_states is None:
        raise ConfigError("known mode needs a ground-truth trace")

    blocks = _recorded_blocks(log_beliefs, true_states, graph_epochs, matrices)
    learned = learn_graph(blocks, model, config.mu, config.delta, config.mode,
                          config.reference)
    out = Path(args.out)
    modes, run = finish_run(learned, matrices, graph_epochs, true_states, events,
                            config, out)
    _print_mode_summary(modes)
    print(f"wrote {out}")
    return EXIT_DIVERGED if run["divergent"] else EXIT_OK


# Each subcommand's help, handler and arguments, in the order --help
# lists them.
_COMMANDS = {
    "simulate": ("forward simulation only", _cmd_simulate, _add_config_arguments),
    "experiment": ("end-to-end experiment", _cmd_experiment, _add_config_arguments),
    "sweep": ("grid of experiments over mu/delta", _cmd_sweep, _add_sweep_arguments),
    "learn": ("estimate the graph from a recorded run", _cmd_learn,
              _add_learn_arguments),
}


def _parser(commands) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="beliefgraph",
        description="Simulate social learning over a hidden network and "
                    "recover the influence graph from the shared beliefs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in commands:
        summary, _, add_arguments = _COMMANDS[name]
        add_arguments(sub.add_parser(name, help=summary))
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand."""
    return _parser(_COMMANDS)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # Only the invoked subcommand's parser is built; --help, and a
    # missing or unknown subcommand, list every subcommand.
    commands = [argv[0]] if argv and argv[0] in _COMMANDS else _COMMANDS
    args = _parser(commands).parse_args(argv)
    try:
        return _COMMANDS[args.command][1](args)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as err:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
