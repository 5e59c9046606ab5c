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
from dataclasses import fields

from .harness import (
    ConfigError,
    ExperimentConfig,
    read_manifest,
    run_experiment,
    run_forward,
    run_learn,
    sweep,
)

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_DIVERGED = 3


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
    parser.add_argument("--run", metavar="DIR", help="bundle written by simulate/"
                        "experiment, or a directory of beliefs.npy and model.json")
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
    base = read_manifest(args.config) if args.config else {}
    file_out = base.pop("out", None)
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


def _cmd_learn(args) -> int:
    modes, run, out = run_learn(_flag_values(args), args.run)
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
