"""Simulation of social learning over hidden networks and online recovery
of the influence graph from the publicly exchanged beliefs.

The package has four layers:

* :mod:`beliefgraph.model` -- domain objects (likelihood models, combination
  matrices) and seeded random generation of networks and observation models.
* :mod:`beliefgraph.simulate` -- the forward protocol: agents repeatedly
  absorb private signals and geometrically average their neighbours'
  beliefs, with optional timed changes of the true state or of the graph.
* :mod:`beliefgraph.estimator` -- the observer side: reconstruct the
  combination matrix online from the stream of shared beliefs.
* :mod:`beliefgraph.harness` -- reproducible end-to-end experiments,
  parameter sweeps and file output; exposed on the command line as
  ``beliefgraph``.
"""

from .model import (
    CombinationMatrix,
    GenerationError,
    LikelihoodModel,
    erdos_renyi_adjacency,
    random_combination_matrix,
    random_likelihoods,
)
from .simulate import Event, EventSchedule, SimulationStep, run_simulation
from .estimator import (
    GraphLearner,
    NoSeparationError,
    SteadyStateDiagnostics,
    classify_edges,
    learn_graph,
    majority_vote,
    steady_state_diagnostics,
)
from .harness import ConfigError, ExperimentConfig, run_experiment, sweep

__all__ = [
    "CombinationMatrix",
    "ConfigError",
    "Event",
    "EventSchedule",
    "ExperimentConfig",
    "GenerationError",
    "GraphLearner",
    "LikelihoodModel",
    "NoSeparationError",
    "SimulationStep",
    "SteadyStateDiagnostics",
    "classify_edges",
    "erdos_renyi_adjacency",
    "learn_graph",
    "majority_vote",
    "random_combination_matrix",
    "random_likelihoods",
    "run_experiment",
    "run_simulation",
    "steady_state_diagnostics",
    "sweep",
]

__version__ = "0.1.0"
