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
    log_likelihood_ratio_matrix,
    mean_likelihood_matrix,
    random_combination_matrix,
    random_likelihoods,
)
from .simulate import (
    Event,
    EventSchedule,
    SimulationStep,
    adapt_step,
    combine_step,
    run_simulation,
    sample_observations,
)
from .estimator import (
    GraphLearner,
    LearnResult,
    NoSeparationError,
    SteadyStateDiagnostics,
    belief_log_ratios,
    classify_edges,
    gradient_step,
    learn_graph,
    majority_vote,
    msd,
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
    "LearnResult",
    "LikelihoodModel",
    "NoSeparationError",
    "SimulationStep",
    "SteadyStateDiagnostics",
    "adapt_step",
    "belief_log_ratios",
    "classify_edges",
    "combine_step",
    "erdos_renyi_adjacency",
    "gradient_step",
    "learn_graph",
    "log_likelihood_ratio_matrix",
    "majority_vote",
    "mean_likelihood_matrix",
    "msd",
    "random_combination_matrix",
    "random_likelihoods",
    "run_experiment",
    "run_simulation",
    "sample_observations",
    "steady_state_diagnostics",
    "sweep",
]

__version__ = "0.1.0"
