"""How a network of agents finds the true hypothesis.

Builds a random 30-agent network, gives every agent a random categorical
observation model over 4 hypotheses, and runs the learning protocol:
each round the agents tilt their beliefs towards their private signal
and then geometrically average their neighbours' beliefs. The printout
tracks how fast the population locks onto the true hypothesis, and what
happens when the truth suddenly changes mid-run.
"""

import numpy as np

from beliefgraph import (
    Event,
    EventSchedule,
    erdos_renyi_adjacency,
    majority_vote,
    random_combination_matrix,
    random_likelihoods,
    run_simulation,
)

TRUE_STATE = 2
SWITCHED_STATE = 0

adjacency, attempts = erdos_renyi_adjacency(30, 0.2, seed=1)
combination = random_combination_matrix(adjacency, seed=2)
model = random_likelihoods(30, 4, 4, seed=3)

print(f"network: 30 agents, {int(adjacency.sum())} arcs "
      f"({attempts} draw(s) until strongly connected)")
print(f"true state is {TRUE_STATE}, switching to {SWITCHED_STATE} at "
      f"iteration 1500\n")

schedule = EventSchedule((Event(1500, "set_true_state", SWITCHED_STATE),))

print(f"{'iteration':>10} {'agents correct':>15} {'majority vote':>14}")
for step in run_simulation(model, combination, TRUE_STATE, delta=0.05,
                           num_iterations=3000, seed=4, schedule=schedule):
    if step.iteration % 250 == 0 or step.iteration in (1, 10, 50, 1510, 1550):
        estimates = np.argmax(step.shared_log_beliefs, axis=1)
        correct = (estimates == step.true_state).mean()
        vote = majority_vote(step.shared_log_beliefs)
        marker = " <- truth switched" if step.iteration in (1510, 1550) else ""
        print(f"{step.iteration:>10} {correct:>15.2%} {vote:>14}{marker}")

print("\nThe vote recovers within a few dozen iterations of the switch:")
print("the adaptation step size keeps the beliefs responsive instead of")
print("letting them harden around the old truth.")
