"""A fixed yardstick for the speed of the machine at the moment of a pass.

On a shared host the same pass can take 30% longer from one minute to
the next while other tenants load the machine. The benchmark times this
step, which uses no beliefgraph code, right before and after every pass,
and reports pass times rescaled to what they would have been at the
step's reference speed. Both slow down together, so the rescaled time
moves far less than the raw one; a change to beliefgraph cannot change
the step.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.special import logsumexp

# Time of one step in the reference environment (Intel Xeon, 2 vCPUs,
# Python 3.11, numpy 2.4, scipy 1.17, one BLAS thread). It only sets the
# scale of the rescaled times; any fixed value compares alike.
REFERENCE_STEP_US = 160.0

_RNG = np.random.default_rng(0)
_WEIGHTS = _RNG.random((30, 30))
_BELIEFS = _RNG.random((30, 4))


def _step() -> float:
    """One iteration's mix of work at the reference size: a few small
    array operations, a matrix product, a normalization and a vote."""
    out = _WEIGHTS.T @ _BELIEFS + _RNG.random(30)[:, None]
    out = out - logsumexp(out, axis=1, keepdims=True)
    votes = np.bincount(np.argmax(out, axis=1), minlength=out.shape[1])
    return float(np.sum(out * out)) + int(np.argmax(votes))


def step_us(seconds: float = 0.15) -> float:
    """Mean wall time of the step, in us, over about ``seconds``."""
    steps = 0
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        for _ in range(50):
            _step()
        steps += 50
        now = time.perf_counter()
        if now >= deadline:
            return (now - start) / steps * 1e6
