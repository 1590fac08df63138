"""Fixed reference task, timed next to every timed benchmark step.

The host the benchmark runs on is shared: its speed changes by up to 2x over
tens of seconds with the load of other tenants, and a run's wall times follow
that.  The runner times this task just before and just after each step, so
the step's wall time can be divided by the host speed of that moment.  The
task mixes the two kinds of work the workloads do: interpreted dict, tuple
and float operations, like the compute DP and the assignment search, and
small numpy calls on a 700x6 score matrix, like the exact pair table.

The task, its data and its sizes are part of the benchmark's definition:
changing any of them changes the scale of every ``*_ref_*`` metric.
"""

import numpy as np
from time import perf_counter

_RNG = np.random.default_rng(20250717)
_MATRIX = _RNG.random((700, 6))
_LOWERS = np.sort(_RNG.random(160))
_COLUMNS = np.arange(_MATRIX.shape[1])
PY_ITERATIONS = 100_000


def reference_task() -> float:
    """Run the fixed task once; its wall time in seconds."""
    start = perf_counter()
    table = {}
    total = 0.0
    for i in range(PY_ITERATIONS):
        key = (i % 97, i % 13)
        value = table.get(key)
        if value is None:
            value = table[key] = i * 0.5
        total += value
    for lower in _LOWERS:
        below = _MATRIX <= lower
        first_below = np.where(below.any(axis=1), below.argmax(axis=1), _MATRIX.shape[1])
        pre_max = np.where(_COLUMNS[None, :] < first_below[:, None], _MATRIX, -np.inf).max(axis=1)
        total += float(np.searchsorted(np.sort(pre_max), _LOWERS).sum())
    return perf_counter() - start
