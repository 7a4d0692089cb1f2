"""The sweep benchmark's workloads: the ``pdq run`` configs each one times.

All three use synthetic data, rho = -0.5 and the default five budget
fractions.  They differ in which layer dominates:

- ``count_n1k``: small arrays and many trials, so the budget-multiplier
  bisection and the per-trial Python overhead dominate.
- ``median_n100k``: large arrays, so vector work, the median candidate and
  score path, and memory dominate.
- ``linear_n100``: the exact knapsack behind the linear modification
  scores is nearly all of the time; the solver is negligible.

``datasets`` is the number of config seeds a run sweeps in turn.  The
linear knapsack's cost depends on the drawn values and weights, so one
dataset per run would make throughput a property of the seed rather than
of the code; ``linear_n100`` gives every timed sweep its own dataset
(more than a run has time for), and the median over sweeps is that of a
typical dataset.  ``tiny`` holds the overrides the smoke test uses.
"""

_COMMON = {"rho": -0.5, "budget_fractions": [0.1, 0.3, 0.5, 0.7, 0.9]}

WORKLOADS = {
    "count_n1k": {
        "config": dict(_COMMON, query="count", mechanisms=["smq", "fq"],
                       n=1000, trials=100),
        "datasets": 1,
        "tiny": {"n": 50, "trials": 3},
    },
    "median_n100k": {
        "config": dict(_COMMON, query="median", mechanisms=["smq", "fq"],
                       n=100_000, median_value_max=1_000_000, trials=2),
        "datasets": 1,
        "tiny": {"n": 200, "median_value_max": 2000, "trials": 2},
    },
    "linear_n100": {
        "config": dict(_COMMON, query="linear", mechanisms=["smq", "fip"],
                       n=100, trials=1),
        "datasets": 30,
        "tiny": {"n": 12, "trials": 1},
    },
}


def dataset_seeds(workload: str, seed: int) -> list:
    """Config seeds of one run; distinct seeds give disjoint lists."""
    count = WORKLOADS[workload]["datasets"]
    return [seed * count + j for j in range(count)]
