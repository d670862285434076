"""The benchmark's workloads: fixed lists of ``run_trial`` calls built from a seed.

Each workload is a list of cells; a cell is a set of ``ExperimentConfig``
fields and a trial count. One pass runs every trial of every cell in order.
The only thing taken from the command line is the seed, which becomes
``ExperimentConfig.seed`` for every cell, so a seed fixes every model draw,
dataset and algorithm start in the pass.

Cells are sized so that one pass takes about ten seconds on one core and a
run holds three passes; see README.md for why each workload exists and what
its per-layer numbers should move.
"""

from __future__ import annotations

from dataclasses import dataclass

from moelearn.experiments import ExperimentConfig

# Shared by every cell: orthogonal gating draws, as in acceptance criteria 2
# and 4, and the package defaults for everything not named here.
COMMON = {"orthogonal": True}

EM_FIG_K = {"k": 3, "d": 10, "n": 2000, "sigma": 0.5}
WIDE = {"k": 3, "d": 40, "n": 4096, "sigma": 0.5, "algo": "spectral+em"}
SMALL_K2 = {"k": 2, "d": 10, "n": 2000, "sigma": 0.1}

# name -> list of (cell label, config fields, trials). Within a workload the
# largest cell holds the median trial, so fit_s.p50 does not sit on the
# boundary between a fast cell and a slow one.
WORKLOADS = {
    "em_fig_k": [
        ("spectral+em", {**EM_FIG_K, "algo": "spectral+em"}, 12),
        ("joint-em", {**EM_FIG_K, "algo": "joint-em"}, 7),
    ],
    "wide_moments": [
        ("d40:gaussian", WIDE, 5),
    ],
    "small_k2": [
        # Few Gaussian-input EM fits: their M-step cost is heavy-tailed
        # (30-800 ms), so each one adds much seed-to-seed spread.
        ("gaussian:spectral+em", {**SMALL_K2, "algo": "spectral+em"}, 8),
        ("gmm0.3:spectral+em", {**SMALL_K2, "algo": "spectral+em",
                                "dist": {"kind": "gmm", "p": 0.3}}, 44),
        ("gaussian:spectral+gradient-em", {**SMALL_K2,
                                           "algo": "spectral+gradient-em"}, 12),
        ("gaussian:spectral+mom", {**SMALL_K2, "algo": "spectral+mom"}, 12),
        # ReLU labels reach the outlier cap. Gradient EM keeps this cell's
        # cost steady; with full EM it varied 2x from seed to seed.
        ("relu:spectral+gradient-em", {**SMALL_K2, "activation": "relu",
                                       "algo": "spectral+gradient-em"}, 12),
    ],
}


@dataclass(frozen=True)
class Trial:
    """One ``run_trial(config, index)`` call of a pass."""

    cell: str
    config: ExperimentConfig
    index: int

    @property
    def key(self) -> str:
        return f"{self.cell}/{self.index}"


def build_trials(workload: str, seed: int) -> list[Trial]:
    """The pass for ``workload`` under ``seed``, in execution order."""
    trials = []
    for cell, fields, count in WORKLOADS[workload]:
        config = ExperimentConfig(experiment=f"perfbench-{workload}", seed=seed,
                                  trials=count, **COMMON, **fields)
        trials.extend(Trial(cell, config, t) for t in range(count))
    return trials
