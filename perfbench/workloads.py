"""The benchmark's workloads: one sweep grid each, plus retention and workers.

Every workload is a ``specgame`` sweep-config mapping without its seed; the
benchmark adds ``--seed`` and hands the package only the resulting config.
Sizes are chosen so that one repetition (one ``run_sweep`` plus its CSV
writes) takes half a second to a second on one core of a 2-core Xeon, which
gives a twenty-second run 20 to 40 repetitions to take the median of.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

MODES = ["nash", "stackelberg", "social"]
EXPONENTIAL = {"model": "exponential", "M": 100}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    grid: dict
    per_trial: bool
    workers: int

    def sweep_mapping(self, seed: int) -> dict:
        return {**self.grid, "seed": seed}

    @property
    def trials(self) -> int:
        """Trials in one sweep: grid cells times trials per cell."""
        g = self.grid
        return (
            len(g["K_list"]) * len(g.get("rho_list", [0.0]))
            * len(g.get("theta_list", [0.0])) * g["trials"]
        )

    def resized(self, trials: int) -> "Workload":
        """The same workload with ``trials`` per grid cell (for tests)."""
        return replace(self, grid={**self.grid, "trials": trials})


_IID_GRID = {
    "K_list": [2, 4, 8],
    "rho_list": [0.0],
    "theta_list": [0.0],
    "trials": 500,
    "modes": MODES,
    "efficiency": EXPONENTIAL,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="iid_main",
            why="C04 acceptance grid, all modes, records and both CSVs: "
            "solver and outcome-assembly work dominates",
            grid=_IID_GRID,
            per_trial=True,
            workers=1,
        ),
        Workload(
            name="wide_k512",
            why="C08 grid at K=512, nash only: channel sampling and carrier "
            "ranking dominate, solver-only changes should not show",
            grid={
                "K_list": [512],
                "trials": 1000,
                "modes": ["nash"],
                "efficiency": EXPONENTIAL,
            },
            per_trial=True,
            workers=1,
        ),
        Workload(
            name="contested_rs",
            why="rational sigmoid with identical users: every trial is "
            "contested, so beta-star scans and epsilon fallbacks run",
            grid={
                "K_list": [2, 4, 8],
                "theta_list": [1.0],
                "trials": 400,
                "modes": MODES,
                "efficiency": {"model": "rational_sigmoid"},
            },
            per_trial=True,
            workers=1,
        ),
        Workload(
            name="iid_pool2",
            why="iid_main grid, aggregates only, two pool workers: the only "
            "workload that pickles records across processes",
            grid=_IID_GRID,
            per_trial=False,
            workers=2,
        ),
    )
}
