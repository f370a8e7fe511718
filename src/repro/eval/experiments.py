"""The experiment grid of the paper's evaluation (Table 4).

Eight condition combinations applied to a base heuristic h:

    exp1  h                  exp5  h[c_sdt ∧ c_me]
    exp2  h[c_sdt]           exp6  h[c_sdt ∧ c_se]
    exp3  h[c_me]            exp7  h[c_me ∧ c_se]
    exp4  h[c_se]            exp8  h[c_sdt ∧ c_se ∧ c_me]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.conditions import Condition, c_and, c_me, c_sdt, c_se
from ..core.config import DogmatixConfig
from ..core.heuristics import Heuristic


@dataclass(frozen=True)
class Experiment:
    """One row of Table 4."""

    name: str
    condition: Optional[Condition]
    formula: str

    def config(
        self,
        heuristic: Heuristic,
        theta_tuple: float = 0.15,
        theta_cand: float = 0.55,
        use_object_filter: bool = False,
        use_blocking: bool = True,
    ) -> DogmatixConfig:
        """A DogmatiX configuration for this experiment.

        The effectiveness experiments of Figs. 5–7 evaluate the
        similarity measure itself, so the object filter defaults off
        here; Fig. 8 evaluates the filter separately.
        """
        return DogmatixConfig(
            heuristic=heuristic,
            condition=self.condition,
            theta_tuple=theta_tuple,
            theta_cand=theta_cand,
            use_object_filter=use_object_filter,
            use_blocking=use_blocking,
        )


EXPERIMENTS: tuple[Experiment, ...] = (
    Experiment("exp1", None, "h"),
    Experiment("exp2", c_sdt, "h[c_sdt]"),
    Experiment("exp3", c_me, "h[c_me]"),
    Experiment("exp4", c_se, "h[c_se]"),
    Experiment("exp5", c_and(c_sdt, c_me), "h[c_sdt ∧ c_me]"),
    Experiment("exp6", c_and(c_sdt, c_se), "h[c_sdt ∧ c_se]"),
    Experiment("exp7", c_and(c_me, c_se), "h[c_me ∧ c_se]"),
    Experiment("exp8", c_and(c_sdt, c_se, c_me), "h[c_sdt ∧ c_se ∧ c_me]"),
)

EXPERIMENTS_BY_NAME = {experiment.name: experiment for experiment in EXPERIMENTS}
