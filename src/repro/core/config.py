"""Configuration for DogmatiX runs.

Bundles the thresholds of Definition 6 / Equation 4 with the
description-selection choice and the comparison-reduction switches.
Paper defaults: θ_tuple = 0.15, θ_cand = 0.55 (Section 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from .._lazy import resolve
from ..engine.policy import ExecutionPolicy
from ..strings.value_index import require_qgram_strategy
from .encodings import require_dict_encoding
from .heuristics import Heuristic, KClosestDescendants

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .conditions import Condition
    from .selection import DescriptionSelector


@dataclass
class DogmatixConfig:
    """All knobs of a DogmatiX run.

    Attributes
    ----------
    heuristic:
        Description-selection heuristic h (Definition 5).
    condition:
        Optional refinement c, applied as h[c] (Combination 3).
    theta_tuple:
        OD tuples are similar when ``odtDist < theta_tuple``.
    theta_cand:
        Pairs are duplicates when ``sim > theta_cand``.
    use_object_filter:
        Apply the f(OD_i) filter before pairing (Section 5.2).
    use_blocking:
        Generate pairs via shared-similar-tuple blocking instead of all
        pairs (lossless; see framework.pruning.SharedTupleBlocking).
    include_empty:
        Keep OD tuples with empty values (off by default; empty values
        match Condition 1's rationale — no data, no evidence).
    possible_threshold:
        Optional lower threshold for a C2 "possible duplicates" band.
    execution:
        How steps 4+5 execute (engine.ExecutionPolicy): worker count
        (which selects the serial or process backend), batch size and
        ingest workers.  Results are identical across policies; only
        wall-clock changes.
    """

    heuristic: Heuristic = field(default_factory=lambda: KClosestDescendants(6))
    condition: Optional[Condition] = None
    theta_tuple: float = 0.15
    theta_cand: float = 0.55
    use_object_filter: bool = True
    use_blocking: bool = True
    include_empty: bool = False
    possible_threshold: Optional[float] = None
    #: Similar-pair semantics: "matching" (one-to-one, DESIGN.md) or
    #: "all-pairs" (the paper's literal Eq. 4); see the ablation bench.
    similar_semantics: str = "matching"
    #: Always "qgram", the one similar-value index, for callers that
    #: still pass it; any other value raises.
    similarity_strategy: str = "qgram"
    #: Always "dict", the one index representation, for callers that
    #: still pass it; any other value raises.
    index_encoding: str = "dict"
    execution: ExecutionPolicy = field(default_factory=ExecutionPolicy)

    def __post_init__(self) -> None:
        if not 0 <= self.theta_tuple <= 1:
            raise ValueError(f"theta_tuple must be in [0, 1], got {self.theta_tuple}")
        if not 0 <= self.theta_cand <= 1:
            raise ValueError(f"theta_cand must be in [0, 1], got {self.theta_cand}")
        if self.similar_semantics not in ("matching", "all-pairs"):
            raise ValueError(
                f"similar_semantics must be 'matching' or 'all-pairs', "
                f"got {self.similar_semantics!r}"
            )
        require_qgram_strategy(self.similarity_strategy)
        require_dict_encoding(self.index_encoding)

    @property
    def selector(self) -> DescriptionSelector:
        """The h[c] selector this configuration describes.

        Steps 2-3 read it (OD generation, ``extend()``, a foreign
        element passed to ``match()``); a warm open never does, so the
        selection machinery and the XPath engine under it load here.
        """
        return resolve("repro.core.selection:DescriptionSelector")(
            self.heuristic, self.condition
        )
