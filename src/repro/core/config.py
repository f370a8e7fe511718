"""Configuration for DogmatiX runs.

Bundles the thresholds of Definition 6 / Equation 4 with the
description-selection choice and the comparison-reduction switches.
Paper defaults: θ_tuple = 0.15, θ_cand = 0.55 (Section 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from .._lazy import resolve
from .heuristics import Heuristic, KClosestDescendants

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .conditions import Condition
    from .selection import DescriptionSelector


def check_thresholds(
    theta_tuple: float, theta_cand: float, possible_threshold: Optional[float]
) -> None:
    """Raise ``ValueError`` unless both thresholds are numbers in [0, 1]
    (so not NaN) and a ``possible_threshold`` is in [0, theta_cand): the
    one check of a config, a spec and a ``detect`` / ``match`` override."""
    for name, value in (("theta_tuple", theta_tuple), ("theta_cand", theta_cand)):
        if not isinstance(value, (int, float)) or not 0 <= value <= 1:
            raise ValueError(f"{name} must be a number in [0, 1], got {value!r}")
    if possible_threshold is not None and not (
        isinstance(possible_threshold, (int, float))
        and 0 <= possible_threshold < theta_cand
    ):
        raise ValueError(
            f"possible_threshold must be in [0, theta_cand = {theta_cand!r}), "
            f"got {possible_threshold!r}"
        )


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
        Pair an object only with the objects holding a value similar to
        one of its own instead of with all (lossless: a pair without
        one has ``ODT≈ = ∅`` and similarity 0).
    include_empty:
        Keep OD tuples with empty values (off by default; empty values
        match Condition 1's rationale — no data, no evidence).
    possible_threshold:
        Optional lower threshold for a C2 "possible duplicates" band.
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

    def __post_init__(self) -> None:
        check_thresholds(self.theta_tuple, self.theta_cand, self.possible_threshold)
        if self.similar_semantics not in ("matching", "all-pairs"):
            raise ValueError(
                f"similar_semantics must be 'matching' or 'all-pairs', "
                f"got {self.similar_semantics!r}"
            )
        # resolved here: importing the config loads no index code
        resolve("repro.strings.qgram:require_qgram_strategy")(
            self.similarity_strategy
        )
        resolve("repro.core.index:require_dict_encoding")(self.index_encoding)

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
