"""Cheap lower and upper bounds on (normalized) edit distance.

Reference [18] of the paper (Weis & Naumann, IQIS 2004) reduces pairwise
OD-tuple comparisons with "a simple combination of upper and lower edit
distance bounds".  These are the standard ones:

* **length bound** (lower): ``|len(a) - len(b)| <= ed(a, b)``;
* **bag bound** (lower): the multiset (bag) distance — the larger count
  of unmatched characters on either side — never exceeds the edit
  distance;
* **upper bound**: ``ed(a, b) <= max(len(a), len(b))`` always, and if
  one string is a prefix of the other the distance is exactly the
  length difference.

A threshold check first rejects via lower bounds, then accepts via the
trivial upper bound (equality / prefix), and only then runs the DP:
:func:`bound_verdict` is that check, shared by every caller that needs
only the side of the threshold a pair falls on.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Optional

from .levenshtein import edit_distance, within_normalized


def length_lower_bound(a: str, b: str) -> int:
    """``|len(a) - len(b)|`` — a lower bound on edit distance."""
    return abs(len(a) - len(b))


@lru_cache(maxsize=1 << 16)
def _char_bag(value: str) -> dict[str, int]:
    """Character multiset of ``value``.

    Step 5 meets the same few thousand corpus values in every pair an
    object takes part in, so the bag is built once per value, not four
    times per pair.  The memo holds the dicts it returns: they are read
    only here and never reach a caller.
    """
    return dict(Counter(value))


def bag_distance(a: str, b: str) -> int:
    """Bag (multiset) distance: a lower bound on edit distance.

    Counts characters of ``a`` not matched by characters of ``b`` and
    vice versa; the maximum of the two is the bound (Bartolini et al.).
    With ``common = Σ_ch min(count_a, count_b)`` the two counts are
    ``len(a) - common`` and ``len(b) - common``.
    """
    small, large = _char_bag(a), _char_bag(b)
    if len(small) > len(large):
        small, large = large, small
    count_in_large = large.get
    common = 0
    for char, count in small.items():
        other = count_in_large(char)
        if other:
            common += count if count < other else other
    return max(len(a), len(b)) - common


def edit_distance_lower_bound(a: str, b: str) -> int:
    """Best cheap lower bound on ``ed(a, b)``.

    The bag distance alone: the two unmatched counts differ by exactly
    the length difference, so their maximum never falls below
    :func:`length_lower_bound`.
    """
    return bag_distance(a, b)


def edit_distance_upper_bound(a: str, b: str) -> int:
    """A cheap upper bound on ``ed(a, b)``.

    Exact for equal strings and prefix pairs; otherwise the Hamming
    distance of the aligned prefix plus the length difference (which an
    alignment without shifts always achieves).
    """
    if a == b:
        return 0
    shorter, longer = (a, b) if len(a) <= len(b) else (b, a)
    hamming = sum(1 for x, y in zip(shorter, longer) if x != y)
    return hamming + (len(longer) - len(shorter))


def normalized_lower_bound(a: str, b: str) -> float:
    """Lower bound on ``ned(a, b)``."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 0.0
    return edit_distance_lower_bound(a, b) / longest


def normalized_upper_bound(a: str, b: str) -> float:
    """Upper bound on ``ned(a, b)``."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 0.0
    return edit_distance_upper_bound(a, b) / longest


def bound_verdict(a: str, b: str, threshold: float) -> Optional[bool]:
    """Which side of ``threshold`` ``ned(a, b)`` falls on, where a bound
    already decides: ``False`` if :func:`normalized_lower_bound` is at or
    above it, ``True`` if :func:`normalized_upper_bound` is below it,
    ``None`` if only the DP can tell.

    Cheapest evidence first: equality, then the length bound (free),
    then the bag bound.  The larger of the two lower bounds reaches the
    threshold exactly when one of them does, so the order changes no
    verdict.
    """
    if a == b:
        return threshold > 0
    longest = max(len(a), len(b))
    if abs(len(a) - len(b)) / longest >= threshold:
        return False
    if bag_distance(a, b) / longest >= threshold:
        return False
    if edit_distance_upper_bound(a, b) / longest < threshold:
        return True
    return None


class BoundedMatcher:
    """Thresholded ``ned`` check with bound short-circuits and statistics.

    Drop-in for :func:`within_normalized`; counts how often each tier
    (lower-bound reject, upper-bound accept, full DP) decided, which the
    bounds ablation benchmark reports.
    """

    def __init__(self, threshold: float) -> None:
        if not 0 <= threshold <= 1:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        self.threshold = threshold
        self.lower_bound_rejects = 0
        self.upper_bound_accepts = 0
        self.full_computations = 0

    def matches(self, a: str, b: str) -> bool:
        """True iff ``ned(a, b) < threshold``."""
        verdict = bound_verdict(a, b, self.threshold)
        if verdict is None:
            self.full_computations += 1
            return within_normalized(a, b, self.threshold)
        if verdict:
            self.upper_bound_accepts += 1
        else:
            self.lower_bound_rejects += 1
        return verdict

    @property
    def total_checks(self) -> int:
        return (
            self.lower_bound_rejects
            + self.upper_bound_accepts
            + self.full_computations
        )

    def savings(self) -> float:
        """Fraction of checks decided without the dynamic program."""
        total = self.total_checks
        if total == 0:
            return 0.0
        return 1.0 - self.full_computations / total


__all__ = [
    "BoundedMatcher",
    "bag_distance",
    "bound_verdict",
    "edit_distance",
    "edit_distance_lower_bound",
    "edit_distance_upper_bound",
    "length_lower_bound",
    "normalized_lower_bound",
    "normalized_upper_bound",
]
