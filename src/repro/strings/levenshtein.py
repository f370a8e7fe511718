"""Levenshtein (edit) distance and its normalized variant.

The paper's OD-tuple distance (Definition 7) is the edit distance
between two values normalized by the longer value's length, thresholded
at θ_tuple.  Edit distance is the hot inner loop of the whole system, so
there is one kernel for it, the bit-parallel recurrence of Myers
(J. ACM 1999) in Hyyrö's edit-distance form (2003): one bit-vector per
distinct character of the shorter string, and one column of the DP
matrix — held as the vertical +1 / −1 delta vectors — per character of
the longer one, about a dozen integer operations per column.  Python
integers are unbounded, so there is no word blocking and no limit on
length or alphabet.

* ``edit_distance(a, b)`` is the kernel's result;
* ``edit_distance(a, b, limit)`` answers from the length difference
  where that already exceeds ``limit`` and otherwise caps the same
  result at ``limit + 1``;
* ``within_normalized(a, b, threshold)``, the thresholded check
  DogmatiX actually issues, turns the normalized threshold into that
  absolute limit through :func:`strict_budget` — the one place where
  ``ned < θ`` becomes a bound on ``ed``.

The textbook full-matrix and banded dynamic programs live in
``tests/reference/dp_levenshtein.py`` as oracles.
"""

from __future__ import annotations

from functools import lru_cache


def edit_distance(a: str, b: str, limit: int | None = None) -> int:
    """Levenshtein distance between ``a`` and ``b``.

    With ``limit`` set, any true distance greater than ``limit`` is
    reported as ``limit + 1`` (sufficient for threshold checks).
    """
    if a == b:
        return 0
    # Ensure b is the shorter string: it becomes the kernel's pattern.
    if len(a) < len(b):
        a, b = b, a
    if limit is not None and len(a) - len(b) > limit:
        return limit + 1
    distance = _bit_parallel(a, b) if b else len(a)
    return distance if limit is None else min(distance, limit + 1)


def _bit_parallel(text: str, pattern: str) -> int:
    """Edit distance by bit-vector columns; ``pattern`` is non-empty.

    Bit ``i`` of ``positive`` / ``negative`` says that the DP column's
    cell ``i + 1`` is one more / one less than cell ``i``; the carry of
    the addition propagates a match down a run of +1 deltas.  The score
    follows the column's last cell through the horizontal deltas.
    """
    occurrences: dict[str, int] = {}
    occurs = occurrences.get
    bit = 1
    for char in pattern:
        occurrences[char] = occurs(char, 0) | bit
        bit <<= 1
    column = bit - 1
    last = bit >> 1
    positive, negative = column, 0
    score = len(pattern)
    for char in text:
        match = occurs(char, 0)
        diagonal = (((match & positive) + positive) ^ positive) | match | negative
        plus = negative | ~(diagonal | positive)
        minus = diagonal & positive
        if plus & last:
            score += 1
        elif minus & last:
            score -= 1
        plus = (plus << 1) | 1
        # ``~`` sets every bit above the column; the mask keeps the
        # vectors at the pattern's width however long the text is.
        positive = ((minus << 1) | ~(diagonal | plus)) & column
        negative = plus & diagonal
    return score


def strict_budget(threshold: float, longest: int) -> int:
    """Largest edit distance ``ed`` with ``ed / longest < threshold``
    (negative when not even 0 qualifies).

    ``ned(a, b) < threshold`` iff ``ed(a, b) <= strict_budget(...)``,
    decided by the same float division step 5 and the bound tiers use,
    so a filter and a classifier never disagree where
    ``threshold * longest`` rounds across an integer.
    """
    if longest == 0:
        return 0 if threshold > 0 else -1
    budget = int(threshold * longest)
    while budget >= 0 and budget / longest >= threshold:
        budget -= 1
    while (budget + 1) / longest < threshold:
        budget += 1
    return budget


def normalized_edit_distance(a: str, b: str) -> float:
    """Edit distance normalized by the longer string's length (``ned`` in
    the paper).  Two empty strings have distance 0.
    """
    longest = max(len(a), len(b))
    if longest == 0:
        return 0.0
    return edit_distance(a, b) / longest


@lru_cache(maxsize=1 << 16)
def _ned_ordered(a: str, b: str) -> float:
    return normalized_edit_distance(a, b)


def ned_cached(a: str, b: str) -> float:
    """Memoized :func:`normalized_edit_distance`.

    Corpus values repeat across the O(n²) OD comparisons (every pair of
    dummy-track CDs re-compares the same title strings), so a cache on
    the canonical ordering of the operands removes most DP runs.
    """
    if a > b:
        a, b = b, a
    return _ned_ordered(a, b)


def within_normalized(a: str, b: str, threshold: float) -> bool:
    """True iff ``ned(a, b) < threshold`` — the θ_tuple check."""
    budget = strict_budget(threshold, max(len(a), len(b)))
    return budget >= 0 and edit_distance(a, b, limit=budget) <= budget
