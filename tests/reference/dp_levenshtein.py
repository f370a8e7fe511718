"""The textbook Levenshtein dynamic programs, kept as the oracles.

``edit_distance`` (full matrix, two rows) and ``_banded`` (Ukkonen's
cutoff band with early exit) are ``repro/strings/levenshtein.py`` as it
stood before the bit-parallel kernel replaced both, verbatim apart from
this paragraph.  ``tests/test_strings_kernels.py`` holds the shipped
kernel against them: same distance without a limit, and
``min(distance, limit + 1)`` with one.
"""

from __future__ import annotations


def edit_distance(a: str, b: str, limit: int | None = None) -> int:
    """Levenshtein distance between ``a`` and ``b``.

    With ``limit`` set, any true distance greater than ``limit`` is
    reported as ``limit + 1`` (sufficient for threshold checks) and the
    computation is banded to O(limit · min(n, m)).
    """
    if a == b:
        return 0
    # Ensure b is the shorter string: the DP keeps one row of len(b)+1.
    if len(a) < len(b):
        a, b = b, a
    n, m = len(a), len(b)
    if m == 0:
        return n if limit is None or n <= limit else limit + 1
    if limit is not None:
        if n - m > limit:
            return limit + 1
        return _banded(a, b, limit)
    previous = list(range(m + 1))
    current = [0] * (m + 1)
    for i in range(1, n + 1):
        current[0] = i
        char_a = a[i - 1]
        for j in range(1, m + 1):
            cost = 0 if char_a == b[j - 1] else 1
            current[j] = min(
                previous[j] + 1,        # deletion
                current[j - 1] + 1,     # insertion
                previous[j - 1] + cost, # substitution
            )
        previous, current = current, previous
    return previous[m]


def _banded(a: str, b: str, limit: int) -> int:
    """Banded Levenshtein with early exit; assumes len(a) >= len(b)."""
    n, m = len(a), len(b)
    big = limit + 1
    previous = [j if j <= limit else big for j in range(m + 1)]
    current = [0] * (m + 1)
    for i in range(1, n + 1):
        low = max(1, i - limit)
        high = min(m, i + limit)
        current[low - 1] = i if low == 1 and i <= limit else big
        char_a = a[i - 1]
        row_min = current[low - 1]
        for j in range(low, high + 1):
            cost = 0 if char_a == b[j - 1] else 1
            deletion = previous[j] + 1 if j <= i + limit - 1 else big
            insertion = current[j - 1] + 1
            substitution = previous[j - 1] + cost
            value = substitution
            if deletion < value:
                value = deletion
            if insertion < value:
                value = insertion
            if value > big:
                value = big
            current[j] = value
            if value < row_min:
                row_min = value
        if high < m:
            current[high + 1 :] = [big] * (m - high)
        if row_min > limit:
            return big
        previous, current = current, previous
    return previous[m] if previous[m] <= limit else big
