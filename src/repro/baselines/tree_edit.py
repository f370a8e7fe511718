"""Tree-edit-distance baseline (Guha et al., approximate XML joins, [6]).

The Zhang–Shasha ordered tree edit distance, plus the cheap lower
bounds the approximate-join literature uses to avoid full computations,
wrapped as a similarity over XML elements.

The paper's outlook ("we will explore how to adapt tree edit distance
... so that we can use it as similarity measure for duplicate
detection") motivates having this comparator in the benchmark suite.
"""

from __future__ import annotations

from ..framework.classifier import DUPLICATES, NON_DUPLICATES
from ..framework.od import ObjectDescription
from ..strings.levenshtein import ned_cached
from ..xmlkit.tree import Element


class _FlatTree:
    """Post-order arrays for Zhang–Shasha."""

    __slots__ = ("labels", "values", "leftmost", "keyroots", "size")

    def __init__(self, root: Element) -> None:
        self.labels: list[str] = []
        self.values: list[str] = []
        self.leftmost: list[int] = []
        self._walk(root)
        self.size = len(self.labels)
        # Keyroots: nodes with a left sibling, plus the root.
        leftmost_seen: set[int] = set()
        keyroots: list[int] = []
        for index in range(self.size - 1, -1, -1):
            if self.leftmost[index] not in leftmost_seen:
                leftmost_seen.add(self.leftmost[index])
                keyroots.append(index)
        self.keyroots = sorted(keyroots)

    def _walk(self, node: Element) -> int:
        """Post-order traversal; returns the node's index."""
        first_leaf = None
        for child in node.children:
            child_index = self._walk(child)
            if first_leaf is None:
                first_leaf = self.leftmost[child_index]
        index = len(self.labels)
        self.labels.append(node.tag)
        self.values.append(node.text)
        self.leftmost.append(first_leaf if first_leaf is not None else index)
        return index


def _rename_cost(tree_a: _FlatTree, i: int, tree_b: _FlatTree, j: int) -> float:
    """Cost of mapping node i of A to node j of B.

    Tag mismatch costs 1 (different kind of element); equal tags cost
    the normalized edit distance of their text values — the content-
    aware cost model of approximate XML joins.
    """
    if tree_a.labels[i] != tree_b.labels[j]:
        return 1.0
    return ned_cached(tree_a.values[i], tree_b.values[j])


def tree_edit_distance(a: Element, b: Element) -> float:
    """Zhang–Shasha tree edit distance with unit insert/delete cost and
    content-aware rename cost."""
    tree_a, tree_b = _FlatTree(a), _FlatTree(b)
    n, m = tree_a.size, tree_b.size
    distance = [[0.0] * m for _ in range(n)]

    for keyroot_a in tree_a.keyroots:
        for keyroot_b in tree_b.keyroots:
            _tree_distance(tree_a, keyroot_a, tree_b, keyroot_b, distance)
    return distance[n - 1][m - 1]


def _tree_distance(
    tree_a: _FlatTree,
    i: int,
    tree_b: _FlatTree,
    j: int,
    distance: list[list[float]],
) -> None:
    li = tree_a.leftmost[i]
    lj = tree_b.leftmost[j]
    rows = i - li + 2
    cols = j - lj + 2
    forest = [[0.0] * cols for _ in range(rows)]
    for row in range(1, rows):
        forest[row][0] = forest[row - 1][0] + 1  # delete
    for col in range(1, cols):
        forest[0][col] = forest[0][col - 1] + 1  # insert
    for row in range(1, rows):
        node_a = li + row - 1
        for col in range(1, cols):
            node_b = lj + col - 1
            if tree_a.leftmost[node_a] == li and tree_b.leftmost[node_b] == lj:
                cost = _rename_cost(tree_a, node_a, tree_b, node_b)
                forest[row][col] = min(
                    forest[row - 1][col] + 1,
                    forest[row][col - 1] + 1,
                    forest[row - 1][col - 1] + cost,
                )
                distance[node_a][node_b] = forest[row][col]
            else:
                rows_a = tree_a.leftmost[node_a] - li
                cols_b = tree_b.leftmost[node_b] - lj
                forest[row][col] = min(
                    forest[row - 1][col] + 1,
                    forest[row][col - 1] + 1,
                    forest[rows_a][cols_b] + distance[node_a][node_b],
                )


def size_lower_bound(a: Element, b: Element) -> int:
    """|size(A) - size(B)| <= TED(A, B) — the classic join filter."""
    size_a = sum(1 for _ in a.iter())
    size_b = sum(1 for _ in b.iter())
    return abs(size_a - size_b)


def normalized_tree_distance(a: Element, b: Element) -> float:
    """TED normalized by the larger tree size, in [0, 1]-ish range."""
    size_a = sum(1 for _ in a.iter())
    size_b = sum(1 for _ in b.iter())
    largest = max(size_a, size_b)
    if largest == 0:
        return 0.0
    return min(1.0, tree_edit_distance(a, b) / largest)


class TreeEditSimilarity:
    """``1 - normalized TED`` as a pair similarity over ODs.

    Falls back to 0 for externally supplied ODs without elements.
    Applies the size lower bound before computing the quadratic DP.
    """

    def __init__(self, threshold_hint: float | None = None) -> None:
        #: With a hint, pairs whose size bound already exceeds the
        #: implied distance budget short-circuit to 0.
        self.threshold_hint = threshold_hint
        self.full_computations = 0
        self.bound_skips = 0

    def __call__(self, od_i: ObjectDescription, od_j: ObjectDescription) -> float:
        return self.similarity(od_i, od_j)

    def similarity(self, od_i: ObjectDescription, od_j: ObjectDescription) -> float:
        if od_i.element is None or od_j.element is None:
            return 0.0
        a, b = od_i.element, od_j.element
        if self.threshold_hint is not None:
            size_a = sum(1 for _ in a.iter())
            size_b = sum(1 for _ in b.iter())
            largest = max(size_a, size_b, 1)
            budget = (1.0 - self.threshold_hint) * largest
            if size_lower_bound(a, b) > budget:
                self.bound_skips += 1
                return 0.0
        self.full_computations += 1
        return 1.0 - normalized_tree_distance(a, b)


class TreeEditClassifier:
    """Thresholded TED classifier (Definition-6 shape)."""

    def __init__(self, threshold: float) -> None:
        if not 0 <= threshold <= 1:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        self.threshold = threshold
        self.measure = TreeEditSimilarity(threshold_hint=threshold)

    def classify(self, od_i: ObjectDescription, od_j: ObjectDescription) -> str:
        return self.score_and_classify(od_i, od_j)[1]

    def score_and_classify(
        self, od_i: ObjectDescription, od_j: ObjectDescription
    ) -> tuple[float, str]:
        score = self.measure.similarity(od_i, od_j)
        return score, (DUPLICATES if score > self.threshold else NON_DUPLICATES)
