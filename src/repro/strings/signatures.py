"""Prefix-filtering signature index for edit-distance similarity search.

Same thresholded-``ned`` probe contract as :class:`~repro.strings.qgram.
QGramIndex`, different candidate generation.  The q-gram oracle merges
the buckets of *every* query gram and count-filters the union; for a
frequent gram that union is most of the corpus.  Prefix filtering
(Chaudhuri et al., ICDE 2006; Schmitt et al., "A Two-Level Signature
Scheme for Stable Set Similarity Joins", PVLDB 2023) exploits the count
filter's own bound ``T``: fix one global total order over tokens — here
ascending global frequency, rarest first — and sort every token set by
it.  If two multisets overlap in at least ``T`` tokens, then the first
``n - T + 1`` tokens of either side (its *prefix signature*) must hit
the other's prefix.  Probing only the query's prefix, against postings
restricted to stored prefix positions, touches the rare end of the
token distribution and skips the frequent grams that make the oracle's
bucket union large.

Adaptation to the edit-distance count filter (Gravano et al., VLDB
2001), which is what makes the scheme exact here:

* tokens are *tagged* padded q-grams ``(gram, occurrence#)`` so multiset
  overlap becomes plain set overlap (``sum(min(count_a, count_b))`` =
  ``|tagged_a & tagged_b|``);
* values are bucketed by length: every value of length ``L`` has exactly
  ``L + q - 1`` tokens, so for a fixed query the count-filter bound
  ``T = max(m, L) + q - 1 - q * strict_budget(θ, max(m, L))`` — and with
  it both prefix lengths — is uniform per bucket (the two-level scheme's
  stable-bucket idea, with length classes as the outer level);
* the second level is the positional (ppjoin-style) filter: a shared
  token at query position ``i`` and stored position ``j`` caps the
  overlap at ``1 + min(n_q - i - 1, n_v - j - 1)``; candidates whose cap
  stays below ``T`` are dropped before the count filter.  It only pays
  off on long values, so it is gated by ``second_level_cutoff``;
* buckets where ``T`` degenerates to zero are scanned whole, exactly
  like the oracle's length-class fallback, so no true match is lost.

Survivors still pass the exact multiset count filter and the
edit-distance kernel (with the cheap :mod:`~repro.strings.bounds` tiers
in between), so the result *sets* are identical to the oracle's for
every corpus, query, and threshold — pinned by the differential fuzz
harness in ``tests/test_similarity_strategies.py``.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from .bounds import bound_verdict
from .levenshtein import strict_budget
from .value_index import ValueIndex, qgrams

#: token -> (value id, prefix position) postings of one length bucket.
_Postings = dict[tuple[str, int], list[tuple[int, int]]]


class SignatureIndex(ValueIndex):
    """Prefix-signature candidate generation with bound-tier verification.

    Drop-in for :class:`~repro.strings.qgram.QGramIndex`: same shell
    (:class:`~repro.strings.value_index.ValueIndex`) and identical
    observable search behavior, so
    :class:`repro.core.index.IndexPartial` grafting and
    ``CorpusIndex.merge_partial`` work unchanged.

    The signature structure (global token order + per-bucket prefix
    postings) depends on corpus-wide token frequencies, so it is not
    maintained incrementally: mutation only appends raw values, and the
    structure is rebuilt lazily on the next probe.  That makes merges
    order-independent by construction and keeps the lock-free read path
    safe — the rebuilt state is published with one atomic attribute
    assignment of an idempotent value (same discipline as the corpus
    index's memo caches).
    """

    strategy = "signature"

    def __init__(self, q: int = 2, second_level_cutoff: int = 16) -> None:
        super().__init__(q)
        if second_level_cutoff < 1:
            raise ValueError(
                f"second_level_cutoff must be >= 1, got {second_level_cutoff}"
            )
        #: Token count from which the positional filter is applied.
        self.second_level_cutoff = second_level_cutoff
        #: Lazily built (value count, token frequencies, postings);
        #: ``None`` or a stale count means "rebuild on next probe".
        self._signature_state: (
            tuple[int, dict[tuple[str, int], int], dict[int, _Postings]] | None
        ) = None

    def _bound_verdict(
        self, query: str, value: str, threshold: float
    ) -> Optional[bool]:
        """Bound tiers (strings.bounds): reject/accept without the DP
        where a cheap bound already decides."""
        return bound_verdict(query, value, threshold)

    # ------------------------------------------------------------------
    # Candidate generation
    # ------------------------------------------------------------------
    def _candidates(self, query: str, threshold: float) -> set[int]:
        """Candidate ids passing the prefix, positional, length, and
        count filters."""
        _, frequency, postings = self._signature()
        state = self._state
        length_q = len(query)
        query_grams = Counter(qgrams(query, self.q))
        query_tokens = [
            (gram, occurrence)
            for gram, count in query_grams.items()
            for occurrence in range(count)
        ]
        # The one global total order both sides sort by: ascending
        # frequency, rarest first (query-only tokens count as unseen).
        query_tokens.sort(
            key=lambda token: (frequency.get(token, 0), token[0], token[1])
        )
        tokens_q = len(query_tokens)
        query_pairs = state.query_pairs(query_grams)

        candidates: set[int] = set()
        for length, ids in state.length_classes():
            longest = max(length_q, length)
            budget = strict_budget(threshold, longest)
            if budget < 0 or abs(length_q - length) > budget:
                continue
            required = longest + self.q - 1 - self.q * budget
            if required <= 0:
                # Degenerate: a match might share no tokens at all;
                # scan the length class (oracle-identical fallback).
                candidates.update(ids)
                continue
            tokens_v = length + self.q - 1
            # Length filter passed, so required <= min(tokens_q,
            # tokens_v) and both prefixes are non-empty.
            prefix_q = tokens_q - required + 1
            prefix_v = tokens_v - required + 1
            bucket = postings[length]
            overlap_cap: dict[int, int] = {}
            for position_q, token in enumerate(query_tokens[:prefix_q]):
                for value_id, position_v in bucket.get(token, ()):
                    if position_v >= prefix_v:
                        continue
                    cap = 1 + min(
                        tokens_q - position_q - 1, tokens_v - position_v - 1
                    )
                    if cap > overlap_cap.get(value_id, 0):
                        overlap_cap[value_id] = cap
            positional = (
                min(tokens_q, tokens_v) >= self.second_level_cutoff
            )
            for value_id, cap in overlap_cap.items():
                if positional and cap < required:
                    continue  # second level: overlap provably < T
                if state.overlap(value_id, query_pairs) < required:
                    continue
                candidates.add(value_id)
        return candidates

    def _signature(
        self,
    ) -> tuple[int, dict[tuple[str, int], int], dict[int, _Postings]]:
        """The signature structure, rebuilt if values were added.

        Deterministic function of the value set; concurrent probes may
        rebuild redundantly, but the single attribute assignment below
        publishes a complete, idempotent value either way (benign, like
        the corpus index's memo caches).
        """
        signature = self._signature_state
        if signature is not None and signature[0] == len(self._values):
            return signature
        gram_counters = [
            self._state.counter(value_id) for value_id in range(len(self._values))
        ]
        frequency: Counter[tuple[str, int]] = Counter()
        for grams in gram_counters:
            for gram, count in grams.items():
                for occurrence in range(count):
                    frequency[(gram, occurrence)] += 1
        postings: dict[int, _Postings] = {}
        for value_id, value in enumerate(self._values):
            tokens = [
                (gram, occurrence)
                for gram, count in gram_counters[value_id].items()
                for occurrence in range(count)
            ]
            tokens.sort(
                key=lambda token: (frequency[token], token[0], token[1])
            )
            bucket = postings.setdefault(len(value), {})
            for position, token in enumerate(tokens):
                bucket.setdefault(token, []).append((value_id, position))
        signature = (len(self._values), dict(frequency), postings)
        self._signature_state = signature
        return signature
