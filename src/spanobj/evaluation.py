"""Answer-string metrics: exact match, token-overlap F1, span-length stats.

The normalization rules are the ones the extractive-QA community scores
with: lowercase, strip punctuation, drop the articles a/an/the, collapse
whitespace.  F1 compares token multisets, so repeated tokens count.
"""

from __future__ import annotations

import math
import string
from collections import Counter
from dataclasses import dataclass

from .data import canonical_json
from .errors import InvalidInputError

_PUNCT = set(string.punctuation)
_ARTICLES = {"a", "an", "the"}


def normalize_answer(text: str) -> str:
    """Lowercase, remove punctuation, drop articles, collapse whitespace."""
    lowered = text.lower()
    no_punct = "".join(ch for ch in lowered if ch not in _PUNCT)
    words = [w for w in no_punct.split() if w not in _ARTICLES]
    return " ".join(words)


def _f1_single(pred_tokens: list, gold_tokens: list) -> float:
    if not pred_tokens and not gold_tokens:
        return 1.0
    if not pred_tokens or not gold_tokens:
        return 0.0
    overlap = Counter(pred_tokens) & Counter(gold_tokens)
    num_same = sum(overlap.values())
    if num_same == 0:
        return 0.0
    precision = num_same / len(pred_tokens)
    recall = num_same / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


def em_f1(prediction: str, golds) -> tuple[int, float]:
    """(exact-match bit, best F1) of a prediction against the gold strings.

    Both metrics run on normalized strings and take the best gold.  Two
    strings that both normalize to empty count as an exact match.
    """
    golds = list(golds)
    if not golds:
        raise InvalidInputError("gold answer list is empty")
    pred_norm = normalize_answer(prediction)
    em = 0
    best_f1 = 0.0
    for gold in golds:
        gold_norm = normalize_answer(gold)
        if pred_norm == gold_norm:
            em = 1
        best_f1 = max(best_f1, _f1_single(pred_norm.split(), gold_norm.split()))
    return em, best_f1


@dataclass
class MetricReport:
    """Aggregate EM/F1 over a dataset, with the per-example outcomes kept."""

    em: float
    f1: float
    n: int
    em_bits: list
    f1_values: list

    def to_json(self) -> str:
        return canonical_json({"em": self.em, "f1": self.f1, "n": self.n})


def score_pairs(pairs) -> MetricReport:
    """Aggregate em_f1 over (prediction, golds) pairs.

    The aggregate EM/F1 are exactly 100 times the mean of the per-example
    outcomes.
    """
    em_bits = []
    f1_values = []
    for prediction, golds in pairs:
        em_bit, f1_value = em_f1(prediction, golds)
        em_bits.append(em_bit)
        f1_values.append(f1_value)
    if not em_bits:
        raise InvalidInputError("nothing to score")
    n = len(em_bits)
    return MetricReport(
        em=100.0 * sum(em_bits) / n,
        f1=100.0 * math.fsum(f1_values) / n,
        n=n,
        em_bits=em_bits,
        f1_values=f1_values,
    )


def score_dataset(predictions: dict, golds: dict) -> MetricReport:
    """Score a {id: prediction} map against a {id: [gold, ...]} map.

    The id sets must match exactly; a silent partial join would misstate
    the aggregate.
    """
    if set(predictions) != set(golds):
        missing = set(golds) - set(predictions)
        extra = set(predictions) - set(golds)
        raise InvalidInputError(
            f"prediction/gold id mismatch (missing {sorted(missing)[:5]}, "
            f"unexpected {sorted(extra)[:5]})"
        )
    ordered = sorted(predictions)
    return score_pairs((predictions[i], golds[i]) for i in ordered)


@dataclass
class SpanLengthReport:
    """Average top-k answer lengths per example plus a histogram."""

    means: list            # one mean character length per example
    flagged: list          # example indices that had fewer than k predictions
    histogram: list        # (bin_low, count) rows over the means
    k: int
    bin_width: float

    def histogram_rows(self) -> str:
        return "\n".join(f"{lo:g},{count}" for lo, count in self.histogram)


def avg_topk_span_length(texts_per_example, k: int = 20, bin_width: float = 5.0) -> SpanLengthReport:
    """Mean character length of each example's top-k predicted strings.

    ``texts_per_example`` holds one ranked list of answer strings per
    example.  Examples with fewer than k predictions average what exists
    and are flagged.  The histogram buckets the per-example means into
    fixed-width bins starting at zero.
    """
    if k < 1:
        raise InvalidInputError(f"k must be >= 1, got {k}")
    if bin_width <= 0:
        raise InvalidInputError(f"bin width must be positive, got {bin_width}")
    means = []
    flagged = []
    for idx, texts in enumerate(texts_per_example):
        texts = list(texts)[:k]
        if not texts:
            raise InvalidInputError(f"example {idx} has no predictions")
        if len(texts) < k:
            flagged.append(idx)
        means.append(sum(len(t) for t in texts) / len(texts))
    counts = Counter(int(m // bin_width) for m in means)
    histogram = [(b * bin_width, counts[b]) for b in sorted(counts)]
    return SpanLengthReport(means, flagged, histogram, k, bin_width)
