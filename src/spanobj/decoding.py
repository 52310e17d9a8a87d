"""Turning span scores into ranked answer predictions.

A :class:`SpanDistribution` holds every candidate span as parallel NumPy
arrays (``starts``, ``ends``, ``probs``).  Nothing is sorted up front: a
caller ranks only the prefix it needs, in the deterministic order of
descending probability, ties broken by earlier start then earlier end.
Builders cover the three decoding families (independent product, joint
softmax, conditional beam), and two inference-time filters reshape a
distribution without renormalizing it: a length cutoff and surface-form
aggregation.

Rows that are not answers stay in a distribution but are never predicted:
an inverted span (end before start, which the ``full`` policy and the beam
emit) keeps its mass and rank, is never looked up as text and never pooled;
a span at probability zero (cut by the length filter, or pooled away by the
surface-form filter) is skipped by :func:`top_k` like an inverted one.

Ranked once.  :func:`surface_form_filter` ranks its top-k rows, reads their
texts and pools repeated strings, and the distribution it returns keeps
that work as ``head``: the passage, the extractable head rows in rank order
and their texts.  Given that same passage object and a head holding at
least k live rows (pooled mass > 0), :func:`top_k` ranks only those rows and
reads their texts from the head.  That is exact, because the head's live
rows are a prefix of the whole live ranking: a live head row's pooled mass
is a ``math.fsum`` of non-negative terms, so at least its own original
mass, while a row outside the head keeps its mass, was ranked below every
head row, and loses any probability tie on (start, end).  Every other
distribution's ``head`` is the class default ``None``.

Decoding core.  ``model.predict_distributions`` runs examples through the
model in stacks of one passage length (``model.predict_distribution`` is
its one-example view) and calls the builders here row by row.  The beam
scores its top starts in stacks too, capped like the model core's
(``stack_cap``: ``MAX_STACK_TOKENS`` tokens and ``MAX_STACK_CELLS`` score
cells each), so a beam of 10 is one stack at L=12 and one start per stack
at L=180, where a wider stack was measured slower; each stack one
pass of :func:`~spanobj.objectives.conditional_hidden` and one row-wise
log-softmax, which equal the per-start pass row by row.  The surface-form
filter slices a dataset passage's text directly, groups its head in one
dict pass over first occurrences, and sums only strings that occur more
than once: ``math.fsum([p]) == p`` for every probability but -0.0, which it
turns into 0.0, as ``p + 0.0`` does, so a string found once keeps its mass
plus 0.0.  The product decoder reads its cells from the cache of
:func:`~spanobj.numerics.span_cells` and sums its L^2 products with
:func:`~spanobj.numerics._fsum`, which equals ``math.fsum`` bit for bit and
runs an exact binned kernel from ``_BINNED_FSUM_MIN`` values up; the joint
decoder reads the cached cells when its mask is a cached ``span_mask``
object.  Every output equals the one-example decoders' bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Passage
from .errors import InvalidInputError
from .numerics import (
    MASK_VALID,
    ScoreMatrix,
    _check_finite_vector,
    _fsum,
    log_softmax,
    log_softmax_rows,
    mask_cells,
    span_cells,
    stack_cap,
)
from .objectives import ConditionalParams, SpanTarget, conditional_hidden

DEFAULT_MAX_SPAN_LENGTH = 30
DEFAULT_SURFACE_TOP_K = 100
DEFAULT_BEAM_WIDTH = 10
# Filter pipelines by name; each adds one filter to the one before it.
FILTER_PIPELINES = ("none", "lf", "lf+sf")

# math.exp elementwise: NumPy's vectorized exp can differ from libm's in the
# last ulp, and beam probabilities are pinned by the golden decode digests.
_exact_exp = np.frompyfunc(math.exp, 1, 1)


def rank_rows(starts: np.ndarray, ends: np.ndarray, probs: np.ndarray, n: int) -> np.ndarray:
    """Indices of the ``n`` first rows in (-probability, start, end) order.

    Only the prefix is sorted: every row at or above the n-th largest
    probability (so ties at the cut are all kept) is lexsorted, then sliced.
    """
    size = probs.size
    if n <= 0:
        return np.zeros(0, dtype=np.intp)
    if n < size:
        cut = np.partition(probs, size - n)[size - n]
        rows = np.flatnonzero(probs >= cut)
    else:
        rows = np.arange(size)
    order = np.lexsort((ends[rows], starts[rows], -probs[rows]))
    return rows[order[:n]]


class SpanDistribution:
    """Probabilities over candidate spans, ranked deterministically on demand.

    Row ``r`` is the span ``(starts[r], ends[r])`` at probability
    ``probs[r]``; rows keep their construction order (row-major cells for the
    matrix decoders) and :meth:`order` ranks a prefix of them.  Filters return
    a new distribution sharing the span arrays and never write in place.
    ``normalization`` is the current total mass: 1.0 for a freshly built
    distribution, less once a filter has zeroed spans.  ``raw_mass`` records
    the unnormalized mass the rows covered at construction (the product mass
    over valid spans, or a beam's joint-factorized candidate mass), so
    ``probability * raw_mass`` recovers pre-normalization values.

    ``SpanDistribution(entries, raw_mass)`` builds one from ``(start, end,
    probability)`` triples; the decoders use :meth:`from_arrays`.
    """

    # What :func:`surface_form_filter` leaves for :func:`top_k` (set on its
    # result only).  A class default, so no other distribution allocates it.
    head = None

    def __init__(self, entries=(), raw_mass: float = 1.0) -> None:
        entries = list(entries)
        self._assign(
            [s for s, _, _ in entries],
            [e for _, e, _ in entries],
            [p for _, _, p in entries],
            raw_mass,
        )

    @classmethod
    def from_arrays(cls, starts, ends, probs, raw_mass: float = 1.0) -> "SpanDistribution":
        dist = cls.__new__(cls)
        dist._assign(starts, ends, probs, raw_mass)
        return dist

    def _assign(self, starts, ends, probs, raw_mass) -> None:
        self.starts = np.asarray(starts, dtype=np.int64)
        self.ends = np.asarray(ends, dtype=np.int64)
        self.probs = np.asarray(probs, dtype=np.float64)
        if not self.starts.shape == self.ends.shape == self.probs.shape == (self.probs.size,):
            raise InvalidInputError("span starts, ends and probabilities must be aligned vectors")
        bad = ~(np.isfinite(self.probs) & (self.probs >= 0.0))
        if bad.any():
            raise InvalidInputError(f"bad span probability {self.probs[bad][0]!r}")
        self.raw_mass = float(raw_mass)

    def __len__(self) -> int:
        return self.probs.size

    @property
    def normalization(self) -> float:
        return _fsum(self.probs)

    def order(self, n: int | None = None) -> np.ndarray:
        """Row indices of the ``n`` highest-ranked spans (all when ``None``)."""
        return rank_rows(self.starts, self.ends, self.probs, len(self) if n is None else n)

    @property
    def entries(self) -> list:
        """Every ``(start, end, probability)`` triple in ranked order.

        Sorts the whole distribution; decoding reads :meth:`order` prefixes.
        """
        rows = self.order()
        return list(
            zip(self.starts[rows].tolist(), self.ends[rows].tolist(), self.probs[rows].tolist())
        )

    def top_span(self) -> tuple[int, int]:
        """The argmax span under the deterministic tie-break."""
        (row,) = self.order(1)
        return int(self.starts[row]), int(self.ends[row])


@dataclass(frozen=True)
class Prediction:
    """One ranked answer: the span, its recovered text, and its probability."""

    span: SpanTarget
    text: str
    probability: float


def span_text(passage, start: int, end: int) -> str:
    """Surface string covered by a token span, whitespace-trimmed.

    ``passage`` is either an object exposing ``span_text(start, end)`` (the
    dataset passage type does, via character offsets) or a plain token
    sequence, in which case tokens are joined with single spaces.
    """
    if hasattr(passage, "span_text"):
        return passage.span_text(start, end)
    return " ".join(passage[start : end + 1]).strip()


def independent_distribution(
    start_scores: np.ndarray, end_scores: np.ndarray, policy: str = MASK_VALID
) -> SpanDistribution:
    """Distribution of P(start) * P(end) products over unmasked spans.

    The products over valid spans do not sum to one (mass on masked cells is
    dropped), so they are renormalized; the dropped-mass total survives in
    ``raw_mass``.
    """
    start_scores = _check_finite_vector(start_scores)
    end_scores = _check_finite_vector(end_scores)
    if start_scores.size != end_scores.size:
        raise InvalidInputError("start/end score lengths differ")
    p_start = np.exp(log_softmax(start_scores))
    p_end = np.exp(log_softmax(end_scores))
    starts, ends = span_cells(start_scores.size, policy)
    probs = p_start[starts]
    probs *= p_end[ends]
    raw = _fsum(probs)
    probs /= raw
    return SpanDistribution.from_arrays(starts, ends, probs, raw_mass=raw)


def joint_distribution(scores: ScoreMatrix) -> SpanDistribution:
    """Softmax over every unmasked span score, cells in row-major order."""
    starts, ends = mask_cells(scores.mask)
    probs = np.exp(log_softmax(scores.values[scores.mask]))
    return SpanDistribution.from_arrays(starts, ends, probs, raw_mass=1.0)


def beam_decode(
    start_scores: np.ndarray,
    h: np.ndarray,
    params: ConditionalParams,
    k: int = DEFAULT_BEAM_WIDTH,
) -> SpanDistribution:
    """Approximate conditional decoding over the top-k starts.

    The top-k start positions by start probability each contribute their
    top-k conditional end positions, scoring candidates by
    P(start) * P(end | start).  The (up to) k^2 candidates are normalized
    over themselves for ranking; ``raw_mass`` keeps their joint-factorized
    total, so raw probabilities are ``probability * raw_mass``.  With k = L
    this enumerates every pair exactly, inverted ones included.  The starts
    are scored in stacks capped like the model core's (``stack_cap``).
    """
    if k < 1:
        raise InvalidInputError(f"beam width must be >= 1, got {k}")
    start_scores = _check_finite_vector(start_scores)
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != start_scores.size:
        raise InvalidInputError(
            f"expected d x {start_scores.size} representations, got {h.shape}"
        )
    d, length = h.shape
    width = min(k, length)
    start_logp = log_softmax(start_scores)
    top_starts = np.argsort(-start_logp, kind="stable")[:width]
    end_logp = np.empty((width, length))
    cap = stack_cap(length)
    for lo in range(0, width, cap):
        starts = top_starts[lo : lo + cap]
        # Every row of the stack reads the one passage representation.
        stacked = np.broadcast_to(h, (starts.size, d, length))
        _, hidden = conditional_hidden(stacked, starts, params)
        end_scores = params.w_out @ hidden
        if not np.isfinite(end_scores).all():
            raise InvalidInputError("score vector contains non-finite entries")
        end_logp[lo : lo + cap] = log_softmax_rows(end_scores)
    top_ends = np.argsort(-end_logp, axis=1, kind="stable")[:, :width]
    logp = start_logp[top_starts][:, None] + np.take_along_axis(end_logp, top_ends, axis=1)
    probs = _exact_exp(logp.ravel()).astype(np.float64)
    raw = _fsum(probs)
    return SpanDistribution.from_arrays(
        np.repeat(top_starts, width), top_ends.ravel(), probs / raw, raw_mass=raw
    )


def length_filter(dist: SpanDistribution, zeta: int = DEFAULT_MAX_SPAN_LENGTH) -> SpanDistribution:
    """Zero every span strictly longer than ``zeta`` boundary steps.

    Length is measured as ``end - start``; zeroed mass is *not*
    redistributed, so the result's ``normalization`` drops below 1.
    """
    if zeta < 0:
        raise InvalidInputError(f"length threshold must be >= 0, got {zeta}")
    probs = np.where(dist.ends - dist.starts > zeta, 0.0, dist.probs)
    return SpanDistribution.from_arrays(dist.starts, dist.ends, probs, raw_mass=dist.raw_mass)


def surface_form_filter(
    dist: SpanDistribution, passage, k: int = DEFAULT_SURFACE_TOP_K
) -> SpanDistribution:
    """Pool same-string mass within the top-k spans.

    Among the k highest-ranked spans, the probability of every span covering
    the same surface string is summed into that string's most probable
    position; the other positions drop to zero.  Inverted spans in the top-k
    have no surface string: they keep their mass and are never pooled.
    Spans below the top-k are untouched, and the total top-k mass is
    conserved.  Only the top-k rows are looked up as text.

    The result keeps that work as its ``head``: ``(passage, rows, texts)``,
    the extractable top-k rows in rank order and their texts, which
    :func:`top_k` ranks again instead of the whole distribution.
    """
    if k < 1:
        raise InvalidInputError(f"top-k cutoff must be >= 1, got {k}")
    head = dist.order(k)
    head = head[dist.ends[head] >= dist.starts[head]]
    texts = _span_texts(passage, dist.starts[head].tolist(), dist.ends[head].tolist())
    # A string's pooled mass is math.fsum over its rows.  For a string found
    # once that is the row's own value, except that -0.0 sums to 0.0, as
    # adding 0.0 does; so only repeated strings are summed.
    mass = dist.probs[head]
    pooled = mass + 0.0
    # One pass over first occurrences: a row whose string came first at an
    # earlier (higher-ranked) row joins that row's group.
    first: dict[str, int] = {}
    groups: dict[int, list] = {}
    for i, text in enumerate(texts):
        owner = first.setdefault(text, i)
        if owner != i:
            groups.setdefault(owner, [owner]).append(i)
    if groups:
        mass = mass.tolist()
        for owner, group in groups.items():
            pooled[owner] = math.fsum([mass[i] for i in group])
            pooled[group[1:]] = 0.0
    probs = dist.probs.copy()
    probs[head] = pooled
    out = SpanDistribution.from_arrays(dist.starts, dist.ends, probs, raw_mass=dist.raw_mass)
    out.head = (passage, head, texts)
    return out


def _span_texts(passage, starts: list, ends: list) -> list:
    """:func:`span_text` of each extractable span, a dataset passage sliced directly."""
    if (
        isinstance(passage, Passage)
        and min(starts, default=0) >= 0
        and max(ends, default=0) < len(passage.tokens)
    ):
        text, offsets = passage.text, passage.offsets
        return [text[offsets[s][0] : offsets[e][1]].strip() for s, e in zip(starts, ends)]
    return [span_text(passage, s, e) for s, e in zip(starts, ends)]


def apply_filters(
    dist: SpanDistribution,
    passage,
    pipeline: str,
    zeta: int = DEFAULT_MAX_SPAN_LENGTH,
    k: int = DEFAULT_SURFACE_TOP_K,
) -> SpanDistribution:
    """Run the named filter pipeline, one of :data:`FILTER_PIPELINES`.

    Surface-form aggregation always runs on a length-filtered distribution;
    there is no SF-only pipeline.
    """
    if pipeline not in FILTER_PIPELINES:
        raise InvalidInputError(f"unknown filter pipeline {pipeline!r}")
    stages = FILTER_PIPELINES.index(pipeline)
    if stages >= 1:
        dist = length_filter(dist, zeta)
    if stages >= 2:
        dist = surface_form_filter(dist, passage, k)
    return dist


def top_k(dist: SpanDistribution, k: int, passage=None) -> list[Prediction]:
    """The k highest-probability predictions under the deterministic order.

    Only extractable spans with mass are predictions: inverted candidates
    (end before start) and spans at probability zero (cut by a filter) are
    skipped.  Texts are recovered from the passage when one is supplied.

    A distribution with a surface-filter ``head`` over this same passage
    object, holding at least k live rows, is ranked within its head alone:
    those rows are a prefix of the whole live ranking (see the module
    docstring), and their texts are already known.
    """
    if k < 1:
        raise InvalidInputError(f"k must be >= 1, got {k}")
    if dist.head is not None and dist.head[0] is passage:
        _, rows, texts = dist.head
        starts, ends, probs = dist.starts[rows], dist.ends[rows], dist.probs[rows]
        ranked = np.lexsort((ends, starts, -probs))
        ranked = ranked[probs[ranked] > 0.0][:k]
        if ranked.size == k:
            return [
                Prediction(SpanTarget(s, e), texts[i], p)
                for i, s, e, p in zip(
                    ranked.tolist(), starts[ranked].tolist(), ends[ranked].tolist(),
                    probs[ranked].tolist(),
                )
            ]
    live = np.flatnonzero((dist.ends >= dist.starts) & (dist.probs > 0.0))
    rows = live[rank_rows(dist.starts[live], dist.ends[live], dist.probs[live], k)]
    return [
        Prediction(SpanTarget(s, e), span_text(passage, s, e) if passage is not None else "", p)
        for s, e, p in zip(
            dist.starts[rows].tolist(), dist.ends[rows].tolist(), dist.probs[rows].tolist()
        )
    ]


@dataclass(frozen=True)
class CrossBoundaryReport:
    """Whether each decoder's argmax straddles two answer regions."""

    independent_span: tuple[int, int]
    joint_span: tuple[int, int]
    independent_crosses: bool
    joint_crosses: bool


def _region_of(position: int, regions) -> int | None:
    for idx, (lo, hi) in enumerate(regions):
        if lo <= position <= hi:
            return idx
    return None


def span_crosses(span: tuple[int, int], regions) -> bool:
    """True when the span's boundaries fall in two different regions."""
    a = _region_of(span[0], regions)
    b = _region_of(span[1], regions)
    return a is not None and b is not None and a != b


def cross_boundary_check(
    start_scores: np.ndarray,
    end_scores: np.ndarray,
    joint_scores: ScoreMatrix,
    regions,
) -> CrossBoundaryReport:
    """Compare independent and joint argmax spans against answer regions.

    ``regions`` lists inclusive (low, high) token ranges, one per candidate
    answer.  A span crosses when its boundaries fall in different regions —
    the failure mode the independent product is prone to and a span-level
    softmax is not.
    """
    indep = independent_distribution(start_scores, end_scores).top_span()
    joint = joint_distribution(joint_scores).top_span()
    return CrossBoundaryReport(
        independent_span=indep,
        joint_span=joint,
        independent_crosses=span_crosses(indep, regions),
        joint_crosses=span_crosses(joint, regions),
    )


def two_region_fixture(rng: np.random.Generator, length: int | None = None):
    """Randomized logits with two answer regions that trap the product decoder.

    Start mass peaks in the first region, end mass peaks in the second, so
    the product argmax pairs them across regions; the joint score matrix
    peaks inside the first region.  Returns ``(start_scores, end_scores,
    joint ScoreMatrix, regions)``.
    """
    if length is None:
        length = int(rng.integers(12, 21))
    if length < 8:
        raise InvalidInputError("two-region fixtures need length >= 8")
    # Four cut points carve out two disjoint in-order regions.
    cuts = np.sort(rng.choice(length, size=4, replace=False))
    while cuts[1] + 1 >= cuts[2]:  # keep a gap between the regions
        cuts = np.sort(rng.choice(length, size=4, replace=False))
    region_a = (int(cuts[0]), int(cuts[1]))
    region_b = (int(cuts[2]), int(cuts[3]))

    i1 = int(rng.integers(region_a[0], region_a[1] + 1))
    j1 = int(rng.integers(i1, region_a[1] + 1))
    i2 = int(rng.integers(region_b[0], region_b[1] + 1))
    j2 = int(rng.integers(i2, region_b[1] + 1))

    noise = 0.05
    start = rng.normal(0.0, noise, size=length)
    end = rng.normal(0.0, noise, size=length)
    start[i1] += 6.0   # first-region start dominates
    start[i2] += 5.0
    end[j2] += 6.0     # second-region end dominates
    end[j1] += 5.0

    joint = rng.normal(0.0, noise, size=(length, length))
    joint[i1, j1] += 9.0   # joint peak stays inside one region
    joint[i2, j2] += 8.0
    return start, end, ScoreMatrix.from_values(joint), (region_a, region_b)
