"""Property tests for the array-backed span ranking, filters and span losses.

Hypothesis runs derandomized, so every Tier-1 run draws the same examples.
The loss properties compare the mask-indexed losses against the index-map
formulas (a Python list of cells, searched with ``list.index``) that they
replaced, bit for bit.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spanobj.decoding import SpanDistribution, length_filter, surface_form_filter, top_k
from spanobj.numerics import ScoreMatrix, log_softmax, logsumexp
from spanobj.objectives import (
    BOUNDARY_JOINT,
    SharedNormTarget,
    SpanTarget,
    joint_loss,
    shared_norm_loss,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=100)


def _rank_key(row):
    s, e, p = row
    return (-p, s, e)


@st.composite
def distributions(draw, max_length=8):
    """Rows over distinct cells (inverted ones included) with heavy ties.

    Probabilities are quantized to quarters, so many rows tie at any cut.
    """
    length = draw(st.integers(1, max_length))
    cells = [(i, j) for i in range(length) for j in range(length)]
    chosen = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=len(cells), unique=True))
    quarters = draw(st.lists(st.integers(0, 4), min_size=len(chosen), max_size=len(chosen)))
    rows = [(s, e, q / 4) for (s, e), q in zip(chosen, quarters)]
    starts, ends, probs = (np.array(col) for col in zip(*rows))
    return rows, SpanDistribution.from_arrays(starts, ends, probs)


def _rows(dist, index):
    return list(
        zip(dist.starts[index].tolist(), dist.ends[index].tolist(), dist.probs[index].tolist())
    )


@PROPERTY
@given(distributions(), st.integers(0, 70))
def test_ranked_prefix_equals_a_full_python_sort(case, n):
    rows, dist = case
    assert _rows(dist, dist.order(n)) == sorted(rows, key=_rank_key)[:n]
    assert dist.entries == sorted(rows, key=_rank_key)


@PROPERTY
@given(distributions(), st.integers(1, 70))
def test_top_k_is_the_ranked_prefix_of_live_extractable_spans(case, k):
    rows, dist = case
    live = [row for row in sorted(rows, key=_rank_key) if row[0] <= row[1] and row[2] > 0.0]
    got = [(p.span.start, p.span.end, p.probability) for p in top_k(dist, k)]
    assert got == live[:k]


@PROPERTY
@given(distributions(), st.integers(1, 70), st.lists(st.sampled_from("ab"), min_size=8, max_size=8))
def test_surface_form_filter_conserves_top_k_mass(case, k, tokens):
    rows, dist = case
    ranked = sorted(rows, key=_rank_key)
    head, tail = ranked[:k], ranked[k:]
    pooled = {(s, e): p for s, e, p in surface_form_filter(dist, tokens, k).entries}
    head_after = math.fsum(pooled[(s, e)] for s, e, _ in head)
    assert abs(head_after - math.fsum(p for _, _, p in head)) <= 1e-12
    # The tail and inverted rows keep their mass exactly.
    for s, e, p in tail + [row for row in head if row[1] < row[0]]:
        assert pooled[(s, e)] == p
    # One live position per string in the head, holding the string's mass.
    groups = {}
    for s, e, p in head:
        if s <= e:
            groups.setdefault(" ".join(tokens[s : e + 1]), []).append((s, e, p))
    for spans in groups.values():
        (s0, e0, _), rest = spans[0], spans[1:]
        assert pooled[(s0, e0)] == math.fsum(p for _, _, p in spans)
        assert all(pooled[(s, e)] == 0.0 for s, e, _ in rest)


@PROPERTY
@given(distributions(), st.integers(0, 8))
def test_length_filter_zeroes_exactly_the_long_spans_without_renormalizing(case, zeta):
    rows, dist = case
    trimmed = length_filter(dist, zeta)
    assert trimmed.raw_mass == dist.raw_mass
    expected = [(s, e, 0.0 if e - s > zeta else p) for s, e, p in rows]
    assert _rows(trimmed, np.arange(len(trimmed))) == expected
    assert trimmed.normalization == math.fsum(p for _, _, p in expected)


# ---------------------------------------------------------------------------
# Span losses against the index-map formulas


def _index_map(scores):
    rows, cols = np.nonzero(scores.mask)
    return scores.values[rows, cols], list(zip(rows.tolist(), cols.tolist()))


def _index_map_joint_loss(scores, target):
    flat, index_map = _index_map(scores)
    flat_target = index_map.index((target.start, target.end))
    logp = log_softmax(flat)
    flat_grad = np.exp(logp)
    flat_grad[flat_target] -= 1.0
    grad = np.zeros_like(scores.values)
    rows, cols = zip(*index_map)
    grad[list(rows), list(cols)] = flat_grad
    return -float(logp[flat_target]), grad


def _index_map_shared_norm_loss(target):
    pooled, flags, maps = [], [], []
    for scores, gt in zip(target.passages, target.gt_sets):
        flat, index_map = _index_map(scores)
        positions = {cell: k for k, cell in enumerate(index_map)}
        gt_flags = np.zeros(flat.size, dtype=bool)
        gt_flags[sorted(positions[tuple(cell)] for cell in set(gt))] = True
        pooled.append(flat)
        flags.append(gt_flags)
        maps.append(index_map)
    scores, gt_mask = np.concatenate(pooled), np.concatenate(flags)
    lse_all, lse_gt = logsumexp(scores), logsumexp(scores[gt_mask])
    grad_flat = np.exp(scores - lse_all)
    grad_flat[gt_mask] -= np.exp(scores[gt_mask] - lse_gt)
    grads, offset = [], 0
    for index_map, passage in zip(maps, target.passages):
        g = np.zeros_like(passage.values)
        rows, cols = zip(*index_map)
        g[list(rows), list(cols)] = grad_flat[offset : offset + len(index_map)]
        offset += len(index_map)
        grads.append(g)
    return lse_all - lse_gt, grads


@st.composite
def score_matrices(draw, max_length=7):
    """A square score matrix under a random mask, plus unmasked gold cells.

    The first gold cell is an extractable span (start <= end); the others
    may be any unmasked cell, as shared-normalization gold sets allow.
    """
    length = draw(st.integers(1, max_length))
    values = draw(hnp.arrays(np.float64, (length, length), elements=st.floats(-30, 30)))
    mask = draw(hnp.arrays(np.bool_, (length, length)))
    first = draw(st.sampled_from([(i, j) for i in range(length) for j in range(i, length)]))
    mask[first] = True
    live = [tuple(cell) for cell in np.argwhere(mask).tolist()]
    more = draw(st.lists(st.sampled_from(live), max_size=3))
    return ScoreMatrix(values, mask), [first, *more]


@PROPERTY
@given(score_matrices())
def test_joint_loss_equals_the_index_map_formula_bit_for_bit(case):
    scores, gold = case
    target = SpanTarget(*gold[0])
    result = joint_loss(scores, target)
    loss, grad = _index_map_joint_loss(scores, target)
    assert result.loss == loss
    assert np.array_equal(result.grad_joint, grad)


@PROPERTY
@given(st.lists(score_matrices(), min_size=1, max_size=3))
def test_shared_norm_loss_equals_the_index_map_formula_bit_for_bit(cases):
    target = SharedNormTarget([s for s, _ in cases], [gold for _, gold in cases])
    result = shared_norm_loss(target, BOUNDARY_JOINT)
    loss, grads = _index_map_shared_norm_loss(target)
    assert result.loss == loss
    assert len(result.grad_passages) == len(grads)
    for got, want in zip(result.grad_passages, grads):
        assert np.array_equal(got, want)
