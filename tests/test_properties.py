"""Property tests for span ranking, filters, span losses and the model core.

Hypothesis runs derandomized, so every Tier-1 run draws the same examples.
The loss properties compare the mask-indexed losses against the index-map
formulas (a Python list of cells, searched with ``list.index``) that they
replaced, bit for bit.  The core property compares the stacked model core
against the one-example forward / loss / backward loop it replaced, bit for
bit; that loop is written out below as the reference.  The window property
holds batches of interleaved passage lengths, sorted in windows before they
are stacked, to the same loop, and the plan property checks the stack
planner's windows and stacks directly.  The chunk property holds
shared-normalization training, which runs chunks of contexts through the
core, to a loop over contexts of that one-example reference.  The decode
properties hold the stacked decode, the stacked beam and the surface-form
filter that pools only repeated strings to copies of the one-example
decoders they replaced, bit for bit.  The exact-sum properties hold the
binned kernel to ``math.fsum``, and the product decoder that sums with it
over cached cells to a copy of the fsum version it replaced, bit for bit.
The rank-once property holds ``top_k`` over a surface-filtered
distribution, which ranks the filter's head alone when it can, to a full
sort of the reference filter's pooled rows, and the line property holds
``data.prediction_lines`` to ``canonical_json``.
The flat-vector properties hold AdamW's one pass over flat vectors to a
copy of the per-block step it replaced (also the core and chunk
properties' reference step), the bincount scatter to the two ``np.add.at``
calls it replaced, and checkpoint bytes to a copy of the block-wise
writer, bit for bit.
"""

import copy
import functools
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from spanobj import model
from spanobj.data import Passage, canonical_json, prediction_lines
from spanobj.decoding import (
    Prediction,
    SpanDistribution,
    beam_decode,
    independent_distribution,
    joint_distribution,
    length_filter,
    span_text,
    surface_form_filter,
    top_k,
)
from spanobj.numerics import (
    _BINNED_FSUM_CHUNK,
    _BINNED_FSUM_MIN,
    MASK_POLICIES,
    MASK_VALID,
    MAX_STACK,
    ScoreMatrix,
    _binned_fsum,
    _fsum,
    log_softmax,
    logsumexp,
    span_mask,
    stack_cap,
)
from spanobj.objectives import (
    BOUNDARIES,
    BOUNDARY_JOINT,
    BOUNDARY_START,
    OBJ_COMPOUND,
    OBJ_COMPOUND_SHARED,
    OBJ_CONDITIONAL,
    OBJ_INDEPENDENT,
    OBJ_JOINT,
    OBJECTIVE_KINDS,
    ConditionalParams,
    LossResult,
    SharedNormTarget,
    SpanTarget,
    compound_loss,
    conditional_end_scores,
    independent_loss,
    joint_loss,
    shared_norm_loss,
    stack_one,
    unstack_one,
)
from spanobj.similarity import KIND_ADDITIVE_WEIGHTED_DOT, KIND_DOT, SIMILARITY_KINDS

PROPERTY = settings(derandomize=True, deadline=None, max_examples=100)
ROOT = Path(__file__).resolve().parents[1]


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


# ---------------------------------------------------------------------------
# The stacked model core against the one-example loop


def _ref_ce(scores, index):
    shifted = scores - scores.max()
    logp = shifted - np.log(np.exp(shifted).sum())
    grad = np.exp(logp)
    grad[index] -= 1.0
    return -float(logp[index]), grad


def _ref_forward(params, q_ids, p_ids, policy):
    q_bar = params.emb[q_ids].mean(axis=0)
    q = params.w_q @ q_bar + params.b_q
    e = params.emb[p_ids].T
    length = e.shape[1]
    features = np.vstack([e, e * q[:, None], np.tile(q[:, None], (1, length))])
    h = np.tanh(params.w_mix @ features + params.b_mix[:, None])
    hs = params.w_joint @ h + params.b_joint[:, None]
    sim = params.similarity
    if sim.kind == KIND_DOT:
        scores = hs.T @ h
    else:  # additive-weighted-dot: w = [w_start; w_end; w_product]
        d = h.shape[0]
        scores = np.zeros((length, length))
        scores = scores + (hs * sim.w[2 * d :][:, None]).T @ h
        scores = scores + (sim.w[:d] @ hs)[:, None] + (sim.w[d : 2 * d] @ h)[None, :]
    mask = np.ones((length, length), dtype=bool)
    if policy == MASK_VALID:
        mask = np.triu(mask)
    return dict(
        q_ids=q_ids, p_ids=p_ids, q_bar=q_bar, q=q, e=e, features=features, h=h, hs=hs,
        start=params.w_s @ h + params.b_s[0], end=params.w_e @ h + params.b_e[0],
        scores=scores, mask=mask,
    )


def _ref_loss(params, c, target, objective):
    """(loss, grad_start, grad_end, grad_joint, grad_h, (d_w, d_b, d_w_out))."""
    s, e = target.start, target.end
    if objective == OBJ_CONDITIONAL:
        loss_s, grad_s = _ref_ce(c["start"], s)
        h, cond = c["h"], params.cond
        d, length = h.shape
        paired = np.vstack([h, np.tile(h[:, s : s + 1], (1, length))])
        hidden = np.tanh(cond.w @ paired + cond.b[:, None])
        loss_e, grad_e = _ref_ce(cond.w_out @ hidden, e)
        d_hidden = np.outer(cond.w_out, grad_e) * (1.0 - hidden**2)
        d_paired = cond.w.T @ d_hidden
        grad_h = d_paired[:d].copy()
        grad_h[:, s] += d_paired[d:].sum(axis=1)
        head = (d_hidden @ paired.T, d_hidden.sum(axis=1), hidden @ grad_e)
        return loss_s + loss_e, grad_s, grad_e, None, grad_h, head
    joint = indep = None
    if objective != OBJ_INDEPENDENT:
        mask = c["mask"]
        flat_target = int(np.count_nonzero(mask[:s])) + int(np.count_nonzero(mask[s, :e]))
        loss, flat_grad = _ref_ce(c["scores"][mask], flat_target)
        grad = np.zeros_like(c["scores"])
        grad[mask] = flat_grad
        joint = (loss, grad)
    if objective != OBJ_JOINT:
        loss_s, grad_s = _ref_ce(c["start"], s)
        loss_e, grad_e = _ref_ce(c["end"], e)
        indep = (loss_s + loss_e, grad_s, grad_e)
    if indep is None:
        return joint[0], None, None, joint[1], None, None
    if joint is None:
        return indep[0], indep[1], indep[2], None, None, None
    return joint[0] + 1.0 * indep[0], 1.0 * indep[1], 1.0 * indep[2], joint[1], None, None


def _ref_zeros(params):
    """Zeroed gradient blocks, each an array of its own."""
    return {name: np.zeros(block.shape) for name, block in params.blocks()}


@dataclass
class _RefAdamW:
    """The per-block AdamW step that the one pass over flat vectors replaced."""

    lr: float = 1e-3
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def step(self, params, grads):
        self.t += 1
        for name, p in params.blocks():
            g = grads[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(p)
                self.v[name] = np.zeros_like(p)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1**self.t)
            v_hat = v / (1.0 - self.beta2**self.t)
            p -= self.lr * (m_hat / (np.sqrt(v_hat) + self.eps) + self.weight_decay * p)


def _ref_backward(params, c, result, objective):
    _, g_start, g_end, g_joint, g_h, head = result
    grads = _ref_zeros(params)
    h = c["h"]
    d_h = np.zeros_like(h)
    if g_start is not None:
        grads["w_s"] += h @ g_start
        grads["b_s"] += g_start.sum()
        d_h += np.outer(params.w_s, g_start)
    if g_end is not None and objective != OBJ_CONDITIONAL:
        grads["w_e"] += h @ g_end
        grads["b_e"] += g_end.sum()
        d_h += np.outer(params.w_e, g_end)
    if g_joint is not None:
        hs, sim = c["hs"], params.similarity
        d_hs = np.zeros_like(hs)
        d_he = np.zeros_like(h)
        if sim.kind == KIND_DOT:
            d_hs += h @ g_joint.T
            d_he += hs @ g_joint
        else:
            d = h.shape[0]
            w_s, w_e, w_p = sim.w[:d], sim.w[d : 2 * d], sim.w[2 * d :]
            d_w = np.zeros_like(sim.w)
            d_hs += w_p[:, None] * (h @ g_joint.T)
            d_he += w_p[:, None] * (hs @ g_joint)
            d_wp = (hs * (h @ g_joint.T)).sum(axis=1)
            row_mass = g_joint.sum(axis=1)
            col_mass = g_joint.sum(axis=0)
            d_hs += np.outer(w_s, row_mass)
            d_he += np.outer(w_e, col_mass)
            d_w[:d] = hs @ row_mass
            d_w[d : 2 * d] = h @ col_mass
            d_w[-d:] = d_wp
            grads["w_sim"] += d_w
        grads["w_joint"] += d_hs @ h.T
        grads["b_joint"] += d_hs.sum(axis=1)
        d_h += params.w_joint.T @ d_hs + d_he
    if head is not None:
        grads["w_cond"] += head[0]
        grads["b_cond"] += head[1]
        grads["w_cond_out"] += head[2]
    if g_h is not None:
        d_h += g_h
    d_pre = d_h * (1.0 - h**2)
    grads["w_mix"] += d_pre @ c["features"].T
    grads["b_mix"] += d_pre.sum(axis=1)
    d_features = params.w_mix.T @ d_pre
    d = params.dim
    d_e = d_features[:d] + d_features[d : 2 * d] * c["q"][:, None]
    d_q = (d_features[d : 2 * d] * c["e"]).sum(axis=1) + d_features[2 * d :].sum(axis=1)
    grads["w_q"] += np.outer(d_q, c["q_bar"])
    grads["b_q"] += d_q
    d_q_bar = params.w_q.T @ d_q
    n = c["q_ids"].size
    np.add.at(grads["emb"], c["p_ids"], d_e.T)
    np.add.at(grads["emb"], c["q_ids"], np.tile(d_q_bar / n, (n, 1)))
    return grads


@dataclass
class _Example:
    question_ids: np.ndarray
    passage_ids: np.ndarray
    target: SpanTarget


VOCAB = 13


@st.composite
def training_batches(draw):
    """Runs of examples sharing a passage length (a run can exceed one stack)."""
    runs = draw(st.lists(
        st.tuples(st.sampled_from((1, 3, 6)), st.integers(1, 10)), min_size=1, max_size=3
    ))
    batch = []
    for length, count in runs:
        for _ in range(count):
            start = draw(st.integers(0, length - 1))
            batch.append(_Example(
                np.array(draw(st.lists(st.integers(0, VOCAB - 1), min_size=1, max_size=4))),
                np.array(draw(st.lists(st.integers(0, VOCAB - 1), min_size=length, max_size=length))),
                SpanTarget(start, draw(st.integers(start, length - 1))),
            ))
    return batch


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    training_batches(),
    st.sampled_from(OBJECTIVE_KINDS),
    st.sampled_from(MASK_POLICIES),
    st.sampled_from((KIND_DOT, KIND_ADDITIVE_WEIGHTED_DOT)),
    st.integers(0, 2**16),
)
def test_stacked_core_equals_the_one_example_loop_bit_for_bit(batch, objective, policy, sim, seed):
    params = model.init_params(VOCAB, dim=4, similarity_kind=sim, seed=seed)
    rng = np.random.default_rng(seed)
    for _, block in params.blocks():  # nonzero biases, so every block carries signal
        block += rng.normal(0.0, 0.1, size=block.shape)

    ref_losses, ref_grads = [], _ref_zeros(params)
    for ex in batch:
        cache = _ref_forward(params, ex.question_ids, ex.passage_ids, policy)
        result = _ref_loss(params, cache, ex.target, objective)
        grads = _ref_backward(params, cache, result, objective)
        ref_losses.append(result[0])
        for name in ref_grads:
            ref_grads[name] += grads[name]

    losses, grads = model.batch_loss_and_grads(params, batch, objective, policy)
    assert losses == ref_losses
    assert sorted(grads) == sorted(ref_grads)
    for name in grads:
        assert np.array_equal(grads[name], ref_grads[name]), name

    # One AdamW step: train_step against the reference gradients.
    config = model.TrainConfig(objective=objective, policy=policy, dim=4, similarity=sim)
    stepped, reference = params.copy(), params.copy()
    outcome = model.train_step(stepped, batch, config, model.AdamW())
    total = 0.0
    for loss in ref_losses:
        total += loss
    assert outcome == (total * (1.0 / len(batch)) * len(batch), len(batch), 0)
    for name in ref_grads:
        ref_grads[name] *= 1.0 / len(batch)
    _RefAdamW().step(reference, ref_grads)
    for (name, got), (_, want) in zip(stepped.blocks(), reference.blocks()):
        assert np.array_equal(got, want), name


@st.composite
def windowed_batches(draw):
    """Examples of interleaved lengths (sometimes one at L=180) and a window budget.

    Budgets below a batch's cells put window edges inside the batch.
    """
    lengths = draw(st.lists(st.sampled_from((1, 3, 6)), min_size=1, max_size=20))
    if draw(st.booleans()):
        lengths.insert(draw(st.integers(0, len(lengths))), 180)
    batch = []
    for length in lengths:
        start = draw(st.integers(0, length - 1))
        batch.append(_Example(
            np.array(draw(st.lists(st.integers(0, VOCAB - 1), min_size=1, max_size=4))),
            np.array(draw(st.lists(st.integers(0, VOCAB - 1), min_size=length, max_size=length))),
            SpanTarget(start, draw(st.integers(start, length - 1))),
        ))
    return batch, draw(st.sampled_from((model.MAX_WINDOW_CELLS, 1, 10, 40)))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    windowed_batches(),
    st.sampled_from(OBJECTIVE_KINDS),
    st.sampled_from(MASK_POLICIES),
    st.integers(0, 2**16),
)
def test_sorted_windows_equal_the_one_example_loop_bit_for_bit(case, objective, policy, seed):
    batch, budget = case
    params = model.init_params(VOCAB, dim=4, seed=seed)
    rng = np.random.default_rng(seed)
    for _, block in params.blocks():
        block += rng.normal(0.0, 0.1, size=block.shape)

    ref_losses, ref_grads = [], _ref_zeros(params)
    for ex in batch:
        cache = _ref_forward(params, ex.question_ids, ex.passage_ids, policy)
        result = _ref_loss(params, cache, ex.target, objective)
        ref_losses.append(result[0])
        for name, grad in _ref_backward(params, cache, result, objective).items():
            ref_grads[name] += grad

    with mock.patch.object(model, "MAX_WINDOW_CELLS", budget):
        losses, grads = model.batch_loss_and_grads(params, batch, objective, policy)
    assert losses == ref_losses
    assert sorted(grads) == sorted(ref_grads)
    for name in grads:
        assert np.array_equal(grads[name], ref_grads[name]), name


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    st.lists(
        st.one_of(st.sampled_from((1, 3, 12, 90, 180)), st.integers(1, 200)), max_size=40
    ),
    st.booleans(),
    st.sampled_from((1, 10, 40, model.MAX_WINDOW_CELLS, model.MAX_DECODE_CELLS)),
)
def test_the_stack_plan_holds_every_item_once_in_ordered_one_length_stacks(
    lengths, one_length, budget
):
    if one_length:
        lengths = lengths[:1] * len(lengths)
    windows = list(model._plan_stacks(lengths, budget))
    runs = list(model._stack_bounds(lengths))
    assert sorted(i for window in windows for stack in window for i in stack) == list(
        range(len(lengths))
    )
    for window in windows:
        for stack in window:
            assert len({lengths[i] for i in stack}) == 1
            assert len(stack) <= stack_cap(lengths[stack[0]])
            assert stack == sorted(stack)
        firsts = [stack[0] for stack in window]
        assert firsts == sorted(firsts)
        # A window holds whole runs of consecutive items.
        items = sorted(i for stack in window for i in stack)
        held = [(lo, hi) for lo, hi in runs if items[0] <= lo <= items[-1]]
        assert items == list(range(held[0][0], held[-1][1]))
        if sum(lengths[i] ** 2 for i in items) > budget:
            assert len(held) == 1
    if one_length:
        stacks = [stack for window in windows for stack in window]
        assert stacks == [list(range(lo, hi)) for lo, hi in runs]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    st.sampled_from((1, 3, 6)),
    st.integers(1, MAX_STACK),
    st.sampled_from(OBJECTIVE_KINDS),
    st.sampled_from(MASK_POLICIES),
    st.sampled_from(SIMILARITY_KINDS),
    st.integers(0, 2**16),
    st.data(),
)
def test_a_stack_that_dropped_its_inputs_gives_the_same_contributions_bit_for_bit(
    length, size, objective, policy, sim, seed, data
):
    """A shared-normalization chunk's stacks drop the mixing-layer input,
    the joint start representations and the joint matrix before their
    backward passes; every contribution (the stacked matrix, each example's
    per-example products and its embedding rows) equals the kept stack's."""
    params = model.init_params(VOCAB, dim=4, similarity_kind=sim, seed=seed)
    rng = np.random.default_rng(seed)
    for _, block in params.blocks():  # nonzero biases, so every block carries signal
        block += rng.normal(0.0, 0.1, size=block.shape)
    ids = st.integers(0, VOCAB - 1)
    questions = [np.array(data.draw(st.lists(ids, min_size=1, max_size=4))) for _ in range(size)]
    passages = [np.array(data.draw(st.lists(ids, min_size=length, max_size=length))) for _ in range(size)]
    starts = [data.draw(st.integers(0, length - 1)) for _ in range(size)]
    targets = [SpanTarget(start, data.draw(st.integers(start, length - 1))) for start in starts]

    joint = objective not in (OBJ_INDEPENDENT, OBJ_CONDITIONAL)
    stack = model._forward_stack(params, questions, passages, policy, joint)
    result = model._stack_loss(params, stack, targets, objective)
    kept = model._backward_stack(params, stack, result)
    dropped = model._backward_stack(
        params, replace(stack, features=None, h_start=None, joint=None), result
    )

    assert list(dropped) == list(kept)
    for name, want in kept.items():
        got = dropped[name]
        if isinstance(want, model._PerExample):
            for j in range(size):
                assert got[j].tobytes() == want[j].tobytes(), (name, j)
        else:  # "stacked" and "emb": (positions or ids, (B, ...) rows)
            assert got[0].tobytes() == want[0].tobytes(), name
            assert got[1].shape == want[1].shape and got[1].tobytes() == want[1].tobytes(), name


# ---------------------------------------------------------------------------
# Shared-normalization chunks against the per-context loop


def _ref_pooled(rows, golds):
    """One softmax over the rows concatenated, marginalizing the gold positions."""
    scores = np.concatenate(rows)
    flags = np.concatenate([np.isin(np.arange(row.size), sorted(g)) for row, g in zip(rows, golds)])
    lse_all, lse_gt = logsumexp(scores), logsumexp(scores[flags])
    grad = np.exp(scores - lse_all)
    grad[flags] -= np.exp(scores[flags] - lse_gt)
    bounds = np.cumsum([0] + [row.size for row in rows])
    return lse_all - lse_gt, [grad[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _ref_context_loss_and_grads(params, context, policy):
    """One context at a time, each passage through the one-example loop."""
    caches = [_ref_forward(params, context.question_ids, p.passage_ids, policy) for p in context.passages]
    spans = [[(t.start, t.end) for t in p.gt_spans] for p in context.passages]
    start, g_start = _ref_pooled([c["start"] for c in caches], [{s for s, _ in g} for g in spans])
    end, g_end = _ref_pooled([c["end"] for c in caches], [{e for _, e in g} for g in spans])
    joint, g_joint = _ref_pooled(
        [c["scores"][c["mask"]] for c in caches],
        [{int(np.count_nonzero(c["mask"][:s])) + int(np.count_nonzero(c["mask"][s, :e]))
          for s, e in g} for c, g in zip(caches, spans)],
    )
    grads = _ref_zeros(params)
    for c, gs, ge, gj in zip(caches, g_start, g_end, g_joint):
        matrix = np.zeros_like(c["scores"])
        matrix[c["mask"]] = gj
        passage = _ref_backward(params, c, (None, gs, ge, matrix, None, None), OBJ_COMPOUND_SHARED)
        for name in grads:
            grads[name] += passage[name]
    return joint + start + end, grads


def _ref_context_step(params, batch, policy, optimizer):
    """The per-context step: contexts in order, unsupervised ones skipped."""
    grads, total, used = _ref_zeros(params), 0.0, 0
    for context in batch:
        if not any(p.gt_spans for p in context.passages):
            continue
        loss, ctx_grads = _ref_context_loss_and_grads(params, context, policy)
        total += loss
        used += 1
        for name in grads:
            grads[name] += ctx_grads[name]
    if used:
        for name in grads:
            grads[name] *= 1.0 / used
        optimizer.step(params, grads)
    return (total, used, len(batch) - used), grads


@dataclass
class _Passage:
    passage_ids: np.ndarray
    gt_spans: set


@dataclass
class _Context:
    question_ids: np.ndarray
    passages: list


@st.composite
def contexts(draw, min_passages=1, max_passages=4, lengths=(1, 3, 6), min_gold=0):
    """A context of passages of mixed L, each with ``min_gold``-3 gold spans
    (or, without ``min_gold``, perhaps none at all)."""
    supervised = min_gold > 0 or draw(st.booleans()) or draw(st.booleans())
    passages = []
    for _ in range(draw(st.integers(min_passages, max_passages))):
        length = draw(st.sampled_from(lengths))
        gold = set()
        for _ in range(draw(st.integers(min_gold, 3)) if supervised else 0):
            start = draw(st.integers(0, length - 1))
            gold.add(SpanTarget(start, draw(st.integers(start, length - 1))))
        ids = draw(st.lists(st.integers(0, VOCAB - 1), min_size=length, max_size=length))
        passages.append(_Passage(np.array(ids), gold))
    question = draw(st.lists(st.integers(0, VOCAB - 1), min_size=1, max_size=4))
    return _Context(np.array(question), passages)


# A chunk budget of a few dozen score cells, so that most batches of these
# contexts run as several chunks (the default budget holds any of them whole).
_SMALL_BUDGET = 40
_CONTEXT_CHUNKS = model._context_chunks


@st.composite
def context_runs(draw):
    """Supervised one-passage contexts of one length that no other context
    uses, cut by a supervised context of several passages of that length.

    Their passages share a stack, the first two to four at consecutive rows
    (a run of one-row items), then the cutting context's, then the rest."""
    length = (draw(st.sampled_from((2, 4))),)
    one = contexts(1, 1, lengths=length, min_gold=1)
    run = draw(st.lists(one, min_size=2, max_size=4))
    cut = draw(contexts(2, 3, lengths=length, min_gold=1))
    return run + [cut] + draw(st.lists(one, min_size=1, max_size=3))


@st.composite
def context_batches(draw):
    """Contexts with :func:`context_runs` among them, optionally one with more
    than MAX_STACK passages and more than ``_SMALL_BUDGET`` cells, and a
    batch size."""
    batch = draw(st.lists(contexts(), min_size=1, max_size=12))
    at = draw(st.integers(0, len(batch)))
    batch[at:at] = draw(context_runs())
    if draw(st.booleans()):
        big = draw(contexts(MAX_STACK + 1, MAX_STACK + 3, lengths=(3, 6)))
        batch.insert(draw(st.integers(0, len(batch))), big)
    return batch, draw(st.integers(1, 12))


class _RecordingAdamW(model.AdamW):
    def step(self, params, grads):
        self.seen = {name: g.copy() for name, g in grads.items()}
        super().step(params, grads)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    context_batches(),
    st.sampled_from(MASK_POLICIES),
    st.sampled_from((KIND_DOT, KIND_ADDITIVE_WEIGHTED_DOT)),
    st.integers(0, 2**16),
    st.sampled_from((model.MAX_WINDOW_CELLS, _SMALL_BUDGET)),
)
def test_context_chunks_equal_the_per_context_loop_bit_for_bit(case, policy, sim, seed, budget):
    contexts_, batch_size = case
    params = model.init_params(VOCAB, dim=4, similarity_kind=sim, seed=seed)
    rng = np.random.default_rng(seed)
    for _, block in params.blocks():  # nonzero biases, so every block carries signal
        block += rng.normal(0.0, 0.1, size=block.shape)

    used, want_losses, want_total = [], [], _ref_zeros(params)
    for context in contexts_:
        got = model.context_loss_and_grads(params, context, policy)
        if not any(p.gt_spans for p in context.passages):
            assert got is None
            continue
        loss, grads = got
        want_loss, want_grads = _ref_context_loss_and_grads(params, context, policy)
        assert loss == want_loss
        assert sorted(grads) == sorted(want_grads)
        for name in grads:
            assert np.array_equal(grads[name], want_grads[name]), name
            want_total[name] += want_grads[name]
        used.append(context)
        want_losses.append(want_loss)

    # The supervised contexts as one batch, one chunk at the default budget,
    # so the runs of one-passage contexts are added as runs of rows.
    losses, grads = model.batch_loss_and_grads(params, used, OBJ_COMPOUND_SHARED, policy)
    assert losses == want_losses
    for name in want_total:
        assert np.array_equal(grads[name], want_total[name]), name

    # Steps over batches: chunks never cross a batch edge, and a batch edge
    # need not fall on a chunk edge of the whole list.
    config = model.TrainConfig(objective=OBJ_COMPOUND_SHARED, policy=policy, dim=4, similarity=sim)
    stepped, reference = params.copy(), params.copy()
    optimizer, ref_optimizer = _RecordingAdamW(), _RefAdamW()
    chunks = functools.partial(_CONTEXT_CHUNKS, budget=budget)
    for lo in range(0, len(contexts_), batch_size):
        batch = contexts_[lo : lo + batch_size]
        optimizer.seen = None
        with mock.patch.object(model, "_context_chunks", chunks):
            outcome = model.train_step(stepped, batch, config, optimizer)
        want_outcome, want_grads = _ref_context_step(reference, batch, policy, ref_optimizer)
        assert outcome == want_outcome
        if want_outcome[1]:
            for name in want_grads:
                assert np.array_equal(optimizer.seen[name], want_grads[name]), name
        for (name, got), (_, want) in zip(stepped.blocks(), reference.blocks()):
            assert np.array_equal(got, want), name
    assert optimizer.t == ref_optimizer.t
    for name in ref_optimizer.m:
        assert np.array_equal(optimizer.m[name], ref_optimizer.m[name]), name
        assert np.array_equal(optimizer.v[name], ref_optimizer.v[name]), name


# ---------------------------------------------------------------------------
# Flat parameter vectors and the bincount scatter against the code they replaced


def _signed_values():
    """Signed zeros, subnormal, tiny and huge magnitudes, and values whose
    sums depend on the order they are added in."""
    return st.one_of(
        st.sampled_from((0.0, -0.0, 5e-324, -1e-300, 1.0, 1e16, -1e16)),
        st.floats(-1e6, 1e6),
    )


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    st.sampled_from((KIND_DOT, KIND_ADDITIVE_WEIGHTED_DOT)),
    st.integers(0, 3),
    st.integers(1, 3),
    st.floats(1e-4, 0.5),
    st.floats(1e-3, 0.5),
    st.integers(0, 2**16),
    st.data(),
)
def test_flat_adamw_steps_equal_the_per_block_steps_bit_for_bit(
    sim, before, after, lr, wd, seed, data
):
    """Steps from fresh moments, then (after ``before`` steps) from the
    parameters and moments a checkpoint reloads."""
    params = model.init_params(VOCAB, dim=3, similarity_kind=sim, seed=seed)
    reference = params.copy()
    optimizer = model.AdamW(lr=lr, weight_decay=wd)
    ref_optimizer = _RefAdamW(lr=lr, weight_decay=wd)
    for step in range(before + after):
        if step == before and before:
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "step.ckpt")
                model.save_checkpoint(path, params, objective=OBJ_JOINT, seed=0, epoch=step,
                                      optimizer=optimizer)
                ckpt = model.load_checkpoint(path)
            params, optimizer = ckpt.params, ckpt.optimizer
        grads = model.zero_grads(params)
        for block in grads.values():
            block[...] = data.draw(hnp.arrays(np.float64, block.shape, elements=_signed_values()))
        ref_grads = {name: block.copy() for name, block in grads.items()}
        optimizer.step(params, grads)
        ref_optimizer.step(reference, ref_grads)
    assert optimizer.t == ref_optimizer.t
    for (name, got), (_, want) in zip(params.blocks(), reference.blocks()):
        assert got.tobytes() == want.tobytes(), name
        assert optimizer.m[name].tobytes() == ref_optimizer.m[name].tobytes(), name
        assert optimizer.v[name].tobytes() == ref_optimizer.v[name].tobytes(), name


def _grad_arrays(result):
    """Every gradient field of a :class:`LossResult`, the conditional head's three included."""
    cond = result.grad_cond
    return {
        "start": result.grad_start, "end": result.grad_end,
        "joint": result.grad_joint, "h": result.grad_h,
        "cond.w": None if cond is None else cond.w,
        "cond.b": None if cond is None else cond.b,
        "cond.w_out": None if cond is None else cond.w_out,
    }


@PROPERTY
@given(st.integers(1, 4), st.integers(1, 3), st.integers(1, 3), st.data())
def test_stack_one_and_unstack_one_round_trip_every_gradient_bit_for_bit(length, d, hidden, data):
    """Any subset of the gradient fields: a B=1 stack puts a leading axis of
    1 on every array, and unstacking it gives the one-example result back."""
    def array(shape):
        return data.draw(hnp.arrays(np.float64, shape, elements=_signed_values()))

    def maybe(shape):
        return array(shape) if data.draw(st.booleans()) else None

    cond = None
    if data.draw(st.booleans()):
        cond = ConditionalParams(array((hidden, 2 * d)), array((hidden,)), array((hidden,)))
    result = LossResult(
        data.draw(_signed_values()), maybe((length,)), maybe((length,)),
        maybe((length, length)), maybe((d, length)), grad_cond=cond,
    )
    stacked = stack_one(result)
    back = unstack_one(stacked)

    assert stacked.loss.shape == (1,) and stacked.loss.tobytes() == np.float64(result.loss).tobytes()
    assert isinstance(back.loss, float)
    assert np.float64(back.loss).tobytes() == np.float64(result.loss).tobytes()
    assert back.grad_passages == []
    got_stacked, got_back = _grad_arrays(stacked), _grad_arrays(back)
    for name, g in _grad_arrays(result).items():
        if g is None:
            assert got_stacked[name] is None and got_back[name] is None, name
        else:
            assert got_stacked[name].shape == (1,) + g.shape, name
            assert got_back[name].shape == g.shape, name
            assert got_stacked[name].tobytes() == got_back[name].tobytes() == g.tobytes(), name


@PROPERTY
@given(st.data())
def test_bincount_row_sums_equal_two_add_at_scatters_bit_for_bit(data):
    """The embedding scatter of the backward pass: each example's passage
    rows, then its question rows, at slots of a small id set (so ids repeat)."""
    size, length = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 6))
    n_ids, d = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
    q_lengths = np.array(data.draw(st.lists(st.integers(1, 5), min_size=size, max_size=size)))
    owner = np.concatenate([np.repeat(np.arange(size), length), np.repeat(np.arange(size), q_lengths)])
    where = data.draw(hnp.arrays(np.int64, owner.size, elements=st.integers(0, n_ids - 1)))
    slot = where + n_ids * owner
    rows = data.draw(hnp.arrays(np.float64, (owner.size, d), elements=_signed_values()))
    want = np.zeros((size * n_ids, d))
    passage = size * length
    np.add.at(want, slot[:passage], rows[:passage])
    np.add.at(want, slot[passage:], rows[passage:])
    assert model._sum_rows(slot, rows, size * n_ids).tobytes() == want.tobytes()


def _ref_save_checkpoint(path, params, *, objective, seed, epoch, vocab, optimizer, extra):
    """The block-by-block checkpoint writer that the vector writer replaced."""
    blocks = params.blocks()
    header = {
        "dim": params.dim,
        "vocab_size": params.vocab_size,
        "similarity": params.similarity.kind,
        "objective": objective,
        "seed": int(seed),
        "epoch": int(epoch),
        "blocks": [[name, list(arr.shape)] for name, arr in blocks],
        "vocab": list(vocab) if vocab is not None else None,
        "extra": extra or {},
        "optimizer": None,
    }
    if optimizer is not None:
        header["optimizer"] = {key: getattr(optimizer, key) for key in model._ADAMW_SETTINGS}
    with open(path, "wb") as fh:
        fh.write(model.CHECKPOINT_MAGIC.encode("ascii") + b"\n")
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8"))
        fh.write(b"\n")
        for _, arr in blocks:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        if optimizer is not None:
            for moments in (optimizer.m, optimizer.v):
                for name, arr in blocks:
                    moment = moments.get(name, np.zeros_like(arr))
                    fh.write(np.ascontiguousarray(moment, dtype="<f8").tobytes())


@settings(derandomize=True, deadline=None, max_examples=20)
@given(
    st.sampled_from((KIND_DOT, KIND_ADDITIVE_WEIGHTED_DOT)),
    st.integers(0, 3),
    st.booleans(),
    st.booleans(),
    st.integers(0, 2**16),
)
def test_checkpoint_bytes_equal_the_block_wise_writer(sim, steps, keep_optimizer, vocab, seed):
    params = model.init_params(VOCAB, dim=3, similarity_kind=sim, seed=seed)
    optimizer = model.AdamW(weight_decay=0.1)
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        grads = model.zero_grads(params)
        grads.flat[:] = rng.normal(size=grads.flat.size)
        optimizer.step(params, grads)
    kwargs = dict(
        objective=OBJ_COMPOUND, seed=seed, epoch=steps,
        vocab=[f"t{i}" for i in range(VOCAB)] if vocab else None,
        optimizer=optimizer if keep_optimizer else None, extra={"policy": MASK_VALID},
    )
    with tempfile.TemporaryDirectory() as tmp:
        got, want = os.path.join(tmp, "got.ckpt"), os.path.join(tmp, "want.ckpt")
        model.save_checkpoint(got, params, **kwargs)
        _ref_save_checkpoint(want, params, **kwargs)
        with open(got, "rb") as fh_got, open(want, "rb") as fh_want:
            assert fh_got.read() == fh_want.read()


# ---------------------------------------------------------------------------
# Objective identities


def _vectors(length):
    return hnp.arrays(np.float64, length, elements=st.floats(-20, 20))


@st.composite
def span_problems(draw, max_length=7):
    """Start/end score vectors, a span score matrix and an extractable gold span."""
    length = draw(st.integers(1, max_length))
    start = draw(st.integers(0, length - 1))
    target = SpanTarget(start, draw(st.integers(start, length - 1)))
    values = draw(hnp.arrays(np.float64, (length, length), elements=st.floats(-20, 20)))
    policy = draw(st.sampled_from(MASK_POLICIES))
    return draw(_vectors(length)), draw(_vectors(length)), ScoreMatrix.from_values(values, policy), target


@PROPERTY
@given(span_problems(), st.floats(0.0, 4.0))
def test_compound_is_joint_plus_weighted_independent(problem, aux):
    start, end, scores, target = problem
    compound = compound_loss(start, end, scores, target, aux)
    joint = joint_loss(scores, target)
    indep = independent_loss(start, end, target)
    assert compound.loss == joint.loss + aux * indep.loss
    assert np.array_equal(compound.grad_joint, joint.grad_joint)
    assert np.array_equal(compound.grad_start, aux * indep.grad_start)
    assert np.array_equal(compound.grad_end, aux * indep.grad_end)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(st.integers(0, 2**16), st.sampled_from(MASK_POLICIES))
def test_compound_parameter_gradients_are_joint_plus_independent(seed, policy):
    rng = np.random.default_rng(seed)
    params = model.init_params(VOCAB, dim=4, seed=seed)
    q_ids, p_ids = rng.integers(0, VOCAB, size=3), rng.integers(0, VOCAB, size=5)
    start = int(rng.integers(0, 5))
    target = SpanTarget(start, int(rng.integers(start, 5)))
    results = {
        objective: model.loss_and_grads(params, q_ids, p_ids, target, objective, policy)
        for objective in (OBJ_COMPOUND, OBJ_JOINT, OBJ_INDEPENDENT)
    }
    (loss, grads), (j_loss, j_grads), (i_loss, i_grads) = results.values()
    assert loss == j_loss + i_loss
    for name in grads:
        np.testing.assert_allclose(grads[name], j_grads[name] + i_grads[name], rtol=1e-12, atol=1e-15)


@PROPERTY
@given(span_problems(), st.sampled_from(BOUNDARIES))
def test_shared_norm_over_one_passage_and_one_gold_is_cross_entropy(problem, boundary):
    start, end, scores, target = problem
    if boundary == BOUNDARY_JOINT:
        shared = shared_norm_loss(SharedNormTarget([scores], [[target]]), boundary)
        plain = joint_loss(scores, target)
        want_loss, want_grad = plain.loss, plain.grad_joint
    else:
        vector, gold = (start, target.start) if boundary == BOUNDARY_START else (end, target.end)
        logp = log_softmax(vector)
        want_loss, want_grad = -float(logp[gold]), np.exp(logp)
        want_grad[gold] -= 1.0
        shared = shared_norm_loss(SharedNormTarget([vector], [{gold}]), boundary)
    assert math.isclose(shared.loss, want_loss, rel_tol=1e-12, abs_tol=1e-12)
    (grad,) = shared.grad_passages
    np.testing.assert_allclose(grad, want_grad, rtol=1e-9, atol=1e-12)


@PROPERTY
@given(st.integers(1, 6), st.integers(0, 2**16))
def test_full_width_beam_is_exhaustive_enumeration(length, seed):
    rng = np.random.default_rng(seed)
    params = model.init_params(VOCAB, dim=4, seed=seed)
    h = np.tanh(rng.normal(size=(4, length)))
    start_scores = rng.normal(0.0, 3.0, size=length)
    dist = beam_decode(start_scores, h, params.cond, k=length)

    start_logp = log_softmax(start_scores)
    exhaustive = {
        (s, e): math.exp(start_logp[s] + log_softmax(conditional_end_scores(h, s, params.cond))[e])
        for s in range(length)
        for e in range(length)
    }
    got = {(s, e): p for s, e, p in dist.entries}
    assert sorted(got) == sorted(exhaustive)
    raw = math.fsum(exhaustive.values())
    assert math.isclose(dist.raw_mass, raw, rel_tol=1e-12)
    assert math.isclose(raw, 1.0, rel_tol=1e-12)
    for cell, p in exhaustive.items():
        assert math.isclose(got[cell], p / raw, rel_tol=1e-9, abs_tol=1e-300)


# ---------------------------------------------------------------------------
# Stacked decoding against the one-example decoders


def _ref_beam_decode(start_scores, h, params, k):
    """The beam that scored one start at a time."""
    width = min(k, start_scores.size)
    start_logp = log_softmax(start_scores)
    top_starts = np.argsort(-start_logp, kind="stable")[:width]
    end_logp = np.stack(
        [log_softmax(conditional_end_scores(h, i, params)) for i in top_starts.tolist()]
    )
    top_ends = np.argsort(-end_logp, axis=1, kind="stable")[:, :width]
    logp = start_logp[top_starts][:, None] + np.take_along_axis(end_logp, top_ends, axis=1)
    probs = np.array([math.exp(x) for x in logp.ravel().tolist()])
    raw = math.fsum(probs)
    return SpanDistribution.from_arrays(
        np.repeat(top_starts, width), top_ends.ravel(), probs / raw, raw_mass=raw
    )


def _ref_predict_distribution(params, question_ids, passage_ids, objective, policy, beam_width):
    """The decode that ran one example at a time through ``forward``."""
    cache = model.forward(params, question_ids, passage_ids, policy)
    if objective == OBJ_INDEPENDENT:
        return independent_distribution(cache.start_scores, cache.end_scores, policy)
    if objective == OBJ_CONDITIONAL:
        return _ref_beam_decode(cache.start_scores, cache.h, params.cond, beam_width)
    return joint_distribution(cache.joint)


def _ref_surface_form_filter(dist, passage, k):
    """The filter that wrote a pooled mass for every string, repeated or not."""
    head = dist.order(k)
    groups = {}
    for row, s, e in zip(head.tolist(), dist.starts[head].tolist(), dist.ends[head].tolist()):
        if e >= s:
            groups.setdefault(span_text(passage, s, e), []).append(row)
    probs = dist.probs.copy()
    for rows in groups.values():
        probs[rows[0]] = math.fsum(dist.probs[rows])
        probs[rows[1:]] = 0.0
    return SpanDistribution.from_arrays(dist.starts, dist.ends, probs, raw_mass=dist.raw_mass)


def _assert_same_bits(got, want):
    for name in ("starts", "ends", "probs"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.raw_mass.hex() == want.raw_mass.hex()


@dataclass
class _Query:
    question_ids: np.ndarray
    passage_ids: np.ndarray


@st.composite
def decode_sets(draw):
    """Unsorted examples of mixed L up to 180; sometimes more at L=180 than a window holds."""
    lengths = draw(st.lists(st.sampled_from((1, 5, 12, 24, 60, 90, 180)), min_size=1, max_size=12))
    if draw(st.booleans()):
        lengths += [180] * (MAX_STACK + 1)
    lengths = draw(st.permutations(lengths))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return [
        _Query(rng.integers(0, VOCAB, size=int(rng.integers(1, 5))), rng.integers(0, VOCAB, size=L))
        for L in lengths
    ]


@settings(derandomize=True, deadline=None, max_examples=20)
@given(
    decode_sets(),
    st.sampled_from((KIND_DOT, KIND_ADDITIVE_WEIGHTED_DOT)),
    st.sampled_from((1, 3, 10, 200)),
    # Budgets below a set's cells put window edges inside the set.
    st.sampled_from((model.MAX_DECODE_CELLS, 1, 200, 40000)),
    st.integers(0, 2**16),
)
def test_stacked_decode_equals_the_one_example_decode_bit_for_bit(
    examples, sim, beam_width, budget, seed
):
    params = model.init_params(VOCAB, dim=4, similarity_kind=sim, seed=seed)
    rng = np.random.default_rng(seed)
    for _, block in params.blocks():
        block += rng.normal(0.0, 0.1, size=block.shape)
    for objective in OBJECTIVE_KINDS:
        for policy in MASK_POLICIES:
            with mock.patch.object(model, "MAX_DECODE_CELLS", budget):
                got = list(
                    model.predict_distributions(params, examples, objective, policy, beam_width)
                )
            assert len(got) == len(examples)
            for ex, dist in zip(examples, got):
                want = _ref_predict_distribution(
                    params, ex.question_ids, ex.passage_ids, objective, policy, beam_width
                )
                _assert_same_bits(dist, want)
            first = examples[0]
            _assert_same_bits(
                model.predict_distribution(
                    params, first.question_ids, first.passage_ids, objective, policy, beam_width
                ),
                got[0],
            )


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    st.sampled_from((1, 2, 7, 12, 60, 90, 180)),
    st.sampled_from((4, 32)),
    st.sampled_from((1, 3, 10, None)),
    st.booleans(),
    st.integers(0, 2**16),
)
def test_stacked_beam_equals_the_per_start_beam_bit_for_bit(length, dim, k, ties, seed):
    rng = np.random.default_rng(seed)
    params = model.init_params(VOCAB, dim=dim, seed=seed)
    h = np.tanh(rng.normal(size=(dim, length)))
    start_scores = rng.normal(0.0, 3.0, size=length)
    if ties:  # quantized scores tie, so the stable start order matters
        start_scores = np.round(start_scores)
    k = length if k is None else k  # None stands for k = L
    _assert_same_bits(
        beam_decode(start_scores, h, params.cond, k),
        _ref_beam_decode(start_scores, h, params.cond, k),
    )


@PROPERTY
@given(
    distributions(),
    st.integers(1, 70),
    st.lists(st.booleans(), min_size=64, max_size=64),
    st.lists(st.sampled_from(("a", "b", "ab")), min_size=8, max_size=8),
    st.lists(st.sampled_from(("", " ", "  ", "\t", " \n ")), min_size=9, max_size=9),
    st.booleans(),
)
def test_surface_form_filter_equals_the_pool_every_string_filter_bit_for_bit(
    case, k, negative, words, gaps, as_passage
):
    _, dist = case
    # Some zero rows hold -0.0; a string found once turns its row to +0.0.
    flip = np.array(negative[: len(dist)]) & (dist.probs == 0.0)
    dist = SpanDistribution.from_arrays(dist.starts, dist.ends, np.where(flip, -0.0, dist.probs))
    if as_passage:
        text = gaps[0] + "".join(word + " " + gap for word, gap in zip(words, gaps[1:]))
        passage = Passage.from_text("p", text)
        assert len(passage) == 8
    else:  # token lists whose joins differ only in whitespace
        passage = [gap + word for word, gap in zip(words, gaps)]
    _assert_same_bits(
        surface_form_filter(dist, passage, k), _ref_surface_form_filter(dist, passage, k)
    )


@st.composite
def filter_passages(draw):
    """A dataset passage or a token list over 8 tokens, with repeated strings."""
    words = draw(st.lists(st.sampled_from(("a", "b", "ab")), min_size=8, max_size=8))
    gaps = draw(st.lists(st.sampled_from(("", " ", "  ", "\t")), min_size=9, max_size=9))
    if draw(st.booleans()):
        text = gaps[0] + "".join(word + " " + gap for word, gap in zip(words, gaps[1:]))
        return Passage.from_text("p", text)
    return [gap + word for word, gap in zip(words, gaps)]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    distributions(),
    # Cut-offs from 1 to 70, small ones often, so that heads both hold k live
    # rows (top_k ranks the head alone) and fall short of k (it ranks them all).
    st.one_of(st.integers(1, 70), st.integers(1, 4)),
    st.one_of(st.integers(1, 70), st.integers(1, 4)),
    filter_passages(),
    st.sampled_from(("same", "equal copy", "other")),
    filter_passages(),
)
def test_top_k_of_a_surface_filtered_distribution_is_a_full_sort_of_its_pooled_live_rows(
    case, surface_k, k, passage, reader, other
):
    # top_k reads the filter's head only for the filter's own passage object;
    # an equal copy or another passage takes the full ranking, texts and all.
    _, dist = case
    reader = {"same": passage, "equal copy": copy.copy(passage), "other": other}[reader]
    pooled = _ref_surface_form_filter(dist, passage, surface_k)
    ranked = sorted(_rows(pooled, slice(None)), key=_rank_key)
    live = [(s, e, p) for s, e, p in ranked if s <= e and p > 0.0][:k]
    want = [(s, e, span_text(reader, s, e), p) for s, e, p in live]
    got = top_k(surface_form_filter(dist, passage, surface_k), k, reader)
    assert [(p.span.start, p.span.end, p.text, p.probability) for p in got] == want


JSON_TEXT = st.text(
    st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\u2028\xe9\U0001f600'), st.characters())
)


@PROPERTY
@given(
    st.one_of(JSON_TEXT, st.integers()),
    st.lists(
        st.tuples(
            st.integers(0, 10**6),
            st.integers(0, 10**6),
            JSON_TEXT,
            st.one_of(st.sampled_from((5e-324, 1.0)), st.floats(min_value=5e-324, max_value=1e300)),
        ),
        max_size=4,
    ),
)
def test_prediction_lines_are_the_canonical_json_of_their_records(example_id, rows):
    predictions = [Prediction(SpanTarget(s, s + n), text, p) for s, n, text, p in rows]
    want = "".join(
        canonical_json({
            "example_id": example_id, "rank": rank, "start": p.span.start, "end": p.span.end,
            "text": p.text, "probability": p.probability,
        }) + "\n"
        for rank, p in enumerate(predictions, 1)
    )
    assert prediction_lines(example_id, predictions) == want


def test_a_failing_property_reports_its_example(tmp_path):
    # Under this repository's pytest settings (warnings are errors), a
    # falsified property must print its example, not end the session.
    (tmp_path / "test_falsified.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_small(x):\n"
        "    assert x < 5\n"
    )
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_falsified.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out and "INTERNALERROR" not in out, out
    assert "1 failed" in out, out


# ---------------------------------------------------------------------------
# The binned exact sum against math.fsum

FINITE = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False, allow_subnormal=True)


@st.composite
def sum_vectors(draw):
    """Finite float64 vectors on both sides of the crossover and of a chunk, edge values planted."""
    size = draw(
        st.sampled_from(
            (1, 2, 78, _BINNED_FSUM_MIN - 1, _BINNED_FSUM_MIN, 903, _BINNED_FSUM_CHUNK + 1, 9000)
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from(("wide", "subnormal", "cancelling", "zeros", "probabilities")))
    if kind == "wide":  # mixed signs, magnitudes 1e-300 to 1e300
        values = rng.normal(size=size) * 10.0 ** rng.integers(-300, 301, size=size)
    elif kind == "subnormal":
        values = rng.integers(-(2**52), 2**52, size=size) * 5e-324
    elif kind == "cancelling":  # sums to zero or to a last few terms
        half = rng.normal(size=size // 2) * 10.0 ** rng.integers(-20, 21, size=size // 2)
        values = np.concatenate([half, -half, rng.normal(size=size % 2)])
    elif kind == "zeros":
        values = rng.choice([0.0, -0.0], size=size)
    else:
        values = np.exp(rng.normal(0.0, 8.0, size=size))
        values /= values.sum()
    planted = draw(st.lists(FINITE, max_size=min(size, 8)))
    values[: len(planted)] = planted
    return rng.permutation(values)


@PROPERTY
@given(sum_vectors())
def test_binned_fsum_equals_math_fsum_bit_for_bit(values):
    want = math.fsum(values).hex()
    assert _binned_fsum(values).hex() == want
    assert _fsum(values).hex() == want


def _ref_independent_distribution(start_scores, end_scores, policy):
    """The product decoder that summed with math.fsum over np.nonzero's cells."""
    p_start = np.exp(log_softmax(start_scores))
    p_end = np.exp(log_softmax(end_scores))
    starts, ends = np.nonzero(span_mask(start_scores.size, policy))
    probs = p_start[starts] * p_end[ends]
    raw = math.fsum(probs)
    return SpanDistribution.from_arrays(starts, ends, probs / raw, raw_mass=raw)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    st.sampled_from((42, 180)),
    st.sampled_from(MASK_POLICIES),
    st.sampled_from((0.1, 3.0, 30.0)),
    st.integers(0, 2**16),
)
def test_independent_distribution_equals_the_fsum_decoder_bit_for_bit(length, policy, scale, seed):
    rng = np.random.default_rng(seed)
    start_scores = rng.normal(0.0, scale, size=length)
    end_scores = rng.normal(0.0, scale, size=length)
    _assert_same_bits(
        independent_distribution(start_scores, end_scores, policy),
        _ref_independent_distribution(start_scores, end_scores, policy),
    )
