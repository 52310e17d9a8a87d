"""A small trainable span extractor with hand-derived gradients.

The encoder is deliberately tiny so that every objective can be trained,
compared, and gradient-checked on a laptop: token embeddings are mixed with
a pooled question vector through one tanh layer, and the resulting passage
representation feeds four heads — start scores, end scores, a bilinear-style
joint span head, and a conditional end head.

Nothing here autodiffs.  ``backward`` applies the chain rule explicitly, and
the test suite holds every path to central finite differences.  It routes
each gradient the loss reports, whatever the objective.  Parameters are one
flat vector cut into named blocks in serialization order (:class:`ModelParams`);
gradients and AdamW moments are vectors cut the same way (:class:`FlatBlocks`),
so a step, a gradient scale and a checkpoint write each make one pass.  One
:func:`train_step`, under the one epoch loop of :func:`train`, trains
every objective through one :func:`batch_loss_and_grads` call: a batch of
examples, or of contexts through the shared-normalization chunks below.

Everything runs through one batched core, fed by one stack planner
(:func:`_stack_windows` over :func:`_plan_stacks`).  It cuts items into
runs of consecutive items sharing a passage length L, at most
``MAX_STACK`` (8) items and ``MAX_STACK_CELLS`` (180^2) score cells each
(one item at L=180), and consecutive runs into windows of at most a budget
of score cells.  A window's items, sorted stably by length, are cut into
stacks by the same rule, so items of one length run as exactly their runs.
Stacks come in the order of their first members, and each stack's forward
pass is run and checked for finiteness.  The planner has three consumers:

* training batches (:func:`batch_loss_and_grads`), in windows of
  ``MAX_WINDOW_CELLS`` (180^2 / 2) cells; a window holds its stacks'
  contributions until they are added, so memory sets its budget;
* shared-normalization chunks, one window per chunk (below);
* decoding (:func:`predict_distributions`), in windows of
  ``MAX_DECODE_CELLS`` (8 x 180^2) cells; a window's distributions are
  yielded in input order after its last stack.

Forward, loss and backward work on (B, ...) arrays; ``forward``,
``example_loss``, ``backward``, ``loss_and_grads`` and
``predict_distribution`` are the same core at B=1.  Stacking changes no
bit of any loss, gradient, optimizer moment, checkpoint or decode, because
the core keeps to rules measured on NumPy 2.4 with OpenBLAS 0.3.31:

* products are stacked ``np.matmul`` (``W @ X[B]``, ``A[B] @ C[B]``,
  transposed views included), matching the 2-D products; one wide
  reshaped product, ``einsum`` and ``q @ W.T`` do not match.  A
  matrix-vector product is ``W @ v[:, :, None]``;
* softmax and row sums run over C-contiguous rows;
* a stacked forward pass equals the B=1 pass row by row, whatever order
  the rows were sorted into;
* each item's gradient is added to the total in item order, by one adder
  (:func:`_add_ready`) for examples and contexts, as soon as its stacks
  have run; a run of one stack's rows is one gather and scatter of the
  stacked blocks and one of the embedding rows (:func:`_add_rows`); the
  ``w_mix`` and ``w_joint`` gradients are formed per example
  (``a[j] @ b[j]``) rather than as (B, d, 3d) stacks, and embedding rows
  are summed per example over the stack's distinct ids before they reach
  the total, by one ``np.bincount``, which adds each cell's values in row
  order from +0.0, as ``np.add.at`` does.  An example's rows at ids it does
  not touch are +0.0, and adding +0.0 changes no total, because a total
  that starts at +0.0 never holds -0.0;
* questions of different lengths are padded, the padding is zeroed by a
  0/1 mask and the sum divided by the true count, which equals
  ``.mean(axis=0)``;
* AdamW and the gradient scale are elementwise, so a pass over the flat
  vectors equals a pass over each block.

Shared-normalization training runs a batch of contexts in chunks: runs of
consecutive supervised contexts holding at most ``MAX_WINDOW_CELLS`` score
cells (L^2 summed over their passages), the training window's budget, and
at least one context.  A chunk's passages run as the planner's stacks;
each context pays one pooled cross-entropy per factor over its passages'
scores in passage order (1-D log-sum-exps over the concatenated scores),
and every context's pools run as one vectorized call.  A chunk runs every
forward pass before its pooled losses, so it holds little per passage: a
stack drops its joint matrix once its unmasked cells are gathered, and its
mixing-layer input and joint start representations, which
:func:`_backward_stack` forms again when it finds them gone; each context
is added as soon as its stacks have run, and a stack's contributions go
once its last passage has been added.  Every stack, a chunk's or a
batch's, returns its contributions in one format (:func:`_backward_stack`),
which :func:`_add_ready` adds.  ``context_loss_and_grads`` is that path
for one context.  The outputs equal a loop over contexts bit for bit
because:

* the backward pass returns each passage's contribution on its own
  instead of adding it into the total;
* one-passage contexts are added as their rows, as examples are; a longer
  one sums its passages' contributions in passage order, and the sum is
  added to the batch total in context order;
* the sum needs no zeros to start from, and an embedding sum is added only
  at its stacks' ids, because a total that starts at +0.0 never holds
  -0.0 (``x + 0.0 == x``).

Example records are duck-typed: training consumes objects carrying
``question_ids``, ``passage_ids`` and ``target`` (plus ``example`` for text
metrics); shared-normalization training consumes contexts carrying
``question_ids`` and ``passages``, each passage with ``passage_ids`` and a
``gt_spans`` collection.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass, field, fields
from types import SimpleNamespace

import numpy as np

from . import decoding
from .data import canonical_json, replacing
from .errors import (
    MALFORMED_RECORD_ERRORS,
    ConfigError,
    DivergenceError,
    InvalidInputError,
    SpanObjError,
    VocabularyError,
    malformed,
)
from .evaluation import score_pairs
from .numerics import (
    MASK_POLICIES,
    MASK_VALID,
    MAX_DECODE_CELLS,
    MAX_WINDOW_CELLS,
    ScoreMatrix,
    span_mask,
    stack_cap,
)
from .objectives import (
    OBJ_COMPOUND,
    OBJ_COMPOUND_SHARED,
    OBJ_CONDITIONAL,
    OBJ_INDEPENDENT,
    OBJ_JOINT,
    OBJECTIVE_KINDS,
    ConditionalParams,
    LossResult,
    SpanTarget,
    boundary_gold,
    compound_rows,
    conditional_rows,
    independent_rows,
    joint_gold,
    joint_rows,
    pooled_ce_rows,
    stack_one,
    target_arrays,
    unstack_one,
)
from .similarity import (
    KIND_DOT,
    SIMILARITY_KINDS,
    SimilarityParams,
    span_score_grads,
    span_score_values,
    start_reps,
    weight_length,
)

CHECKPOINT_MAGIC = "spanobj-checkpoint 1"


# ---------------------------------------------------------------------------
# Parameters


def _block_shapes(vocab_size: int, dim: int, similarity_kind: str) -> dict:
    """The parameter table: block name -> shape, in serialization order."""
    d = dim
    shapes = {
        "emb": (vocab_size, d),
        "w_q": (d, d), "b_q": (d,),
        "w_mix": (d, 3 * d), "b_mix": (d,),
        "w_s": (d,), "b_s": (1,),
        "w_e": (d,), "b_e": (1,),
        "w_joint": (d, d), "b_joint": (d,),
        "w_cond": (d, 2 * d), "b_cond": (d,), "w_cond_out": (d,),
    }
    sim_len = weight_length(similarity_kind, d)
    if sim_len:
        shapes["w_sim"] = (sim_len,)
    return shapes


class FlatBlocks(dict):
    """Block name -> array, each a reshaped view of one float64 vector, ``flat``,
    cut in serialization order.  Update blocks in place: a block rebound to
    another array no longer reads or writes ``flat``."""

    def __init__(self, flat: np.ndarray, shapes: dict) -> None:
        super().__init__()
        offset = 0
        for name, shape in shapes.items():
            size = math.prod(shape)
            self[name] = flat[offset : offset + size].reshape(shape)
            offset += size
        if offset != flat.size:
            raise InvalidInputError(f"flat vector has {flat.size} values, expected {offset}")
        self.flat = flat


class ModelParams:
    """Every trainable array: one flat vector, ``flat``, cut into named blocks.

    ``arrays`` maps each block name to its view of ``flat``, in
    serialization order (a :class:`FlatBlocks`).  ``emb`` is the V x d
    token embedding table.  ``w_q``/``b_q`` transform the mean question
    embedding into the conditioning vector q.  ``w_mix``/``b_mix`` map the
    per-token feature [e_t; e_t*q; q] to the d x L passage representation H
    (through tanh).  ``w_s``/``b_s`` and ``w_e``/``b_e`` score boundaries;
    ``w_joint``/``b_joint`` derive start representations for the joint
    head; ``w_cond``/``b_cond``/``w_cond_out`` are the conditional end head;
    and ``w_sim``, present when the similarity kind has weights, combines
    the boundary representations into span scores.

    The constructor copies the blocks into a new vector.  Each block is
    also an attribute (``params.w_s``), and ``cond`` and ``similarity`` are
    views over the same arrays.  ``flat`` is updated in place, so they stay valid.
    """

    def __init__(self, arrays: dict, similarity_kind: str) -> None:
        vocab_size, dim = arrays["emb"].shape
        self.shapes = _block_shapes(vocab_size, dim, similarity_kind)
        if [(name, arr.shape) for name, arr in arrays.items()] != list(self.shapes.items()):
            raise InvalidInputError(f"parameter blocks do not match the table {self.shapes}")
        flat = np.concatenate([np.ravel(arr) for arr in arrays.values()], dtype=np.float64)
        self.arrays = FlatBlocks(flat, self.shapes)
        self.flat = flat
        for name, arr in self.arrays.items():
            setattr(self, name, arr)  # keeps attribute loads as fast as a dataclass's
        self.cond = ConditionalParams(self.w_cond, self.b_cond, self.w_cond_out)
        self.similarity = SimilarityParams(similarity_kind, self.arrays.get("w_sim"))
        self._positions = {}

    @property
    def dim(self) -> int:
        return self.emb.shape[1]

    @property
    def vocab_size(self) -> int:
        return self.emb.shape[0]

    def blocks(self) -> list:
        """Ordered (name, array) pairs; the order is the serialization order."""
        return list(self.arrays.items())

    def copy(self) -> "ModelParams":
        return ModelParams(self.arrays, self.similarity.kind)

    def positions(self, names: tuple) -> np.ndarray:
        """The positions in ``flat`` of these blocks' values, block after block."""
        if names not in self._positions:
            starts = np.cumsum([0] + [math.prod(shape) for shape in self.shapes.values()]).tolist()
            start = dict(zip(self.shapes, starts))
            self._positions[names] = np.concatenate(
                [np.arange(start[name], start[name] + self.arrays[name].size) for name in names]
            )
        return self._positions[names]


def init_params(
    vocab_size: int,
    dim: int = 32,
    similarity_kind: str = KIND_DOT,
    seed: int = 0,
) -> ModelParams:
    """Seeded initialization; identical seeds give identical parameters.

    Biases start at zero, so that zeroed embeddings yield exactly uniform
    score distributions.  ``emb`` draws from N(0, 0.5^2), ``w_sim`` from
    N(0, 1/d) and every other weight from N(0, 1/fan_in).
    """
    if vocab_size < 1 or dim < 1:
        raise ConfigError(f"bad model dimensions V={vocab_size}, d={dim}")
    if similarity_kind not in SIMILARITY_KINDS:
        raise ConfigError(f"unknown similarity kind {similarity_kind!r}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0]))
    shapes = _block_shapes(vocab_size, dim, similarity_kind)
    scales = {"emb": 0.5, "w_sim": 1.0 / np.sqrt(dim)}
    arrays = {}
    # w_sim is drawn first, so a seed keeps the parameters it has always had.
    for name in sorted(shapes, key=lambda name: name != "w_sim"):
        shape = shapes[name]
        if name.startswith("b_"):
            arrays[name] = np.zeros(shape)
        else:
            arrays[name] = rng.normal(0.0, scales.get(name, 1.0 / np.sqrt(shape[-1])), size=shape)
    return ModelParams({name: arrays[name] for name in shapes}, similarity_kind)


def zero_grads(params: ModelParams) -> FlatBlocks:
    """Zeroed blocks shaped like ``params``, views of one zeroed vector."""
    return FlatBlocks(np.zeros(params.flat.size), params.shapes)


# ---------------------------------------------------------------------------
# Forward / backward

@dataclass
class _Stack:
    """Forward intermediates of B examples sharing passage length L.

    Arrays carry a leading B axis; ``question_ids`` concatenates the
    examples' question ids and ``question_lengths`` splits them.  A
    shared-normalization chunk drops ``features``, ``h_start`` and
    ``joint`` while its stacks wait for their backward passes.
    """

    question_ids: np.ndarray
    question_lengths: np.ndarray
    passage_ids: np.ndarray   # B x L
    q_bar: np.ndarray         # B x d
    q: np.ndarray             # B x d
    features: np.ndarray | None  # B x 3d x L mixing-layer input
    h: np.ndarray             # B x d x L
    start_scores: np.ndarray  # B x L
    end_scores: np.ndarray    # B x L
    h_start: np.ndarray | None  # B x d x L joint-head start representations
    joint: np.ndarray | None    # B x L x L span scores
    mask: np.ndarray          # L x L span mask the scores are normalized over


@dataclass
class ForwardCache:
    """One example's forward pass: its B=1 stack, kept for the backward
    pass, and the one-example views of it that losses and decoders read."""

    stack: _Stack
    start_scores: np.ndarray  # L
    end_scores: np.ndarray    # L
    h: np.ndarray             # d x L passage representation
    joint: ScoreMatrix


def _check_ids(seqs, vocab_size: int, what: str) -> list:
    seqs = [np.asarray(ids, dtype=np.int64) for ids in seqs]
    if any(ids.ndim != 1 or ids.size == 0 for ids in seqs):
        raise InvalidInputError(f"{what} token ids must be a non-empty 1-d sequence")
    flat = seqs[0] if len(seqs) == 1 else np.concatenate(seqs)
    if flat.min() < 0 or flat.max() >= vocab_size:
        raise VocabularyError(
            f"{what} ids out of range for vocabulary of size {vocab_size}"
        )
    return seqs


def _stack_bounds(lengths):
    """``(lo, hi)`` runs of consecutive items sharing a passage length.

    Each run holds at most ``MAX_STACK`` items and ``MAX_STACK_CELLS``
    score cells (at least one item).
    """
    lo = 0
    while lo < len(lengths):
        length = lengths[lo]
        cap = stack_cap(length)
        hi = lo + 1
        while hi < len(lengths) and hi - lo < cap and lengths[hi] == length:
            hi += 1
        yield lo, hi
        lo = hi


def _cell_windows(cells, budget: int):
    """``(lo, hi)`` runs of consecutive items holding at most ``budget`` of
    the items' ``cells`` in all (at least one item)."""
    lo, count = 0, len(cells)
    while lo < count:
        hi, total = lo + 1, cells[lo]
        while hi < count and total + cells[hi] <= budget:
            total += cells[hi]
            hi += 1
        yield lo, hi
        lo = hi


def _forward_stack(
    params: ModelParams, question_ids, passage_ids, policy: str, joint: bool = True
) -> _Stack:
    """Forward pass of a stack of examples whose passages share one length.

    With ``joint`` False the joint head is skipped and ``h_start``/``joint``
    are None (the independent and conditional objectives never read them).
    Nothing is checked for finiteness here; see :func:`_check_finite`.
    """
    questions = _check_ids(question_ids, params.vocab_size, "question")
    passages = _check_ids(passage_ids, params.vocab_size, "passage")
    passages = passages[0][None] if len(passages) == 1 else np.stack(passages)
    size, length = passages.shape

    # Mean question embedding.  Questions of different lengths are padded,
    # the padding zeroed, and the sum divided by the true count.
    q_lengths = np.array([ids.size for ids in questions])
    q_flat = questions[0] if size == 1 else np.concatenate(questions)
    if (q_lengths == q_lengths[0]).all():
        q_sum = params.emb[q_flat.reshape(size, -1)].sum(axis=1)
    else:
        present = np.arange(q_lengths.max()) < q_lengths[:, None]
        q_pad = np.zeros(present.shape, dtype=np.int64)
        q_pad[present] = q_flat
        q_sum = (params.emb[q_pad] * present[:, :, None]).sum(axis=1)
    q_bar = q_sum / q_lengths[:, None]
    q = (params.w_q @ q_bar[:, :, None])[:, :, 0] + params.b_q

    features = _features(params, passages, q)
    h = np.tanh(params.w_mix @ features + params.b_mix[:, None])

    start_scores = params.w_s @ h + params.b_s[0]
    end_scores = params.w_e @ h + params.b_e[0]
    h_start = scores = None
    mask = span_mask(length, policy)
    if joint:
        h_start = start_reps(h, params.w_joint, params.b_joint)
        scores = span_score_values(h_start, h, params.similarity)
    return _Stack(
        question_ids=q_flat,
        question_lengths=q_lengths,
        passage_ids=passages,
        q_bar=q_bar,
        q=q,
        features=features,
        h=h,
        start_scores=start_scores,
        end_scores=end_scores,
        h_start=h_start,
        joint=scores,
        mask=mask,
    )


def _features(params: ModelParams, passages: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The mixing layer's input ``[e; e * q; q]``, (..., 3d, L), of passages
    (..., L) with embeddings ``e`` and question vectors ``q`` (..., d)."""
    d = params.dim
    e = np.swapaxes(params.emb[passages], -1, -2)
    features = np.empty(e.shape[:-2] + (3 * d, e.shape[-1]))
    features[..., :d, :] = e
    np.multiply(e, q[..., None], out=features[..., d : 2 * d, :])
    features[..., 2 * d :, :] = q[..., None]
    return features


def _check_finite(stack: _Stack) -> None:
    """The checks the one-example containers make, over a whole stack."""
    h, h_start, scores = stack.h, stack.h_start, stack.joint
    if not (np.isfinite(h).all() and (h_start is None or np.isfinite(h_start).all())):
        raise InvalidInputError("boundary representations contain non-finite entries")
    if not (np.isfinite(stack.start_scores).all() and np.isfinite(stack.end_scores).all()):
        raise InvalidInputError("score vector contains non-finite entries")
    if scores is not None and not (
        np.isfinite(scores).all() or np.isfinite(scores[:, stack.mask]).all()
    ):
        raise InvalidInputError("span score matrix has non-finite unmasked entries")


def _plan_stacks(lengths, budget):
    """Windows of stacks (lists of item numbers) of items with these passage lengths.

    The items are cut into runs sharing a length (:func:`_stack_bounds`),
    and consecutive runs into windows holding at most ``budget`` score
    cells (at least one run).  A window's items, sorted stably by length,
    are cut into stacks by the same rule, so sorting only merges runs:
    items of one length come out as exactly their runs.  A stack's members
    rise, and a window's stacks come in the order of their first members.
    """
    runs = list(_stack_bounds(lengths))
    for first, last in _cell_windows([(hi - lo) * lengths[lo] ** 2 for lo, hi in runs], budget):
        order = sorted(range(runs[first][0], runs[last - 1][1]), key=lengths.__getitem__)
        stacks = [order[lo:hi] for lo, hi in _stack_bounds([lengths[i] for i in order])]
        yield sorted(stacks, key=lambda members: members[0])


def _stack_windows(params: ModelParams, items, budget, policy: str, joint: bool = True):
    """The stack planner: the windows of :func:`_plan_stacks` over items
    carrying ``question_ids`` and ``passage_ids``, each an iterator of
    ``(members, stack)`` that runs a stack's forward pass, and checks it
    for finiteness, when it reaches the stack."""

    def run(window):
        for members in window:
            questions = [items[i].question_ids for i in members]
            stack = _forward_stack(
                params, questions, [items[i].passage_ids for i in members], policy, joint
            )
            _check_finite(stack)
            yield members, stack

    return map(run, _plan_stacks([np.size(item.passage_ids) for item in items], budget))


def _stack_loss(params: ModelParams, stack: _Stack, targets, objective: str) -> LossResult:
    """Stacked :class:`LossResult` (``loss`` is a (B,) array) of one objective."""
    starts, ends = target_arrays(targets)
    if objective == OBJ_INDEPENDENT:
        return independent_rows(stack.start_scores, stack.end_scores, starts, ends)
    if objective == OBJ_JOINT:
        return joint_rows(stack.joint, stack.mask, starts, ends)
    if objective in (OBJ_COMPOUND, OBJ_COMPOUND_SHARED):
        return compound_rows(
            stack.start_scores, stack.end_scores, stack.joint, stack.mask, starts, ends
        )
    if objective == OBJ_CONDITIONAL:
        return conditional_rows(stack.start_scores, stack.h, params.cond, starts, ends)
    raise ConfigError(f"unknown objective {objective!r}")


class _PerExample:
    """Example ``j``'s contribution ``form(j)``, formed only when it is read."""

    def __init__(self, form) -> None:
        self.form = form

    def __getitem__(self, j: int) -> np.ndarray:
        return self.form(j)


def _backward_stack(params: ModelParams, stack: _Stack, result: LossResult) -> dict:
    """Every example's parameter-gradient contribution, not yet added anywhere.

    The blocks formed as stacked arrays are one ``(positions, (B, values))``
    matrix under ``"stacked"``, block after block as they are formed, with
    the values' positions in the flat vector.  ``w_joint``, ``w_mix`` and
    ``w_q`` map to per-example products formed when read, so a stack holds
    no B weight-sized blocks.  ``"emb"`` maps to ``(ids, rows)``, the
    stack's distinct token ids and a (B, ids, d) array of each example's
    embedding gradient at them.  :func:`_add_ready` adds the contributions
    up.

    Each gradient the result reports takes its one route: boundary scores
    through w_s/w_e, the joint matrix through the joint head and similarity
    weights, and the conditional head's gradients straight to its blocks
    and the passage representations.  A stack that dropped its mixing-layer
    input F or its joint start representations (a shared-normalization
    chunk's) has them formed again: F's embeddings are gathered again for
    this pass and its example rows formed again when their product is read.
    Temporaries go as soon as they are used, so the pass's peak stays low.
    """
    # The per-example closures below hold only the arrays they read, so a
    # contribution does not keep the stack's score matrices alive.
    h, q, q_bar, passage_ids = stack.h, stack.q, stack.q_bar, stack.passage_ids
    size, d, length = h.shape
    d_h = np.zeros_like(h)
    parts, blocks = {}, {}  # per-example products; stacked (B, ...) blocks

    for head, g in (("s", result.grad_start), ("e", result.grad_end)):
        if g is not None:
            blocks["w_" + head] = (h @ g[:, :, None])[:, :, 0]
            blocks["b_" + head] = g.sum(axis=1)
            d_h += params.arrays["w_" + head][:, None] * g[:, None, :]

    if result.grad_joint is not None:
        h_start = stack.h_start
        if h_start is None:
            h_start = start_reps(h, params.w_joint, params.b_joint)
        d_hs, d_he, d_w_sim = span_score_grads(h_start, h, params.similarity, result.grad_joint)
        del h_start
        parts["w_joint"] = _PerExample(lambda j: d_hs[j] @ h[j].T)
        blocks["b_joint"] = d_hs.sum(axis=2)
        d_he += params.w_joint.T @ d_hs
        d_h += d_he
        del d_he
        if d_w_sim is not None:
            blocks["w_sim"] = d_w_sim

    cond = result.grad_cond
    if cond is not None:
        blocks.update(w_cond=cond.w, b_cond=cond.b, w_cond_out=cond.w_out)
    if result.grad_h is not None:
        d_h += result.grad_h

    # Through H = tanh(w_mix F + b_mix).
    d_pre = d_h
    d_pre *= 1.0 - h**2
    features = stack.features
    if features is None:
        e = np.ascontiguousarray(params.emb[passage_ids].transpose(0, 2, 1))
        parts["w_mix"] = _PerExample(
            lambda j: d_pre[j] @ _features(params, passage_ids[j], q[j]).T
        )
    else:
        e = features[:, :d]
        parts["w_mix"] = _PerExample(lambda j: d_pre[j] @ features[j].T)
    blocks["b_mix"] = d_pre.sum(axis=2)
    d_features = params.w_mix.T @ d_pre

    # Through F = [e; e * q; q].
    d_e = d_features[:, :d] + d_features[:, d : 2 * d] * q[:, :, None]
    d_q = (d_features[:, d : 2 * d] * e).sum(axis=2) + d_features[:, 2 * d :].sum(axis=2)
    del d_features, e

    # Question pooling: q = w_q q_bar + b_q, q_bar = mean of question embeddings.
    parts["w_q"] = _PerExample(lambda j: d_q[j][:, None] * q_bar[j])
    blocks["b_q"] = d_q
    d_q_bar = (params.w_q.T @ d_q[:, :, None])[:, :, 0]

    # Embedding rows: each example's passage rows, then its question rows,
    # summed per example over the stack's distinct ids.
    q_lengths = stack.question_lengths
    token_ids = np.concatenate([passage_ids.ravel(), stack.question_ids])
    seen = np.zeros(params.vocab_size, dtype=bool)
    seen[token_ids] = True
    ids = np.flatnonzero(seen)
    slot_of = np.zeros(params.vocab_size, dtype=np.int64)
    slot_of[ids] = np.arange(ids.size)
    slot = slot_of[token_ids] + ids.size * np.concatenate(
        [np.repeat(np.arange(size), length), np.repeat(np.arange(size), q_lengths)]
    )
    rows = np.empty((token_ids.size, d))
    rows[: size * length].reshape(size, length, d)[...] = d_e.transpose(0, 2, 1)
    del d_e
    rows[size * length :] = np.repeat(d_q_bar / q_lengths[:, None], q_lengths, axis=0)
    parts["emb"] = (ids, _sum_rows(slot, rows, size * ids.size).reshape(size, ids.size, d))
    del rows, slot
    parts["stacked"] = (
        params.positions(tuple(blocks)),
        np.concatenate([block.reshape(size, -1) for block in blocks.values()], axis=1),
    )
    return parts


def _sum_rows(slots: np.ndarray, rows: np.ndarray, count: int) -> np.ndarray:
    """``count`` rows, row k the sum of the ``rows`` at slot k: one
    ``np.bincount`` over cells ``slot * d + column``, which adds in row
    order from +0.0, as ``np.add.at`` into zeros does."""
    d = rows.shape[1]
    cells = (slots[:, None] * d + np.arange(d)).ravel()
    return np.bincount(cells, weights=rows.ravel(), minlength=count * d).reshape(count, d)


def _add_rows(grads: FlatBlocks, parts: dict, lo: int, hi: int) -> None:
    """Add rows ``lo..hi-1`` of a stack's contributions (:func:`_backward_stack`)
    to ``grads``, one example after the other: the stacked matrix and the
    embedding rows each through one gather and one scatter."""
    positions, stacked = parts["stacked"]
    total = grads.flat[positions]
    for j in range(lo, hi):
        total += stacked[j]
    grads.flat[positions] = total
    for name, rows in parts.items():
        if isinstance(rows, _PerExample):
            total = grads[name]
            for j in range(lo, hi):
                total += rows[j]
    ids, rows = parts["emb"]
    emb = grads["emb"][ids]
    for j in range(lo, hi):
        emb += rows[j]
    grads["emb"][ids] = emb


def batch_loss_and_grads(params: ModelParams, batch, objective: str, policy: str = MASK_VALID):
    """Per-item losses and the summed parameter gradients of a batch of
    examples, or of supervised contexts (items with ``passages``), which
    train ``compound-shared`` in chunks (:func:`_context_chunks`).

    Examples run as the planner's stacks (:func:`_stack_windows`, windows of
    at most ``MAX_WINDOW_CELLS`` score cells), and :func:`_add_ready` adds
    each after its stack's backward pass, in example order.  Losses and
    gradients equal a loop of :func:`loss_and_grads` or
    :func:`context_loss_and_grads` over the batch bit for bit.
    """
    grads = zero_grads(params)
    if batch and hasattr(batch[0], "passages"):
        if objective != OBJ_COMPOUND_SHARED:
            raise ConfigError(f"contexts train {OBJ_COMPOUND_SHARED!r}, not {objective!r}")
        losses = []
        for chunk in _context_chunks(batch):
            losses += _chunk_loss_and_grads(params, chunk, policy, grads)
        return losses, grads
    losses = [0.0] * len(batch)
    # The independent and conditional objectives never read the joint head.
    joint = objective not in (OBJ_INDEPENDENT, OBJ_CONDITIONAL)
    place, parts, added = [None] * len(batch), [], 0
    for window in _stack_windows(params, batch, MAX_WINDOW_CELLS, policy, joint):
        for members, stack in window:
            result = _stack_loss(params, stack, [batch[i].target for i in members], objective)
            k = len(parts)
            for j, (i, loss) in enumerate(zip(members, result.loss.tolist())):
                losses[i] = loss
                place[i] = [(k, j)]
            parts.append((_backward_stack(params, stack, result), len(members)))
            added = _add_ready(grads, place, parts, added)
    return losses, grads


def _add_ready(grads: FlatBlocks, place: list, parts: list, added: int) -> int:
    """Add items ``added``, ``added + 1``, ... to ``grads`` while their stacks
    have run; returns the first item not added.

    ``place[i]`` lists item ``i``'s ``(stack, row)`` pairs (one for an
    example, a context's passages in passage order), or is None until its
    stacks are planned.  ``parts[k]`` holds stack ``k``'s contributions
    (:func:`_backward_stack`) and row count, or None before its backward
    pass and once dropped.  A stack's members rise, so the last item that reads a stack
    reads its last row, and the stack is dropped once that row is added.

    A run of one-row items at consecutive rows of one stack is one
    :func:`_add_rows`.  An item of several rows sums them in order and adds
    the sum: the adds of forming its gradient from zeros and adding it.
    Skipping the zeros, and adding an embedding sum only at its stacks'
    ids, change no bit, because a total that starts at +0.0 never holds
    -0.0 (``x + 0.0 == x``).
    """
    count = len(place)
    while added < count and place[added] is not None:
        spots = place[added]
        for k, _ in spots:
            if parts[k] is None:
                return added
        added += 1
        if len(spots) == 1:
            ((k, lo),) = spots
            hi = lo + 1
            while added < count and place[added] == [(k, hi)]:
                hi += 1
                added += 1
            _add_rows(grads, parts[k][0], lo, hi)
            spots = [(k, hi - 1)]  # the run's last row
        else:
            sources = [(parts[k][0], j) for k, j in spots]
            (first, row), rest = sources[0], sources[1:]
            positions, stacked = first["stacked"]
            total = stacked[row]
            for contributions, j in rest:
                total = total + contributions["stacked"][1][j]
            grads.flat[positions] += total
            for name, rows in first.items():
                if isinstance(rows, _PerExample):
                    total = rows[row]
                    for contributions, j in rest:
                        total = total + contributions[name][j]
                    grads[name] += total

            # The union of the stacks' ids (np.unique's first call costs 1 MB of imports).
            seen = np.zeros(len(grads["emb"]), dtype=bool)
            for contributions, _ in sources:
                seen[contributions["emb"][0]] = True
            ids = np.flatnonzero(seen)
            total = np.zeros((ids.size, grads["emb"].shape[1]))
            for contributions, j in sources:
                stack_ids, rows = contributions["emb"]
                total[np.searchsorted(ids, stack_ids)] += rows[j]
            grads["emb"][ids] += total
        for k, j in spots:
            if j == parts[k][1] - 1:
                parts[k] = None
    return added


def forward(
    params: ModelParams,
    question_ids,
    passage_ids,
    policy: str = MASK_VALID,
) -> ForwardCache:
    """Full forward pass producing boundary scores and the joint score matrix."""
    stack = _forward_stack(params, [question_ids], [passage_ids], policy)
    _check_finite(stack)
    joint = ScoreMatrix(stack.joint[0], stack.mask)
    return ForwardCache(stack, stack.start_scores[0], stack.end_scores[0], stack.h[0], joint)


def example_loss(params: ModelParams, cache: ForwardCache, target: SpanTarget, objective: str) -> LossResult:
    """Loss of one example under the chosen objective, with score gradients."""
    return unstack_one(_stack_loss(params, cache.stack, [target], objective))


def backward(params: ModelParams, cache: ForwardCache, result: LossResult, objective: str) -> dict:
    """Chain rule from a one-example LossResult to every block; ``objective`` is only checked."""
    if objective not in OBJECTIVE_KINDS:
        raise ConfigError(f"unknown objective {objective!r}")
    if cache.h.shape[0] != params.dim:
        raise InvalidInputError("forward cache does not match these parameters")
    grads = zero_grads(params)
    parts = _backward_stack(params, cache.stack, stack_one(result))
    _add_rows(grads, parts, 0, 1)
    return grads


def loss_and_grads(
    params: ModelParams,
    question_ids,
    passage_ids,
    target: SpanTarget,
    objective: str,
    policy: str = MASK_VALID,
) -> tuple:
    """One-example convenience: forward, loss, and full parameter gradients."""
    example = SimpleNamespace(question_ids=question_ids, passage_ids=passage_ids, target=target)
    (loss,), grads = batch_loss_and_grads(params, [example], objective, policy)
    return loss, grads


# ---------------------------------------------------------------------------
# Shared-normalization contexts


def _supervised(context) -> bool:
    return any(len(p.gt_spans) for p in context.passages)


def _context_chunks(contexts, budget: int = MAX_WINDOW_CELLS):
    """Runs of consecutive contexts holding at most ``budget`` score cells
    (L^2 over their passages) in all.

    A run holds at least one context, so a larger context is a run of its own.
    """
    cells = [sum(np.size(p.passage_ids) ** 2 for p in context.passages) for context in contexts]
    for lo, hi in _cell_windows(cells, budget):
        yield contexts[lo:hi]


def _chunk_loss_and_grads(params: ModelParams, contexts, policy: str, grads: dict) -> list:
    """Pooled losses of supervised contexts; adds their gradients to ``grads``.

    The contexts' passages run through the core as the planner's stacks,
    all in one window (:func:`_stack_windows`); a stack keeps only its
    matrices' unmasked cells.  Each context pays one pooled cross-entropy
    per factor (start, end, joint) over its passages' scores in passage
    order, marginalizing every distantly supervised position; every
    context's three pools run as one :func:`_pooled_losses`.  The stacks'
    backward passes then run (:func:`_backward_stack`, which forms what a
    stack dropped again), each stack's forward arrays released after its
    pass, and :func:`_add_ready` adds each context in context order as soon
    as its stacks have run.  Losses and gradients equal a loop of
    :func:`context_loss_and_grads` over the contexts bit for bit.
    """
    passages = [p for context in contexts for p in context.passages]
    items = [
        SimpleNamespace(question_ids=context.question_ids, passage_ids=p.passage_ids)
        for context in contexts
        for p in context.passages
    ]
    (window,) = _stack_windows(params, items, math.inf, policy)
    stacks, place = [], [None] * len(items)  # passage -> (stack, row)
    for members, stack in window:
        # Each row's unmasked span scores, row-major, are all the losses read
        # of the matrices.  The mixing layer's input and the joint head's
        # start representations are formed again in the backward pass.
        stacks.append((stack, stack.joint.reshape(len(members), -1)[:, stack.mask.ravel()]))
        stack.joint = stack.h_start = stack.features = None
        for j, i in enumerate(members):
            place[i] = (len(stacks) - 1, j)

    # Each passage's start, end and joint gold positions.
    golds = tuple(zip(*(
        _gold_positions(tuple((int(t.start), int(t.end)) for t in p.gt_spans),
                        np.size(p.passage_ids), policy)
        for p in passages
    )))
    firsts = np.cumsum([0] + [len(context.passages) for context in contexts])
    factors = [
        [stack.start_scores for stack, _ in stacks],
        [stack.end_scores for stack, _ in stacks],
        [cells for _, cells in stacks],
    ]
    losses, score_grads = _pooled_losses(factors, place, firsts, golds)

    # Each context is added, in context order, once its stacks have run.
    spots = [place[lo:hi] for lo, hi in zip(firsts.tolist(), firsts[1:].tolist())]
    parts, added = [None] * len(stacks), 0
    for k, (grad_start, grad_end, grad_cells) in enumerate(zip(*score_grads)):
        stack, _ = stacks[k]
        stacks[k] = None  # its forward arrays go once its backward pass is done
        grad_joint = np.zeros((len(grad_cells),) + stack.mask.shape)
        grad_joint.reshape(len(grad_cells), -1)[:, stack.mask.ravel()] = grad_cells
        result = LossResult(0.0, grad_start, grad_end, grad_joint)
        parts[k] = _backward_stack(params, stack, result), len(grad_cells)
        added = _add_ready(grads, spots, parts, added)
    return losses


@functools.lru_cache(maxsize=4096)
def _gold_positions(spans: tuple, length: int, policy: str) -> tuple:
    """The ascending start, end and joint gold positions of a passage of
    ``length`` with gold ``(start, end)`` ``spans``.

    Contexts do not change between epochs, so each passage's are formed
    once; a gold cell the policy masks raises every time it is asked for.
    """
    return (
        tuple(boundary_gold([s for s, _ in spans], length)),
        tuple(boundary_gold([e for _, e in spans], length)),
        tuple(joint_gold(spans, span_mask(length, policy))),
    )


def _pooled_losses(factors: list, place: list, firsts: np.ndarray, golds: tuple) -> tuple:
    """Every context's pooled loss, the sum of its three factors'
    cross-entropies, as one :func:`~spanobj.objectives.pooled_ce_rows`.

    ``factors`` holds the start, end and joint factors' score rows per
    stack, (B, n) arrays; ``place`` each passage's ``(stack, row)`` in
    passage order, ``firsts`` each context's first passage (then the
    passage count) and ``golds`` each factor's ascending gold positions per
    passage.  A context's pool of a factor is its passages' rows in passage
    order; the pools run factor after factor.  Returns the losses
    (joint + start + end) and each factor's score gradients per stack, laid
    out as its rows.
    """
    stacked = [rows for factor in factors for rows in factor]
    offsets = np.cumsum([0] + [rows.size for rows in stacked]).tolist()
    count = len(factors[0])  # stacks
    starts, widths = [], []
    for f, factor in enumerate(factors):
        for k, j in place:
            width = factor[k].shape[1]
            starts.append(offsets[f * count + k] + j * width)
            widths.append(width)
    where = _ranges(starts, widths)  # the (factor, passage) rows, one after the other
    at = np.cumsum([0] + widths)
    rows = [positions for factor_golds in golds for positions in factor_golds]
    gold = [lo + pos for lo, positions in zip(at.tolist(), rows) for pos in positions]
    gold_at = np.cumsum([0] + [len(positions) for positions in rows])
    pools = [f * len(place) + first for f in range(3) for first in firsts[:-1].tolist()] + [len(rows)]
    losses, grad = pooled_ce_rows(
        np.concatenate([rows.ravel() for rows in stacked])[where],
        at[pools],
        np.array(gold, dtype=np.int64),
        gold_at[pools],
    )
    flat = np.empty(grad.size)
    flat[where] = grad
    per_stack = [flat[lo:hi].reshape(rows.shape) for lo, hi, rows in zip(offsets, offsets[1:], stacked)]
    start, end, joint = np.split(losses, 3)
    return (joint + start + end).tolist(), [per_stack[f * count : (f + 1) * count] for f in range(3)]


def _ranges(starts, sizes) -> np.ndarray:
    """The ranges ``starts[i] .. starts[i] + sizes[i] - 1``, concatenated."""
    sizes = np.asarray(sizes)
    ends = np.cumsum(sizes)
    return np.arange(ends[-1]) + np.repeat(np.asarray(starts) - (ends - sizes), sizes)


def context_loss_and_grads(params: ModelParams, context, policy: str = MASK_VALID):
    """Pooled loss over one retrieval context, or None when unsupervised.

    Every passage in the context is encoded, the start/end/joint scores are
    pooled across passages, and each of the three factors pays a
    shared-normalization loss that marginalizes all distantly supervised
    answer positions.  A context whose passages carry no gold span at all
    yields None (the caller counts the skip).  This is the one-context view
    of the chunk path that shared-normalization training runs.
    """
    if not context.passages:
        raise InvalidInputError("context has no passages")
    if not _supervised(context):
        return None
    (loss,), grads = batch_loss_and_grads(params, [context], OBJ_COMPOUND_SHARED, policy)
    return loss, grads


# ---------------------------------------------------------------------------
# Optimizer


@dataclass
class AdamW:
    """Adaptive-moment optimizer with decoupled weight decay.

    The decay term is applied directly to the parameters, outside the
    moment-scaled step: p <- p - lr * (m_hat / (sqrt(v_hat) + eps) + wd * p).
    With zero gradients each step therefore multiplies every parameter by
    exactly (1 - lr * wd).
    The gradient (a :func:`zero_grads` table) and the moments ``m``/``v``
    (empty before the first step) are :class:`FlatBlocks`, and a step is one
    elementwise pass over the flat vectors.
    """

    lr: float = 1e-3
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def step(self, params: ModelParams, grads: FlatBlocks) -> None:
        if not isinstance(grads, FlatBlocks):
            raise InvalidInputError(f"AdamW.step takes a zero_grads table, not a {type(grads).__name__}")
        self.t += 1
        if not self.m:
            self.m, self.v = zero_grads(params), zero_grads(params)
        g, m, v, p = grads.flat, self.m.flat, self.v.flat, params.flat
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g * g
        m_hat = m / (1.0 - self.beta1**self.t)
        v_hat = v / (1.0 - self.beta2**self.t)
        p -= self.lr * (m_hat / (np.sqrt(v_hat) + self.eps) + self.weight_decay * p)


# The AdamW fields a checkpoint header records.
_ADAMW_SETTINGS = ("t", "lr", "weight_decay", "beta1", "beta2", "eps")


# ---------------------------------------------------------------------------
# Training


@dataclass
class TrainConfig:
    """Hyperparameters for one training run."""

    objective: str = OBJ_COMPOUND
    learning_rate: float = 1e-3
    weight_decay: float = 0.01
    batch_size: int = 32
    epochs: int = 10
    seed: int = 0
    policy: str = MASK_VALID
    dim: int = 32
    similarity: str = KIND_DOT

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVE_KINDS:
            raise ConfigError(f"unknown objective {self.objective!r}")
        if self.policy not in MASK_POLICIES:
            raise ConfigError(f"unknown masking policy {self.policy!r}")
        if self.similarity not in SIMILARITY_KINDS:
            raise ConfigError(f"unknown similarity kind {self.similarity!r}")
        for spec in fields(self):  # an int field takes integers, a float field real numbers
            kind = {"int": numbers.Integral, "float": numbers.Real}.get(spec.type)
            value = getattr(self, spec.name)
            if kind and (isinstance(value, bool) or not isinstance(value, kind)):
                raise ConfigError(f"{spec.name} must be {spec.type}, got {value!r}")
        if self.learning_rate <= 0 or self.weight_decay < 0:
            raise ConfigError("learning rate must be positive, weight decay non-negative")
        if min(self.batch_size, self.epochs, self.dim) < 1:
            raise ConfigError("batch size, epochs and dim must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class TrainResult:
    params: ModelParams
    log: list
    optimizer: AdamW
    epochs_done: int


def _epoch_rng(seed: int, epoch: int) -> np.random.Generator:
    # Epoch order depends only on (seed, epoch), so a resumed run shuffles
    # identically to an uninterrupted one.
    return np.random.default_rng(np.random.SeedSequence([int(seed), 1, int(epoch)]))


def train_step(params: ModelParams, batch, config: TrainConfig, optimizer: AdamW) -> tuple:
    """One optimizer step on a batch; returns ``(loss total, used, skipped)``.

    A batch of contexts (items with ``passages``) trains shared
    normalization, so ``config.objective`` must be ``compound-shared``:
    contexts without a gold position are skipped, the rest
    run in chunks, and the total is the sum of their pooled losses.  A batch
    of examples trains ``config.objective``, and its total is the mean loss
    times the batch size, the figure the epoch log has always added.  The
    step follows the mean gradient over the items used; a batch that uses
    none takes no step.
    """
    if not batch:
        raise InvalidInputError("empty batch")
    shared = hasattr(batch[0], "passages")
    if shared and config.objective != OBJ_COMPOUND_SHARED:
        raise ConfigError(f"contexts train {OBJ_COMPOUND_SHARED!r}, not {config.objective!r}")
    used = [item for item in batch if not shared or _supervised(item)]
    try:
        losses, grads = batch_loss_and_grads(params, used, config.objective, config.policy)
    except InvalidInputError as err:
        raise DivergenceError(f"non-finite forward pass: {err}") from err
    total = 0.0
    for loss in losses:
        if not np.isfinite(loss):
            raise DivergenceError(f"non-finite loss {loss!r}")
        total += loss
    if used:
        scale = 1.0 / len(used)
        grads.flat *= scale
        optimizer.step(params, grads)
        if not shared:
            total = total * scale * len(used)
    return total, len(used), len(batch) - len(used)


def train(
    items,
    config: TrainConfig,
    *,
    params: ModelParams | None = None,
    optimizer: AdamW | None = None,
    start_epoch: int = 0,
    dev_set=None,
    vocab_size: int | None = None,
    beam_width: int = decoding.DEFAULT_BEAM_WIDTH,
) -> TrainResult:
    """Train on examples or retrieval contexts; deterministic given (seed, config, data).

    Contexts train ``compound-shared`` and examples every other objective.
    Contexts without any distantly supervised position are skipped and
    counted in the log rather than failing the run.  From scratch,
    ``vocab_size`` is required.  Pass ``params``/``optimizer``/``start_epoch``
    from a checkpoint to resume: epoch shuffles are derived from (seed,
    epoch), so the continuation matches an uninterrupted run exactly.
    """
    items = list(items)
    if not items:
        raise InvalidInputError("nothing to train on")
    shared = config.objective == OBJ_COMPOUND_SHARED
    for i, item in enumerate(items):
        if hasattr(item, "passages") != shared:
            raise ConfigError(
                f"item {i} is {'an example' if shared else 'a context'}: contexts train "
                f"{OBJ_COMPOUND_SHARED!r} and examples every other objective, not {config.objective!r}"
            )
        if shared and not item.passages:
            raise InvalidInputError(f"context {i} has no passages")
    if params is None:
        if vocab_size is None:
            raise ConfigError("vocab_size required when training from scratch")
        params = init_params(vocab_size, config.dim, config.similarity, config.seed)
    if optimizer is None:
        optimizer = AdamW(lr=config.learning_rate, weight_decay=config.weight_decay)
    log = []
    for epoch in range(start_epoch, config.epochs):
        order = _epoch_rng(config.seed, epoch).permutation(len(items))
        total = 0.0
        used = 0
        skipped = 0
        for lo in range(0, len(order), config.batch_size):
            batch = [items[i] for i in order[lo : lo + config.batch_size]]
            batch_total, batch_used, batch_skipped = train_step(params, batch, config, optimizer)
            total += batch_total
            used += batch_used
            skipped += batch_skipped
        entry = {
            "epoch": epoch,
            "loss": total / used if used else float("nan"),
            "examples": used,
            "skipped": skipped,
        }
        if dev_set is not None:
            report = evaluate_model(params, dev_set, config.objective, config.policy, beam_width)
            entry["dev_em"] = report.em
            entry["dev_f1"] = report.f1
            entry["dev_cross_rate"] = report.cross_rate
        log.append(entry)
    return TrainResult(params, log, optimizer, config.epochs)


def train_dss(contexts, config: TrainConfig, **kwargs) -> TrainResult:
    """Shared-normalization training: :func:`train` on contexts, traced under its own name."""
    return train(contexts, config, **kwargs)


# ---------------------------------------------------------------------------
# Decoding + evaluation glue


def predict_distributions(
    params: ModelParams,
    examples,
    objective: str,
    policy: str = MASK_VALID,
    beam_width: int = decoding.DEFAULT_BEAM_WIDTH,
):
    """Span distributions of encoded examples, yielded in input order.

    Compound-family models decode with the joint factor; the independent
    objective decodes with the boundary product; the conditional objective
    beam-decodes.  Examples run through the model core as the planner's
    stacks (:func:`_stack_windows`, windows of at most ``MAX_DECODE_CELLS``
    score cells), and a window's distributions are yielded after its last
    stack, so they stay few.  Each distribution equals the one-example
    decode bit for bit.
    """
    if objective not in OBJECTIVE_KINDS:
        raise ConfigError(f"unknown objective {objective!r}")
    examples = list(examples)
    # The independent and conditional decoders never read the joint head.
    joint = objective not in (OBJ_INDEPENDENT, OBJ_CONDITIONAL)
    for window in _stack_windows(params, examples, MAX_DECODE_CELLS, policy, joint):
        dists = {}
        for members, stack in window:
            for j, i in enumerate(members):
                if objective == OBJ_INDEPENDENT:
                    dists[i] = decoding.independent_distribution(
                        stack.start_scores[j], stack.end_scores[j], policy
                    )
                elif objective == OBJ_CONDITIONAL:
                    dists[i] = decoding.beam_decode(
                        stack.start_scores[j], stack.h[j], params.cond, beam_width
                    )
                else:
                    dists[i] = decoding.joint_distribution(ScoreMatrix(stack.joint[j], stack.mask))
        for i in sorted(dists):
            yield dists.pop(i)


def predict_distribution(
    params: ModelParams,
    question_ids,
    passage_ids,
    objective: str,
    policy: str = MASK_VALID,
    beam_width: int = decoding.DEFAULT_BEAM_WIDTH,
) -> decoding.SpanDistribution:
    """Span distribution for one example: :func:`predict_distributions` of one."""
    example = SimpleNamespace(question_ids=question_ids, passage_ids=passage_ids)
    (dist,) = predict_distributions(params, [example], objective, policy, beam_width)
    return dist


@dataclass
class EvalReport:
    """Aggregate metrics of a decoded dev set."""

    em: float
    f1: float
    n: int
    cross_rate: float
    cross_count: int
    cross_eligible: int


def evaluate_model(
    params: ModelParams,
    dev_set,
    objective: str,
    policy: str = MASK_VALID,
    beam_width: int = decoding.DEFAULT_BEAM_WIDTH,
) -> EvalReport:
    """Greedy-decode a dev set and score EM/F1 and the cross-boundary rate.

    EM/F1 are :func:`~spanobj.evaluation.score_pairs`' aggregates, the
    ``eval`` command's; an empty dev set scores zero.  The cross-boundary
    rate is measured over examples that record at least two candidate
    answer spans: a decode crosses when its start falls inside one
    candidate and its end inside another.
    """
    dev_set = list(dev_set)
    pairs = []
    crossings = 0
    eligible = 0
    dists = predict_distributions(params, dev_set, objective, policy, beam_width)
    for enc, dist in zip(dev_set, dists):
        predictions = decoding.top_k(dist, 1, enc.example.passage)
        pairs.append((predictions[0].text if predictions else "", enc.example.answers))

        regions = [(t.start, t.end) for t in getattr(enc.example, "candidate_spans", [])]
        if len(regions) >= 2 and predictions:
            eligible += 1
            span = predictions[0].span
            if decoding.span_crosses((span.start, span.end), regions):
                crossings += 1
    scores = score_pairs(pairs) if pairs else SimpleNamespace(em=0.0, f1=0.0)
    return EvalReport(
        em=scores.em,
        f1=scores.f1,
        n=len(pairs),
        cross_rate=crossings / eligible if eligible else 0.0,
        cross_count=crossings,
        cross_eligible=eligible,
    )


# ---------------------------------------------------------------------------
# Checkpoints


def save_checkpoint(
    path,
    params: ModelParams,
    *,
    objective: str,
    seed: int,
    epoch: int,
    vocab=None,
    optimizer: AdamW | None = None,
    extra: dict | None = None,
) -> None:
    """Serialize parameters (and optionally optimizer state) to one file.

    Layout: a magic line, one JSON header line (dimensions, block table,
    vocabulary, run metadata), then the raw little-endian float64 bytes of
    ``params.flat`` (every block in declared order), followed by the
    optimizer's first- and second-moment vectors when present.  Identical
    inputs produce identical bytes.  The file replaces ``path`` only once it
    is written whole (:func:`~spanobj.data.replacing`).
    """
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
        header["optimizer"] = {key: getattr(optimizer, key) for key in _ADAMW_SETTINGS}
    with replacing(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC.encode("ascii") + b"\n")
        fh.write(canonical_json(header).encode("utf-8"))
        fh.write(b"\n")
        vectors = [params.flat]
        if optimizer is not None:
            vectors += [
                moments.flat if moments else np.zeros(params.flat.size)
                for moments in (optimizer.m, optimizer.v)
            ]
        for vector in vectors:
            fh.write(vector.astype("<f8", copy=False).tobytes())


@dataclass
class Checkpoint:
    params: ModelParams
    objective: str
    seed: int
    epoch: int
    vocab: list | None
    optimizer: AdamW | None
    extra: dict


def _read_vector(fh, count: int) -> np.ndarray:
    """``count`` values read in one call, as a read-only view of the bytes."""
    raw = fh.read(count * 8)
    if len(raw) != count * 8:
        raise InvalidInputError("checkpoint truncated")
    return np.frombuffer(raw, dtype="<f8")


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint written by :func:`save_checkpoint`."""
    with open(path, "rb") as fh:
        magic = fh.readline().decode("ascii", errors="replace").rstrip("\n")
        if magic != CHECKPOINT_MAGIC:
            raise InvalidInputError(f"not a checkpoint file (magic {magic!r})")
        try:
            return _read_checkpoint(fh)
        except SpanObjError:
            raise
        except MALFORMED_RECORD_ERRORS as err:
            # The header (line 2) drives everything read after it.
            raise malformed(path, 2, "checkpoint header", err) from err


def _read_checkpoint(fh) -> Checkpoint:
    header = json.loads(fh.readline().decode("utf-8"))
    shapes = {name: tuple(shape) for name, shape in header["blocks"]}
    count = sum(math.prod(shape) for shape in shapes.values())
    params = ModelParams(FlatBlocks(_read_vector(fh, count), shapes), header["similarity"])
    optimizer = None
    if header.get("optimizer"):
        optimizer = AdamW(**{key: header["optimizer"][key] for key in _ADAMW_SETTINGS})
        moments = [_read_vector(fh, count).astype(np.float64) for _ in range(2)]
        optimizer.m, optimizer.v = (FlatBlocks(flat, params.shapes) for flat in moments)
    return Checkpoint(
        params=params,
        objective=header["objective"],
        seed=header["seed"],
        epoch=header["epoch"],
        vocab=header.get("vocab"),
        optimizer=optimizer,
        extra=header.get("extra", {}),
    )
