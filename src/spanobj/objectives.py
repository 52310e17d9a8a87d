"""Loss values and analytic gradients for the five training objectives.

All losses are negative log-likelihoods of a gold answer span under some
probability model of span boundaries:

* independent -- separate softmaxes over start and end positions.
* joint       -- one softmax over every valid span's similarity score.
* compound    -- joint plus independent as an auxiliary term.
* conditional -- start softmax times an end softmax conditioned on the gold
  start (teacher forcing).
* shared normalization -- one softmax pooled over several retrieved passages,
  marginalized over all distantly supervised gold positions.

Each objective is written once, over a stack of B examples that share a
passage length (``*_rows``); the one-example functions are B=1 views of it.
A stack's rows equal the one-example results bit for bit (see
:func:`softmax_ce_rows`).  Every gradient returned here is exact; the test
suite checks each one against central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, InvalidTargetError, NoSupervisionError
from .numerics import ScoreMatrix, _check_finite_vector, _segment_logsumexp, log_softmax_rows

BOUNDARY_START = "start"
BOUNDARY_END = "end"
BOUNDARY_JOINT = "joint"
BOUNDARIES = (BOUNDARY_START, BOUNDARY_END, BOUNDARY_JOINT)

OBJ_INDEPENDENT = "independent"
OBJ_JOINT = "joint"
OBJ_CONDITIONAL = "conditional"
OBJ_COMPOUND = "compound"
OBJ_COMPOUND_SHARED = "compound-shared"
OBJECTIVE_KINDS = (
    OBJ_INDEPENDENT,
    OBJ_JOINT,
    OBJ_CONDITIONAL,
    OBJ_COMPOUND,
    OBJ_COMPOUND_SHARED,
)


@dataclass(frozen=True)
class SpanTarget:
    """Gold answer span with inclusive token boundaries."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if not (0 <= self.start <= self.end):
            raise InvalidTargetError(f"bad span boundaries ({self.start}, {self.end})")

    def check_length(self, length: int) -> None:
        if self.end >= length:
            raise InvalidTargetError(
                f"span ({self.start}, {self.end}) out of range for length {length}"
            )


@dataclass(frozen=True)
class ConditionalParams:
    """Parameters of the conditional end-score head.

    Scores are ``w_c . tanh(W [h_k; h_start] + b)`` per end position ``k``.
    """

    w: np.ndarray   # hidden x 2d
    b: np.ndarray   # hidden
    w_out: np.ndarray  # hidden

    def check_dim(self, dim: int) -> None:
        hidden = self.b.shape[0]
        if self.w.shape != (hidden, 2 * dim) or self.w_out.shape != (hidden,):
            raise InvalidInputError(
                f"conditional head shapes {self.w.shape}/{self.b.shape}/"
                f"{self.w_out.shape} inconsistent with d={dim}"
            )


@dataclass
class LossResult:
    """A loss plus gradients for exactly the score inputs the objective consumed.

    ``grad_start``/``grad_end`` are gradients w.r.t. boundary score vectors,
    ``grad_joint`` w.r.t. the span score matrix (zero on masked cells).  The
    conditional objective also reports gradients w.r.t. the passage
    representations and its head parameters (a :class:`ConditionalParams`
    of gradients); the shared-normalization objective reports one gradient
    per pooled passage.  A stacked result (the ``*_rows`` functions) holds
    a (B,) ``loss`` array and a leading B axis on every gradient.
    """

    loss: float
    grad_start: np.ndarray | None = None
    grad_end: np.ndarray | None = None
    grad_joint: np.ndarray | None = None
    grad_h: np.ndarray | None = None
    grad_cond: ConditionalParams | None = None
    grad_passages: list = field(default_factory=list)


@dataclass
class SharedNormTarget:
    """Pooled scores and per-passage gold positions for shared normalization.

    ``passages`` holds one score container per retrieved passage: 1-D vectors
    for the start/end boundaries, :class:`ScoreMatrix` for the joint boundary.
    ``gt_sets`` holds the distantly supervised positions per passage: ints for
    boundary scores, ``(start, end)`` pairs for joint scores.
    """

    passages: list
    gt_sets: list

    def __post_init__(self) -> None:
        if len(self.passages) != len(self.gt_sets):
            raise InvalidInputError("passages and gt_sets must align")
        if not self.passages:
            raise InvalidInputError("shared-normalization target needs >= 1 passage")


def softmax_ce_rows(scores: np.ndarray, index) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise cross-entropy of one-hot targets under softmax, with gradients.

    ``scores`` is a C-contiguous (B, n) stack and ``index`` holds each
    row's target; returns the (B,) losses and the (B, n) score gradients.
    """
    rows = np.arange(scores.shape[0])
    logp = log_softmax_rows(scores)
    grad = np.exp(logp)
    grad[rows, index] -= 1.0
    return -logp[rows, index], grad


def _check_targets(starts: np.ndarray, ends: np.ndarray, length: int) -> None:
    bad = np.flatnonzero(ends >= length)
    if bad.size:
        SpanTarget(int(starts[bad[0]]), int(ends[bad[0]])).check_length(length)


def target_arrays(targets) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, ends)`` int arrays of a sequence of :class:`SpanTarget`."""
    return (
        np.array([t.start for t in targets], dtype=np.int64),
        np.array([t.end for t in targets], dtype=np.int64),
    )


def _map_grads(result: LossResult, loss, each) -> LossResult:
    """``result`` with ``loss`` and ``each`` of every gradient array it holds."""
    cond = result.grad_cond
    return LossResult(
        loss,
        *(None if g is None else each(g)
          for g in (result.grad_start, result.grad_end, result.grad_joint, result.grad_h)),
        grad_cond=None if cond is None else ConditionalParams(each(cond.w), each(cond.b), each(cond.w_out)),
    )


def stack_one(result: LossResult) -> LossResult:
    """A one-example result as a B=1 stack."""
    return _map_grads(result, np.array([result.loss]), lambda g: np.asarray(g, dtype=np.float64)[None])


def unstack_one(result: LossResult) -> LossResult:
    """The single example of a B=1 stacked result."""
    return _map_grads(result, float(result.loss[0]), lambda g: g[0])


def independent_rows(start_scores, end_scores, starts, ends) -> LossResult:
    """Independent objective over (B, L) boundary-score stacks."""
    _check_targets(starts, ends, start_scores.shape[1])
    loss_s, grad_s = softmax_ce_rows(start_scores, starts)
    loss_e, grad_e = softmax_ce_rows(end_scores, ends)
    return LossResult(loss_s + loss_e, grad_start=grad_s, grad_end=grad_e)


def independent_loss(
    start_scores: np.ndarray, end_scores: np.ndarray, target: SpanTarget
) -> LossResult:
    """Independent-boundary objective: separate softmax cross-entropies."""
    start_scores = _check_finite_vector(start_scores)
    end_scores = _check_finite_vector(end_scores)
    target.check_length(start_scores.size)
    target.check_length(end_scores.size)
    return unstack_one(independent_rows(start_scores[None], end_scores[None], *target_arrays([target])))


def joint_rows(values: np.ndarray, mask: np.ndarray, starts, ends) -> LossResult:
    """Joint objective over a (B, L, L) score stack normalized over one (L, L) mask.

    The stack is gathered and scattered through the mask repeated once per
    example on the flat stack, a 1-D boolean index (a 3-D one is ten times
    slower at L=180), and a target's flat index is the count of unmasked
    cells before it.
    """
    size, length = values.shape[0], values.shape[1]
    _check_targets(starts, ends, length)
    flat_target = [
        _cell_position(mask, start, end, "target span")
        for start, end in zip(starts.tolist(), ends.tolist())
    ]
    stack_mask = np.tile(mask.ravel(), size)
    loss, flat_grad = softmax_ce_rows(values.reshape(-1)[stack_mask].reshape(size, -1), flat_target)
    grad = np.zeros(values.shape)
    grad.reshape(-1)[stack_mask] = flat_grad.ravel()
    return LossResult(loss, grad_joint=grad)


def joint_loss(scores: ScoreMatrix, target: SpanTarget) -> LossResult:
    """Joint objective: one softmax over the unmasked span scores."""
    target.check_length(scores.length)
    return unstack_one(joint_rows(scores.values[None], scores.mask, *target_arrays([target])))


def compound_rows(
    start_scores, end_scores, values, mask, starts, ends, aux_weight: float = 1.0
) -> LossResult:
    """Compound objective over a stack: :func:`joint_rows` plus weighted :func:`independent_rows`."""
    joint = joint_rows(values, mask, starts, ends)
    indep = independent_rows(start_scores, end_scores, starts, ends)
    return LossResult(
        joint.loss + aux_weight * indep.loss,
        grad_start=aux_weight * indep.grad_start,
        grad_end=aux_weight * indep.grad_end,
        grad_joint=joint.grad_joint,
    )


def compound_loss(
    start_scores: np.ndarray,
    end_scores: np.ndarray,
    scores: ScoreMatrix,
    target: SpanTarget,
    aux_weight: float = 1.0,
) -> LossResult:
    """Joint objective plus the independent objective as an auxiliary term.

    The default ``aux_weight`` of 1 is the plain log of the product of the
    three factors; the weight only scales the auxiliary independent term.
    """
    start_scores = _check_finite_vector(start_scores)
    end_scores = _check_finite_vector(end_scores)
    target.check_length(scores.length)
    target.check_length(start_scores.size)
    target.check_length(end_scores.size)
    return unstack_one(compound_rows(
        start_scores[None], end_scores[None], scores.values[None], scores.mask,
        *target_arrays([target]), aux_weight,
    ))


def conditional_hidden(h: np.ndarray, starts, params: ConditionalParams):
    """``(paired, hidden)`` of the conditional head over a (B, d, L) stack.

    Row ``b`` pairs every end column of ``h[b]`` with its start column
    ``starts[b]``: ``paired[b] = [h_k; h_start]`` and
    ``hidden[b] = tanh(W paired[b] + b)``.
    """
    size, d, length = h.shape
    params.check_dim(d)
    paired = np.empty((size, 2 * d, length))
    paired[:, :d] = h
    paired[:, d:] = h[np.arange(size), :, starts][:, :, None]
    return paired, np.tanh(params.w @ paired + params.b[:, None])


def conditional_end_scores(
    h: np.ndarray, start_index: int, params: ConditionalParams
) -> np.ndarray:
    """End scores conditioned on a start position.

    Each end position ``k`` contributes the row ``[h_k; h_start]``; a tanh
    layer followed by a linear projection turns the rows into scores.  No
    layer normalization follows the tanh.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2:
        raise InvalidInputError(f"expected d x L representations, got {h.shape}")
    d, length = h.shape
    if not 0 <= start_index < length:
        raise InvalidTargetError(f"start index {start_index} out of range for L={length}")
    _, hidden = conditional_hidden(h[None], [start_index], params)
    return params.w_out @ hidden[0]


def conditional_rows(start_scores, h, params: ConditionalParams, starts, ends) -> LossResult:
    """Conditional objective over a stack: (B, L) start scores, (B, d, L) representations.

    Head gradients come back stacked, one (hidden x 2d) block per example.
    The gradient of the conditional end scores is folded into ``grad_h`` and
    ``grad_cond``; ``grad_end`` is for the boundary end scores only.
    """
    d = h.shape[1]
    _check_targets(starts, ends, h.shape[2])
    loss_s, grad_s = softmax_ce_rows(start_scores, starts)
    paired, hidden = conditional_hidden(h, starts, params)
    loss_e, grad_e = softmax_ce_rows(params.w_out @ hidden, ends)

    d_hidden = params.w_out[:, None] * grad_e[:, None, :] * (1.0 - hidden**2)
    d_w = d_hidden @ paired.transpose(0, 2, 1)
    d_b = d_hidden.sum(axis=2)
    d_w_out = (hidden @ grad_e[:, :, None])[:, :, 0]
    d_paired = params.w.T @ d_hidden
    grad_h = d_paired[:, :d].copy()
    grad_h[np.arange(h.shape[0]), :, starts] += d_paired[:, d:].sum(axis=2)

    return LossResult(
        loss_s + loss_e,
        grad_start=grad_s,
        grad_h=grad_h,
        grad_cond=ConditionalParams(d_w, d_b, d_w_out),
    )


def conditional_loss(
    start_scores: np.ndarray,
    h: np.ndarray,
    params: ConditionalParams,
    target: SpanTarget,
) -> LossResult:
    """Conditional factorization with teacher forcing on the gold start.

    The end branch is conditioned on the *true* start position; gradients
    flow to the start scores, the passage representations, and the head.
    """
    start_scores = _check_finite_vector(start_scores)
    h = np.asarray(h, dtype=np.float64)
    d, length = h.shape
    target.check_length(length)
    target.check_length(start_scores.size)
    return unstack_one(conditional_rows(start_scores[None], h[None], params, *target_arrays([target])))


def _cell_position(mask: np.ndarray, start: int, end: int, what: str) -> int:
    """Position of cell ``(start, end)`` among ``mask``'s unmasked cells: the
    count of unmasked cells before it in row-major order (a cumsum of the
    whole mask costs 0.35 ms at L=180).  A masked or out-of-range cell
    raises :class:`InvalidTargetError` naming it as ``what``."""
    length = mask.shape[0]
    if not (0 <= min(start, end) and max(start, end) < length and mask[start, end]):
        raise InvalidTargetError(f"{what} ({start}, {end}) is masked or out of range")
    return int(np.count_nonzero(mask.ravel()[: start * length + end]))


def joint_gold(cells, mask: np.ndarray) -> list:
    """Ascending positions of gold ``(start, end)`` cells among ``mask``'s
    unmasked cells (:func:`_cell_position`)."""
    positions = set()
    for cell in cells:
        if isinstance(cell, SpanTarget):
            cell = (cell.start, cell.end)
        else:
            cell = (int(cell[0]), int(cell[1]))
        positions.add(_cell_position(mask, *cell, "gt span"))
    return sorted(positions)


def boundary_gold(positions, length: int) -> list:
    """Ascending distinct gold positions of a boundary-score vector of ``length``."""
    positions = {int(pos) for pos in positions}
    for pos in positions:
        if not 0 <= pos < length:
            raise InvalidTargetError(f"gt position {pos} out of range")
    return sorted(positions)


def pooled_ce_rows(scores, bounds, gold, gold_bounds) -> tuple[np.ndarray, np.ndarray]:
    """Shared-normalization cross-entropies of consecutive pools, with gradients.

    Pool ``c`` is ``scores[bounds[c]:bounds[c + 1]]``, its passages' finite
    1-D scores one after the other (not checked), and its gold positions
    are ``gold[gold_bounds[c]:gold_bounds[c + 1]]``, ascending indices into
    ``scores``.  Each pool pays one softmax over its scores whose numerator
    marginalizes its gold positions: the loss is
    ``logsumexp(pool) - logsumexp(gold)`` and the gradient at each score
    ``softmax_pool - [in gold] * softmax_gold``.  Every log-sum-exp is a
    1-D reduction over one pool's scores, so each pool equals a run of its
    own bit for bit.  Returns the (pools,) losses and the gradient, laid
    out as ``scores``.
    """
    gold_bounds = np.asarray(gold_bounds)
    if (np.diff(gold_bounds) == 0).any():
        raise NoSupervisionError("no passage contributes a ground-truth position")
    lse_all = _segment_logsumexp(scores, bounds)
    gold_scores = scores[gold]
    lse_gt = _segment_logsumexp(gold_scores, gold_bounds)
    grad = np.exp(scores - np.repeat(lse_all, np.diff(bounds)))
    grad[gold] -= np.exp(gold_scores - np.repeat(lse_gt, np.diff(gold_bounds)))
    return lse_all - lse_gt, grad


def shared_norm_loss(target: SharedNormTarget, boundary: str) -> LossResult:
    """Shared-normalization objective over a pooled passage set.

    Each passage's scores (a joint matrix's unmasked cells, row-major) are
    pooled in passage order and pay one pool of :func:`pooled_ce_rows`; the
    gradient of a joint passage is zero on its masked cells.
    """
    if boundary not in BOUNDARIES:
        raise InvalidInputError(f"unknown boundary {boundary!r}")
    joint = boundary == BOUNDARY_JOINT
    rows, golds = [], []
    for scores, gt in zip(target.passages, target.gt_sets):
        if joint:
            if not isinstance(scores, ScoreMatrix):
                raise InvalidInputError("joint boundary requires ScoreMatrix passages")
            rows.append(scores.values[scores.mask])
            golds.append(joint_gold(gt, scores.mask))
        else:
            rows.append(_check_finite_vector(scores))
            golds.append(boundary_gold(gt, rows[-1].size))
    bounds = np.cumsum([0] + [row.size for row in rows])
    gold = [lo + pos for lo, positions in zip(bounds.tolist(), golds) for pos in positions]
    (loss,), grad = pooled_ce_rows(
        np.concatenate(rows), bounds[[0, -1]], np.array(gold, dtype=np.int64), [0, len(gold)]
    )
    grads = []
    for lo, hi, passage in zip(bounds, bounds[1:], target.passages):
        if joint:
            g = np.zeros_like(passage.values)
            g[passage.mask] = grad[lo:hi]
        else:
            g = grad[lo:hi].copy()
        grads.append(g)
    return LossResult(float(loss), grad_passages=grads)
