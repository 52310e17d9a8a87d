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

Every gradient returned here is exact; the test suite checks each one against
central finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, InvalidTargetError, NoSupervisionError
from .numerics import ScoreMatrix, _check_finite_vector, log_softmax, logsumexp

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


@dataclass(frozen=True)
class ConditionalGrads:
    """Gradients for the conditional head parameters."""

    w: np.ndarray
    b: np.ndarray
    w_out: np.ndarray


@dataclass
class LossResult:
    """A loss plus gradients for exactly the score inputs the objective consumed.

    ``grad_start``/``grad_end`` are gradients w.r.t. boundary score vectors,
    ``grad_joint`` w.r.t. the span score matrix (zero on masked cells).  The
    conditional objective also reports gradients w.r.t. the passage
    representations and its head parameters; the shared-normalization
    objective reports one gradient per pooled passage.
    """

    loss: float
    grad_start: np.ndarray | None = None
    grad_end: np.ndarray | None = None
    grad_joint: np.ndarray | None = None
    grad_h: np.ndarray | None = None
    grad_cond: ConditionalGrads | None = None
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


def _softmax_ce(scores: np.ndarray, index: int) -> tuple[float, np.ndarray]:
    """Cross-entropy of a one-hot target under softmax(scores), with gradient."""
    logp = log_softmax(scores)
    grad = np.exp(logp)
    grad[index] -= 1.0
    return -float(logp[index]), grad


def independent_loss(
    start_scores: np.ndarray, end_scores: np.ndarray, target: SpanTarget
) -> LossResult:
    """Independent-boundary objective: separate softmax cross-entropies."""
    start_scores = _check_finite_vector(start_scores)
    end_scores = _check_finite_vector(end_scores)
    target.check_length(start_scores.size)
    target.check_length(end_scores.size)
    loss_s, grad_s = _softmax_ce(start_scores, target.start)
    loss_e, grad_e = _softmax_ce(end_scores, target.end)
    return LossResult(loss_s + loss_e, grad_start=grad_s, grad_end=grad_e)


def joint_loss(scores: ScoreMatrix, target: SpanTarget) -> LossResult:
    """Joint objective: one softmax over the unmasked span scores."""
    target.check_length(scores.length)
    if not scores.mask[target.start, target.end]:
        raise InvalidTargetError(f"target span ({target.start}, {target.end}) is masked")
    # Boolean-mask indexing flattens row-major, so the target's flat index is
    # the number of unmasked cells before it.
    flat = scores.values[scores.mask]
    flat_target = int(np.count_nonzero(scores.mask[: target.start])) + int(
        np.count_nonzero(scores.mask[target.start, : target.end])
    )
    loss, flat_grad = _softmax_ce(flat, flat_target)
    grad = np.zeros_like(scores.values)
    grad[scores.mask] = flat_grad
    return LossResult(loss, grad_joint=grad)


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
    joint = joint_loss(scores, target)
    indep = independent_loss(start_scores, end_scores, target)
    return LossResult(
        joint.loss + aux_weight * indep.loss,
        grad_start=aux_weight * indep.grad_start,
        grad_end=aux_weight * indep.grad_end,
        grad_joint=joint.grad_joint,
    )


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
    params.check_dim(d)
    paired = np.vstack([h, np.tile(h[:, start_index : start_index + 1], (1, length))])
    hidden = np.tanh(params.w @ paired + params.b[:, None])
    return params.w_out @ hidden


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

    loss_s, grad_s = _softmax_ce(start_scores, target.start)

    end_scores = conditional_end_scores(h, target.start, params)
    loss_e, grad_e = _softmax_ce(end_scores, target.end)

    # Recompute the forward intermediates for the backward pass.
    i = target.start
    paired = np.vstack([h, np.tile(h[:, i : i + 1], (1, length))])
    hidden = np.tanh(params.w @ paired + params.b[:, None])

    d_hidden = np.outer(params.w_out, grad_e) * (1.0 - hidden**2)
    d_w = d_hidden @ paired.T
    d_b = d_hidden.sum(axis=1)
    d_w_out = hidden @ grad_e
    d_paired = params.w.T @ d_hidden
    grad_h = d_paired[:d].copy()
    grad_h[:, i] += d_paired[d:].sum(axis=1)

    return LossResult(
        loss_s + loss_e,
        grad_start=grad_s,
        grad_end=grad_e,
        grad_h=grad_h,
        grad_cond=ConditionalGrads(d_w, d_b, d_w_out),
    )


def _pooled_domain(target: SharedNormTarget, boundary: str):
    """Flatten every passage's score domain and gold set into pooled arrays.

    Returns (pooled scores, per-passage ``(offset, size, mask)`` layouts,
    pooled gt mask), iterating passages in order and positions row-major, so
    pooled order is deterministic and a gt set equal to the full domain
    reproduces it exactly.  ``mask`` is the joint score mask, else None.
    """
    pooled: list[np.ndarray] = []
    layouts = []
    gt_flags: list[np.ndarray] = []
    offset = 0
    for scores, gt in zip(target.passages, target.gt_sets):
        if boundary == BOUNDARY_JOINT:
            if not isinstance(scores, ScoreMatrix):
                raise InvalidInputError("joint boundary requires ScoreMatrix passages")
            mask = scores.mask
            flat = scores.values[mask]
            # Flat position of every cell, valid where the mask is set.
            position = np.cumsum(mask).reshape(mask.shape) - 1
            gt_idx = set()
            for cell in gt:
                if isinstance(cell, SpanTarget):
                    cell = (cell.start, cell.end)
                else:
                    cell = (int(cell[0]), int(cell[1]))
                if not (0 <= min(cell) and max(cell) < scores.length and mask[cell]):
                    raise InvalidTargetError(f"gt span {cell} is masked or out of range")
                gt_idx.add(int(position[cell]))
        else:
            flat = _check_finite_vector(scores)
            for pos in gt:
                if not 0 <= int(pos) < flat.size:
                    raise InvalidTargetError(f"gt position {pos} out of range")
            mask = None
            gt_idx = {int(pos) for pos in gt}
        flags = np.zeros(flat.size, dtype=bool)
        flags[sorted(gt_idx)] = True
        pooled.append(flat)
        gt_flags.append(flags)
        layouts.append((offset, flat.size, mask))
        offset += flat.size
    return np.concatenate(pooled), layouts, np.concatenate(gt_flags)


def shared_norm_loss(target: SharedNormTarget, boundary: str) -> LossResult:
    """Shared-normalization objective over a pooled passage set.

    The numerator marginalizes the gold positions of every passage; the
    denominator normalizes over every position of every passage.  The
    gradient at each score is ``softmax_all - [in gt] * softmax_gt``.
    """
    if boundary not in BOUNDARIES:
        raise InvalidInputError(f"unknown boundary {boundary!r}")
    scores, layouts, gt_mask = _pooled_domain(target, boundary)
    if not gt_mask.any():
        raise NoSupervisionError("no passage contributes a ground-truth position")

    lse_all = logsumexp(scores)
    lse_gt = logsumexp(scores[gt_mask])
    loss = lse_all - lse_gt

    grad_flat = np.exp(scores - lse_all)
    grad_flat[gt_mask] -= np.exp(scores[gt_mask] - lse_gt)

    grads = []
    for (offset, size, mask), passage in zip(layouts, target.passages):
        block = grad_flat[offset : offset + size]
        if mask is not None:
            g = np.zeros_like(passage.values)
            g[mask] = block
        else:
            g = block.copy()
        grads.append(g)
    return LossResult(loss, grad_passages=grads)
