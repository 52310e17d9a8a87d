"""Span-score constructors.

Boundary representations are two d x L matrices whose columns are the
start-side and end-side vectors for each token position.  A similarity
function turns every (start column, end column) pair into one span score.
The four enumerated kinds share a single config switch so ablations are a
one-line change:

* ``dot``                     -- ``h_s . h_e`` (no parameters)
* ``weighted-dot``            -- ``w . (h_s * h_e)``,           w in R^d
* ``additive``                -- ``w . [h_s; h_e]``,            w in R^2d
* ``additive-weighted-dot``   -- ``w . [h_s; h_e; h_s * h_e]``, w in R^3d

``additive`` is separable: its score is ``a(s) + b(e)``, with
``a(s) = w[:d] . h_s`` and ``b(e) = w[d:] . h_e``, so no term couples the
start and the end.  Its joint softmax is then the independent product
``softmax(a) x softmax(b)`` restricted to the valid cells and renormalized,
and its argmax can still pair the start of one answer region with the end
of another, as the independent objective's can.  The other three kinds
carry the interaction term ``h_s * h_e``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .numerics import MASK_VALID, ScoreMatrix, span_mask

KIND_DOT = "dot"
KIND_WEIGHTED_DOT = "weighted-dot"
KIND_ADDITIVE = "additive"
KIND_ADDITIVE_WEIGHTED_DOT = "additive-weighted-dot"

# Weight-vector length in multiples of the model dimension, for every kind.
_WEIGHT_MULTIPLIER = {
    KIND_DOT: 0,
    KIND_WEIGHTED_DOT: 1,
    KIND_ADDITIVE: 2,
    KIND_ADDITIVE_WEIGHTED_DOT: 3,
}
SIMILARITY_KINDS = tuple(_WEIGHT_MULTIPLIER)


def weight_length(kind: str, dim: int) -> int:
    """Required weight-vector length for ``kind`` at model dimension ``dim``."""
    if kind not in _WEIGHT_MULTIPLIER:
        raise InvalidInputError(f"unknown similarity kind {kind!r}")
    return _WEIGHT_MULTIPLIER[kind] * dim


@dataclass(frozen=True)
class SimilarityParams:
    """Similarity kind plus its weight vector (``None`` for the dot product)."""

    kind: str
    w: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in SIMILARITY_KINDS:
            raise InvalidInputError(f"unknown similarity kind {self.kind!r}")
        if self.kind == KIND_DOT:
            if self.w is not None:
                raise InvalidInputError("dot similarity takes no weight vector")
        elif self.w is None:
            raise InvalidInputError(f"{self.kind} similarity requires a weight vector")

    def check_dim(self, dim: int) -> None:
        expected = weight_length(self.kind, dim)
        if expected == 0:
            return
        if self.w.shape != (expected,):
            raise InvalidInputError(
                f"{self.kind} weights must have shape ({expected},), got {self.w.shape}"
            )


@dataclass
class BoundaryRepresentations:
    """Start and end representations, both d x L with shared d and L."""

    h_start: np.ndarray
    h_end: np.ndarray

    def __post_init__(self) -> None:
        self.h_start = np.asarray(self.h_start, dtype=np.float64)
        self.h_end = np.asarray(self.h_end, dtype=np.float64)
        if self.h_start.ndim != 2 or self.h_start.shape != self.h_end.shape:
            raise InvalidInputError(
                f"boundary representations must share a d x L shape, got "
                f"{self.h_start.shape} and {self.h_end.shape}"
            )
        if not (np.isfinite(self.h_start).all() and np.isfinite(self.h_end).all()):
            raise InvalidInputError("boundary representations contain non-finite entries")

    @property
    def dim(self) -> int:
        return self.h_start.shape[0]

    @property
    def length(self) -> int:
        return self.h_start.shape[1]


def _split_weights(params: SimilarityParams, dim: int):
    """Split ``params.w`` into (start, end, product) weight blocks, each d or None."""
    params.check_dim(dim)
    k = params.kind
    if k == KIND_DOT:
        return None, None, None
    if k == KIND_WEIGHTED_DOT:
        return None, None, params.w
    if k == KIND_ADDITIVE:
        return params.w[:dim], params.w[dim:], None
    return params.w[:dim], params.w[dim : 2 * dim], params.w[2 * dim :]


def span_score_values(hs: np.ndarray, he: np.ndarray, params: SimilarityParams) -> np.ndarray:
    """(B, L, L) span scores of (B, d, L) start and end representation stacks.

    ``[b, i, j] = f_sim(hs[b, :, i], he[b, :, j])``; every slice equals the
    one-example product bit for bit.
    """
    w_s, w_e, w_p = _split_weights(params, hs.shape[1])
    if params.kind == KIND_DOT:
        return hs.transpose(0, 2, 1) @ he
    size, length = hs.shape[0], hs.shape[2]
    scores = np.zeros((size, length, length))
    if w_p is not None:
        scores = scores + (hs * w_p[:, None]).transpose(0, 2, 1) @ he
    if w_s is not None:
        scores = scores + (w_s @ hs)[:, :, None] + (w_e @ he)[:, None, :]
    return scores


def span_scores(
    reps: BoundaryRepresentations,
    params: SimilarityParams,
    policy: str = MASK_VALID,
) -> ScoreMatrix:
    """Pairwise span scores ``[i, j] = f_sim(h_start[:, i], h_end[:, j])``."""
    values = span_score_values(reps.h_start[None], reps.h_end[None], params)[0]
    return ScoreMatrix(values, span_mask(reps.length, policy))


def span_score_grads(hs: np.ndarray, he: np.ndarray, params: SimilarityParams, grad: np.ndarray):
    """Chain a (B, L, L) score gradient stack back to (d_hs, d_he, d_w).

    ``d_w`` is a (B, len(w)) stack, or ``None`` for ``dot``.
    """
    w_s, w_e, w_p = _split_weights(params, hs.shape[1])
    if params.kind == KIND_DOT:
        return he @ grad.transpose(0, 2, 1), hs @ grad, None

    dim = hs.shape[1]
    d_hs = np.zeros_like(hs)
    d_he = np.zeros_like(he)
    d_w = np.zeros((hs.shape[0], params.w.size))
    if w_p is not None:
        he_grad = he @ grad.transpose(0, 2, 1)
        d_hs += w_p[:, None] * he_grad
        d_he += w_p[:, None] * (hs @ grad)
        d_w[:, -dim:] = (hs * he_grad).sum(axis=2)
    if w_s is not None:
        row_mass = grad.sum(axis=2)
        col_mass = grad.sum(axis=1)
        d_hs += w_s[:, None] * row_mass[:, None, :]
        d_he += w_e[:, None] * col_mass[:, None, :]
        d_w[:, :dim] = (hs @ row_mass[:, :, None])[:, :, 0]
        d_w[:, dim : 2 * dim] = (he @ col_mass[:, :, None])[:, :, 0]
    return d_hs, d_he, d_w


def span_scores_grad(
    reps: BoundaryRepresentations,
    params: SimilarityParams,
    grad: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Chain an L x L score gradient back to (h_start, h_end, w).

    ``grad[i, j]`` is the loss gradient at score ``[i, j]``; masked cells must
    already be zero there.  The weight gradient is ``None`` for ``dot``.
    """
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != (reps.length, reps.length):
        raise InvalidInputError(f"score gradient shape {grad.shape} != L x L")
    d_hs, d_he, d_w = span_score_grads(reps.h_start[None], reps.h_end[None], params, grad[None])
    return d_hs[0], d_he[0], None if d_w is None else d_w[0]


def start_reps(h: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Joint-head start representations ``w h + b`` of a (d, L) or (B, d, L) ``h``."""
    return w @ h + b[:, None]


def joint_boundary_reps(h: np.ndarray, w: np.ndarray, b: np.ndarray) -> BoundaryRepresentations:
    """Joint-head representations: start side is an affine map of ``h``, end side is ``h``."""
    h = np.asarray(h, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if h.ndim != 2:
        raise InvalidInputError(f"expected d x L representations, got shape {h.shape}")
    d = h.shape[0]
    if w.shape != (d, d) or b.shape != (d,):
        raise InvalidInputError(
            f"transform shapes {w.shape}, {b.shape} inconsistent with d={d}"
        )
    return BoundaryRepresentations(start_reps(h, w, b), h)

