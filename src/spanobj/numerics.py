"""Numerically stable primitives shared by every objective and decoder.

Score vectors are plain 1-D float64 arrays of logits.  Span scores live in a
:class:`ScoreMatrix`, an L x L array whose entry ``[i, j]`` scores the span
starting at token ``i`` and ending (inclusive) at token ``j``, together with a
boolean validity mask.  Two masking policies exist: the default ``"valid"``
policy admits only spans with ``end >= start``; the ``"full"`` policy runs the
span softmax over all L^2 pairs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateInputError, InvalidInputError, OracleFailureError

MASK_VALID = "valid"
MASK_FULL = "full"
MASK_POLICIES = (MASK_VALID, MASK_FULL)

# A stack (rows run through one batched array pass: a training or decoding
# stack of examples, or a stack of beam starts) holds at most this many rows
# and L x L score cells, so one at L=180 holds a single row.
MAX_STACK = 8
MAX_STACK_CELLS = 180 * 180
# A training window (consecutive runs of one-length examples, sorted by
# length before they are cut into stacks) holds at most this many score
# cells, at least one run, so one at L=180 holds a single example.  A
# window keeps its stacks' gradient contributions alive until they are
# added.  On the cli-pipeline benchmark a window of MAX_STACK_CELLS trained
# no faster and held the same peak RSS (four 15 s runs, seeds 41-44), so
# the smaller budget is kept; see BENCH_batch_windows.json for its
# ten-pair figures against unsorted runs.
MAX_WINDOW_CELLS = MAX_STACK_CELLS // 2


def stack_cap(length: int) -> int:
    """Rows a stack may hold at passage length ``length`` (at least one)."""
    return min(MAX_STACK, max(1, MAX_STACK_CELLS // max(1, length * length)))


def span_mask(length: int, policy: str = MASK_VALID) -> np.ndarray:
    """Boolean validity mask for spans over a passage of ``length`` tokens.

    One read-only array is cached per (length, policy); writing to it raises.
    """
    if length < 1:
        raise InvalidInputError(f"passage length must be >= 1, got {length}")
    if policy not in MASK_POLICIES:
        raise InvalidInputError(f"unknown masking policy {policy!r}")
    return _cached_mask(int(length), policy)


@functools.lru_cache(maxsize=256)
def _cached_mask(length: int, policy: str) -> np.ndarray:
    mask = np.ones((length, length), dtype=bool)
    if policy == MASK_VALID:
        mask = np.triu(mask)
    mask.setflags(write=False)
    return mask


@dataclass
class ScoreMatrix:
    """Span scores plus the validity mask they are normalized over."""

    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.values.ndim != 2 or self.values.shape[0] != self.values.shape[1]:
            raise InvalidInputError(f"span scores must be square, got {self.values.shape}")
        if self.mask.shape != self.values.shape:
            raise InvalidInputError(
                f"mask shape {self.mask.shape} != values shape {self.values.shape}"
            )
        if not self.mask.any():
            raise DegenerateInputError("span score matrix has no unmasked entry")
        if not np.isfinite(self.values[self.mask]).all():
            raise InvalidInputError("span score matrix has non-finite unmasked entries")

    @classmethod
    def from_values(cls, values: np.ndarray, policy: str = MASK_VALID) -> "ScoreMatrix":
        values = np.asarray(values, dtype=np.float64)
        return cls(values, span_mask(values.shape[0], policy))

    @property
    def length(self) -> int:
        return self.values.shape[0]


def _check_finite_vector(scores: np.ndarray) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise InvalidInputError(f"expected a 1-D score vector, got shape {scores.shape}")
    if scores.size == 0:
        raise InvalidInputError("empty score vector")
    if not np.isfinite(scores).all():
        raise InvalidInputError("score vector contains non-finite entries")
    return scores


def log_softmax(scores: np.ndarray) -> np.ndarray:
    """Log-probabilities of a softmax over ``scores``, stable for any magnitude."""
    return log_softmax_rows(_check_finite_vector(scores)[None])[0]


def log_softmax_rows(scores: np.ndarray) -> np.ndarray:
    """:func:`log_softmax` of every row of a C-contiguous (B, n) stack.

    Each row equals the 1-D result bit for bit: the row sums run over
    contiguous memory, as a 1-D sum does.  Rows are not checked for
    finiteness.
    """
    shifted = scores - scores.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def softmax(scores: np.ndarray) -> np.ndarray:
    """Probabilities of a softmax over ``scores``."""
    return np.exp(log_softmax(scores))


def logsumexp(scores: np.ndarray) -> float:
    """``ln(sum(exp(scores)))`` computed with the max-shift trick."""
    return _logsumexp(_check_finite_vector(scores))


def _logsumexp(scores: np.ndarray) -> float:
    # :func:`logsumexp` of a 1-D float64 array already known to be finite.
    m = float(scores.max())
    return m + float(np.log(np.exp(scores - m).sum()))


def vectorize(matrix: ScoreMatrix) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Flatten the unmasked entries of ``matrix`` in row-major order.

    Returns the flat score vector and the index map from flat position back to
    the ``(start, end)`` cell it came from.  The order is deterministic, which
    fixes argmax tie-breaking everywhere downstream.
    """
    if not matrix.mask.any():
        raise DegenerateInputError("cannot vectorize an all-masked matrix")
    rows, cols = np.nonzero(matrix.mask)  # row-major for C-contiguous masks
    flat = matrix.values[rows, cols]
    index_map = list(zip(rows.tolist(), cols.tolist()))
    return flat, index_map


def finite_diff_gradient(f: Callable, params, eps: float = 1e-5):
    """Central-difference gradient estimate of ``f`` at ``params``.

    ``params`` is either one float array or a dict of named float arrays;
    the estimate mirrors that structure.  This is the reference every
    analytic gradient in the package is checked against; it deliberately
    knows nothing about the functions it probes.
    """
    if eps <= 0:
        raise InvalidInputError(f"eps must be positive, got {eps}")
    if isinstance(params, dict):
        work = {name: np.array(p, dtype=np.float64) for name, p in params.items()}
        return {
            name: _finite_diff_one(lambda: f(work), work[name], eps) for name in work
        }
    work = np.array(params, dtype=np.float64)  # owned, contiguous copy
    return _finite_diff_one(lambda: f(work), work, eps)


def _finite_diff_one(evaluate: Callable[[], float], block: np.ndarray, eps: float) -> np.ndarray:
    grad = np.zeros_like(block)
    flat = block.ravel()
    grad_flat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = float(evaluate())
        flat[i] = orig - eps
        f_minus = float(evaluate())
        flat[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise OracleFailureError(f"non-finite value at coordinate {i}")
        grad_flat[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad
