"""Numerically stable primitives shared by every objective and decoder.

Score vectors are plain 1-D float64 arrays of logits.  Span scores live in a
:class:`ScoreMatrix`, an L x L array whose entry ``[i, j]`` scores the span
starting at token ``i`` and ending (inclusive) at token ``j``, together with a
boolean validity mask.  Two masking policies exist: the default ``"valid"``
policy admits only spans with ``end >= start``; the ``"full"`` policy runs the
span softmax over all L^2 pairs.  :func:`span_mask` caches one read-only mask
per (length, policy), and :func:`span_cells` its row-major ``(starts, ends)``
cells, as ``np.nonzero`` finds them.

:func:`_fsum` is ``math.fsum`` over a float64 vector, bit for bit.  From
``_BINNED_FSUM_MIN`` values up it runs :func:`_binned_fsum`, which sums the
vector exactly as one Python int and rounds once, as fsum does; below that
fsum's own loop is faster.
"""

from __future__ import annotations

import functools
import math
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
# A decoding window (at least one run) holds at most MAX_STACK full stacks of
# score cells, so the distributions it holds until it is yielded stay few.
MAX_DECODE_CELLS = MAX_STACK * MAX_STACK_CELLS
# _fsum runs the binned kernel from this many values up.  Its fixed cost
# (two bincounts into 2,098 exponent bins, and a Python loop over the bins
# in use) outweighs fsum's loop below 500-700 values: on a 2-vCPU x86-64
# host it took 32 us against fsum's 8 at 78 values (the L=12 valid cells),
# 38 against 33 at 512, 56 against 70 at 903 (L=42), and 158 us against
# 1.4 ms at 16,290 (L=180).
_BINNED_FSUM_MIN = 640
# Each bin sums at most this many mantissa halves of at most 27 bits, so
# every partial sum stays below 2**53, exact in float64.
_BINNED_FSUM_MAX = 1 << 26
# The kernel reads this many values at a time, so its temporaries peak at
# about 160 KB at any length (450 KB at 16,290 values read at once).
_BINNED_FSUM_CHUNK = 4096
# np.frexp's exponents run from -1073 (the least subnormal, 0.5 * 2**-1073)
# to 1024.
_LEAST_EXPONENT = -1073
_EXPONENT_BINS = 1024 - _LEAST_EXPONENT + 1


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


def span_cells(length: int, policy: str = MASK_VALID) -> tuple:
    """``np.nonzero(span_mask(length, policy))``: the row-major cells.

    One read-only ``(starts, ends)`` pair is cached per (length, policy).
    At L=180 a pair holds 260 KB (520 KB under ``full``), so the cache
    keeps only the 16 last used.
    """
    span_mask(length, policy)  # validates the arguments
    return _cached_cells(int(length), policy)


@functools.lru_cache(maxsize=16)
def _cached_cells(length: int, policy: str) -> tuple:
    cells = np.nonzero(_cached_mask(length, policy))
    for index in cells:
        index.setflags(write=False)
    return cells


def mask_cells(mask: np.ndarray) -> tuple:
    """``np.nonzero(mask)`` of a square mask, cached when ``span_mask`` made it.

    Only a cached mask object itself reads the cached cells; any other
    mask, even an equal one, is searched.
    """
    if not mask.flags.writeable:  # as every cached mask is
        for policy in MASK_POLICIES:
            if mask is _cached_mask(mask.shape[0], policy):
                return _cached_cells(mask.shape[0], policy)
    return np.nonzero(mask)


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


def _fsum(values: np.ndarray) -> float:
    """``math.fsum(values)`` of a 1-D float64 array, bit for bit.

    Long arrays go through :func:`_binned_fsum`; see its domain.
    """
    if _BINNED_FSUM_MIN <= values.size < _BINNED_FSUM_MAX:
        return _binned_fsum(values)
    return math.fsum(values)


def _binned_fsum(values: np.ndarray) -> float:
    """The correctly rounded sum of a 1-D float64 array, as ``math.fsum``.

    Domain: finite values, fewer than ``_BINNED_FSUM_MAX`` of them, whose
    exact sum is a finite float64 (probabilities always qualify).  fsum
    raises ``OverflowError`` when a partial sum overflows; this kernel only
    when the rounded total does.

    ``np.frexp`` writes each value as ``m * 2**e`` with ``0.5 <= |m| < 1``,
    so ``m * 2**53`` is a signed integer of at most 53 bits.  It is split
    into a high half ``trunc(m * 2**27)`` and a low half of at most 26
    bits, both exact, and each half is summed per exponent with
    ``np.bincount``; no bin's partial sum reaches 2**53, so every bin is
    exact.  The bins are then added as one Python int, which one true
    division (or float conversion) rounds to nearest, ties to even, like
    fsum.  An exact sum of zero, signed zeros included, gives +0.0, as
    fsum does.  Values are read in chunks of ``_BINNED_FSUM_CHUNK``, so
    the temporaries stay small at any length.
    """
    high_bins = np.zeros(_EXPONENT_BINS)
    low_bins = np.zeros(_EXPONENT_BINS)
    for lo in range(0, values.size, _BINNED_FSUM_CHUNK):
        mantissas, exponents = np.frexp(values[lo : lo + _BINNED_FSUM_CHUNK])
        exponents -= _LEAST_EXPONENT
        mantissas *= 2.0**27
        high = np.trunc(mantissas)
        high_bins += np.bincount(exponents, high, _EXPONENT_BINS)
        mantissas -= high  # the fraction: at most 26 significant bits
        mantissas *= 2.0**26
        low_bins += np.bincount(exponents, mantissas, _EXPONENT_BINS)
    live = np.flatnonzero((high_bins != 0.0) | (low_bins != 0.0))
    if not live.size:
        return 0.0
    first = int(live[0])
    total = 0
    for at, h, lo in zip(live.tolist(), high_bins[live].tolist(), low_bins[live].tolist()):
        total += ((int(h) << 26) + int(lo)) << (at - first)
    # Bin ``at`` holds multiples of 2**(at + _LEAST_EXPONENT - 53).
    scale = first + _LEAST_EXPONENT - 53
    if scale >= 0:
        return float(total << scale)
    return total / (1 << -scale)


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
