"""Numeric primitives: masking, stable softmax family, span vectorization."""

import math

import mpmath
import numpy as np
import pytest
import scipy.special

from spanobj.errors import DegenerateInputError, InvalidInputError
from spanobj.numerics import (
    MASK_FULL,
    MASK_VALID,
    ScoreMatrix,
    _logsumexp,
    _segment_logsumexp,
    _segment_sums,
    finite_diff_gradient,
    log_softmax,
    logsumexp,
    mask_cells,
    softmax,
    span_cells,
    span_mask,
    vectorize,
)


def _mp_log_softmax(x):
    """High-precision oracle computed with 50-digit arithmetic."""
    with mpmath.workdps(50):
        vals = [mpmath.mpf(float(v)) for v in x]
        total = mpmath.fsum(mpmath.exp(v) for v in vals)
        log_z = mpmath.log(total)
        return np.array([float(v - log_z) for v in vals])


def test_log_softmax_matches_high_precision_oracle():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        scale = float(rng.choice([0.1, 1.0, 50.0, 500.0]))
        x = rng.normal(0.0, scale, size=n)
        np.testing.assert_allclose(log_softmax(x), _mp_log_softmax(x), rtol=0, atol=1e-12)


def test_log_softmax_is_shift_invariant():
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.normal(size=int(rng.integers(2, 20)))
        shift = float(rng.normal(0.0, 100.0))
        np.testing.assert_allclose(log_softmax(x + shift), log_softmax(x), atol=1e-10)


def test_log_softmax_survives_extreme_scores():
    x = np.array([1e4, 0.0, -1e4])
    out = log_softmax(x)
    assert np.all(np.isfinite(out[:1]))
    assert out[0] == pytest.approx(0.0, abs=1e-12)


def test_softmax_sums_to_one_and_is_positive():
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = softmax(rng.normal(0.0, 10.0, size=int(rng.integers(1, 25))))
        assert np.all(p > 0)
        assert math.fsum(p.tolist()) == pytest.approx(1.0, abs=1e-12)


def test_logsumexp_matches_scipy():
    rng = np.random.default_rng(11)
    for _ in range(200):
        x = rng.normal(0.0, float(rng.choice([1.0, 30.0])), size=int(rng.integers(1, 40)))
        assert logsumexp(x) == pytest.approx(float(scipy.special.logsumexp(x)), abs=1e-12)


def test_segment_sums_equal_one_dimensional_sums_bit_for_bit():
    # Lengths below 8 (sequential), up to 128 (eight accumulators) and past
    # it (pairwise halves), several segments of each length, at any offset.
    rng = np.random.default_rng(17)
    lengths = rng.permutation(np.repeat([1, 2, 7, 8, 9, 33, 128, 129, 300, 471], 3))
    bounds = np.concatenate([[0], np.cumsum(lengths)])
    values = rng.normal(size=bounds[-1]) * 10.0 ** rng.integers(-8, 8, size=bounds[-1])
    sums = _segment_sums(values, bounds)
    lses = _segment_logsumexp(values, bounds)
    for c, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        assert sums[c] == values[lo:hi].copy().sum()
        assert lses[c] == _logsumexp(values[lo:hi].copy())


def test_non_finite_scores_are_rejected():
    for bad in (np.array([1.0, np.nan]), np.array([np.inf, 0.0])):
        with pytest.raises(InvalidInputError):
            log_softmax(bad)
        with pytest.raises(InvalidInputError):
            logsumexp(bad)


def test_span_mask_valid_is_upper_triangle():
    for length in range(1, 12):
        mask = span_mask(length, MASK_VALID)
        expect = np.triu(np.ones((length, length), dtype=bool))
        assert np.array_equal(mask, expect)
        assert mask.sum() == length * (length + 1) // 2


def test_span_mask_full_keeps_everything():
    mask = span_mask(5, MASK_FULL)
    assert mask.all() and mask.shape == (5, 5)


@pytest.mark.parametrize("policy", (MASK_VALID, MASK_FULL))
@pytest.mark.parametrize("length", (1, 12, 180))
def test_span_cells_are_the_masks_cached_read_only_nonzero_cells(length, policy):
    mask = span_mask(length, policy)
    cells = span_cells(length, policy)
    for got, want in zip(cells, np.nonzero(mask)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[0] = 1
    assert span_cells(length, policy) is cells
    assert mask_cells(mask) is cells
    # An equal mask that span_mask did not make is searched, not looked up.
    copy = mask.copy()
    assert all(np.array_equal(a, b) for a, b in zip(mask_cells(copy), cells))
    assert mask_cells(copy)[0] is not cells[0]


def test_span_mask_rejects_bad_inputs():
    with pytest.raises(InvalidInputError):
        span_mask(0, MASK_VALID)
    with pytest.raises(InvalidInputError):
        span_mask(4, "diagonal")
    with pytest.raises(InvalidInputError):
        span_cells(0, MASK_VALID)


def test_score_matrix_validates_shape_and_finiteness():
    with pytest.raises(InvalidInputError):
        ScoreMatrix.from_values(np.zeros((3, 4)))
    with pytest.raises(InvalidInputError):
        ScoreMatrix.from_values(np.full((3, 3), np.nan))


def test_score_matrix_rejects_fully_masked():
    with pytest.raises(DegenerateInputError):
        ScoreMatrix(np.zeros((3, 3)), np.zeros((3, 3), dtype=bool))


def test_vectorize_is_row_major_over_unmasked_cells():
    rng = np.random.default_rng(19)
    for _ in range(50):
        length = int(rng.integers(1, 10))
        matrix = ScoreMatrix.from_values(rng.normal(size=(length, length)))
        flat, index_map = vectorize(matrix)
        assert len(flat) == len(index_map) == length * (length + 1) // 2
        # Row-major order: indexes strictly increase as (i * L + j).
        ranks = [i * length + j for i, j in index_map]
        assert ranks == sorted(ranks)
        for value, (i, j) in zip(flat, index_map):
            assert value == matrix.values[i, j]
            assert i <= j


def test_vectorize_full_policy_covers_inverted_cells():
    matrix = ScoreMatrix.from_values(np.arange(9.0).reshape(3, 3), policy=MASK_FULL)
    flat, index_map = vectorize(matrix)
    assert len(flat) == 9
    assert (2, 0) in index_map


def test_finite_diff_gradient_on_quadratic_is_nearly_exact():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 4))
    a = a + a.T

    def f(params):
        x = params["x"]
        return float(0.5 * x @ a @ x)

    x0 = rng.normal(size=4)
    grad = finite_diff_gradient(f, {"x": x0})
    np.testing.assert_allclose(grad["x"], a @ x0, rtol=1e-7, atol=1e-9)


def test_finite_diff_gradient_leaves_parameters_untouched():
    x0 = np.array([1.0, 2.0])
    params = {"x": x0.copy()}
    finite_diff_gradient(lambda p: float(np.sum(p["x"] ** 2)), params)
    np.testing.assert_array_equal(params["x"], x0)
