"""Span-score constructors checked against per-cell loops and finite differences."""

import numpy as np
import pytest

from spanobj.errors import InvalidInputError
from spanobj.numerics import MASK_FULL, MASK_VALID, finite_diff_gradient, span_mask
from spanobj.similarity import (
    SIMILARITY_KINDS,
    BoundaryRepresentations,
    KIND_ADDITIVE,
    KIND_DOT,
    KIND_WEIGHTED_DOT,
    SimilarityParams,
    joint_boundary_reps,
    span_scores,
    span_scores_grad,
    weight_length,
)


def _cell_score(kind, w, u, v):
    """One span score computed the slow, obvious way."""
    d = u.size
    if kind == KIND_DOT:
        return float(u @ v)
    if kind == KIND_WEIGHTED_DOT:
        return float(w @ (u * v))
    if kind == KIND_ADDITIVE:
        return float(w[:d] @ u + w[d:] @ v)
    return float(w[:d] @ u + w[d : 2 * d] @ v + w[2 * d :] @ (u * v))


def _random_setup(rng, kind, dim=None, length=None):
    dim = dim or int(rng.integers(2, 7))
    length = length or int(rng.integers(2, 9))
    reps = BoundaryRepresentations(rng.normal(size=(dim, length)), rng.normal(size=(dim, length)))
    n = weight_length(kind, dim)
    params = SimilarityParams(kind, rng.normal(size=n) if n else None)
    return reps, params


def test_weight_length_by_kind():
    assert weight_length("dot", 5) == 0
    assert weight_length("weighted-dot", 5) == 5
    assert weight_length("additive", 5) == 10
    assert weight_length("additive-weighted-dot", 5) == 15
    assert "multiplicative-additive" not in SIMILARITY_KINDS


def test_params_validation():
    with pytest.raises(InvalidInputError):
        SimilarityParams("dot", np.ones(3))
    with pytest.raises(InvalidInputError):
        SimilarityParams("additive")
    with pytest.raises(InvalidInputError):
        SimilarityParams("cosine")
    params = SimilarityParams("additive", np.ones(6))
    params.check_dim(3)
    with pytest.raises(InvalidInputError):
        params.check_dim(4)


def test_span_scores_match_per_cell_loop_for_every_kind():
    rng = np.random.default_rng(42)
    for kind in SIMILARITY_KINDS:
        for _ in range(25):
            reps, params = _random_setup(rng, kind)
            matrix = span_scores(reps, params, MASK_FULL)
            expect = np.zeros((reps.length, reps.length))
            for i in range(reps.length):
                for j in range(reps.length):
                    expect[i, j] = _cell_score(
                        kind, params.w, reps.h_start[:, i], reps.h_end[:, j]
                    )
            np.testing.assert_allclose(matrix.values, expect, atol=1e-12)


def test_span_scores_respect_mask_policy():
    rng = np.random.default_rng(1)
    reps, params = _random_setup(rng, KIND_DOT, dim=3, length=6)
    valid = span_scores(reps, params, MASK_VALID)
    assert np.array_equal(valid.mask, span_mask(6, MASK_VALID))
    full = span_scores(reps, params, MASK_FULL)
    assert full.mask.all()
    np.testing.assert_array_equal(valid.values, full.values)


def test_span_scores_grad_matches_finite_differences():
    rng = np.random.default_rng(7)
    for kind in SIMILARITY_KINDS:
        reps, params = _random_setup(rng, kind, dim=3, length=5)
        # Random upstream gradient zeroed on masked cells, as the contract asks.
        upstream = rng.normal(size=(5, 5)) * span_mask(5, MASK_VALID)

        def objective(blocks):
            r = BoundaryRepresentations(blocks["hs"], blocks["he"])
            w = blocks.get("w")
            p = SimilarityParams(kind, w)
            return float((span_scores(r, p, MASK_FULL).values * upstream).sum())

        blocks = {"hs": reps.h_start, "he": reps.h_end}
        if params.w is not None:
            blocks["w"] = params.w
        expect = finite_diff_gradient(objective, blocks)
        d_hs, d_he, d_w = span_scores_grad(reps, params, upstream)
        np.testing.assert_allclose(d_hs, expect["hs"], rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(d_he, expect["he"], rtol=1e-6, atol=1e-9)
        if params.w is None:
            assert d_w is None
        else:
            np.testing.assert_allclose(d_w, expect["w"], rtol=1e-6, atol=1e-9)


def test_span_scores_grad_rejects_bad_shape():
    rng = np.random.default_rng(3)
    reps, params = _random_setup(rng, KIND_DOT, dim=2, length=4)
    with pytest.raises(InvalidInputError):
        span_scores_grad(reps, params, np.zeros((3, 3)))


def test_joint_boundary_reps_is_affine_on_start_side_only():
    rng = np.random.default_rng(9)
    h = rng.normal(size=(4, 6))
    w = rng.normal(size=(4, 4))
    b = rng.normal(size=4)
    reps = joint_boundary_reps(h, w, b)
    np.testing.assert_allclose(reps.h_start, w @ h + b[:, None], atol=1e-15)
    np.testing.assert_array_equal(reps.h_end, h)
    with pytest.raises(InvalidInputError):
        joint_boundary_reps(h, np.eye(3), b)


def test_weighted_dot_reduces_to_dot_with_unit_weights():
    rng = np.random.default_rng(21)
    reps, _ = _random_setup(rng, KIND_DOT, dim=4, length=5)
    plain = span_scores(reps, SimilarityParams(KIND_DOT), MASK_FULL)
    weighted = span_scores(
        reps, SimilarityParams(KIND_WEIGHTED_DOT, np.ones(4)), MASK_FULL
    )
    np.testing.assert_allclose(weighted.values, plain.values, atol=1e-12)
