"""Decoders and filters checked against brute-force enumeration."""

import math

import numpy as np
import pytest

from spanobj.data import (
    MODE_TWIN,
    GeneratorConfig,
    Passage,
    Vocabulary,
    encode_examples,
    generate_synthetic,
)
from spanobj.decoding import (
    DEFAULT_MAX_SPAN_LENGTH,
    SpanDistribution,
    apply_filters,
    beam_decode,
    cross_boundary_check,
    independent_distribution,
    joint_distribution,
    length_filter,
    span_crosses,
    span_text,
    surface_form_filter,
    top_k,
    two_region_fixture,
)
from spanobj.errors import InvalidInputError
from spanobj.model import TrainConfig, predict_distribution, train
from spanobj.numerics import MASK_FULL, MASK_POLICIES, MASK_VALID, ScoreMatrix, log_softmax
from spanobj.objectives import (
    OBJ_COMPOUND,
    OBJ_COMPOUND_SHARED,
    OBJECTIVE_KINDS,
    ConditionalParams,
    conditional_end_scores,
)


def _random_cond(rng, d, hidden=4):
    return ConditionalParams(
        w=rng.normal(size=(hidden, 2 * d)),
        b=rng.normal(size=hidden),
        w_out=rng.normal(size=hidden),
    )


# ---------------------------------------------------------------------------
# SpanDistribution container


def test_distribution_sorts_by_probability_then_position():
    dist = SpanDistribution([(3, 4, 0.2), (0, 1, 0.5), (2, 2, 0.2), (1, 1, 0.1)])
    assert [(s, e) for s, e, _ in dist.entries] == [(0, 1), (2, 2), (3, 4), (1, 1)]
    assert dist.top_span() == (0, 1)
    assert dist.probability(2, 2) == pytest.approx(0.2)
    assert dist.probability(9, 9) == 0.0
    assert len(dist) == 4


def test_distribution_tracks_mass_and_rejects_bad_probabilities():
    dist = SpanDistribution([(0, 0, 0.5), (1, 1, 0.25)])
    assert dist.normalization == pytest.approx(0.75)
    assert dist.raw_mass == pytest.approx(1.0)
    with pytest.raises(InvalidInputError):
        SpanDistribution([(0, 0, -0.1)])
    with pytest.raises(InvalidInputError):
        SpanDistribution([(0, 0, float("nan"))])


# ---------------------------------------------------------------------------
# Product and joint decoders vs brute force


def test_independent_distribution_matches_product_oracle():
    rng = np.random.default_rng(42)
    for _ in range(50):
        length = int(rng.integers(1, 12))
        s, e = rng.normal(size=length), rng.normal(size=length)
        dist = independent_distribution(s, e)
        p_s = np.exp(log_softmax(s))
        p_e = np.exp(log_softmax(e))
        raw = math.fsum(
            float(p_s[i] * p_e[j]) for i in range(length) for j in range(i, length)
        )
        assert dist.raw_mass == pytest.approx(raw, abs=1e-12)
        for i in range(length):
            for j in range(i, length):
                assert dist.probability(i, j) * dist.raw_mass == pytest.approx(
                    float(p_s[i] * p_e[j]), abs=1e-12
                )


def test_independent_argmax_agrees_with_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(200):
        length = int(rng.integers(1, 20))
        s, e = rng.normal(size=length), rng.normal(size=length)
        top = independent_distribution(s, e).top_span()
        p_s, p_e = np.exp(log_softmax(s)), np.exp(log_softmax(e))
        best = max(
            ((i, j) for i in range(length) for j in range(i, length)),
            key=lambda ij: (p_s[ij[0]] * p_e[ij[1]], -ij[0], -ij[1]),
        )
        assert top == best


def test_joint_distribution_is_softmax_over_valid_cells():
    rng = np.random.default_rng(11)
    for _ in range(50):
        length = int(rng.integers(1, 12))
        matrix = ScoreMatrix.from_values(rng.normal(size=(length, length)))
        dist = joint_distribution(matrix)
        assert dist.raw_mass == pytest.approx(1.0)
        assert dist.normalization == pytest.approx(1.0, abs=1e-12)
        logp = log_softmax(matrix.values[np.triu_indices(length)])
        cells = list(zip(*np.triu_indices(length)))
        for (i, j), lp in zip(cells, logp):
            assert dist.probability(int(i), int(j)) == pytest.approx(math.exp(lp), abs=1e-12)


def test_joint_distribution_over_a_caller_built_mask_uses_that_mask():
    rng = np.random.default_rng(17)
    values = rng.normal(size=(12, 12))
    # Read-only like a cached mask, full-looking in its corner, yet neither policy.
    mask = np.ones((12, 12), dtype=bool)
    mask[0, 11] = mask[4, 7] = False
    mask.setflags(write=False)
    dist = joint_distribution(ScoreMatrix(values, mask))
    starts, ends = np.nonzero(mask)
    assert np.array_equal(dist.starts, starts) and np.array_equal(dist.ends, ends)
    assert dist.probs.tobytes() == np.exp(log_softmax(values[mask])).tobytes()
    # An equal copy of a cached mask decodes as the cached mask does.
    cached = joint_distribution(ScoreMatrix.from_values(values, MASK_FULL))
    copied = joint_distribution(ScoreMatrix(values, np.ones((12, 12), dtype=bool)))
    for name in ("starts", "ends", "probs"):
        assert getattr(copied, name).tobytes() == getattr(cached, name).tobytes()


def test_joint_argmax_agrees_with_matrix_argmax():
    rng = np.random.default_rng(13)
    for _ in range(200):
        length = int(rng.integers(1, 20))
        matrix = ScoreMatrix.from_values(rng.normal(size=(length, length)))
        top = joint_distribution(matrix).top_span()
        masked = np.where(matrix.mask, matrix.values, -np.inf)
        best = np.unravel_index(np.argmax(masked), masked.shape)
        assert top == (int(best[0]), int(best[1]))


# ---------------------------------------------------------------------------
# Beam decoding vs exhaustive conditional decoding


def test_beam_with_full_width_equals_exhaustive_enumeration():
    rng = np.random.default_rng(17)
    for _ in range(30):
        d, length = 3, int(rng.integers(2, 9))
        h = rng.normal(size=(d, length))
        start_scores = rng.normal(size=length)
        params = _random_cond(rng, d)
        dist = beam_decode(start_scores, h, params, k=length)
        start_logp = log_softmax(start_scores)
        raw = {}
        for i in range(length):
            end_logp = log_softmax(conditional_end_scores(h, i, params))
            for j in range(length):
                raw[(i, j)] = math.exp(start_logp[i] + end_logp[j])
        total = math.fsum(raw.values())
        assert len(dist) == length * length
        assert dist.raw_mass == pytest.approx(total, abs=1e-12)
        for (i, j), value in raw.items():
            assert dist.probability(i, j) * dist.raw_mass == pytest.approx(value, abs=1e-12)


def test_beam_argmax_agrees_with_brute_force_over_valid_spans():
    rng = np.random.default_rng(19)
    for _ in range(100):
        d, length = 3, int(rng.integers(2, 12))
        h = rng.normal(size=(d, length))
        start_scores = rng.normal(size=length)
        params = _random_cond(rng, d)
        dist = beam_decode(start_scores, h, params, k=length)
        predictions = top_k(dist, 1)
        start_logp = log_softmax(start_scores)
        best, best_lp = None, -np.inf
        for i in range(length):
            end_logp = log_softmax(conditional_end_scores(h, i, params))
            for j in range(i, length):
                lp = start_logp[i] + end_logp[j]
                if lp > best_lp:
                    best, best_lp = (i, j), lp
        assert (predictions[0].span.start, predictions[0].span.end) == best


def test_narrow_beam_is_a_subset_of_the_full_enumeration():
    rng = np.random.default_rng(23)
    d, length = 3, 10
    h = rng.normal(size=(d, length))
    start_scores = rng.normal(size=length)
    params = _random_cond(rng, d)
    full = beam_decode(start_scores, h, params, k=length)
    narrow = beam_decode(start_scores, h, params, k=3)
    assert len(narrow) == 9
    for s, e, p in narrow.entries:
        # Raw candidate values agree between beam widths.
        assert p * narrow.raw_mass == pytest.approx(
            full.probability(s, e) * full.raw_mass, abs=1e-12
        )
    with pytest.raises(InvalidInputError):
        beam_decode(start_scores, h, params, k=0)


# ---------------------------------------------------------------------------
# Filters


def test_length_filter_zeroes_exactly_the_long_spans():
    rng = np.random.default_rng(29)
    length = 15
    s, e = rng.normal(size=length), rng.normal(size=length)
    dist = independent_distribution(s, e)
    for zeta in (0, 3, 7):
        filtered = length_filter(dist, zeta)
        assert filtered.raw_mass == dist.raw_mass
        for (i, j, p), (fi, fj, fp) in zip(
            sorted(dist.entries), sorted(filtered.entries)
        ):
            assert (i, j) == (fi, fj)
            if j - i > zeta:
                assert fp == 0.0
            else:
                assert fp == p


def test_length_filter_reduces_normalization_without_rescaling():
    rng = np.random.default_rng(31)
    dist = independent_distribution(rng.normal(size=12), rng.normal(size=12))
    filtered = length_filter(dist, 2)
    kept = math.fsum(p for s, e, p in dist.entries if e - s <= 2)
    assert filtered.normalization == pytest.approx(kept, abs=1e-12)
    assert filtered.normalization < dist.normalization


def test_surface_form_filter_conserves_topk_mass_and_pools_duplicates():
    tokens = ["the", "cat", "sat", "the", "cat"]
    passage = Passage.from_text("p", " ".join(tokens))
    rng = np.random.default_rng(37)
    s, e = rng.normal(size=5), rng.normal(size=5)
    dist = independent_distribution(s, e)
    for k in (1, 3, 5, 10, len(dist)):
        filtered = surface_form_filter(dist, passage, k)
        head_before = math.fsum(p for _, _, p in dist.entries[:k])
        head_spans = {(s0, e0) for s0, e0, _ in dist.entries[:k]}
        head_after = math.fsum(
            p for s0, e0, p in filtered.entries if (s0, e0) in head_spans
        )
        assert abs(head_after - head_before) <= 1e-12
        # Duplicate strings: exactly one surviving position per string.
        by_string = {}
        for s0, e0, p in filtered.entries:
            if (s0, e0) in head_spans and p > 0:
                text = passage.span_text(s0, e0)
                assert text not in by_string, "two live positions share a string"
                by_string[text] = p


def test_surface_form_filter_moves_mass_to_the_most_probable_position():
    # "a b a b": spans (0,1) and (2,3) share the string "a b".
    passage = Passage.from_text("p", "a b a b")
    dist = SpanDistribution([(0, 1, 0.5), (2, 3, 0.3), (1, 2, 0.2)])
    filtered = surface_form_filter(dist, passage, k=3)
    assert filtered.probability(0, 1) == pytest.approx(0.8, abs=1e-15)
    assert filtered.probability(2, 3) == 0.0
    assert filtered.probability(1, 2) == pytest.approx(0.2)


def test_surface_form_filter_leaves_the_tail_untouched():
    passage = Passage.from_text("p", "x y x y z")
    rng = np.random.default_rng(41)
    dist = independent_distribution(rng.normal(size=5), rng.normal(size=5))
    k = 4
    filtered = surface_form_filter(dist, passage, k)
    tail = {(s, e): p for s, e, p in dist.entries[k:]}
    for s, e, p in filtered.entries:
        if (s, e) in tail:
            assert p == tail[(s, e)]


def test_filter_pipeline_composition():
    passage = Passage.from_text("p", "a b a b c d e f")
    rng = np.random.default_rng(43)
    dist = independent_distribution(rng.normal(size=8), rng.normal(size=8))
    assert apply_filters(dist, passage, "none") is dist
    lf = apply_filters(dist, passage, "lf", zeta=2)
    np.testing.assert_allclose(
        [p for _, _, p in sorted(lf.entries)],
        [p for _, _, p in sorted(length_filter(dist, 2).entries)],
    )
    combo = apply_filters(dist, passage, "lf+sf", zeta=2, k=5)
    manual = surface_form_filter(length_filter(dist, 2), passage, 5)
    assert sorted(combo.entries) == sorted(manual.entries)
    with pytest.raises(InvalidInputError):
        apply_filters(dist, passage, "sf")


def test_filters_commute_with_uniform_probability_scaling():
    # Both filters act entry-wise (zero or keep/pool), so scaling the
    # underlying scores by a shared constant leaves decisions unchanged.
    passage = Passage.from_text("p", "u v u v w")
    rng = np.random.default_rng(47)
    s, e = rng.normal(size=5), rng.normal(size=5)
    a = surface_form_filter(length_filter(independent_distribution(s, e), 2), passage, 4)
    b = surface_form_filter(length_filter(independent_distribution(s, e), 2), passage, 4)
    assert a.entries == b.entries


# ---------------------------------------------------------------------------
# Prediction extraction


def test_top_k_skips_inverted_spans_and_recovers_text():
    passage = Passage.from_text("p", "alpha beta gamma")
    dist = SpanDistribution([(2, 0, 0.6), (1, 2, 0.3), (0, 0, 0.1)])
    predictions = top_k(dist, 2, passage)
    assert [(p.span.start, p.span.end) for p in predictions] == [(1, 2), (0, 0)]
    assert predictions[0].text == "beta gamma"
    assert predictions[0].probability == pytest.approx(0.3)
    with pytest.raises(InvalidInputError):
        top_k(dist, 0)


def test_top_k_skips_spans_a_filter_zeroed():
    dist = SpanDistribution([(0, 5, 0.0), (1, 1, 0.7), (2, 2, 0.3), (3, 3, 0.0)])
    predictions = top_k(dist, 4)
    assert [(p.span.start, p.span.end) for p in predictions] == [(1, 1), (2, 2)]


def test_surface_form_filter_leaves_inverted_spans_alone():
    # (1, 0) ranks inside the top-k but has no surface string: it keeps its
    # mass and rank and is never pooled, even in a plain token passage.
    tokens = ["a", "b", "a"]
    dist = SpanDistribution([(1, 0, 0.4), (0, 0, 0.3), (2, 2, 0.2), (2, 1, 0.1)])
    filtered = surface_form_filter(dist, tokens, k=4)
    assert filtered.entries == [(0, 0, 0.5), (1, 0, 0.4), (2, 1, 0.1), (2, 2, 0.0)]
    passage = Passage.from_text("p", "a b a")
    assert surface_form_filter(dist, passage, k=4).entries == filtered.entries


def test_span_text_joins_tokens_without_passage_offsets():
    assert span_text(["a", "b", "c"], 1, 2) == "b c"
    passage = Passage.from_text("p", "hello , world")
    assert span_text(passage, 0, 1) == "hello ,"


# ---------------------------------------------------------------------------
# Cross-boundary diagnostics


def test_span_crosses_requires_boundaries_in_two_regions():
    regions = [(0, 3), (6, 9)]
    assert span_crosses((1, 7), regions)
    assert not span_crosses((1, 3), regions)
    assert not span_crosses((6, 9), regions)
    assert not span_crosses((4, 5), regions)  # outside every region
    assert not span_crosses((1, 4), regions)  # end in no region


def test_constructed_fixture_traps_product_decoder_only():
    # Start mass peaks at 1, end mass peaks at 8; the joint matrix scores
    # the coherent pairs (1, 2) and (7, 8) far above everything else.
    length = 10
    start = np.zeros(length)
    end = np.zeros(length)
    start[1], start[7] = 8.0, 7.0
    end[8], end[2] = 8.0, 7.0
    joint = np.zeros((length, length))
    joint[1, 2], joint[7, 8] = 12.0, 11.0
    report = cross_boundary_check(
        start, end, ScoreMatrix.from_values(joint), [(0, 3), (6, 9)]
    )
    assert report.independent_span == (1, 8)
    assert report.independent_crosses
    assert report.joint_span == (1, 2)
    assert not report.joint_crosses


def test_random_two_region_fixtures_never_trap_the_joint_decoder():
    rng = np.random.default_rng(53)
    crossings = 0
    for _ in range(100):
        start, end, joint, regions = two_region_fixture(rng)
        report = cross_boundary_check(start, end, joint, regions)
        assert not report.joint_crosses
        crossings += report.independent_crosses
    assert crossings == 100  # the product decoder falls for it every time


# ---------------------------------------------------------------------------
# Every decoder and filter at a long passage


def _check_ranked(predictions, zeta=None):
    keys = []
    for pred in predictions:
        s, e, p = pred.span.start, pred.span.end, pred.probability
        assert s <= e, f"inverted span ({s}, {e})"
        assert zeta is None or e - s <= zeta, f"span ({s}, {e}) longer than zeta={zeta}"
        assert 0.0 <= p <= 1.0 and math.isfinite(p)
        keys.append((-p, s, e))
    assert keys == sorted(keys)


def test_every_objective_policy_and_filter_decodes_a_180_token_passage():
    # Briefly trained models: their beams put zeroed (too long) spans within
    # reach of a top-20 list, which must skip them.
    config = GeneratorConfig(
        n_train=32, n_dev=2, subjects=30, attributes=6, value_pool=40,
        ambiguous_fraction=0.3, distractors=29, mode=MODE_TWIN,
    )
    dataset = generate_synthetic(config, 41)
    vocab = Vocabulary.from_examples(dataset.train + dataset.dev)
    train_set = encode_examples(dataset.train, vocab)
    dev_set = encode_examples(dataset.dev, vocab)
    assert {len(enc.passage_ids) for enc in dev_set} == {180}
    zeta = DEFAULT_MAX_SPAN_LENGTH
    for policy in MASK_POLICIES:
        for objective in OBJECTIVE_KINDS:
            trained_as = OBJ_COMPOUND if objective == OBJ_COMPOUND_SHARED else objective
            params = train(train_set, TrainConfig(
                objective=trained_as, learning_rate=3e-3, epochs=2, policy=policy,
            ), vocab_size=len(vocab)).params
            for enc in dev_set:
                dist = predict_distribution(
                    params, enc.question_ids, enc.passage_ids, objective, policy
                )
                for pipeline in ("none", "lf", "lf+sf"):
                    filtered = apply_filters(dist, enc.example.passage, pipeline)
                    predictions = top_k(filtered, 20, enc.example.passage)
                    assert predictions, (objective, policy, pipeline)
                    _check_ranked(predictions, None if pipeline == "none" else zeta)
