"""End-to-end model: forward pass, analytic gradients, optimizer, training, checkpoints."""

import io
import os
from types import SimpleNamespace

import numpy as np
import pytest

from spanobj.data import (
    EncodedExample,
    Example,
    GeneratorConfig,
    Passage,
    Vocabulary,
    encode_examples,
    generate_synthetic,
)
from spanobj.decoding import top_k
from spanobj.errors import (
    ConfigError,
    DivergenceError,
    InvalidInputError,
    InvalidTargetError,
    VocabularyError,
)
from spanobj.model import (
    AdamW,
    ModelParams,
    TrainConfig,
    backward,
    context_loss_and_grads,
    evaluate_model,
    example_loss,
    forward,
    init_params,
    load_checkpoint,
    loss_and_grads,
    predict_distribution,
    save_checkpoint,
    train,
    train_dss,
    _context_chunks,
    _stack_bounds,
    zero_grads,
)
from spanobj.numerics import (
    MASK_FULL,
    MASK_POLICIES,
    MASK_VALID,
    MAX_STACK,
    MAX_STACK_CELLS,
    MAX_WINDOW_CELLS,
    finite_diff_gradient,
)
from spanobj.objectives import (
    OBJ_COMPOUND,
    OBJ_COMPOUND_SHARED,
    OBJ_CONDITIONAL,
    OBJ_INDEPENDENT,
    OBJ_JOINT,
    SpanTarget,
)
from spanobj.similarity import KIND_ADDITIVE_WEIGHTED_DOT, KIND_DOT

PER_EXAMPLE_OBJECTIVES = (OBJ_INDEPENDENT, OBJ_JOINT, OBJ_CONDITIONAL, OBJ_COMPOUND)


def _tiny_setup(rng, vocab_size=12, dim=4, q_len=3, p_len=5, similarity=KIND_DOT, seed=0):
    params = init_params(vocab_size, dim=dim, similarity_kind=similarity, seed=seed)
    q_ids = rng.integers(0, vocab_size, size=q_len)
    p_ids = rng.integers(0, vocab_size, size=p_len)
    start = int(rng.integers(0, p_len))
    end = int(rng.integers(start, p_len))
    return params, q_ids, p_ids, SpanTarget(start, end)


class _Ctx:
    """Bare-bones stand-in for an encoded retrieval context."""

    class _P:
        def __init__(self, ids, spans):
            self.passage_ids = ids
            self.gt_spans = spans

    def __init__(self, q_ids, passages):
        self.question_ids = q_ids
        self.passages = [self._P(ids, spans) for ids, spans in passages]


# ---------------------------------------------------------------------------
# Forward pass


def test_forward_shapes_and_determinism():
    rng = np.random.default_rng(42)
    params, q_ids, p_ids, _ = _tiny_setup(rng)
    cache = forward(params, q_ids, p_ids)
    L = p_ids.size
    assert cache.h.shape == (4, L)
    assert cache.start_scores.shape == (L,)
    assert cache.end_scores.shape == (L,)
    assert cache.joint.values.shape == (L, L)
    again = forward(params, q_ids, p_ids)
    np.testing.assert_array_equal(cache.start_scores, again.start_scores)
    np.testing.assert_array_equal(cache.joint.values, again.joint.values)


def test_forward_rejects_out_of_vocabulary_ids():
    rng = np.random.default_rng(1)
    params, q_ids, p_ids, _ = _tiny_setup(rng, vocab_size=10)
    with pytest.raises(VocabularyError):
        forward(params, np.array([0, 10]), p_ids)
    with pytest.raises(VocabularyError):
        forward(params, q_ids, np.array([-1, 2]))


def test_init_params_is_seed_deterministic():
    a = init_params(20, dim=6, seed=5)
    b = init_params(20, dim=6, seed=5)
    c = init_params(20, dim=6, seed=6)
    np.testing.assert_array_equal(a.flat, b.flat)
    assert not np.array_equal(a.flat, c.flat)


# ---------------------------------------------------------------------------
# Full-model gradients


@pytest.mark.parametrize("objective", PER_EXAMPLE_OBJECTIVES)
def test_full_model_gradients_match_finite_differences(objective):
    rng = np.random.default_rng(7)
    params, q_ids, p_ids, target = _tiny_setup(rng, dim=3, p_len=4)
    _, grads = loss_and_grads(params, q_ids, p_ids, target, objective)

    def objective_fn(vector):
        probe = params.copy()
        probe.flat[:] = vector
        loss, _ = loss_and_grads(probe, q_ids, p_ids, target, objective)
        return loss

    expect = finite_diff_gradient(objective_fn, params.flat)
    got = grads.flat
    denominator = np.maximum(np.abs(expect), 1e-4)
    assert np.max(np.abs(got - expect) / denominator) < 1e-4


def test_full_model_gradients_with_weighted_similarity():
    rng = np.random.default_rng(9)
    params, q_ids, p_ids, target = _tiny_setup(
        rng, dim=3, p_len=4, similarity=KIND_ADDITIVE_WEIGHTED_DOT
    )
    _, grads = loss_and_grads(params, q_ids, p_ids, target, OBJ_JOINT)

    def objective_fn(vector):
        probe = params.copy()
        probe.flat[:] = vector
        loss, _ = loss_and_grads(probe, q_ids, p_ids, target, OBJ_JOINT)
        return loss

    expect = finite_diff_gradient(objective_fn, params.flat)
    got = grads.flat
    denominator = np.maximum(np.abs(expect), 1e-4)
    assert np.max(np.abs(got - expect) / denominator) < 1e-4


def test_context_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    params, q_ids, _, _ = _tiny_setup(rng, dim=3)
    ctx = _Ctx(
        q_ids,
        [
            (rng.integers(0, 12, size=4), {SpanTarget(0, 1), SpanTarget(2, 2)}),
            (rng.integers(0, 12, size=3), set()),
        ],
    )
    loss, grads = context_loss_and_grads(params, ctx)
    assert np.isfinite(loss)

    def objective_fn(vector):
        probe = params.copy()
        probe.flat[:] = vector
        return context_loss_and_grads(probe, ctx)[0]

    expect = finite_diff_gradient(objective_fn, params.flat)
    got = grads.flat
    denominator = np.maximum(np.abs(expect), 1e-4)
    assert np.max(np.abs(got - expect) / denominator) < 1e-4


def test_context_without_supervision_is_skipped():
    rng = np.random.default_rng(13)
    params, q_ids, _, _ = _tiny_setup(rng)
    ctx = _Ctx(q_ids, [(rng.integers(0, 12, size=4), set())])
    assert context_loss_and_grads(params, ctx) is None


def test_independent_objective_never_touches_joint_head():
    rng = np.random.default_rng(17)
    params, q_ids, p_ids, target = _tiny_setup(rng)
    _, grads = loss_and_grads(params, q_ids, p_ids, target, OBJ_INDEPENDENT)
    assert np.all(grads["w_joint"] == 0.0)
    _, joint_grads = loss_and_grads(params, q_ids, p_ids, target, OBJ_JOINT)
    assert np.all(joint_grads["w_s"] == 0.0)
    assert np.all(joint_grads["w_e"] == 0.0)


def test_conditional_gradient_keeps_w_e_untouched():
    # The conditional end softmax runs over its own head's scores, so the
    # boundary end projection must receive no gradient.
    rng = np.random.default_rng(19)
    params, q_ids, p_ids, target = _tiny_setup(rng)
    _, grads = loss_and_grads(params, q_ids, p_ids, target, OBJ_CONDITIONAL)
    assert np.all(grads["w_e"] == 0.0)
    assert np.all(grads["b_e"] == 0.0)
    assert np.any(grads["w_cond"] != 0.0)


# ---------------------------------------------------------------------------
# Optimizer


def _reference_adamw_step(p, g, m, v, t, lr, wd, b1=0.9, b2=0.999, eps=1e-8):
    """Textbook decoupled-decay update, written independently of the package."""
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g * g
    m_hat = m / (1 - b1**t)
    v_hat = v / (1 - b2**t)
    p = p - lr * (m_hat / (np.sqrt(v_hat) + eps) + wd * p)
    return p, m, v


def test_adamw_matches_reference_implementation():
    rng = np.random.default_rng(23)
    params = init_params(8, dim=3, seed=0)
    opt = AdamW(lr=0.01, weight_decay=0.05)
    reference = {name: (p.copy(), np.zeros_like(p), np.zeros_like(p)) for name, p in params.blocks()}
    for t in range(1, 6):
        grads = zero_grads(params)
        for name, block in grads.items():
            block[...] = rng.normal(size=block.shape)
        opt.step(params, grads)
        for name, p in params.blocks():
            rp, rm, rv = reference[name]
            rp, rm, rv = _reference_adamw_step(rp, grads[name], rm, rv, t, 0.01, 0.05)
            reference[name] = (rp, rm, rv)
            np.testing.assert_allclose(p, rp, rtol=1e-12, atol=1e-12)


def test_adamw_refuses_gradients_that_are_not_a_zero_grads_table():
    params = init_params(8, dim=3, seed=3)
    opt = AdamW(lr=0.1, weight_decay=0.5)
    opt.step(params, zero_grads(params))
    before = params.flat.copy(), opt.m.flat.copy(), opt.v.flat.copy()
    plain = {name: np.ones_like(block) for name, block in params.blocks()}
    with pytest.raises(InvalidInputError, match="zero_grads"):
        opt.step(params, plain)
    assert opt.t == 1
    for got, want in zip((params.flat, opt.m.flat, opt.v.flat), before):
        assert got.tobytes() == want.tobytes()

    fresh = AdamW()
    with pytest.raises(InvalidInputError, match="zero_grads"):
        fresh.step(params, plain)
    assert fresh.t == 0 and not fresh.m and not fresh.v


def test_adamw_zero_gradient_step_is_pure_decay():
    params = init_params(8, dim=3, seed=1)
    before = params.flat.copy()
    opt = AdamW(lr=0.1, weight_decay=0.5)
    opt.step(params, zero_grads(params))
    np.testing.assert_allclose(params.flat, before * (1 - 0.1 * 0.5), atol=1e-15)


def test_adamw_without_decay_leaves_zero_gradient_blocks_alone():
    params = init_params(8, dim=3, seed=2)
    before = params.flat.copy()
    AdamW(lr=0.1, weight_decay=0.0).step(params, zero_grads(params))
    np.testing.assert_array_equal(params.flat, before)


# ---------------------------------------------------------------------------
# Training loops


def _toy_dataset(rng, n=12, vocab_size=15, p_len=6):
    examples = []
    for i in range(n):
        q_ids = rng.integers(1, vocab_size, size=3)
        p_ids = rng.integers(1, vocab_size, size=p_len)
        start = int(rng.integers(0, p_len - 1))
        tokens = [f"t{j}" for j in p_ids]
        passage = Passage.from_text(f"p{i}", " ".join(tokens))
        example = Example.build(
            f"ex{i}", "q", passage, [passage.span_text(start, start + 1)],
            SpanTarget(start, start + 1),
        )
        examples.append(
            EncodedExample(f"ex{i}", q_ids, p_ids, SpanTarget(start, start + 1), example)
        )
    return examples


def test_training_reduces_loss_and_is_deterministic():
    rng = np.random.default_rng(29)
    dataset = _toy_dataset(rng)
    config = TrainConfig(objective=OBJ_COMPOUND, epochs=8, batch_size=4, seed=3,
                         learning_rate=5e-3, dim=8)
    result = train(dataset, config, vocab_size=15)
    assert result.log[-1]["loss"] < result.log[0]["loss"]
    repeat = train(dataset, config, vocab_size=15)
    np.testing.assert_array_equal(result.params.flat, repeat.params.flat)


def test_resume_matches_uninterrupted_training():
    rng = np.random.default_rng(31)
    dataset = _toy_dataset(rng)
    full_cfg = TrainConfig(objective=OBJ_INDEPENDENT, epochs=6, batch_size=4, seed=7, dim=8)
    full = train(dataset, full_cfg, vocab_size=15)

    half_cfg = TrainConfig(objective=OBJ_INDEPENDENT, epochs=3, batch_size=4, seed=7, dim=8)
    half = train(dataset, half_cfg, vocab_size=15)
    resumed = train(
        dataset, full_cfg,
        params=half.params, optimizer=half.optimizer, start_epoch=3,
    )
    np.testing.assert_array_equal(full.params.flat, resumed.params.flat)


def test_train_rejects_shared_objective_and_empty_data():
    config = TrainConfig(objective=OBJ_COMPOUND_SHARED)
    with pytest.raises(ConfigError):
        train([object()], config)
    with pytest.raises(InvalidInputError):
        train([], TrainConfig())


@pytest.mark.parametrize("vocab_size", (None, 15))
def test_train_rejects_contexts_before_reading_their_ids(vocab_size):
    # Each item is checked before vocab_size is required or any id is read.
    rng = np.random.default_rng(41)
    contexts = [_Ctx(rng.integers(1, 15, size=3), [(rng.integers(1, 15, size=5), {SpanTarget(1, 2)})])]
    with pytest.raises(ConfigError, match="item 0 is a context"):
        train(contexts, TrainConfig(objective=OBJ_COMPOUND), vocab_size=vocab_size)


@pytest.mark.parametrize("objective", (OBJ_COMPOUND, OBJ_COMPOUND_SHARED))
def test_train_requires_vocab_size_from_scratch_for_examples_and_contexts(objective):
    dataset = _toy_dataset(np.random.default_rng(41), n=4)
    items = dataset if objective == OBJ_COMPOUND else [
        _Ctx(ex.question_ids, [(ex.passage_ids, {ex.target})]) for ex in dataset
    ]
    with pytest.raises(ConfigError, match="vocab_size required"):
        train(items, TrainConfig(objective=objective, epochs=1, dim=4))


def test_dev_log_carries_em_f1_and_cross_rate_every_epoch():
    corpus = generate_synthetic(GeneratorConfig(n_train=40, n_dev=20), seed=5)
    vocab = Vocabulary.from_examples(corpus.train + corpus.dev)
    train_set = encode_examples(corpus.train, vocab)
    dev_set = encode_examples(corpus.dev, vocab)
    config = TrainConfig(objective=OBJ_COMPOUND, epochs=3, batch_size=8, dim=8, seed=2)
    result = train(train_set, config, dev_set=dev_set, vocab_size=len(vocab))
    assert [entry["epoch"] for entry in result.log] == [0, 1, 2]
    for entry in result.log:
        assert 0.0 <= entry["dev_em"] <= 100.0
        assert 0.0 <= entry["dev_f1"] <= 100.0
        assert 0.0 <= entry["dev_cross_rate"] <= 1.0
    report = evaluate_model(result.params, dev_set, OBJ_COMPOUND)
    assert report.cross_eligible > 0  # the twin corpus records two candidates
    last = result.log[-1]
    assert (last["dev_em"], last["dev_f1"], last["dev_cross_rate"]) == (
        report.em, report.f1, report.cross_rate
    )


def test_train_step_raises_divergence_on_poisoned_params():
    rng = np.random.default_rng(37)
    dataset = _toy_dataset(rng, n=4)
    config = TrainConfig(epochs=1, batch_size=2, dim=8)
    params = init_params(15, dim=8, seed=0)
    params.w_mix[0, 0] = np.nan
    with pytest.raises(DivergenceError):
        train(dataset, config, params=params)


def test_stacks_are_runs_of_one_length_capped_by_examples_and_cells():
    lengths = [180, 180] + [90] * 5 + [12] * 10 + [60, 12]
    assert list(_stack_bounds(lengths)) == [
        (0, 1), (1, 2), (2, 6), (6, 7), (7, 15), (15, 17), (17, 18), (18, 19),
    ]
    assert MAX_STACK == 8 and MAX_STACK_CELLS // (90 * 90) == 4


def test_batches_of_one_length_run_as_their_unsorted_stacks(monkeypatch):
    import spanobj.model as model

    sizes = []
    forward_stack = model._forward_stack

    def recording(params, question_ids, passage_ids, *args, **kwargs):
        sizes.append(len(passage_ids))
        return forward_stack(params, question_ids, passage_ids, *args, **kwargs)

    monkeypatch.setattr(model, "_forward_stack", recording)
    rng = np.random.default_rng(47)
    params = init_params(15, dim=2, seed=0)
    for length in (12, 42, 60, 90, 110, 150, 180):
        batch = [
            SimpleNamespace(
                question_ids=rng.integers(1, 15, size=3),
                passage_ids=rng.integers(1, 15, size=length),
                target=SpanTarget(0, 1),
            )
            for _ in range(32)
        ]
        sizes.clear()
        model.batch_loss_and_grads(params, batch, OBJ_INDEPENDENT)
        assert sizes == [hi - lo for lo, hi in _stack_bounds([length] * 32)], length


def test_train_dss_runs_and_counts_skips():
    rng = np.random.default_rng(41)
    q_ids = rng.integers(1, 15, size=3)
    contexts = [
        _Ctx(q_ids, [(rng.integers(1, 15, size=5), {SpanTarget(1, 2)})]),
        _Ctx(q_ids, [(rng.integers(1, 15, size=5), set())]),
    ]
    config = TrainConfig(objective=OBJ_COMPOUND_SHARED, epochs=2, batch_size=2, dim=6)
    result = train_dss(contexts, config, vocab_size=15)
    assert result.log[-1]["skipped"] == 1
    assert result.log[-1]["examples"] == 1
    with pytest.raises(ConfigError):
        train_dss(contexts, config)  # vocab_size required from scratch


@pytest.mark.parametrize("objective", PER_EXAMPLE_OBJECTIVES)
def test_train_dss_rejects_every_other_objective(objective):
    rng = np.random.default_rng(41)
    contexts = [_Ctx(rng.integers(1, 15, size=3), [(rng.integers(1, 15, size=5), {SpanTarget(1, 2)})])]
    config = TrainConfig(objective=objective, epochs=1, dim=6)
    with pytest.raises(ConfigError, match=OBJ_COMPOUND_SHARED):
        train_dss(contexts, config, vocab_size=15)
    with pytest.raises(ConfigError, match=OBJ_COMPOUND_SHARED):
        train(contexts, config, vocab_size=15)  # contexts never train another objective


def test_train_dss_refuses_examples_and_names_train():
    dataset = _toy_dataset(np.random.default_rng(41), n=4)
    config = TrainConfig(objective=OBJ_COMPOUND_SHARED, epochs=1, dim=6)
    with pytest.raises(ConfigError, match="item 0 is an example"):
        train_dss(dataset, config, vocab_size=15)


@pytest.mark.parametrize("policy", MASK_POLICIES)
def test_shared_normalization_over_one_passage_trains_as_compound(policy):
    # A one-passage context with one gold span pools nothing, so each
    # pooled cross-entropy is the plain one and the loss is compound's.
    # The two agree to rounding, not bit for bit: pooled_ce_rows takes 1-D
    # log-sum-exps over the concatenated scores, softmax_ce_rows row-wise
    # log-softmaxes, and the two round differently (here by at most 4e-11).
    rng = np.random.default_rng(61)
    dataset = _toy_dataset(rng, n=12)
    contexts = [_Ctx(ex.question_ids, [(ex.passage_ids, {ex.target})]) for ex in dataset]
    settings = dict(epochs=2, batch_size=4, seed=5, dim=8, policy=policy)
    plain = train(dataset, TrainConfig(objective=OBJ_COMPOUND, **settings), vocab_size=15)
    shared = train_dss(
        contexts, TrainConfig(objective=OBJ_COMPOUND_SHARED, **settings), vocab_size=15
    )
    assert [entry["examples"] for entry in shared.log] == [len(dataset)] * 2
    for got, want in zip(shared.log, plain.log):
        assert abs(got["loss"] - want["loss"]) <= 1e-9
    for (name, got), (_, want) in zip(shared.params.blocks(), plain.params.blocks()):
        assert np.max(np.abs(got - want)) <= 1e-9, name


def test_context_without_passages_is_invalid_input_not_divergence():
    rng = np.random.default_rng(43)
    q_ids = rng.integers(1, 15, size=3)
    contexts = [_Ctx(q_ids, [(rng.integers(1, 15, size=5), {SpanTarget(1, 2)})]), _Ctx(q_ids, [])]
    config = TrainConfig(objective=OBJ_COMPOUND_SHARED, epochs=1, batch_size=2, dim=6)
    with pytest.raises(InvalidInputError, match="context 1 has no passages"):
        train_dss(contexts, config, vocab_size=15)
    with pytest.raises(InvalidInputError, match="no passages"):
        context_loss_and_grads(init_params(15, dim=6), contexts[1])


def test_a_masked_gold_cell_raises_each_time_its_positions_are_asked_for():
    # A passage's gold positions are formed once and reused in later epochs,
    # but an error is not kept: a gold cell the policy masks raises each time.
    rng = np.random.default_rng(47)
    params = init_params(15, dim=6)
    inverted = SimpleNamespace(start=3, end=1)
    ctx = _Ctx(rng.integers(1, 15, size=3), [(rng.integers(1, 15, size=5), [inverted])])
    for _ in range(2):
        with pytest.raises(InvalidTargetError, match=r"gt span \(3, 1\) is masked"):
            context_loss_and_grads(params, ctx)
    # The full policy masks no cell, and the positions are kept per policy.
    loss, _ = context_loss_and_grads(params, ctx, MASK_FULL)
    assert np.isfinite(loss)


def test_context_chunks_hold_whole_contexts_within_the_window_cell_budget():
    # A context's cells are L^2 summed over its passages; the budget is
    # MAX_WINDOW_CELLS (2 x 90^2), and a larger context is a chunk of its own.
    lengths = [[90], [60, 30], [90, 90], [180], [12] * 8, [120], [30]]
    contexts = [
        _Ctx(np.array([1]), [(np.ones(n, dtype=np.int64), set()) for n in ls]) for ls in lengths
    ]
    chunks = list(_context_chunks(contexts))
    assert [context for chunk in chunks for context in chunk] == contexts
    cells = [[sum(p.passage_ids.size**2 for p in c.passages) for c in chunk] for chunk in chunks]
    assert MAX_WINDOW_CELLS == 16200
    assert cells == [[8100, 4500], [16200], [32400], [1152, 14400], [900]]
    assert [len(chunk) for chunk in _context_chunks(contexts, 900)] == [1] * len(contexts)


def test_params_must_hold_the_block_table_in_order():
    params = init_params(12, dim=4, similarity_kind=KIND_ADDITIVE_WEIGHTED_DOT)
    arrays = dict(params.blocks())
    with pytest.raises(InvalidInputError):
        ModelParams(arrays, KIND_DOT)  # a dot model has no w_sim
    with pytest.raises(InvalidInputError):
        ModelParams(dict(reversed(params.blocks())), KIND_ADDITIVE_WEIGHTED_DOT)
    with pytest.raises(InvalidInputError):
        ModelParams({**arrays, "w_q": np.zeros((4, 5))}, KIND_ADDITIVE_WEIGHTED_DOT)
    copy = params.copy()
    assert copy.cond.w is copy.w_cond and copy.similarity.w is copy.w_sim
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(copy.blocks(), params.blocks()))


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(objective="relu")
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(policy="loose")


@pytest.mark.parametrize(
    "name, value",
    [
        ("batch_size", 1.5),
        ("epochs", 2.5),
        ("dim", 8.0),
        ("seed", 1.0),
        ("batch_size", True),
        ("seed", "0"),
        ("learning_rate", "0.1"),
        ("weight_decay", "0"),
        ("learning_rate", True),
        ("weight_decay", None),
    ],
)
def test_config_refuses_values_of_the_wrong_type(name, value):
    with pytest.raises(ConfigError, match=name):
        TrainConfig(**{name: value})


def test_config_accepts_numpy_integers_and_integral_rates():
    config = TrainConfig(batch_size=np.int64(4), seed=np.int32(3), learning_rate=1, weight_decay=0)
    assert (config.batch_size, config.seed) == (4, 3)


# ---------------------------------------------------------------------------
# Prediction + evaluation glue


def test_predict_distribution_agrees_with_objective_decoders():
    rng = np.random.default_rng(43)
    params, q_ids, p_ids, _ = _tiny_setup(rng)
    for objective in PER_EXAMPLE_OBJECTIVES:
        dist = predict_distribution(params, q_ids, p_ids, objective)
        assert len(dist) > 0
        top = top_k(dist, 1)
        assert top and top[0].span.end >= top[0].span.start


def test_evaluate_model_scores_a_learnable_dataset():
    rng = np.random.default_rng(47)
    dataset = _toy_dataset(rng, n=10)
    config = TrainConfig(objective=OBJ_COMPOUND, epochs=30, batch_size=5, seed=1,
                         learning_rate=1e-2, dim=8)
    result = train(dataset, config, vocab_size=15)
    report = evaluate_model(result.params, dataset, OBJ_COMPOUND)
    assert report.n == 10
    assert report.em > 50.0  # memorizing 10 examples is easy
    assert 0.0 <= report.cross_rate <= 1.0


# ---------------------------------------------------------------------------
# Checkpoints


def test_checkpoint_round_trip_is_bytewise_stable(tmp_path):
    rng = np.random.default_rng(53)
    dataset = _toy_dataset(rng, n=6)
    config = TrainConfig(epochs=2, batch_size=3, seed=9, dim=8)
    result = train(dataset, config, vocab_size=15)
    path_a = os.fspath(tmp_path / "a.ckpt")
    path_b = os.fspath(tmp_path / "b.ckpt")
    for path in (path_a, path_b):
        save_checkpoint(
            path, result.params, objective=config.objective, seed=9, epoch=2,
            vocab=[f"t{i}" for i in range(15)], optimizer=result.optimizer,
            extra={"policy": MASK_VALID},
        )
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        assert fa.read() == fb.read()

    ckpt = load_checkpoint(path_a)
    np.testing.assert_array_equal(ckpt.params.flat, result.params.flat)
    assert ckpt.objective == config.objective
    assert ckpt.seed == 9 and ckpt.epoch == 2
    assert ckpt.vocab[0] == "t0"
    assert ckpt.extra["policy"] == MASK_VALID
    for name, _ in result.params.blocks():
        np.testing.assert_array_equal(ckpt.optimizer.m[name], result.optimizer.m[name])
        np.testing.assert_array_equal(ckpt.optimizer.v[name], result.optimizer.v[name])


def test_a_failed_checkpoint_write_leaves_the_previous_checkpoint_whole(tmp_path):
    params = init_params(15, dim=4, seed=2)
    path = tmp_path / "run.ckpt"
    save_checkpoint(os.fspath(path), params, objective=OBJ_COMPOUND, seed=2, epoch=1)
    before = path.read_bytes()
    # The header is encoded after the magic line is written, so this fails midway.
    with pytest.raises(TypeError):
        save_checkpoint(
            os.fspath(path), params, objective=OBJ_COMPOUND, seed=2, epoch=2, extra={"bad": object()}
        )
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ckpt"]


def test_checkpoint_resume_from_disk_matches_memory(tmp_path):
    rng = np.random.default_rng(59)
    dataset = _toy_dataset(rng, n=8)
    half_cfg = TrainConfig(epochs=2, batch_size=4, seed=4, dim=8)
    full_cfg = TrainConfig(epochs=5, batch_size=4, seed=4, dim=8)
    half = train(dataset, half_cfg, vocab_size=15)
    path = os.fspath(tmp_path / "half.ckpt")
    save_checkpoint(path, half.params, objective=half_cfg.objective, seed=4, epoch=2,
                    vocab=None, optimizer=half.optimizer)
    ckpt = load_checkpoint(path)
    resumed = train(dataset, full_cfg, params=ckpt.params, optimizer=ckpt.optimizer,
                    start_epoch=ckpt.epoch)
    full = train(dataset, full_cfg, vocab_size=15)
    np.testing.assert_array_equal(resumed.params.flat, full.params.flat)


def test_load_checkpoint_rejects_foreign_files(tmp_path):
    path = os.fspath(tmp_path / "bogus.ckpt")
    with open(path, "wb") as fh:
        fh.write(b"not a checkpoint\n")
    with pytest.raises(InvalidInputError):
        load_checkpoint(path)


# ---------------------------------------------------------------------------
# Flat vectors: every block is a view of its vector


def _assert_views_of(blocks, flat):
    """Each block views the next stretch of ``flat``, in table order."""
    offset = 0
    for name, block in blocks.items():
        assert np.shares_memory(block, flat), name
        assert block.ctypes.data == flat.ctypes.data + 8 * offset, name
        offset += block.size
    assert offset == flat.size


def _assert_flat(params, optimizer=None):
    _assert_views_of(params.arrays, params.flat)
    for name, block in params.blocks():
        assert getattr(params, name) is block, name
    assert params.cond.w is params.w_cond and params.similarity.w is params.arrays.get("w_sim")
    grads = zero_grads(params)
    _assert_views_of(grads, grads.flat)
    if optimizer is not None:
        for moments in (optimizer.m, optimizer.v):
            _assert_views_of(moments, moments.flat)


def test_parameter_gradient_and_moment_blocks_stay_views_of_one_vector(tmp_path):
    params = init_params(15, dim=4, similarity_kind=KIND_ADDITIVE_WEIGHTED_DOT, seed=3)
    _assert_flat(params)
    _assert_flat(params.copy())

    dataset = _toy_dataset(np.random.default_rng(61), n=6)
    config = TrainConfig(epochs=1, batch_size=3, seed=5, dim=4,
                         similarity=KIND_ADDITIVE_WEIGHTED_DOT)
    trained = train(dataset, config, vocab_size=15)
    _assert_flat(trained.params, trained.optimizer)

    path = os.fspath(tmp_path / "one.ckpt")
    save_checkpoint(path, trained.params, objective=config.objective, seed=5, epoch=1,
                    optimizer=trained.optimizer)
    ckpt = load_checkpoint(path)
    _assert_flat(ckpt.params, ckpt.optimizer)
    resumed = train(dataset, TrainConfig(epochs=2, batch_size=3, seed=5, dim=4,
                                         similarity=KIND_ADDITIVE_WEIGHTED_DOT),
                    params=ckpt.params, optimizer=ckpt.optimizer, start_epoch=1)
    _assert_flat(resumed.params, resumed.optimizer)

    contexts = [_Ctx(np.array([1, 2]), [(np.array([3, 4, 5]), {SpanTarget(0, 1)})])]
    shared = train_dss(contexts, TrainConfig(objective=OBJ_COMPOUND_SHARED, epochs=1, dim=4),
                       vocab_size=15)
    _assert_flat(shared.params, shared.optimizer)
