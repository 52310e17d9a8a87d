"""A small trainable span extractor with hand-derived gradients.

The encoder is deliberately tiny so that every objective can be trained,
compared, and gradient-checked on a laptop: token embeddings are mixed with
a pooled question vector through one tanh layer, and the resulting passage
representation feeds four heads — start scores, end scores, a bilinear-style
joint span head, and a conditional end head.

Nothing here autodiffs.  ``backward`` applies the chain rule explicitly, and
the test suite holds every path to central finite differences.

Example records are duck-typed: training consumes objects carrying
``question_ids``, ``passage_ids`` and ``target`` (plus ``example`` for text
metrics); shared-normalization training consumes contexts carrying
``question_ids`` and ``passages``, each passage with ``passage_ids`` and a
``gt_spans`` collection.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import decoding
from .errors import (
    MALFORMED_RECORD_ERRORS,
    ConfigError,
    DivergenceError,
    InvalidInputError,
    SpanObjError,
    VocabularyError,
    malformed,
)
from .evaluation import em_f1
from .numerics import MASK_POLICIES, MASK_VALID, ScoreMatrix
from .objectives import (
    BOUNDARY_END,
    BOUNDARY_JOINT,
    BOUNDARY_START,
    OBJ_COMPOUND,
    OBJ_COMPOUND_SHARED,
    OBJ_CONDITIONAL,
    OBJ_INDEPENDENT,
    OBJ_JOINT,
    OBJECTIVE_KINDS,
    ConditionalParams,
    LossResult,
    SharedNormTarget,
    SpanTarget,
    compound_loss,
    conditional_loss,
    independent_loss,
    joint_loss,
    shared_norm_loss,
)
from .similarity import (
    KIND_DOT,
    SIMILARITY_KINDS,
    BoundaryRepresentations,
    SimilarityParams,
    joint_boundary_reps,
    span_scores,
    span_scores_grad,
    weight_length,
)

CHECKPOINT_MAGIC = "spanobj-checkpoint 1"


# ---------------------------------------------------------------------------
# Parameters


@dataclass
class ModelParams:
    """Every trainable array, in the declared block order.

    ``emb`` is the V x d token embedding table.  ``w_q``/``b_q`` transform
    the mean question embedding into the conditioning vector q.  ``w_mix``/
    ``b_mix`` map the per-token feature [e_t; e_t*q; q] to the d x L passage
    representation H (through tanh).  ``w_s``/``b_s`` and ``w_e``/``b_e``
    score boundaries; ``w_joint``/``b_joint`` derive start representations
    for the joint head; ``cond`` holds the conditional end head; and
    ``similarity`` configures how joint span scores combine the boundary
    representations.
    """

    emb: np.ndarray
    w_q: np.ndarray
    b_q: np.ndarray
    w_mix: np.ndarray
    b_mix: np.ndarray
    w_s: np.ndarray
    b_s: np.ndarray
    w_e: np.ndarray
    b_e: np.ndarray
    w_joint: np.ndarray
    b_joint: np.ndarray
    cond: ConditionalParams
    similarity: SimilarityParams

    @property
    def dim(self) -> int:
        return self.emb.shape[1]

    @property
    def vocab_size(self) -> int:
        return self.emb.shape[0]

    def blocks(self) -> list:
        """Ordered (name, array) pairs; the order is the serialization order."""
        pairs = [
            ("emb", self.emb),
            ("w_q", self.w_q),
            ("b_q", self.b_q),
            ("w_mix", self.w_mix),
            ("b_mix", self.b_mix),
            ("w_s", self.w_s),
            ("b_s", self.b_s),
            ("w_e", self.w_e),
            ("b_e", self.b_e),
            ("w_joint", self.w_joint),
            ("b_joint", self.b_joint),
            ("w_cond", self.cond.w),
            ("b_cond", self.cond.b),
            ("w_cond_out", self.cond.w_out),
        ]
        if self.similarity.w is not None:
            pairs.append(("w_sim", self.similarity.w))
        return pairs

    def copy(self) -> "ModelParams":
        sim = SimilarityParams(
            self.similarity.kind,
            None if self.similarity.w is None else self.similarity.w.copy(),
        )
        return ModelParams(
            emb=self.emb.copy(),
            w_q=self.w_q.copy(),
            b_q=self.b_q.copy(),
            w_mix=self.w_mix.copy(),
            b_mix=self.b_mix.copy(),
            w_s=self.w_s.copy(),
            b_s=self.b_s.copy(),
            w_e=self.w_e.copy(),
            b_e=self.b_e.copy(),
            w_joint=self.w_joint.copy(),
            b_joint=self.b_joint.copy(),
            cond=ConditionalParams(self.cond.w.copy(), self.cond.b.copy(), self.cond.w_out.copy()),
            similarity=sim,
        )


def init_params(
    vocab_size: int,
    dim: int = 32,
    similarity_kind: str = KIND_DOT,
    seed: int = 0,
) -> ModelParams:
    """Seeded initialization; identical seeds give identical parameters.

    Weight matrices draw from N(0, 1/fan_in); biases start at zero so that
    zeroed embeddings yield exactly uniform score distributions.
    """
    if vocab_size < 1 or dim < 1:
        raise ConfigError(f"bad model dimensions V={vocab_size}, d={dim}")
    if similarity_kind not in SIMILARITY_KINDS:
        raise ConfigError(f"unknown similarity kind {similarity_kind!r}")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0]))
    d = dim
    sim_len = weight_length(similarity_kind, d)
    w_sim = None
    if sim_len:
        w_sim = rng.normal(0.0, 1.0 / np.sqrt(d), size=sim_len)
    return ModelParams(
        emb=rng.normal(0.0, 0.5, size=(vocab_size, d)),
        w_q=rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, d)),
        b_q=np.zeros(d),
        w_mix=rng.normal(0.0, 1.0 / np.sqrt(3 * d), size=(d, 3 * d)),
        b_mix=np.zeros(d),
        w_s=rng.normal(0.0, 1.0 / np.sqrt(d), size=d),
        b_s=np.zeros(1),
        w_e=rng.normal(0.0, 1.0 / np.sqrt(d), size=d),
        b_e=np.zeros(1),
        w_joint=rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, d)),
        b_joint=np.zeros(d),
        cond=ConditionalParams(
            w=rng.normal(0.0, 1.0 / np.sqrt(2 * d), size=(d, 2 * d)),
            b=np.zeros(d),
            w_out=rng.normal(0.0, 1.0 / np.sqrt(d), size=d),
        ),
        similarity=SimilarityParams(similarity_kind, w_sim),
    )


def zero_grads(params: ModelParams) -> dict:
    return {name: np.zeros_like(arr) for name, arr in params.blocks()}


def flatten_params(params: ModelParams) -> np.ndarray:
    """All blocks raveled into one vector (finite-difference plumbing)."""
    return np.concatenate([arr.ravel() for _, arr in params.blocks()])


def assign_flat(params: ModelParams, vector: np.ndarray) -> None:
    """Write a flat vector back into the parameter blocks, in order."""
    offset = 0
    for _, arr in params.blocks():
        arr.flat[:] = vector[offset : offset + arr.size]
        offset += arr.size
    if offset != vector.size:
        raise InvalidInputError(f"flat vector has {vector.size} values, expected {offset}")


def flatten_grads(params: ModelParams, grads: dict) -> np.ndarray:
    return np.concatenate([grads[name].ravel() for name, _ in params.blocks()])


# ---------------------------------------------------------------------------
# Forward / backward


@dataclass
class ForwardCache:
    """Intermediates retained for the backward pass."""

    question_ids: np.ndarray
    passage_ids: np.ndarray
    q_bar: np.ndarray
    q: np.ndarray
    e: np.ndarray            # d x L token embeddings
    features: np.ndarray     # 3d x L mixed input
    h: np.ndarray            # d x L passage representation
    start_scores: np.ndarray
    end_scores: np.ndarray
    reps: BoundaryRepresentations
    joint: ScoreMatrix


def _check_ids(ids, vocab_size: int, what: str) -> np.ndarray:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1 or ids.size == 0:
        raise InvalidInputError(f"{what} token ids must be a non-empty 1-d sequence")
    if ids.min() < 0 or ids.max() >= vocab_size:
        raise VocabularyError(
            f"{what} ids out of range for vocabulary of size {vocab_size}"
        )
    return ids


def forward(
    params: ModelParams,
    question_ids,
    passage_ids,
    policy: str = MASK_VALID,
) -> ForwardCache:
    """Full forward pass producing boundary scores and the joint score matrix."""
    question_ids = _check_ids(question_ids, params.vocab_size, "question")
    passage_ids = _check_ids(passage_ids, params.vocab_size, "passage")

    q_bar = params.emb[question_ids].mean(axis=0)
    q = params.w_q @ q_bar + params.b_q
    e = params.emb[passage_ids].T
    length = e.shape[1]
    features = np.vstack([e, e * q[:, None], np.tile(q[:, None], (1, length))])
    h = np.tanh(params.w_mix @ features + params.b_mix[:, None])

    start_scores = params.w_s @ h + params.b_s[0]
    end_scores = params.w_e @ h + params.b_e[0]
    reps = joint_boundary_reps(h, params.w_joint, params.b_joint)
    joint = span_scores(reps, params.similarity, policy)
    return ForwardCache(
        question_ids=question_ids,
        passage_ids=passage_ids,
        q_bar=q_bar,
        q=q,
        e=e,
        features=features,
        h=h,
        start_scores=start_scores,
        end_scores=end_scores,
        reps=reps,
        joint=joint,
    )


def example_loss(params: ModelParams, cache: ForwardCache, target: SpanTarget, objective: str) -> LossResult:
    """Loss of one example under the chosen objective, with score gradients."""
    if objective == OBJ_INDEPENDENT:
        return independent_loss(cache.start_scores, cache.end_scores, target)
    if objective == OBJ_JOINT:
        return joint_loss(cache.joint, target)
    if objective in (OBJ_COMPOUND, OBJ_COMPOUND_SHARED):
        return compound_loss(cache.start_scores, cache.end_scores, cache.joint, target)
    if objective == OBJ_CONDITIONAL:
        return conditional_loss(cache.start_scores, cache.h, params.cond, target)
    raise ConfigError(f"unknown objective {objective!r}")


def backward(params: ModelParams, cache: ForwardCache, result: LossResult, objective: str) -> dict:
    """Chain rule from a LossResult back to every parameter block.

    The routing depends on the objective: boundary-score gradients flow
    through w_s/w_e, joint-matrix gradients through the joint head and
    similarity weights, and the conditional objective supplies its own
    representation and head gradients (its grad_end lives in conditional
    end-score space and must not touch w_e).
    """
    if objective not in OBJECTIVE_KINDS:
        raise ConfigError(f"unknown objective {objective!r}")
    if cache.h.shape[0] != params.dim:
        raise InvalidInputError("forward cache does not match these parameters")
    grads = zero_grads(params)
    d_h = np.zeros_like(cache.h)

    if result.grad_start is not None:
        grads["w_s"] += cache.h @ result.grad_start
        grads["b_s"] += result.grad_start.sum()
        d_h += np.outer(params.w_s, result.grad_start)

    routes_end = objective in (OBJ_INDEPENDENT, OBJ_COMPOUND, OBJ_COMPOUND_SHARED)
    if result.grad_end is not None and routes_end:
        grads["w_e"] += cache.h @ result.grad_end
        grads["b_e"] += result.grad_end.sum()
        d_h += np.outer(params.w_e, result.grad_end)

    if result.grad_joint is not None:
        d_hs, d_he, d_w_sim = span_scores_grad(cache.reps, params.similarity, result.grad_joint)
        grads["w_joint"] += d_hs @ cache.h.T
        grads["b_joint"] += d_hs.sum(axis=1)
        d_h += params.w_joint.T @ d_hs + d_he
        if d_w_sim is not None:
            grads["w_sim"] += d_w_sim

    if result.grad_cond is not None:
        grads["w_cond"] += result.grad_cond.w
        grads["b_cond"] += result.grad_cond.b
        grads["w_cond_out"] += result.grad_cond.w_out
    if result.grad_h is not None:
        d_h += result.grad_h

    # Through H = tanh(w_mix F + b_mix).
    d_pre = d_h * (1.0 - cache.h**2)
    grads["w_mix"] += d_pre @ cache.features.T
    grads["b_mix"] += d_pre.sum(axis=1)
    d_features = params.w_mix.T @ d_pre

    d = params.dim
    d_e = d_features[:d] + d_features[d : 2 * d] * cache.q[:, None]
    d_q = (d_features[d : 2 * d] * cache.e).sum(axis=1) + d_features[2 * d :].sum(axis=1)

    # Question pooling: q = w_q q_bar + b_q, q_bar = mean of question embeddings.
    grads["w_q"] += np.outer(d_q, cache.q_bar)
    grads["b_q"] += d_q
    d_q_bar = params.w_q.T @ d_q

    np.add.at(grads["emb"], cache.passage_ids, d_e.T)
    np.add.at(
        grads["emb"],
        cache.question_ids,
        np.tile(d_q_bar / cache.question_ids.size, (cache.question_ids.size, 1)),
    )
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
    cache = forward(params, question_ids, passage_ids, policy)
    result = example_loss(params, cache, target, objective)
    return result.loss, backward(params, cache, result, objective)


# ---------------------------------------------------------------------------
# Shared-normalization contexts


def context_loss_and_grads(params: ModelParams, context, policy: str = MASK_VALID):
    """Pooled loss over one retrieval context, or None when unsupervised.

    Every passage in the context is encoded, the start/end/joint scores are
    pooled across passages, and each of the three factors pays a
    shared-normalization loss that marginalizes all distantly supervised
    answer positions.  A context whose passages carry no gold span at all
    yields None (the caller counts the skip).
    """
    passages = list(context.passages)
    if not passages:
        raise InvalidInputError("context has no passages")
    if not any(len(p.gt_spans) for p in passages):
        return None

    caches = [forward(params, context.question_ids, p.passage_ids, policy) for p in passages]
    gt_spans = [
        [(int(t.start), int(t.end)) for t in p.gt_spans] for p in passages
    ]
    start_target = SharedNormTarget(
        [c.start_scores for c in caches], [{s for s, _ in g} for g in gt_spans]
    )
    end_target = SharedNormTarget(
        [c.end_scores for c in caches], [{e for _, e in g} for g in gt_spans]
    )
    joint_target = SharedNormTarget([c.joint for c in caches], gt_spans)

    start_res = shared_norm_loss(start_target, BOUNDARY_START)
    end_res = shared_norm_loss(end_target, BOUNDARY_END)
    joint_res = shared_norm_loss(joint_target, BOUNDARY_JOINT)

    loss = joint_res.loss + start_res.loss + end_res.loss
    grads = zero_grads(params)
    for idx, cache in enumerate(caches):
        partial = LossResult(
            0.0,
            grad_start=start_res.grad_passages[idx],
            grad_end=end_res.grad_passages[idx],
            grad_joint=joint_res.grad_passages[idx],
        )
        passage_grads = backward(params, cache, partial, OBJ_COMPOUND_SHARED)
        for name in grads:
            grads[name] += passage_grads[name]
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
    """

    lr: float = 1e-3
    weight_decay: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def step(self, params: ModelParams, grads: dict) -> None:
        self.t += 1
        for name, p in params.blocks():
            g = grads[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(p)
                self.v[name] = np.zeros_like(p)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1**self.t)
            v_hat = v / (1.0 - self.beta2**self.t)
            p -= self.lr * (m_hat / (np.sqrt(v_hat) + self.eps) + self.weight_decay * p)


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
    context_size: int = 2
    dim: int = 32
    similarity: str = KIND_DOT

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVE_KINDS:
            raise ConfigError(f"unknown objective {self.objective!r}")
        if self.policy not in MASK_POLICIES:
            raise ConfigError(f"unknown masking policy {self.policy!r}")
        if self.similarity not in SIMILARITY_KINDS:
            raise ConfigError(f"unknown similarity kind {self.similarity!r}")
        if self.learning_rate <= 0 or self.weight_decay < 0:
            raise ConfigError("learning rate must be positive, weight decay non-negative")
        if min(self.batch_size, self.epochs, self.context_size, self.dim) < 1:
            raise ConfigError("batch size, epochs, context size and dim must be >= 1")


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


def train_step(params: ModelParams, batch, config: TrainConfig, optimizer: AdamW) -> float:
    """One optimizer step on a batch of encoded examples; returns mean loss."""
    if not batch:
        raise InvalidInputError("empty batch")
    grads = zero_grads(params)
    total = 0.0
    for ex in batch:
        try:
            loss, ex_grads = loss_and_grads(
                params, ex.question_ids, ex.passage_ids, ex.target, config.objective, config.policy
            )
        except InvalidInputError as err:
            raise DivergenceError(f"non-finite forward pass: {err}") from err
        if not np.isfinite(loss):
            raise DivergenceError(f"non-finite loss {loss!r}")
        total += loss
        for name in grads:
            grads[name] += ex_grads[name]
    scale = 1.0 / len(batch)
    for name in grads:
        grads[name] *= scale
    optimizer.step(params, grads)
    return total * scale


def _context_step(params: ModelParams, batch, config: TrainConfig, optimizer: AdamW):
    grads = zero_grads(params)
    total = 0.0
    used = 0
    skipped = 0
    for context in batch:
        try:
            outcome = context_loss_and_grads(params, context, config.policy)
        except InvalidInputError as err:
            raise DivergenceError(f"non-finite forward pass: {err}") from err
        if outcome is None:
            skipped += 1
            continue
        loss, ctx_grads = outcome
        if not np.isfinite(loss):
            raise DivergenceError(f"non-finite loss {loss!r}")
        total += loss
        used += 1
        for name in grads:
            grads[name] += ctx_grads[name]
    if used:
        scale = 1.0 / used
        for name in grads:
            grads[name] *= scale
        optimizer.step(params, grads)
    return total, used, skipped


def _run_epochs(items, config, params, optimizer, start_epoch, step_fn, dev_set, beam_width):
    log = []
    for epoch in range(start_epoch, config.epochs):
        order = _epoch_rng(config.seed, epoch).permutation(len(items))
        total = 0.0
        used = 0
        skipped = 0
        for lo in range(0, len(order), config.batch_size):
            batch = [items[i] for i in order[lo : lo + config.batch_size]]
            batch_total, batch_used, batch_skipped = step_fn(params, batch, config, optimizer)
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
        log.append(entry)
    return log


def train(
    dataset,
    config: TrainConfig,
    *,
    params: ModelParams | None = None,
    optimizer: AdamW | None = None,
    start_epoch: int = 0,
    dev_set=None,
    vocab_size: int | None = None,
    beam_width: int = decoding.DEFAULT_BEAM_WIDTH,
) -> TrainResult:
    """Train on per-example supervision; deterministic given (seed, config, data).

    Pass ``params``/``optimizer``/``start_epoch`` from a checkpoint to resume:
    epoch shuffles are derived from (seed, epoch), so the continuation matches
    an uninterrupted run exactly.
    """
    dataset = list(dataset)
    if not dataset:
        raise InvalidInputError("empty dataset")
    if config.objective == OBJ_COMPOUND_SHARED:
        raise ConfigError("shared-normalization training goes through train_dss")
    if params is None:
        if vocab_size is None:
            vocab_size = 1 + int(
                max(max(np.max(ex.question_ids), np.max(ex.passage_ids)) for ex in dataset)
            )
        params = init_params(vocab_size, config.dim, config.similarity, config.seed)
    if optimizer is None:
        optimizer = AdamW(lr=config.learning_rate, weight_decay=config.weight_decay)

    def step(p, batch, cfg, opt):
        loss = train_step(p, batch, cfg, opt)
        return loss * len(batch), len(batch), 0

    log = _run_epochs(dataset, config, params, optimizer, start_epoch, step, dev_set, beam_width)
    return TrainResult(params, log, optimizer, config.epochs)


def train_dss(
    contexts,
    config: TrainConfig,
    *,
    params: ModelParams | None = None,
    optimizer: AdamW | None = None,
    start_epoch: int = 0,
    dev_set=None,
    vocab_size: int | None = None,
    beam_width: int = decoding.DEFAULT_BEAM_WIDTH,
) -> TrainResult:
    """Train with shared normalization over retrieval contexts.

    Contexts without any distantly supervised position are skipped and
    counted in the log rather than failing the run.
    """
    contexts = list(contexts)
    if not contexts:
        raise InvalidInputError("empty context list")
    if params is None:
        if vocab_size is None:
            raise ConfigError("vocab_size required when training from scratch")
        params = init_params(vocab_size, config.dim, config.similarity, config.seed)
    if optimizer is None:
        optimizer = AdamW(lr=config.learning_rate, weight_decay=config.weight_decay)
    log = _run_epochs(
        contexts, config, params, optimizer, start_epoch, _context_step, dev_set, beam_width
    )
    return TrainResult(params, log, optimizer, config.epochs)


# ---------------------------------------------------------------------------
# Decoding + evaluation glue


def predict_distribution(
    params: ModelParams,
    question_ids,
    passage_ids,
    objective: str,
    policy: str = MASK_VALID,
    beam_width: int = decoding.DEFAULT_BEAM_WIDTH,
) -> decoding.SpanDistribution:
    """Span distribution for one example under the objective's decoder.

    Compound-family models decode with the joint factor; the independent
    objective decodes with the boundary product; the conditional objective
    beam-decodes.
    """
    cache = forward(params, question_ids, passage_ids, policy)
    if objective == OBJ_INDEPENDENT:
        return decoding.independent_distribution(cache.start_scores, cache.end_scores, policy)
    if objective in (OBJ_JOINT, OBJ_COMPOUND, OBJ_COMPOUND_SHARED):
        return decoding.joint_distribution(cache.joint)
    if objective == OBJ_CONDITIONAL:
        return decoding.beam_decode(cache.start_scores, cache.h, params.cond, beam_width)
    raise ConfigError(f"unknown objective {objective!r}")


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

    The cross-boundary rate is measured over examples that record at least
    two candidate answer spans: a decode crosses when its start falls inside
    one candidate and its end inside another.
    """
    em_bits = []
    f1_values = []
    crossings = 0
    eligible = 0
    for enc in dev_set:
        dist = predict_distribution(
            params, enc.question_ids, enc.passage_ids, objective, policy, beam_width
        )
        predictions = decoding.top_k(dist, 1, enc.example.passage)
        text = predictions[0].text if predictions else ""
        em_bit, f1_value = em_f1(text, enc.example.answers)
        em_bits.append(em_bit)
        f1_values.append(f1_value)

        regions = [(t.start, t.end) for t in getattr(enc.example, "candidate_spans", [])]
        if len(regions) >= 2 and predictions:
            eligible += 1
            span = predictions[0].span
            if decoding.span_crosses((span.start, span.end), regions):
                crossings += 1
    n = len(em_bits)
    return EvalReport(
        em=100.0 * float(np.mean(em_bits)) if n else 0.0,
        f1=100.0 * float(np.mean(f1_values)) if n else 0.0,
        n=n,
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
    every block in declared order, followed by the optimizer's first- and
    second-moment blocks when present.  Identical inputs produce identical
    bytes.
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
        header["optimizer"] = {
            "t": optimizer.t,
            "lr": optimizer.lr,
            "weight_decay": optimizer.weight_decay,
            "beta1": optimizer.beta1,
            "beta2": optimizer.beta2,
            "eps": optimizer.eps,
        }
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC.encode("ascii") + b"\n")
        fh.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8"))
        fh.write(b"\n")
        for _, arr in blocks:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        if optimizer is not None:
            for name, arr in blocks:
                moment = optimizer.m.get(name, np.zeros_like(arr))
                fh.write(np.ascontiguousarray(moment, dtype="<f8").tobytes())
            for name, arr in blocks:
                moment = optimizer.v.get(name, np.zeros_like(arr))
                fh.write(np.ascontiguousarray(moment, dtype="<f8").tobytes())


@dataclass
class Checkpoint:
    params: ModelParams
    objective: str
    seed: int
    epoch: int
    vocab: list | None
    optimizer: AdamW | None
    extra: dict


def _read_block(fh, shape) -> np.ndarray:
    count = int(np.prod(shape, dtype=np.int64)) if shape else 1
    raw = fh.read(count * 8)
    if len(raw) != count * 8:
        raise InvalidInputError("checkpoint truncated")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


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
    arrays = {}
    for name, shape in header["blocks"]:
        arrays[name] = _read_block(fh, shape)
    sim = SimilarityParams(header["similarity"], arrays.get("w_sim"))
    params = ModelParams(
        emb=arrays["emb"],
        w_q=arrays["w_q"],
        b_q=arrays["b_q"],
        w_mix=arrays["w_mix"],
        b_mix=arrays["b_mix"],
        w_s=arrays["w_s"],
        b_s=arrays["b_s"],
        w_e=arrays["w_e"],
        b_e=arrays["b_e"],
        w_joint=arrays["w_joint"],
        b_joint=arrays["b_joint"],
        cond=ConditionalParams(arrays["w_cond"], arrays["b_cond"], arrays["w_cond_out"]),
        similarity=sim,
    )
    optimizer = None
    if header.get("optimizer"):
        meta = header["optimizer"]
        optimizer = AdamW(
            lr=meta["lr"],
            weight_decay=meta["weight_decay"],
            beta1=meta["beta1"],
            beta2=meta["beta2"],
            eps=meta["eps"],
            t=meta["t"],
        )
        for name, shape in header["blocks"]:
            optimizer.m[name] = _read_block(fh, shape)
        for name, shape in header["blocks"]:
            optimizer.v[name] = _read_block(fh, shape)
    return Checkpoint(
        params=params,
        objective=header["objective"],
        seed=header["seed"],
        epoch=header["epoch"],
        vocab=header.get("vocab"),
        optimizer=optimizer,
        extra=header.get("extra", {}),
    )
