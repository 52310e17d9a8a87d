"""Per-call cost of each layer function at passage lengths 12, 60 and 180.

The sweep times the package's functions directly (no tracing) on a few
examples of a twin corpus and an untrained, seeded model, and reports the
median milliseconds per call as ``sweep.L<L>.<fn>.ms``.  ``decode`` is one
example decoded the way ``spanobj decode`` does it: predict, ``lf+sf``,
top-20.  A function the package no longer has, or no longer accepts these
arguments, is skipped and its metric is absent.
"""

from __future__ import annotations

import statistics
import time

from spanobj import data, decoding, model, objectives

LENGTHS = (12, 60, 180)
EXAMPLES = 4
MIN_CALLS = 3
MAX_CALLS = 200
BUDGET_S = 0.1
FUNCTIONS = (
    "forward", "backward", "independent_loss", "joint_loss", "compound_loss", "conditional_loss",
    "independent_distribution", "joint_distribution", "beam_decode", "length_filter",
    "surface_form_filter", "decode",
)


def _ms_per_call(call, n_inputs: int) -> float:
    times = []
    spent = 0.0
    while len(times) < MAX_CALLS and (len(times) < MIN_CALLS or spent < BUDGET_S):
        i = len(times) % n_inputs
        t = time.perf_counter()
        call(i)
        dt = time.perf_counter() - t
        times.append(dt)
        spent += dt
    return 1e3 * statistics.median(times)


def _cases(length: int):
    config = data.GeneratorConfig(
        n_train=EXAMPLES, n_dev=1, subjects=30, attributes=6, value_pool=40,
        distractors=length // 6 - 1, mode=data.MODE_TWIN,
    )
    dataset = data.generate_synthetic(config, 7)
    vocab = data.Vocabulary.from_examples(dataset.train + dataset.dev)
    enc = data.encode_examples(dataset.train, vocab)
    params = model.init_params(len(vocab), seed=1)
    caches = [model.forward(params, e.question_ids, e.passage_ids) for e in enc]
    compound = [objectives.compound_loss(c.start_scores, c.end_scores, c.joint, e.target)
                for c, e in zip(caches, enc)]
    joint = [decoding.joint_distribution(c.joint) for c in caches]
    filtered = [decoding.length_filter(d) for d in joint]
    passages = [e.example.passage for e in enc]

    def decode(i):
        e = enc[i]
        dist = model.predict_distribution(params, e.question_ids, e.passage_ids, "compound")
        dist = decoding.apply_filters(dist, passages[i], "lf+sf")
        return decoding.top_k(dist, 20, passages[i])

    return len(enc), {
        "forward": lambda i: model.forward(params, enc[i].question_ids, enc[i].passage_ids),
        "backward": lambda i: model.backward(params, caches[i], compound[i], "compound"),
        "independent_loss": lambda i: objectives.independent_loss(
            caches[i].start_scores, caches[i].end_scores, enc[i].target),
        "joint_loss": lambda i: objectives.joint_loss(caches[i].joint, enc[i].target),
        "compound_loss": lambda i: objectives.compound_loss(
            caches[i].start_scores, caches[i].end_scores, caches[i].joint, enc[i].target),
        "conditional_loss": lambda i: objectives.conditional_loss(
            caches[i].start_scores, caches[i].h, params.cond, enc[i].target),
        "independent_distribution": lambda i: decoding.independent_distribution(
            caches[i].start_scores, caches[i].end_scores),
        "joint_distribution": lambda i: decoding.joint_distribution(caches[i].joint),
        "beam_decode": lambda i: decoding.beam_decode(caches[i].start_scores, caches[i].h, params.cond),
        "length_filter": lambda i: decoding.length_filter(joint[i]),
        "surface_form_filter": lambda i: decoding.surface_form_filter(filtered[i], passages[i]),
        "decode": decode,
    }


def run_sweep() -> dict:
    metrics = {}
    for length in LENGTHS:
        try:
            n, cases = _cases(length)
        except (AttributeError, TypeError):
            continue
        for name in FUNCTIONS:
            call = cases[name]
            try:
                metrics[f"sweep.L{length}.{name}.ms"] = _ms_per_call(call, n)
            except (AttributeError, TypeError):
                continue
    return metrics


def metric_names() -> list:
    return [f"sweep.L{length}.{name}.ms" for length in LENGTHS for name in FUNCTIONS]
