"""Golden digests of ranked decode output.

Every objective x masking policy x filter pipeline decodes the dev set of a
small fixed corpus the way ``spanobj decode`` does (predict, filter, top-20),
and the SHA-256 of the ranked rows (span, text, probability repr) must match
``golden_decode.json``.  A refactor of the decoders that claims identical
output is held to it byte for byte.  The ``grouped/`` entries decode a
grouped-corpus dev set whose passage lengths (18 and 24) interleave, so a
stacked decode that sorts by length must hand the distributions back in
input order; they were generated with the one-example decoder.

Regenerate the file (only when an output change is intended and explained)
with::

    PYTHONPATH=src python tests/test_golden_decode.py
"""

import hashlib
import json
import os
import sys

from spanobj import data, decoding, model
from spanobj.errors import SpanObjError
from spanobj.numerics import MASK_POLICIES
from spanobj.objectives import OBJ_COMPOUND, OBJ_COMPOUND_SHARED, OBJECTIVE_KINDS

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_decode.json")
FILTERS = ("none", "lf", "lf+sf")
TOP_K = 20
# Seven facts of six tokens: L = 42, so the default length cutoff (30) bites.
CORPUS = data.GeneratorConfig(
    n_train=24, n_dev=3, subjects=12, attributes=4, value_pool=20,
    ambiguous_fraction=0.3, distractors=6, mode=data.MODE_TWIN,
)
# Two facts per passage, grouped: dev passages of 18 and 24 tokens, unsorted.
GROUPED = data.GeneratorConfig(
    n_train=48, n_dev=20, subjects=30, attributes=6, value_pool=40,
    ambiguous_fraction=0.3, distractors=1, mode=data.MODE_GROUPED, passages_per_topic=4,
)


def _ranked_digest(params, dev, objective, policy, pipeline):
    digest = hashlib.sha256()
    for enc, dist in zip(dev, model.predict_distributions(params, dev, objective, policy)):
        try:
            dist = decoding.apply_filters(dist, enc.example.passage, pipeline)
            rows = [
                (p.span.start, p.span.end, p.text, p.probability)
                for p in decoding.top_k(dist, TOP_K, enc.example.passage)
            ]
        except SpanObjError as err:
            rows = f"error: {type(err).__name__}"
        digest.update(repr((enc.id, rows)).encode("utf-8"))
    return digest.hexdigest()


def _corpus_digests(corpus, filters, prefix=""):
    dataset = data.generate_synthetic(corpus, 5)
    vocab = data.Vocabulary.from_examples(dataset.train + dataset.dev)
    train = data.encode_examples(dataset.train, vocab)
    dev = data.encode_examples(dataset.dev, vocab)
    digests = {}
    for policy in MASK_POLICIES:
        for objective in OBJECTIVE_KINDS:
            # Shared normalization trains from contexts; its decoder is the
            # compound one, so it decodes compound-trained parameters.
            trained_as = OBJ_COMPOUND if objective == OBJ_COMPOUND_SHARED else objective
            config = model.TrainConfig(
                objective=trained_as, learning_rate=3e-3, batch_size=8, epochs=1,
                seed=0, policy=policy, dim=16,
            )
            params = model.train(train, config, vocab_size=len(vocab)).params
            for pipeline in filters:
                key = f"{prefix}{objective}/{policy}/{pipeline}"
                digests[key] = _ranked_digest(params, dev, objective, policy, pipeline)
    return digests


def compute_digests():
    return {**_corpus_digests(CORPUS, FILTERS), **_corpus_digests(GROUPED, ("lf+sf",), "grouped/")}


def test_ranked_decode_matches_golden_digests():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    got = compute_digests()
    assert sorted(got) == sorted(golden)
    changed = sorted(key for key in golden if got[key] != golden[key])
    assert not changed, f"ranked decode output changed for {changed}"


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(compute_digests(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    sys.stdout.write(f"wrote {GOLDEN_PATH}\n")
