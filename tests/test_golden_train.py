"""Golden digests of trained checkpoints.

Every objective x masking policy trains for two epochs on the corpus of
``test_golden_decode.py`` in batches of 12 (more than one stack of the
model core), and the SHA-256 of the checkpoint bytes
(parameters plus both AdamW moments) must match ``golden_train.json``.
``compound-shared`` trains through ``train`` on retrieval contexts of
two passages built the way ``spanobj context`` builds them, and once more
on contexts of three passages of mixed lengths from a grouped corpus (two
passages cannot show a sum taken out of passage order, since
``(0 + a) + b == (0 + b) + a``); one more entry trains with a weighted
similarity so that its weight gradient is pinned too, and ``train_dss``,
the name the benchmark traces, must give the two-passage entry's bytes
through ``train``.  The ``grouped`` entries train every other objective on
that grouped corpus, whose interleaved passage lengths the core sorts into
stacks, so a gradient added out of example order changes their bytes.  A
refactor of the training core that claims identical output is held to it
byte for byte.

Regenerate the file (only when an output change is intended and explained)
with::

    PYTHONPATH=src python tests/test_golden_train.py
"""

import hashlib
import json
import os
import sys
import tempfile

from spanobj import data, model
from spanobj.numerics import MASK_POLICIES
from spanobj.objectives import OBJ_COMPOUND, OBJ_COMPOUND_SHARED, OBJECTIVE_KINDS
from spanobj.similarity import KIND_ADDITIVE_WEIGHTED_DOT, KIND_DOT

sys.path.insert(0, os.path.dirname(__file__))
from test_golden_decode import CORPUS  # noqa: E402

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_train.json")
EPOCHS = 2
CONTEXTS = 12
# Passages of 18 and 24 tokens; three-passage contexts of 16 questions train
# in batches of 12 and 4.
GROUPED = data.GeneratorConfig(
    n_train=16, n_dev=2, subjects=8, attributes=5, value_pool=20,
    mode=data.MODE_GROUPED, passages_per_topic=3,
)


def _contexts(dataset, vocab, count=CONTEXTS, size=2):
    """Contexts for the first training questions, as ``spanobj context`` builds them."""
    table = dataset.table
    passages_by_id = {p.id: p for p in dataset.passages}
    contexts = []
    for i, ex in enumerate(dataset.train[:count]):
        ranking = data.score_passages(table.matrix[table.row_of[ex.passage.id]], table)
        contexts.append(
            data.build_context(ranking, ex.answers[0], passages_by_id, size, i, ex.id, ex.question)
        )
    return data.encode_contexts(contexts, vocab)


def _checkpoint_digest(result, objective):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.ckpt")
        model.save_checkpoint(
            path, result.params, objective=objective, seed=0, epoch=result.epochs_done,
            optimizer=result.optimizer,
        )
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


def compute_digests():
    dataset = data.generate_synthetic(CORPUS, 5)
    vocab = data.Vocabulary.from_examples(dataset.train + dataset.dev)
    train = data.encode_examples(dataset.train, vocab)
    contexts = _contexts(dataset, vocab)
    runs = [(o, p, KIND_DOT) for p in MASK_POLICIES for o in OBJECTIVE_KINDS]
    runs.append((OBJ_COMPOUND, MASK_POLICIES[0], KIND_ADDITIVE_WEIGHTED_DOT))
    digests = {}
    for objective, policy, similarity in runs:
        config = model.TrainConfig(
            objective=objective, learning_rate=3e-3, batch_size=12, epochs=EPOCHS,
            seed=0, policy=policy, dim=16, similarity=similarity,
        )
        items = contexts if objective == OBJ_COMPOUND_SHARED else train
        result = model.train(items, config, vocab_size=len(vocab))
        key = f"{objective}/{policy}" + ("" if similarity == KIND_DOT else f"/{similarity}")
        digests[key] = _checkpoint_digest(result, objective)

    grouped = data.generate_synthetic(GROUPED, 5)
    vocab = data.Vocabulary.from_examples(grouped.train + grouped.dev)
    config = model.TrainConfig(
        objective=OBJ_COMPOUND_SHARED, learning_rate=3e-3, batch_size=12, epochs=EPOCHS,
        seed=0, policy=MASK_POLICIES[0], dim=16,
    )
    result = model.train(
        _contexts(grouped, vocab, count=16, size=3), config, vocab_size=len(vocab)
    )
    digests[f"{OBJ_COMPOUND_SHARED}/{MASK_POLICIES[0]}/three-passage"] = _checkpoint_digest(
        result, OBJ_COMPOUND_SHARED
    )

    # Plain training on interleaved passage lengths: sorted into stacks,
    # added back in example order.
    train = data.encode_examples(grouped.train, vocab)
    for objective in OBJECTIVE_KINDS:
        if objective == OBJ_COMPOUND_SHARED:
            continue
        config = model.TrainConfig(
            objective=objective, learning_rate=3e-3, batch_size=12, epochs=EPOCHS,
            seed=0, policy=MASK_POLICIES[0], dim=16,
        )
        result = model.train(train, config, vocab_size=len(vocab))
        digests[f"grouped/{objective}/{MASK_POLICIES[0]}"] = _checkpoint_digest(result, objective)
    return digests


def test_trained_checkpoints_match_golden_digests():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    got = compute_digests()
    assert sorted(got) == sorted(golden)
    changed = sorted(key for key in golden if got[key] != golden[key])
    assert not changed, f"trained checkpoint bytes changed for {changed}"


def test_train_dss_is_train_on_contexts():
    dataset = data.generate_synthetic(CORPUS, 5)
    vocab = data.Vocabulary.from_examples(dataset.train + dataset.dev)
    config = model.TrainConfig(
        objective=OBJ_COMPOUND_SHARED, learning_rate=3e-3, batch_size=12, epochs=EPOCHS,
        seed=0, policy=MASK_POLICIES[0], dim=16,
    )
    result = model.train_dss(_contexts(dataset, vocab), config, vocab_size=len(vocab))
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    key = f"{OBJ_COMPOUND_SHARED}/{MASK_POLICIES[0]}"
    assert _checkpoint_digest(result, OBJ_COMPOUND_SHARED) == golden[key]


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(compute_digests(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    sys.stdout.write(f"wrote {GOLDEN_PATH}\n")
