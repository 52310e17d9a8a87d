"""A desk-scale version of the package's flagship experiment.

Generate a synthetic twin-passage corpus (every passage pairs a gold
sentence with a same-attribute distractor, so each example carries two
candidate answer regions), train the independent and compound objectives
with a few seeds each, and compare exact match and the cross-boundary rate.
The full-size version (2000/500 corpus, ten seeds, eight epochs) runs inside
the acceptance suite; this one is scaled to finish in seconds.

Run:  python3 demos/07_end_to_end_experiment.py
"""

import json

import numpy as np

from spanobj.data import (
    GeneratorConfig,
    MODE_TWIN,
    Vocabulary,
    encode_examples,
    generate_synthetic,
)
from spanobj.model import TrainConfig, evaluate_model, train
from spanobj.objectives import OBJ_COMPOUND, OBJ_INDEPENDENT
from spanobj.stats import RunSample, significance_report

SEEDS = [1, 2, 3, 4, 5]
EPOCHS = 6

config = GeneratorConfig(
    n_train=400, n_dev=120, subjects=12, attributes=4, value_pool=20,
    ambiguous_fraction=0.3, distractors=1, mode=MODE_TWIN, passages_per_topic=4,
)
dataset = generate_synthetic(config, seed=11)
vocab = Vocabulary.from_examples(dataset.train + dataset.dev)
enc_train = encode_examples(dataset.train, vocab)
enc_dev = encode_examples(dataset.dev, vocab)
print(f"corpus: {len(enc_train)} train / {len(enc_dev)} dev, vocab {len(vocab)}\n")

results = {}
for objective in (OBJ_INDEPENDENT, OBJ_COMPOUND):
    ems, crosses = [], []
    for seed in SEEDS:
        cfg = TrainConfig(
            objective=objective, learning_rate=3e-3, weight_decay=0.01,
            batch_size=32, epochs=EPOCHS, seed=seed, policy="valid",
            dim=32, similarity="dot",
        )
        out = train(enc_train, cfg, vocab_size=len(vocab))
        report = evaluate_model(out.params, enc_dev, objective)
        ems.append(report.em)
        crosses.append(report.cross_rate)
        print(f"  {objective:12s} seed {seed}: EM {report.em:5.1f}  "
              f"cross rate {report.cross_rate:.3f}")
    results[objective] = (ems, crosses)
    print()

ind_ems, ind_cross = results[OBJ_INDEPENDENT]
comp_ems, comp_cross = results[OBJ_COMPOUND]
print(f"mean EM:         independent {np.mean(ind_ems):5.2f}   "
      f"compound {np.mean(comp_ems):5.2f}")
print(f"mean cross rate: independent {np.mean(ind_cross):5.3f}   "
      f"compound {np.mean(comp_cross):5.3f}\n")

report = significance_report(
    [RunSample("compound", comp_ems), RunSample("independent", ind_ems)],
    [("compound", "independent")],
)
print(report.format())
print()
print("The verdict is directional: the t-test asks whether compound beats")
print("independent across seeds, not by how much.  The metric files the")
print("`spanobj stats` command reads look like:")
print(json.dumps({"label": "compound", "seeds": SEEDS, "values": comp_ems}))
