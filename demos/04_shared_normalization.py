"""Shared normalization: one softmax across several retrieved passages.

With retrieval in the loop, the answer to a question may appear in several
passages, and supervision is distant: any token span whose text matches the
answer counts as gold.  Normalizing each passage separately lets the model
be confidently wrong in a passage that merely looks relevant.  The shared
objective pools every position of every retrieved passage into a single
softmax denominator and marginalizes all gold positions in the numerator.

Run:  python3 demos/04_shared_normalization.py
"""

import numpy as np

from spanobj.numerics import log_softmax
from spanobj.objectives import (
    BOUNDARY_START,
    SharedNormTarget,
    shared_norm_loss,
)

rng = np.random.default_rng(4)

# --- Collapse: one passage, one gold position --------------------------------
scores = rng.normal(size=7)
gold = 3
single = shared_norm_loss(SharedNormTarget([scores], [{gold}]), BOUNDARY_START)
plain_ce = -float(log_softmax(scores)[gold])
print("one passage, one gold position:")
print(f"  shared-normalization loss {single.loss:.6f}")
print(f"  plain softmax CE          {plain_ce:.6f}")
print(f"  difference                {abs(single.loss - plain_ce):.2e}\n")

# --- Pooling: three passages, distant supervision ----------------------------
# Passage 0 and passage 2 contain the answer (positions 1 and 4); passage 1
# is a retrieved distractor with no gold span at all.
passages = [rng.normal(size=6), rng.normal(size=8), rng.normal(size=5)]
gt_sets = [{1}, set(), {4}]
pooled = shared_norm_loss(SharedNormTarget(passages, gt_sets), BOUNDARY_START)
print("three passages, gold in #0 and #2, none in #1:")
print(f"  pooled loss {pooled.loss:.6f}")

# The gradient tells the story: positive on confident non-gold positions
# (push down), negative on gold positions (push up) — including across
# passage boundaries, because the denominator is shared.
for idx, grad in enumerate(pooled.grad_passages):
    top = int(np.argmax(np.abs(grad)))
    print(f"  passage {idx}: grad range [{grad.min():+.4f}, {grad.max():+.4f}], "
          f"largest at position {top}")
print()

# --- Why pooling matters ------------------------------------------------------
# Make the distractor passage VERY confident somewhere.  Per-passage
# normalization would never notice (the distractor has no gold to compete
# with); the shared softmax charges for it immediately.
confident = passages[1].copy()
confident[2] += 6.0
worse = shared_norm_loss(
    SharedNormTarget([passages[0], confident, passages[2]], gt_sets), BOUNDARY_START
)
print("after boosting a distractor-passage score by +6:")
print(f"  pooled loss {pooled.loss:.6f} -> {worse.loss:.6f}")
print("  the shared denominator punishes confidence outside the gold spans,")
print("  wherever it lives.  Training with this objective goes through")
print("  spanobj.model.train on contexts built by spanobj.data.build_context")
print("  (see demos/05 and the `spanobj context` command).")
