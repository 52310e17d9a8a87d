"""A fixed reference computation that measures how fast the machine runs now.

On a shared host the same pass of a workload can take 30% longer for
minutes at a time, because other tenants load the physical cores, caches
and memory.  Timing the benchmark's own fixed code next to every pass, and
scaling each pass by how much slower that code ran than its nominal time,
cancels this drift while still moving one-for-one with the package's speed:
the reference never changes with the package.

The reference mirrors the package's kind of work at a given passage length
L (see ``spanobj.model``): embedding lookups, a tanh mixing layer, an L x L
span-score matrix with its mask, row-major flattening with a Python index
map, a log-softmax, the chain rule back through the layers with
``np.add.at``, an AdamW update, and a Python-level top-k over the spans.
It is written here, not imported, so that a change to the package cannot
change it.
"""

from __future__ import annotations

import time

import numpy as np

DIM = 32
VOCAB = 120
TOP_K = 20

# Passage length -> (steps in one sample, nominal seconds of one sample).
# A sample takes about 0.2 s.  The nominal seconds are what a sample takes on
# a quiet 2-vCPU Xeon (family 6, model 207) KVM guest, so scaled times read
# as seconds on that machine when nothing else loads it.
SAMPLES = {12: (600, 0.125), 180: (12, 0.19)}


class Reference:
    """One fixed training-and-decoding step at passage length ``length``."""

    def __init__(self, length: int) -> None:
        self.length = length
        self.steps, self.nominal_s = SAMPLES[length]
        rng = np.random.default_rng(20081204)
        d = DIM
        self.params = {
            "emb": rng.normal(0.0, 0.5, size=(VOCAB, d)),
            "w_q": rng.normal(0.0, d ** -0.5, size=(d, d)),
            "w_mix": rng.normal(0.0, (3 * d) ** -0.5, size=(d, 3 * d)),
            "b_mix": np.zeros(d),
            "w_s": rng.normal(0.0, d ** -0.5, size=d),
            "w_joint": rng.normal(0.0, d ** -0.5, size=(d, d)),
        }
        self.moments = {k: (np.zeros_like(v), np.zeros_like(v)) for k, v in self.params.items()}
        self.question = rng.integers(0, VOCAB, size=8)
        self.passage = rng.integers(0, VOCAB, size=length)
        self.mask = np.triu(np.ones((length, length), dtype=bool))
        self.gold = (length // 3, length // 3 + min(3, length - 1 - length // 3))

    def step(self) -> float:
        """One example: forward, joint loss, backward, AdamW, top-k decode."""
        p, length = self.params, self.length
        q = p["w_q"] @ p["emb"][self.question].mean(axis=0)
        e = p["emb"][self.passage].T
        features = np.vstack([e, e * q[:, None], np.tile(q[:, None], (1, length))])
        h = np.tanh(p["w_mix"] @ features + p["b_mix"][:, None])
        hs = p["w_joint"] @ h
        scores = hs.T @ h + (p["w_s"] @ h)[:, None]
        rows, cols = np.nonzero(self.mask)
        flat = scores[rows, cols]
        index = list(zip(rows.tolist(), cols.tolist()))
        shifted = flat - flat.max()
        log_p = shifted - np.log(np.exp(shifted).sum())
        gold = index.index(self.gold)
        grad_flat = np.exp(log_p)
        grad_flat[gold] -= 1.0
        grad = np.zeros((length, length))
        grad[rows, cols] = grad_flat

        d_hs = h @ grad.T
        d_h = hs @ grad + p["w_joint"].T @ d_hs + np.outer(p["w_s"], grad.sum(axis=1))
        d_pre = d_h * (1.0 - h ** 2)
        d_features = p["w_mix"].T @ d_pre
        grads = {k: np.zeros_like(v) for k, v in p.items()}
        grads["w_mix"] += d_pre @ features.T
        grads["b_mix"] += d_pre.sum(axis=1)
        grads["w_joint"] += d_hs @ h.T
        grads["w_s"] += h @ grad.sum(axis=1)
        np.add.at(grads["emb"], self.passage, d_features[:DIM].T)
        updates = []
        for name, value in p.items():
            m, v = self.moments[name]
            g = grads[name]
            m *= 0.9
            m += 0.1 * g
            v *= 0.999
            v += 0.001 * g * g
            # The update is computed but not applied, so every step does the same work.
            updates.append(value - 3e-3 * (m / (np.sqrt(v) + 1e-8) + 0.01 * value))

        probs = np.exp(log_p).tolist()
        ranked = sorted(zip(probs, index), key=lambda t: (-t[0], t[1]))[:TOP_K]
        return -float(log_p[gold]) + ranked[0][0]

    def sample(self) -> float:
        """Wall time of one sample over its nominal time: 1.0 on the quiet machine."""
        t = time.perf_counter()
        for _ in range(self.steps):
            self.step()
        return (time.perf_counter() - t) / self.nominal_s
