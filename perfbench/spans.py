"""Span tracing around the package's layer functions, from outside the package.

A :class:`Tracer` replaces each listed function with a wrapper wherever a
``spanobj`` module binds it, including names imported with ``from`` (so the
``span_scores`` that ``forward`` calls is the wrapped one), and puts the
originals back when the traced region ends.  Each call records a span:
name, start, end, parent span and run id.  Spans stay in memory until the
run writes them out.

A span's self time is its duration minus the part of it that its child
spans cover; per-function self time and call counts are sums over spans.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

# (module under spanobj, attribute path, hot).  Hot functions are called per
# example or per step and also report a call count.
LAYER_FUNCTIONS = [
    ("data", "generate_synthetic", False),
    ("data", "encode_examples", False),
    ("data", "load_dataset", False),
    ("data", "save_dataset", False),
    ("data", "score_passages", True),
    ("data", "build_context", True),
    ("data", "annotate_gt", True),
    ("data", "load_contexts", False),
    ("data", "encode_contexts", False),
    ("model", "train", False),
    ("model", "train_dss", False),
    ("model", "forward", True),
    ("model", "backward", True),
    ("model", "AdamW.step", True),
    ("model", "context_loss_and_grads", True),
    ("model", "predict_distribution", True),
    ("model", "evaluate_model", False),
    ("model", "save_checkpoint", False),
    ("model", "load_checkpoint", False),
    ("objectives", "independent_loss", True),
    ("objectives", "joint_loss", True),
    ("objectives", "compound_loss", True),
    ("objectives", "conditional_loss", True),
    ("objectives", "shared_norm_loss", True),
    ("similarity", "span_scores", True),
    ("similarity", "span_scores_grad", True),
    ("similarity", "joint_boundary_reps", True),
    ("numerics", "log_softmax", True),
    ("numerics", "vectorize", True),
    ("decoding", "independent_distribution", True),
    ("decoding", "joint_distribution", True),
    ("decoding", "beam_decode", True),
    ("decoding", "length_filter", True),
    ("decoding", "surface_form_filter", True),
    ("decoding", "top_k", True),
    ("evaluation", "em_f1", True),
    ("evaluation", "score_dataset", False),
    ("evaluation", "avg_topk_span_length", False),
    ("stats", "significance_report", False),
]

DECODERS = ("independent_distribution", "joint_distribution", "beam_decode")


def span_name(module_name: str, attr: str) -> str:
    return f"{module_name}.{attr}"


def _count_result(counters: Counter, attr: str, result) -> None:
    # Counts taken where the work happens: spans a decoder materialized and
    # predictions top_k handed back.
    if attr in DECODERS:
        counters["decoding.spans_materialized"] += len(result)
    elif attr == "top_k":
        counters["decoding.predictions_returned"] += len(result)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start_ns: int
    end_ns: int
    run: str
    error: str | None = None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """In-memory span recorder plus the counters taken at layer boundaries."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.run = ""
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, parent, time.perf_counter_ns(), 0, self.run)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span: Span, error: BaseException | None) -> None:
        span.end_ns = time.perf_counter_ns()
        if error is not None:
            span.error = type(error).__name__
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around one CLI command."""
        span = self._open(name)
        try:
            yield span
        except BaseException as err:
            self._close(span, err)
            raise
        self._close(span, None)

    def wrap(self, name: str, attr: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                tracer._close(span, err)
                raise
            tracer._close(span, None)
            _count_result(tracer.counters, attr, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def tracing(self, run: str):
        """Wrap every listed function for the duration of the block."""
        self.run = run
        patches = []
        self.missing = []
        modules = [m for n, m in list(sys.modules.items()) if n == "spanobj" or n.startswith("spanobj.")]
        try:
            for module_name, attr, _ in LAYER_FUNCTIONS:
                owner, leaf, original = _resolve(module_name, attr)
                if original is None:
                    self.missing.append(span_name(module_name, attr))
                    continue
                wrapper = self.wrap(span_name(module_name, attr), leaf, original)
                if owner is not None:  # a method: patch its class
                    patches.append((owner, leaf, original))
                    setattr(owner, leaf, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            patches.append((module, key, original))
                            setattr(module, key, wrapper)
            yield self
        finally:
            for target, key, original in reversed(patches):
                setattr(target, key, original)
            self.run = ""

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(
                    {"id": s.id, "name": s.name, "parent": s.parent, "start_ns": s.start_ns,
                     "end_ns": s.end_ns, "run": s.run, "error": s.error},
                    separators=(",", ":"),
                ))
                fh.write("\n")


def _resolve(module_name: str, attr: str):
    """(class owning a method or None, leaf name, function or None)."""
    module = sys.modules.get(f"spanobj.{module_name}")
    if module is None:
        return None, attr, None
    head, _, leaf = attr.rpartition(".")
    if head:
        owner = getattr(module, head, None)
        return owner, leaf, getattr(owner, leaf, None) if owner is not None else None
    return None, attr, getattr(module, attr, None)


def _covered_ns(lo: int, hi: int, intervals) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if a >= b:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times_ns(spans) -> dict:
    """Span id -> duration minus the part covered by its child spans."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start_ns, s.end_ns))
    return {
        s.id: s.duration_ns - _covered_ns(s.start_ns, s.end_ns, children.get(s.id, ()))
        for s in spans
    }


def function_totals(spans) -> dict:
    """Span name -> (summed self seconds, call count)."""
    own = self_times_ns(spans)
    self_ns = Counter()
    calls = Counter()
    for s in spans:
        self_ns[s.name] += own[s.id]
        calls[s.name] += 1
    return {name: (self_ns[name] / 1e9, calls[name]) for name in calls}


def layer_metric_names() -> list:
    names = []
    for module_name, attr, hot in LAYER_FUNCTIONS:
        names.append(f"{span_name(module_name, attr)}.self_s")
        if hot:
            names.append(f"{span_name(module_name, attr)}.calls")
    return names


def layer_metrics(spans, missing=()) -> dict:
    """``<module>.<fn>.self_s`` (and ``.calls`` for hot functions).

    A function the package does not have is absent; one it has but the
    workload never called reports zero.
    """
    totals = function_totals(spans)
    out = {}
    for module_name, attr, hot in LAYER_FUNCTIONS:
        name = span_name(module_name, attr)
        if name in missing:
            continue
        self_s, calls = totals.get(name, (0.0, 0))
        out[f"{name}.self_s"] = self_s
        if hot:
            out[f"{name}.calls"] = calls
    return out
