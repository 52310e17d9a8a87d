"""Operation accounting and output checks shared by the workloads."""

from __future__ import annotations

import math
from collections import Counter


def failure_tag(err: BaseException) -> str:
    """``module.function`` of the innermost package frame that raised ``err``."""
    tag = type(err).__name__
    tb = err.__traceback__
    while tb is not None:
        frame = tb.tb_frame
        module = frame.f_globals.get("__name__", "")
        if module == "spanobj" or module.startswith("spanobj."):
            code = frame.f_code
            tag = f"{module}.{getattr(code, 'co_qualname', code.co_name)}"
        tb = tb.tb_next
    return tag


class Operations:
    """Attempted and failed operations; a failure is counted, never raised.

    Only ``failure_types`` count as failed operations (the package's own
    error hierarchy): anything else is a defect of the benchmark and aborts
    the run.
    """

    def __init__(self, failure_types) -> None:
        self.failure_types = failure_types
        self.attempted = 0
        self.failed = 0
        self.tags: Counter = Counter()

    def attempt(self, fn, *args, count: int = 1):
        """Run ``fn(*args)`` as ``count`` operations; its result, or None when it failed."""
        self.attempted += count
        try:
            return fn(*args)
        except self.failure_types as err:
            self.record_failure(failure_tag(err), count)
            return None

    def record_failure(self, tag: str, count: int = 1) -> None:
        self.failed += count
        self.tags[tag] += count

    def merge(self, other: "Operations") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.tags.update(other.tags)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def check_ranked(rows, zeta: int, where: str) -> list:
    """Problems in one ranked list of ``(start, end, probability)`` rows.

    Every span must be extractable (start <= end), no longer than ``zeta``
    boundary steps after the length filter, carry a finite probability in
    [0, 1], and appear in the deterministic order (-p, start, end).
    """
    problems = []
    keys = []
    for rank, (start, end, p) in enumerate(rows, 1):
        if end < start:
            problems.append(f"{where} rank {rank}: inverted span ({start}, {end})")
        if end - start > zeta:
            problems.append(f"{where} rank {rank}: span ({start}, {end}) longer than zeta={zeta}")
        if not (math.isfinite(p) and 0.0 <= p <= 1.0):
            problems.append(f"{where} rank {rank}: probability {p!r} outside [0, 1]")
        keys.append((-p, start, end))
    if keys != sorted(keys):
        problems.append(f"{where}: ranking is not ordered by (-p, start, end)")
    return problems
