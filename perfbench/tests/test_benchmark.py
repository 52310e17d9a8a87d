"""Self-tests of the benchmark's own arithmetic and accounting.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from checks import Operations, check_ranked, failure_tag  # noqa: E402
from reference import SAMPLES, Reference  # noqa: E402
from spans import Span, Tracer, function_totals, self_times_ns  # noqa: E402


def _span(i, name, parent, start, end):
    return Span(i, name, parent, start, end, "run")


def test_self_time_subtracts_nested_children():
    spans = [
        _span(0, "outer", None, 0, 100),
        _span(1, "middle", 0, 10, 60),
        _span(2, "inner", 1, 20, 30),
    ]
    assert self_times_ns(spans) == {0: 50, 1: 40, 2: 10}


def test_self_time_subtracts_siblings_once_each():
    spans = [
        _span(0, "parent", None, 0, 100),
        _span(1, "a", 0, 10, 20),
        _span(2, "a", 0, 30, 45),
        _span(3, "b", 0, 50, 90),
    ]
    own = self_times_ns(spans)
    assert own[0] == 100 - 10 - 15 - 40
    totals = function_totals(spans)
    assert totals["a"] == (25 / 1e9, 2)
    assert totals["parent"][0] == pytest.approx(35 / 1e9)


def test_self_time_counts_overlapping_children_as_their_union():
    spans = [
        _span(0, "parent", None, 0, 100),
        _span(1, "x", 0, 10, 50),
        _span(2, "y", 0, 40, 70),
        _span(3, "z", 0, 90, 130),  # clipped to the parent's end
    ]
    assert self_times_ns(spans)[0] == 100 - 60 - 10


class _Boom(Exception):
    pass


def _raises_inside_a_package_frame():
    module = types.ModuleType("spanobj.fake")
    exec("def explode():\n    raise ValueError('bad span')\n", module.__dict__)
    module.explode()


def test_failures_are_counted_tagged_and_do_not_stop_the_run():
    ops = Operations(ValueError)
    results = [ops.attempt(lambda x: x * 2, 3), ops.attempt(_raises_inside_a_package_frame),
               ops.attempt(_raises_inside_a_package_frame), ops.attempt(lambda: "ok")]
    assert results == [6, None, None, "ok"]
    assert (ops.attempted, ops.failed) == (4, 2)
    assert ops.error_rate == 0.5
    assert dict(ops.tags) == {"spanobj.fake.explode": 2}


def test_weighted_attempts_and_merge():
    a = Operations(ValueError)
    a.attempt(_raises_inside_a_package_frame, count=5)
    b = Operations(ValueError)
    b.attempt(lambda: None, count=15)
    a.merge(b)
    assert (a.attempted, a.failed, a.error_rate) == (20, 5, 0.25)


def test_other_exceptions_are_not_failures():
    ops = Operations(ValueError)
    with pytest.raises(_Boom):
        ops.attempt(lambda: (_ for _ in ()).throw(_Boom()))
    assert failure_tag(_Boom()) == "_Boom"


def test_ranked_list_checks():
    good = [(3, 5, 0.5), (1, 2, 0.2), (4, 4, 0.2), (0, 0, 0.0)]
    assert check_ranked(good, zeta=30, where="x") == []
    problems = check_ranked([(5, 3, 0.6), (0, 40, 0.3), (1, 1, 0.4), (2, 2, float("nan"))],
                            zeta=30, where="x")
    text = "\n".join(problems)
    assert "inverted span (5, 3)" in text
    assert "longer than zeta=30" in text
    assert "outside [0, 1]" in text
    assert "not ordered" in text


def test_tracer_wraps_from_imports_and_restores_them(monkeypatch):
    package = types.ModuleType("spanobj")
    numerics = types.ModuleType("spanobj.numerics")
    consumer = types.ModuleType("spanobj.objectives")
    exec("def log_softmax(x):\n    return x\n", numerics.__dict__)
    consumer.log_softmax = numerics.log_softmax  # what `from .numerics import log_softmax` binds
    exec("def joint_loss(x):\n    return log_softmax(x) + 1\n", consumer.__dict__)
    for name, module in (("spanobj", package), ("spanobj.numerics", numerics),
                         ("spanobj.objectives", consumer)):
        monkeypatch.setitem(sys.modules, name, module)
    original = numerics.log_softmax

    tracer = Tracer()
    with tracer.tracing("t"):
        assert consumer.joint_loss(1) == 2
    assert numerics.log_softmax is original and consumer.log_softmax is original
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("objectives.joint_loss", None), ("numerics.log_softmax", 0)]
    assert "model.forward" in tracer.missing


@pytest.mark.parametrize("length", sorted(SAMPLES))
def test_reference_step_does_the_same_work_every_time(length):
    ref = Reference(length)
    params = {k: v.copy() for k, v in ref.params.items()}
    first = ref.step()
    assert ref.step() == first
    assert all((ref.params[k] == v).all() for k, v in params.items())
