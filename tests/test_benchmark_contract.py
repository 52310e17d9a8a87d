"""The benchmark's contract with the package.

``perfbench/spans.py`` traces the functions its ``LAYER_FUNCTIONS`` lists,
and ``perfbench/sweep.py`` times the calls its ``_cases`` builds.  A name
the package no longer has, or a call it no longer accepts, drops metrics
from the benchmark's result line without an error there; these tests fail
instead.  The benchmark's own tests run here too, in a process of their own.
"""

import importlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import spans, sweep  # noqa: E402


def test_every_traced_layer_function_resolves():
    missing = []
    for module_name, attr, _ in spans.LAYER_FUNCTIONS:
        owner = importlib.import_module(f"spanobj.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(spans.span_name(module_name, attr))
    assert missing == []


def test_every_sweep_call_runs_once():
    n, cases = sweep._cases(12)
    assert n >= 1
    assert sorted(cases) == sorted(sweep.FUNCTIONS)
    for name in sweep.FUNCTIONS:
        cases[name](0)


def test_the_benchmarks_own_tests_pass():
    # They stand in fake spanobj modules, so they run as their docstring
    # says, ``python3 -m pytest perfbench/tests``, apart from the package
    # these tests have imported.
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/tests"],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stdout + run.stderr
