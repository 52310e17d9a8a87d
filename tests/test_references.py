"""Every cross-reference in the package's docstrings and comments names live code.

A ``:func:``, ``:class:``, ``:data:`` or ``:meth:`` reference in
``src/spanobj/*.py`` resolves in its own module, then in that module's
classes, then in the ``spanobj`` package, so a renamed or deleted function
cannot stay named in the text that explains the code.
"""

import importlib
import re
from pathlib import Path

import pytest

import spanobj

SOURCES = sorted((Path(spanobj.__file__).parent).glob("*.py"))
REFERENCE = re.compile(r":(?:func|class|data|meth):`~?([^`]+)`")


def _lookup(scope, dotted: str) -> bool:
    for name in dotted.split("."):
        if not hasattr(scope, name):
            return False
        scope = getattr(scope, name)
    return True


def _resolves(module, target: str) -> bool:
    target = re.sub(r"\s+", "", target).removeprefix("spanobj.")
    classes = [value for value in vars(module).values() if isinstance(value, type)]
    return any(_lookup(scope, target) for scope in [module, *classes, spanobj])


def test_the_package_holds_references():
    counts = [len(REFERENCE.findall(path.read_text(encoding="utf-8"))) for path in SOURCES]
    assert sum(counts) > 50


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_reference_resolves(path):
    module = importlib.import_module(f"spanobj.{path.stem}") if path.stem != "__init__" else spanobj
    missing = [
        target for target in REFERENCE.findall(path.read_text(encoding="utf-8"))
        if not _resolves(module, target)
    ]
    assert missing == []
