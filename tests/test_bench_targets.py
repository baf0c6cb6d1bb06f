"""Every name the benchmark's traced run wraps must exist.

``hcsbench/spans.py`` lists in ``TARGETS`` each function of the
program that a traced benchmark run replaces with a timing wrapper,
as a module and an attribute path.  A rename or move of one of them
would otherwise show only when the benchmark runs.  ``spans.py``
imports only the standard library, so it is loaded here by path, and
each entry is resolved the way ``Tracer.install`` resolves it: an
attribute of a class must be defined on that class itself.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS_PATH = (
    Path(__file__).resolve().parent.parent / "hcsbench" / "spans.py"
)


def _targets() -> tuple:
    spec = importlib.util.spec_from_file_location(
        "hcsbench_spans", SPANS_PATH
    )
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while the body runs.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.TARGETS


TARGETS = _targets()


def test_targets_are_listed():
    assert len(TARGETS) >= 23


@pytest.mark.parametrize(
    "module_name,path",
    [target[:2] for target in TARGETS],
    ids=[f"{target[0]}:{target[1]}" for target in TARGETS],
)
def test_target_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    if isinstance(owner, type):
        assert attr in owner.__dict__, f"{path} is not defined on its class"
        target = owner.__dict__[attr]
        if isinstance(target, (staticmethod, classmethod)):
            target = target.__func__
    else:
        target = getattr(owner, attr)
    assert callable(target), path
