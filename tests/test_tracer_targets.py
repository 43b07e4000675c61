"""The benchmark tracer's targets and the package exports name real objects.

`perfbench/tracer.py` wraps public functions by name; a renamed or dropped
one would otherwise fail only a traced benchmark run.  The tracer is read as
source and executed in a fresh namespace, so no bytecode is written next to
it.
"""

import importlib
from pathlib import Path

import pytest

import lazystates as lz

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_targets() -> dict:
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace["TARGETS"]


@pytest.mark.parametrize(
    "module,name",
    [(module, name) for module, names in tracer_targets().items() for name in names],
)
def test_tracer_target_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"lazystates.{module}"), name))


def test_package_exports_resolve():
    missing = [name for name in lz.__all__ if not hasattr(lz, name)]
    assert missing == []
    # the package re-exports its modules' own lists, each name once
    listed = ["__version__"]
    for module in (
        "su_algebra", "bloch", "laziness", "dynamics", "gaussian", "stateio", "examples", "errors"
    ):
        listed += importlib.import_module(f"lazystates.{module}").__all__
    assert lz.__all__ == listed
    assert len(set(listed)) == len(listed)
