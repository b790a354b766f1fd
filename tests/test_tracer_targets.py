"""The benchmark tracer wraps program functions by (module, attribute)
name; a renamed function would otherwise only show up as a
`missing_wrappers` entry in a traced run record."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def _targets():
    tracer = _tracer()
    return ([(mod, attr) for mod, attr, _ in tracer.CALL_TARGETS]
            + [tuple(target) for target in tracer.ROW_TARGETS])


@pytest.mark.parametrize("modname,attr", _targets())
def test_tracer_target_resolves(modname, attr):
    assert callable(getattr(importlib.import_module(modname), attr, None))
