"""The benchmark tracer wraps program functions by (module, attribute)
name; a renamed function would otherwise only show up as a
`missing_wrappers` entry in a traced run record, and a function bound at
import time (say, in a dispatch table) would escape its wrapper, so its
per-layer metric would read 0."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from nilrig import cohom, families, liealg, report
from nilrig.sampling import random_invertible, rng_for

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


def test_tracer_measures_every_layer():
    """The g_p01(2) case keeps its given basis; on the dense basis change
    the basis step runs inside the space_dims span, so a reducer it made
    through a traced module would be counted as the Z or B^2 reducer and
    show as a rank mismatch."""
    tracer = _tracer().Tracer()
    g = families.g_p01(2)
    dense = liealg.basis_change(families.g_k3k2k1(1, 0, 2),
                                random_invertible(5, rng_for(41), -2, 2))
    tracer.install()
    try:
        tracer.run_case("g_p01(2) cr", lambda: cohom.space_dims(
            g, "cr", with_representatives=True))
        tracer.run_case("dense cr", lambda: cohom.space_dims(
            dense, "cr", with_representatives=True))
        tracer.run_case("C08", lambda: report.run_claims(only="C08"))
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert tracer.rank_mismatches() == []
    metrics = tracer.metrics()
    for name in ("cohom.z_rows", "exactlin.pivots", "cohom.d1_calls",
                 "exactlin.b2_elim_s", "cohom.containment_s",
                 "liealg.validate_s", "liealg.basis_change_s", "report.c08_s"):
        assert metrics[name][0] > 0, name
