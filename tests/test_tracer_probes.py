"""The benchmark tracer (bench/tracer.py) wraps package functions by their
module attribute names, and ``--trace 1`` fails on a name that no longer
resolves.  This guards every probed name from the package side."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _probes():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.PROBES


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, _, _ in _probes()])
def test_probed_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
