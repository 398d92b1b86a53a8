"""Every name the benchmark tracer wraps resolves in coxrep.

`bench/tracing.py` is loaded from its file, read-only; nothing is
installed, so coxrep stays unpatched.  A span target that is renamed or
deleted would otherwise break only traced benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("name", sorted(tracing.SPANS))
def test_span_target_resolves(name):
    module, attr, cls = tracing.SPANS[name]
    owner = importlib.import_module(f"coxrep.{module}")
    if cls is not None:
        owner = getattr(owner, cls)
    assert callable(getattr(owner, attr))


@pytest.mark.parametrize("name", sorted(tracing.COUNTED))
def test_counted_operator_resolves(name):
    from coxrep.cyclotomic import FieldElement

    assert callable(getattr(FieldElement, tracing.COUNTED[name]))
