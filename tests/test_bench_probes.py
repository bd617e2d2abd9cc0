"""The benchmark tracer's probes name functions that exist.

``perfbench/tracer.py`` wraps functions by (module, class, attribute);
a renamed function would only show up when the benchmark runs.  The
tracer is loaded by path and nothing is wrapped.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize(
    "module, cls, attr, name",
    tracer.PROBES + tracer.LAYERS,
    ids=[f"{m}.{c + '.' if c else ''}{a}" for m, c, a, _ in tracer.PROBES + tracer.LAYERS],
)
def test_probe_resolves(module, cls, attr, name):
    owner = importlib.import_module(module)
    if cls is not None:
        owner = getattr(owner, cls)
    assert callable(getattr(owner, attr, None)), f"{name}: {module}.{cls}.{attr}"
