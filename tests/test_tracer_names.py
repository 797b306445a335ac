"""The benchmark's tracer wraps package functions by name; every name must resolve.

perfbench/tracer.py imports only the standard library, so it is loaded here
by file path. A function or method renamed in the package fails this test
instead of a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize(
    "module,name",
    [(module, name) for module, names in tracer.FUNCTIONS.items() for name in names],
)
def test_traced_function_resolves(module, name):
    fn = getattr(importlib.import_module(f"rss_atlas.{module}"), name, None)
    assert callable(fn), f"rss_atlas.{module}.{name} does not exist"


@pytest.mark.parametrize("module,cls,method", list(tracer.METHODS))
def test_traced_method_resolves(module, cls, method):
    owner = getattr(importlib.import_module(f"rss_atlas.{module}"), cls, None)
    assert callable(getattr(owner, method, None)), f"rss_atlas.{module}.{cls}.{method} does not exist"
