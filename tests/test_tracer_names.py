"""The benchmark calls the package by name; every name it uses must resolve.

perfbench/tracer.py wraps package functions by name. It imports only the
standard library, so it is loaded here by file path. perfbench/worker.py
reads attributes of the package's modules (`ds.ap_positions`,
`loc.FieldBuilder`, ...); it is parsed, not run. A function, class or
method renamed in the package fails this test instead of a benchmark run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER_PATH = PERFBENCH / "tracer.py"
WORKER_PATH = PERFBENCH / "worker.py"


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
    # Checked first: None has an __init__ too.
    assert isinstance(owner, type), f"rss_atlas.{module}.{cls} does not exist"
    assert callable(getattr(owner, method, None)), f"rss_atlas.{module}.{cls}.{method} does not exist"


def worker_package_names() -> list[tuple[str, str]]:
    """(module, name) for every package attribute that worker.py reads.

    That is every `alias.name` where the alias is bound by an import of a
    package module anywhere in the file (`from rss_atlas import dataset as
    ds`, `import rss_atlas`), and every name of a `from rss_atlas.<module>
    import name`.
    """
    tree = ast.parse(WORKER_PATH.read_text(encoding="utf-8"))
    aliases, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "rss_atlas":
                    aliases.setdefault(a.asname or a.name, set()).add(a.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "rss_atlas":
            for a in node.names:
                if node.module == "rss_atlas":
                    aliases.setdefault(a.asname or a.name, set()).add(f"rss_atlas.{a.name}")
                else:
                    names.add((node.module, a.name))
    assert all(len(modules) == 1 for modules in aliases.values()), aliases
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            names.add((next(iter(aliases[node.value.id])), node.attr))
    return sorted(names)


WORKER_NAMES = worker_package_names()


def test_worker_reads_every_module_it_imports():
    # The parse finds the localize workload's calls, so an empty list cannot pass.
    modules = {module for module, _ in WORKER_NAMES}
    assert {"rss_atlas.dataset", "rss_atlas.experiment", "rss_atlas.localization",
            "rss_atlas.pca", "rss_atlas.errors"} <= modules


@pytest.mark.parametrize("module,name", WORKER_NAMES)
def test_worker_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name), f"{module}.{name} does not exist"
