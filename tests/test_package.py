"""The package's public names, and the names the benchmark harness uses."""
import ast
import importlib
import importlib.util
from pathlib import Path

import eulerdd

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("su2core", "dgroup", "control", "noise", "engine", "analysis")


def test_package_exports_the_union_of_the_module_lists():
    modules = [importlib.import_module(f"eulerdd.{name}") for name in MODULES]
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names))
    assert sorted(eulerdd.__all__) == sorted(["__version__", *names])
    for module in modules:
        for name in module.__all__:
            assert getattr(eulerdd, name) is getattr(module, name)


def test_names_the_benchmark_uses_resolve():
    tree = ast.parse((PERFBENCH / "checks.py").read_text())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("eulerdd")
                for alias in node.names]
    assert ("eulerdd.engine", "apply_envelope") in imported
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    wrapped = [(module, attr) for module, attr, _, _ in tracing.WRAPPED]
    for module, attr in imported + wrapped:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
