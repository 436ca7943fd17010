"""The names that the benchmark under perfbench/ takes from `sexpansion`
resolve, so a change that deletes one fails here, not only in the
benchmark's own runs.  The benchmark files are parsed, never imported."""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _resolves(module: str, name: str) -> bool:
    """`from module import name` would succeed: an attribute or a submodule."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_benchmark_imports_resolve():
    imported = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module.split(".")[0] == "sexpansion":
                imported += [(path.name, node.module, a.name) for a in node.names]
            elif isinstance(node, ast.Import):
                imported += [(path.name, a.name, None) for a in node.names
                             if a.name.split(".")[0] == "sexpansion"]
    assert {p for p, _, _ in imported} >= {"golden_c5.py", "algebra_verify.py",
                                           "chern_weil_c5.py", "tracer.py"}
    for path, module, name in imported:
        if name is None:
            importlib.import_module(module)
        else:
            assert _resolves(module, name), f"{path}: from {module} import {name}"


def test_traced_layers_resolve():
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "LAYERS" for t in node.targets))
    assert ("targets", "expand_target") in layers
    for module, name in layers:
        assert callable(getattr(importlib.import_module(f"sexpansion.{module}"), name, None)), \
            f"tracer.LAYERS names sexpansion.{module}.{name}"
