"""What importing `sexpansion` costs: every imported name is used, the
package imports no module that only its record classes once needed,
importing it loads nothing beyond what its own standard-library imports load,
and importing one module loads no package module it does not import."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sexpansion

PACKAGE = Path(sexpansion.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

# what `dataclasses` pulled in, with `string` for the old alphabet constant
NOT_IMPORTED = {"dataclasses", "inspect", "ast", "dis", "tokenize", "string"}


def imports(tree: ast.Module, top_level: bool = False) -> list[ast.stmt]:
    """The absolute import statements of a module, or of its top level only."""
    nodes = tree.body if top_level else ast.walk(tree)
    return [node for node in nodes if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.level == 0]


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; `from __future__` is exempt."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os, re as regex\n"
              "from typing import Optional, Sequence\nx: Optional[int] = regex.X\n")
    assert unused_imports(source) == ["line 2: os", "line 3: Sequence"]


def test_no_module_imports_the_dataclass_machinery():
    for path in [PACKAGE / "__init__.py", *MODULES]:
        for node in imports(ast.parse(path.read_text())):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
            assert not {n.split(".")[0] for n in names} & NOT_IMPORTED, (path.name, node.lineno)


def test_importing_the_cli_loads_only_what_its_stdlib_imports_load():
    """A fresh interpreter runs the package's top-level standard-library
    imports, then `import sexpansion.cli`, which must add only its own
    modules. What those stdlib modules load differs between Python versions
    (from 3.12 `importlib.resources` may load `inspect`), so it is the baseline
    rather than a fixed list. The test run itself has imported `dataclasses`."""
    calls = set()
    for path in [PACKAGE / "__init__.py", *MODULES]:
        for node in imports(ast.parse(path.read_text()), top_level=True):
            if isinstance(node, ast.Import):
                calls.update(f"__import__({a.name!r})" for a in node.names)
            else:
                calls.add(f"__import__({node.module!r}, fromlist={[a.name for a in node.names]!r})")
    code = "\n".join(["import sys", *sorted(calls), "before = set(sys.modules)",
                      "import sexpansion.cli",
                      "print(sorted(m for m in set(sys.modules) - before"
                      " if m.partition('.')[0] != 'sexpansion'))"])
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def package_imports(path: Path) -> set[str]:
    """The package modules that a module's top level imports."""
    return {f"sexpansion.{node.module}" for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.ImportFrom) and node.level == 1}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_importing_a_module_loads_only_the_package_modules_it_imports(path):
    """The package root imports nothing, so a fresh interpreter that imports
    one module loads the root, that module and what its imports reach, and
    no other package module: `import sexpansion.semigroup` loads two."""
    expected, todo = {"sexpansion"}, [f"sexpansion.{path.stem}"]
    while todo:
        name = todo.pop()
        if name not in expected:
            expected.add(name)
            todo.extend(package_imports(PACKAGE / f"{name.partition('.')[2]}.py"))
    code = (f"import sys, sexpansion.{path.stem}\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'sexpansion'))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == repr(sorted(expected))
