"""Source hygiene: every module-level import in src/ and tests/ is used,
every module-level private function, class or constant in src/ is
referenced, and importing the CLI leaves the process-pool modules
unimported.

Package ``__init__.py`` files are exempt: their imports are re-exports.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line} {name}" for name, line in bound.items() if name not in used]


def _python_files(*tops: str) -> list[Path]:
    return [path for top in tops for path in sorted((ROOT / top).rglob("*.py"))]


def test_no_unused_module_level_imports():
    files = [path for path in _python_files("src", "tests") if path.name != "__init__.py"]
    assert files
    unused = [entry for path in files for entry in _unused_imports(path)]
    assert unused == []


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _defined_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a function or class, or
    the plain names an assignment binds."""
    if isinstance(node, _DEFINITIONS):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [target.id for target in node.targets if isinstance(target, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def test_no_unreferenced_private_definitions():
    # A refactor that stops calling a private helper or reading a private
    # constant must delete it too.  A reference is a name that is loaded,
    # an attribute or a string (as monkeypatch takes).
    definitions: dict[str, str] = {}
    referenced: set[str] = set()
    for path in _python_files("src", "tests"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.parts[len(ROOT.parts)] == "src":
            for node in tree.body:
                for name in filter(_is_private, _defined_names(node)):
                    definitions[name] = f"{path.relative_to(ROOT)}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                referenced.add(node.value)
    assert definitions
    unreferenced = [f"{where} {name}" for name, where in definitions.items()
                    if name not in referenced]
    assert unreferenced == []


def test_cli_import_leaves_process_pools_unimported():
    # `sweep --jobs` imports them on use: at module level they would add
    # their import time and memory to every import of statesynth.cli.
    probe = (
        "import sys, statesynth.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
