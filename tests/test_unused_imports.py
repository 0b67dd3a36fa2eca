"""Every module-level import under ``src/repro`` is used.

An AST scan stands in for a linter: a name a module imports must be
read somewhere in that module, be listed in its ``__all__``, or appear
in a string annotation. Package ``__init__`` files are exempt, since
their imports are the package's re-exports.
"""

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

MODULES = sorted(
    path for path in SRC.rglob("*.py") if path.name != "__init__.py"
)


def _module_imports(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """``(bound name, line)`` of each import at module level, including
    those inside top-level ``if``/``try`` blocks."""
    pending: List[ast.stmt] = list(tree.body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno
        elif isinstance(node, ast.If):
            pending += node.body + node.orelse
        elif isinstance(node, ast.Try):
            pending += node.body + node.orelse + node.finalbody
            for handler in node.handlers:
                pending += handler.body


def _exported(tree: ast.Module) -> Set[str]:
    """The string entries of a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            if any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in targets
            ) and isinstance(node.value, (ast.List, ast.Tuple)):
                return {
                    element.value
                    for element in node.value.elts
                    if isinstance(element, ast.Constant)
                }
    return set()


def _annotations(tree: ast.Module) -> Iterator[ast.expr]:
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.Module) -> Set[str]:
    """Names read in the module, string annotations included."""
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                used |= {
                    name.id
                    for name in ast.walk(parsed)
                    if isinstance(name, ast.Name)
                }
    return used


def unused_imports(source: str) -> List[Tuple[str, int]]:
    """``(name, line)`` of each unused module-level import in ``source``."""
    tree = ast.parse(source)
    kept = _used_names(tree) | _exported(tree)
    return [
        (name, line)
        for name, line in _module_imports(tree)
        if name not in kept
    ]


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES]
)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


class TestScanner:
    def test_flags_an_unused_import(self):
        source = "from typing import Dict, List\nimport os\nx: List[int] = []\n"
        assert unused_imports(source) == [("Dict", 1), ("os", 2)]

    def test_all_and_string_annotations_count_as_use(self):
        source = (
            "from a import B, C\n"
            "import d.e\n"
            "__all__ = ['B']\n"
            "def f(x: 'Optional[C]') -> None:\n"
            "    d.e.g()\n"
        )
        assert unused_imports(source) == []

    def test_guarded_and_aliased_imports(self):
        source = (
            "try:\n"
            "    import numpy as np\n"
            "except ImportError:\n"
            "    from x import y\n"
            "from __future__ import annotations\n"
        )
        assert unused_imports(source) == [("np", 2), ("y", 4)]

    def test_package_inits_are_exempt(self):
        assert MODULES and all(p.name != "__init__.py" for p in MODULES)
