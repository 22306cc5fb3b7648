"""No module under ``src/repro`` imports a name it never uses.

A static AST scan (no linter dependency).  A name counts as used when
it appears as an identifier anywhere in the module, inside a string
annotation (``session: "Optional[Session]"``), or in the module's
``__all__``.  Package ``__init__`` modules are exempt: their imports
are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            yield node.returns
            for arg in (
                args.posonlyargs
                + args.args
                + args.kwonlyargs
                + [args.vararg, args.kwarg]
            ):
                if arg is not None:
                    yield arg.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names_in(tree: ast.AST):
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def used_names(tree: ast.Module) -> set:
    used = _names_in(tree)
    for annotation in _annotations(tree):
        if annotation is None:
            continue
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    used |= _names_in(ast.parse(node.value, mode="eval"))
                except SyntaxError:
                    pass
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {
                e.value for e in node.value.elts if isinstance(e, ast.Constant)
            }
    return used


def unused_imports(source: str):
    """``(line, name)`` for each imported name the module never uses."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = used_names(tree)
    return sorted(
        (line, name) for name, line in imported.items() if name not in used
    )


@pytest.mark.parametrize(
    "path", MODULES, ids=lambda p: str(p.relative_to(SRC))
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_honours_all_and_string_annotations():
    source = (
        "from typing import TYPE_CHECKING, Optional\n"
        "import os.path\n"
        "from x import a, b as c, d, e\n"
        "if TYPE_CHECKING:\n"
        "    from y import S\n"
        "__all__ = ['a']\n"
        "def f(s: 'Optional[S]') -> None:\n"
        "    return os.path.join(c)\n"
    )
    assert unused_imports(source) == [(3, "d"), (3, "e")]
