"""No module under ``src/repro`` imports a name it never uses, and no
top-level function or class goes without a caller.

Static AST scans (no linter dependency).  A name counts as used when
it appears as an identifier anywhere in the module, inside a string
annotation (``session: "Optional[Session]"``), or in the module's
``__all__``.  Package ``__init__`` modules are exempt from the import
scan: their imports are the package's re-exports.

A top-level definition has a caller when some module under
``src/repro`` names it: as an identifier, an attribute, an imported
name, in a string annotation or in an ``__all__``.  Exempt are
definitions a registering decorator hands to its registry, names of the
declared API surface (``tests/api_surface.txt``) and the short list of
test-support helpers below.

A method of a top-level class has a caller when its name appears under
``src/repro`` as an identifier or attribute, or as part of a dotted name
inside a string that is not a docstring (generated code such as
``"itp._read_element"``).  Free text does not count.  Exempt are dunders,
``visit_*`` dispatch targets and the allow-list below.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
API_SURFACE = Path(__file__).resolve().parent / "api_surface.txt"

#: decorators whose registry calls the definition they wrap (tune
#: constraints, collective algorithms)
REGISTERING_DECORATORS = {"_constraint", "register_algorithm"}

#: definitions only the tests call: the AST builders test fixtures
#: construct programs with
TEST_SUPPORT = {
    "lang/builder.py": {"lit", "aref", "slice_", "array_decl"},
}

#: methods with no caller under ``src/repro``, and why each stays
CALLERLESS_METHODS = {
    "runtime/mpi.py": {
        "SimComm.outstanding_sends": "request-table probe of test_mpi.py",
        "SimComm.outstanding_recvs": "request-table probe of test_mpi.py",
        "SimComm.compute": "rank-program driver of test_mpi.py",
    },
    "transform/tiling.py": {
        "Tiling.tile_of": "the per-iteration oracle of test_tiling.py",
        "Tiling.is_tile_end": "the per-iteration oracle of test_tiling.py",
    },
    "lang/ast_nodes.py": {
        "SourceFile.subroutine": "lookup by name for library users",
    },
    "analysis/affine.py": {
        "Affine.shift": "constant offset, part of the affine algebra",
    },
    "harness/runner.py": {
        "PairResult.overhead_reduction": "derived figure of the result "
        "Session.compare returns",
    },
}


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


def _decorator_name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def callerless_definitions(sources, exempt=frozenset()):
    """``(module, name)`` for each top-level function or class of
    ``sources`` (module name -> source text) that no module names."""
    referenced = set()
    definitions = []
    for module, source in sources.items():
        tree = ast.parse(source)
        referenced |= used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced |= {alias.name for alias in node.names}
        for node in tree.body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if any(
                _decorator_name(d) in REGISTERING_DECORATORS
                for d in node.decorator_list
            ):
                continue
            definitions.append((module, node.name))
    return sorted(
        (module, name)
        for module, name in definitions
        if name not in referenced and name not in exempt
    )


def test_every_top_level_definition_has_a_caller():
    sources = {
        str(p.relative_to(SRC)): p.read_text(encoding="utf-8")
        for p in sorted(SRC.rglob("*.py"))
    }
    surface = set(re.findall(r"\w+", API_SURFACE.read_text(encoding="utf-8")))
    found = callerless_definitions(sources, exempt=surface)
    assert [
        (module, name)
        for module, name in found
        if name not in TEST_SUPPORT.get(module, ())
    ] == []


_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")


def _docstrings(tree: ast.AST) -> set:
    """``id`` of each docstring constant of ``tree``."""
    return {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        )
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
        and isinstance(node.body[0].value.value, str)
    }


def method_references(tree: ast.AST) -> set:
    """Identifiers, attributes and the parts of each dotted name inside
    a non-docstring string of ``tree``."""
    referenced = _names_in(tree)
    docstrings = _docstrings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            referenced.add(node.attr)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            for dotted in _DOTTED.findall(node.value):
                referenced |= set(dotted.split("."))
    return referenced


def callerless_methods(sources):
    """``(module, "Class.method")`` for each method of a top-level class
    of ``sources`` (module name -> source text) that no module names."""
    referenced = set()
    methods = []
    for module, source in sources.items():
        tree = ast.parse(source)
        referenced |= method_references(tree)
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                name = node.name
                dunder = name.startswith("__") and name.endswith("__")
                if not dunder and not name.startswith("visit_"):
                    methods.append((module, cls.name, name))
    return sorted(
        (module, f"{cls}.{name}")
        for module, cls, name in methods
        if name not in referenced
    )


def test_every_method_has_a_caller():
    sources = {
        str(p.relative_to(SRC)): p.read_text(encoding="utf-8")
        for p in sorted(SRC.rglob("*.py"))
    }
    # equality, so an allow-list entry whose method gained a caller or
    # was deleted fails too
    assert callerless_methods(sources) == sorted(
        (module, name)
        for module, names in CALLERLESS_METHODS.items()
        for name in names
    )


def test_method_scan_counts_dotted_strings_not_docstrings():
    sources = {
        "a.py": (
            "class A:\n"
            "    '''A.documented is named only in docstrings.'''\n"
            "    def called(self): pass\n"
            "    def generated(self): pass\n"
            "    def documented(self):\n"
            "        '''See self.documented and A.documented.'''\n"
            "    def mentioned(self): pass\n"
            "    def __len__(self): return 0\n"
            "    def visit_Node(self, node): pass\n"
            "    class Inner:\n"
            "        def nested(self): pass\n"
            "def f(a):\n"
            "    a.called()\n"
            "    return f'x = itp.generated({a})', 'the mentioned value'\n"
        ),
    }
    assert callerless_methods(sources) == [
        ("a.py", "A.documented"),
        ("a.py", "A.mentioned"),
    ]


def test_definition_scan_honours_registries_and_references():
    sources = {
        "a.py": (
            "def used(): pass\n"
            "def dead(): pass\n"
            "class Dead: pass\n"
            "@_constraint('x')\n"
            "def registered(): pass\n"
            "@reg.register_algorithm('alltoall', 'y')\n"
            "def algorithm(): pass\n"
            "def public(): pass\n"
            "def annotated(): pass\n"
            "def method_named(): pass\n"
        ),
        "b.py": (
            "from a import used\n"
            "def f(x: 'annotated'):\n"
            "    return x.method_named()\n"
        ),
    }
    assert callerless_definitions(sources, exempt={"public"}) == [
        ("a.py", "Dead"),
        ("a.py", "dead"),
        ("b.py", "f"),
    ]
