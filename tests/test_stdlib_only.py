"""The package and its tests import nothing outside the standard library,
and every relative import in the package resolves, deferred ones too."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALLOWED = {"futakizero", "pytest", "conftest"}


def import_roots(source):
    """(line, top-level module) of every absolute import, nested ones too."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_sources_and_tests_import_only_the_standard_library():
    files = sorted((ROOT / "src" / "futakizero").glob("*.py")) + sorted(
        (ROOT / "tests").glob("*.py"))
    assert len(files) > 10
    foreign = [f"{path.relative_to(ROOT)}:{line}: {root}"
               for path in files for line, root in import_roots(path.read_text("utf-8"))
               if root not in sys.stdlib_module_names and root not in ALLOWED]
    assert foreign == []


def test_function_local_and_dotted_imports_are_seen():
    source = ("from . import toric\nimport os.path\n"
              "def f():\n    from sympy.core import S\n")
    assert list(import_roots(source)) == [(2, "os"), (4, "sympy")]


def top_level_names(source):
    """The names a module binds at its top level."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def unresolved_relative_imports(modules):
    """``module:line: name`` for each relative import in ``modules`` (name ->
    source of the package's modules), at any depth, that names no module of
    the package or a name its module does not bind."""
    bound = {name: top_level_names(source) for name, source in modules.items()}
    out = []
    for name, source in modules.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.ImportFrom) or node.level == 0:
                continue
            if node.level > 1:
                missing = ["." * node.level + (node.module or "")]
            elif node.module is None:
                missing = [a.name for a in node.names if a.name not in modules]
            elif node.module not in modules:
                missing = [node.module]
            else:
                missing = [f"{node.module}.{a.name}" for a in node.names
                           if a.name not in bound[node.module]]
            out.extend(f"{name}:{node.lineno}: {m}" for m in missing)
    return out


def test_relative_imports_resolve():
    modules = {path.stem: path.read_text("utf-8")
               for path in (ROOT / "src" / "futakizero").glob("*.py")}
    assert len(modules) > 10
    assert unresolved_relative_imports(modules) == []


def test_unresolved_function_local_imports_are_seen():
    modules = {"a": "X = 1\ndef f():\n    from .b import Y, W\n",
               "b": "from . import a, c\nY: int = 2\ndef g():\n    from .a import X, Z\n"}
    assert unresolved_relative_imports(modules) == ["a:3: b.W", "b:1: c", "b:4: a.Z"]
