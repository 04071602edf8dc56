"""The package and its tests import nothing outside the standard library."""

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
