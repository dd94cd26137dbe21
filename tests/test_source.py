"""Source hygiene: every module uses each name it imports, every private
name is used, no module compares a measure kind, and importing the package
leaves scipy.linalg unloaded.

No linter ships with the package, so the first test stands in for pyflakes'
unused-import rule.  ``__init__.py`` is skipped there: its imports are the
package's public names.  The second catches private helpers left behind
when their last caller goes.  The third keeps the measure kind behind the
``measures._KINDS`` registry: each kind's behaviour lives in its class.
"""

import ast
import subprocess
import sys
from pathlib import Path

import brolinlab

SOURCES = sorted(Path(brolinlab.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, alias.asname or alias.name.split(".")[0])
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, alias.asname or alias.name)
                         for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for line, name in sorted(imported)
            if name not in used]


def test_modules_use_every_import():
    sample = ("import os, numpy.linalg\nfrom math import pi, tau as t\n"
              "numpy.linalg.norm(pi)\n")
    assert unused_imports(sample) == ["line 1: os", "line 2: t"]
    found = {p.name: unused_imports(p.read_text(encoding="utf-8"))
             for p in MODULES}
    assert {name: hits for name, hits in found.items() if hits} == {}


def private_definitions(tree: ast.Module) -> list[tuple[ast.stmt, str]]:
    """Module-level private functions, classes and constants of ``tree``."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            names = []
        found += [(node, name) for name in names
                  if name.startswith("_") and not name.startswith("__")]
    return found


def referenced_names(node: ast.AST) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if (isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
            or isinstance(n, ast.Attribute)}


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """Private names that no statement but their own definition refers to."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    statements = [(stmt, referenced_names(stmt))
                  for tree in trees.values() for stmt in tree.body]
    return sorted(f"{name}: {private}"
                  for name, tree in trees.items()
                  for node, private in private_definitions(tree)
                  if not any(private in refs for stmt, refs in statements
                             if stmt is not node))


def test_every_private_name_is_used():
    sample = {"a.py": "def _dead():\n    return _dead()\n"
                      "def _used():\n    pass\n"
                      "class _Unused:\n    pass\n"
                      "_LIMIT: int = 3\n_TABLE = {}\n",
              "b.py": "from a import _used\nimport a\n"
                      "def f():\n    return _used(), a._TABLE\n"}
    assert unused_private_names(sample) == ["a.py: _LIMIT", "a.py: _Unused",
                                            "a.py: _dead"]
    found = unused_private_names({p.name: p.read_text(encoding="utf-8")
                                  for p in SOURCES})
    assert found == []


def kind_comparisons(source: str) -> list[str]:
    def is_kind(node):
        return ((isinstance(node, ast.Attribute) and node.attr == "kind")
                or (isinstance(node, ast.Name) and node.id == "kind"))
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Compare)
            and any(is_kind(n) for n in (node.left, *node.comparators))]


def test_no_module_compares_a_measure_kind():
    sample = ("if spec.kind == 'circle':\n    pass\n"
              "ok = 'mixture' != kind\n"
              "KINDS = {cls.kind: cls for cls in classes}\n"
              "same = spec.label or spec.kind\n")
    assert kind_comparisons(sample) == ["line 1", "line 3"]
    found = {p.name: kind_comparisons(p.read_text(encoding="utf-8"))
             for p in SOURCES}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_importing_the_package_leaves_scipy_linalg_unloaded():
    # the grid equilibrium imports its BLAS routine on first use: loading
    # scipy.linalg costs every command-line call time and memory
    code = "import sys, brolinlab; print('scipy.linalg' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=60,
                          cwd=Path(brolinlab.__file__).parent.parent)
    assert done.stdout.split() == ["False"]
