"""Source hygiene: every module uses each name it imports, and no module
compares a measure kind.

No linter ships with the package, so the first test stands in for pyflakes'
unused-import rule.  ``__init__.py`` is skipped there: its imports are the
package's public names.  The second keeps the measure kind behind the
``measures._KINDS`` registry: each kind's behaviour lives in its class.
"""

import ast
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
