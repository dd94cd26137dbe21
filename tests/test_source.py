"""Source hygiene: every module uses each name it imports.

No linter ships with the package, so this test stands in for pyflakes'
unused-import rule.  ``__init__.py`` is skipped: its imports are the
package's public names.
"""

import ast
from pathlib import Path

import brolinlab

MODULES = sorted(p for p in Path(brolinlab.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


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
