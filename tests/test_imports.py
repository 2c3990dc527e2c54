"""Every name a module of the package imports is used in that module.

No linter is declared, so this walks each module's syntax tree.  ``__init__``
imports names to re-export them and is exempt, as are ``__future__`` features.
"""

import ast
import pathlib

import pytest

SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "orbitsieve"
MODULES = sorted(path for path in SOURCE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_modules_are_found():
    assert {"loci.py", "qpoly.py", "sieving.py", "tableaux.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_unused_imports():
    source = "from __future__ import annotations\nimport os\nimport x.y\nfrom a.b import c as d, e\nprint(e, x.y)\n"
    assert unused_imports(source) == ["d", "os"]
