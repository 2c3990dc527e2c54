"""Every name a module of the package imports is used in that module, and every
function, class and method of the package is reachable from its public API.

No linter is declared, so this walks each module's syntax tree.  ``__init__``
imports names to re-export them and is exempt, as are ``__future__`` features.
"""

import ast
import pathlib

import pytest

import orbitsieve

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


# Called by name from outside the package's own code.
CALLED_FROM_OUTSIDE = {"cli._Parser.error"}  # argparse reports usage errors through it


def _definitions(modules) -> dict[str, list[tuple[str, ast.AST]]]:
    """Every top-level function, class, method and assignment, keyed by its bare name;
    each entry is (qualified name, node).  A class' dunder methods are part of its node."""
    out: dict[str, list[tuple[str, ast.AST]]] = {}
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        out.setdefault(target.id, []).append((f"{module}.{target.id}", node))
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out.setdefault(node.name, []).append((f"{module}.{node.name}", node))
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                        out.setdefault(item.name, []).append((f"{module}.{node.name}.{item.name}", item))
    return out


def _referenced(node: ast.AST) -> set[str]:
    """Names and attribute names a node mentions; a class' own methods other than
    its dunders are reached only through such references."""
    if isinstance(node, ast.ClassDef):
        parts = [item for item in node.body if not isinstance(item, ast.FunctionDef) or item.name.startswith("__")]
        parts += node.bases + node.decorator_list
    else:
        parts = [node]
    names = set()
    for part in parts:
        for sub in ast.walk(part):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
    return names


def unreached(modules: dict[str, ast.Module], roots: set[str]) -> list[str]:
    """Functions, classes and methods (dunders exempt) that no name reference reaches
    from the roots; a reference to a name reaches every definition of that name."""
    definitions = _definitions(modules)
    reached: set[str] = set()
    pending = list(roots)
    while pending:
        for qualified, node in definitions.get(pending.pop(), ()):
            if qualified not in reached:
                reached.add(qualified)
                pending.extend(_referenced(node))
    return sorted(
        qualified
        for entries in definitions.values()
        for qualified, node in entries
        if not isinstance(node, (ast.Assign, ast.AnnAssign)) and qualified not in reached
    )


def test_every_definition_is_reached_from_the_public_api():
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    assert unreached(modules, set(orbitsieve.__all__) | {"main"}) == sorted(CALLED_FROM_OUTSIDE)


def test_the_ledger_finds_unreached_definitions():
    source = (
        "def used():\n    return Box().size\n"
        "def unused():\n    return 1\n"
        "class Box:\n    def __init__(self):\n        self.n = helper()\n"
        "    @property\n    def size(self):\n        return 0\n"
        "    def orphan(self):\n        return 2\n"
        "def helper():\n    return TABLE\n"
        "TABLE = {1: indirect}\n"
        "def indirect():\n    return 3\n"
    )
    found = unreached({"m": ast.parse(source)}, {"used"})
    assert found == ["m.Box.orphan", "m.unused"]
