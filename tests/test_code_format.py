"""Only ``loci`` makes or translates the byte form of a word.

The bulk passes read a locus' ``codes``, byte strings over an alphabet of at most 255
letters.  Every other module hands them to ``loci`` or compares them with each other:
one that encoded or translated words itself could compare a byte string with a tuple,
which is never equal, and silently find no word.  This walks the package's syntax
trees for every use of the name ``bytes`` and of a ``translate`` or ``maketrans``
attribute, called or passed on, and requires that ``loci.py`` holds them all.
"""

import ast
import pathlib

SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "orbitsieve"


def byte_uses(tree: ast.AST) -> list[int]:
    """Lines of every use of the name ``bytes`` and of a ``translate`` or ``maketrans``
    attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "bytes")
        or (isinstance(node, ast.Attribute) and node.attr in ("translate", "maketrans"))
    )


def test_only_loci_encodes_words():
    uses = {path.name: byte_uses(ast.parse(path.read_text(encoding="utf-8"))) for path in SOURCE.glob("*.py")}
    assert len(uses) > 10
    assert sorted(name for name, lines in uses.items() if lines) == ["loci.py"]


def test_the_check_finds_every_use():
    source = (
        "a = bytes(w)\n"
        "b = map(bytes, words)\n"
        "c = w.translate(table)\n"
        "d = map(bytes.translate, words, tables)\n"
        "e = bytes.maketrans(x, y)\n"
        "f = int.from_bytes(b'', 'big') + len(b''.join(words))\n"
        "g: str = s.strip()\n"
    )
    assert byte_uses(ast.parse(source)) == [1, 2, 3, 4, 4, 5, 5]
