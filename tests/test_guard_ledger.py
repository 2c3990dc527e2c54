"""Every ``raise InternalCheckError(...)`` of the package, and every ``raise
DomainError(...)`` of ``harmonics`` and ``sieving``, fires in a test.

An internal check guards a state that correct code never reaches, so only a test
that breaks something on purpose (a monkeypatch or a hand-built input) shows that
it can fire.  A domain error refuses an input, and a test shows which input and
with which words.  This walks the package's syntax trees for each such raise and
the tests' for each test function that expects that error with ``pytest.raises``,
and requires, for every raise, such a test that spells out its whole message.  A
new raise without such a test fails here.
"""

import ast
import pathlib
import re

TESTS = pathlib.Path(__file__).resolve().parent
SOURCE = TESTS.parent / "src" / "orbitsieve"


def _name(node: ast.AST) -> str | None:
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def guard_messages(tree: ast.AST, error: str = "InternalCheckError") -> list[tuple[int, str]]:
    """(line, pattern) of every ``raise error(message)``, by line: the pattern is the
    message's literal text, each f-string field matching any text."""
    out = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
            continue
        if _name(node.exc.func) == error:
            (message,) = node.exc.args
            parts = message.values if isinstance(message, ast.JoinedStr) else [message]
            assert all(isinstance(p, (ast.Constant, ast.FormattedValue)) for p in parts), ast.dump(message)
            pattern = "".join(re.escape(p.value) if isinstance(p, ast.Constant) else ".+" for p in parts)
            out.append((node.lineno, pattern))
    return sorted(out)


def _expects(node: ast.AST, error: str) -> bool:
    return (
        isinstance(node, ast.Call)
        and _name(node.func) == "raises"
        and bool(node.args)
        and _name(node.args[0]) == error
    )


def raised_messages(tree: ast.AST, error: str = "InternalCheckError") -> set[str]:
    """The texts named by each test function that expects ``error``: every string in
    it or its decorators, a literal match pattern with its anchors and escapes
    removed, so that a match built from a parametrized message counts."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and any(_expects(sub, error) for sub in ast.walk(node)):
            out.update(
                re.sub(r"\\(.)", r"\1", re.sub(r"^\^|\$$", "", sub.value))
                for sub in ast.walk(node)
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
            )
    return out


def unraised(paths, error: str) -> list[str]:
    """``file:line`` of every ``raise error(...)`` in ``paths`` whose whole message no
    test that expects ``error`` names."""
    raised = set().union(*(raised_messages(_parse(path), error) for path in TESTS.glob("*.py")))
    guards = [
        (f"{path.name}:{line}", pattern) for path in paths for line, pattern in guard_messages(_parse(path), error)
    ]
    assert len(guards) > 10
    return [where for where, pattern in guards if not any(re.fullmatch(pattern, text) for text in raised)]


def test_every_internal_check_fires_in_a_test():
    assert unraised(sorted(SOURCE.glob("*.py")), "InternalCheckError") == []


def test_every_domain_error_of_harmonics_fires_in_a_test():
    assert unraised([SOURCE / "harmonics.py"], "DomainError") == []


def test_every_domain_error_of_sieving_fires_in_a_test():
    assert unraised([SOURCE / "sieving.py"], "DomainError") == []


def test_the_ledger_reads_guards_and_tests():
    source = (
        "def f(x):\n"
        "    if x:\n"
        "        raise InternalCheckError('plain (message)')\n"
        "    raise errors.InternalCheckError(f'{x} is off by {x + 1}') from None\n"
        "raise DomainError('not a guard')\n"
    )
    expected = [(3, re.escape("plain (message)")), (4, ".+" + re.escape(" is off by ") + ".+")]
    assert guard_messages(ast.parse(source)) == expected
    assert guard_messages(ast.parse(source), "DomainError") == [(5, re.escape("not a guard"))]
    tests = (
        "def test_one():\n"
        "    with pytest.raises(InternalCheckError, match=r'^plain \\(message\\)$'):\n"
        "        f(1)\n"
        "@pytest.mark.parametrize('message', ['2 is off by 3'])\n"
        "def test_two(message):\n"
        "    with pytest.raises(InternalCheckError, match=re.escape(message)):\n"
        "        f(2)\n"
        "def test_three():\n"
        "    with pytest.raises(DomainError, match='elsewhere'):\n"
        "        f(4)\n"
    )
    assert raised_messages(ast.parse(tests)) == {"plain (message)", "2 is off by 3", "message"}
    assert raised_messages(ast.parse(tests), "DomainError") == {"elsewhere"}
