"""Every ``raise InternalCheckError(...)`` and every ``raise DomainError(...)`` of the
package fires in a test.

An internal check guards a state that correct code never reaches, so only a test
that breaks something on purpose (a monkeypatch or a hand-built input) shows that
it can fire.  A domain error refuses an input, and a test shows which input and
with which words.  This walks the package's syntax trees for each such raise and
the tests' for each test function that expects that error, with ``pytest.raises``
or, for a domain error, as a CLI call's exit code 2 and ``error: <message>`` on
stderr, and requires, for every raise, such a test that spells out its whole
message.  A new raise without such a test fails here.  The one exception is the
raise in ``cli._Parser.error``: argparse composes its message.
"""

import ast
import inspect
import pathlib
import re

from orbitsieve import cli

TESTS = pathlib.Path(__file__).resolve().parent
SOURCE = TESTS.parent / "src" / "orbitsieve"


def _name(node: ast.AST) -> str | None:
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def guard_messages(tree: ast.AST, error: str = "InternalCheckError") -> list[tuple[int, str | None]]:
    """(line, pattern) of every ``raise error(message)``, by line: the pattern is the
    message's literal text, each f-string field matching any text, or None for a
    message held in a name, whose text the source does not spell out."""
    out = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
            continue
        if _name(node.exc.func) == error:
            (message,) = node.exc.args
            if isinstance(message, ast.Name):
                out.append((node.lineno, None))
                continue
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


def _refused_by_the_cli(node: ast.AST) -> bool:
    """An expected CLI outcome ``(2, stdout, "error: <message>\\n")``: the exit code of a
    domain error, with its message on stderr (a plain or an f-string)."""
    if not (isinstance(node, ast.Tuple) and len(node.elts) == 3):
        return False
    code, _, err = node.elts
    head = err.values[0] if isinstance(err, ast.JoinedStr) else err
    return (
        isinstance(code, ast.Constant)
        and code.value == 2
        and isinstance(head, ast.Constant)
        and str(head.value).startswith("error: ")
    )


def raised_messages(tree: ast.AST, error: str = "InternalCheckError") -> set[str]:
    """The texts named by each test function that expects ``error``: every string in
    it or its decorators, a literal match pattern with its anchors and escapes
    removed and a CLI's stderr without ``error: `` and the newline, so that a match
    built from a parametrized message counts."""

    def expects(node: ast.AST) -> bool:
        return _expects(node, error) or (error == "DomainError" and _refused_by_the_cli(node))

    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and any(map(expects, ast.walk(node))):
            out.update(
                re.sub(r"\\(.)", r"\1", re.sub(r"^\^|\$$|^error: |\n$", "", sub.value))
                for sub in ast.walk(node)
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
            )
    return out


def unraised(paths, error: str, least: int) -> list[str]:
    """``file:line`` of every ``raise error(...)`` in ``paths`` whose whole message no
    test that expects ``error`` names (a message held in a name is never named);
    ``paths`` must hold at least ``least`` raises, so that a parser that finds none
    cannot pass."""
    raised = set().union(*(raised_messages(_parse(path), error) for path in TESTS.glob("*.py")))
    guards = [
        (f"{path.name}:{line}", pattern) for path in paths for line, pattern in guard_messages(_parse(path), error)
    ]
    assert len(guards) >= least
    return [
        where
        for where, pattern in guards
        if pattern is None or not any(re.fullmatch(pattern, text) for text in raised)
    ]


def test_every_internal_check_fires_in_a_test():
    assert unraised(sorted(SOURCE.glob("*.py")), "InternalCheckError", least=14) == []


def test_every_domain_error_of_harmonics_fires_in_a_test():
    assert unraised([SOURCE / "harmonics.py"], "DomainError", least=12) == []


def test_every_domain_error_of_sieving_fires_in_a_test():
    assert unraised([SOURCE / "sieving.py"], "DomainError", least=7) == []


def test_every_domain_error_of_loci_fires_in_a_test():
    assert unraised([SOURCE / "loci.py"], "DomainError", least=21) == []


def test_every_domain_error_of_interpolation_fires_in_a_test():
    assert unraised([SOURCE / "interpolation.py"], "DomainError", least=1) == []


def test_every_domain_error_of_characters_fires_in_a_test():
    assert unraised([SOURCE / "characters.py"], "DomainError", least=5) == []


def test_every_domain_error_of_qpoly_fires_in_a_test():
    assert unraised([SOURCE / "qpoly.py"], "DomainError", least=9) == []


def test_every_domain_error_of_suite_fires_in_a_test():
    assert unraised([SOURCE / "suite.py"], "DomainError", least=2) == []


def test_every_domain_error_of_cyclotomic_fires_in_a_test():
    assert unraised([SOURCE / "cyclotomic.py"], "DomainError", least=8) == []


def test_every_domain_error_of_tableaux_fires_in_a_test():
    assert unraised([SOURCE / "tableaux.py"], "DomainError", least=8) == []


def test_every_domain_error_of_cli_fires_in_a_test():
    # The one exception: ``_Parser.error`` raises the usage error argparse composed,
    # whose text no source line spells out, so no test pins it by its message.
    lines, first = inspect.getsourcelines(cli._Parser.error)
    (line,) = [first + i for i, text in enumerate(lines) if "raise DomainError(message)" in text]
    assert unraised([SOURCE / "cli.py"], "DomainError", least=2) == [f"cli.py:{line}"]


def test_the_ledger_reads_guards_and_tests():
    source = (
        "def f(x):\n"
        "    if x:\n"
        "        raise InternalCheckError('plain (message)')\n"
        "    raise errors.InternalCheckError(f'{x} is off by {x + 1}') from None\n"
        "raise DomainError('not a guard')\n"
        "raise DomainError(message)\n"
    )
    expected = [(3, re.escape("plain (message)")), (4, ".+" + re.escape(" is off by ") + ".+")]
    assert guard_messages(ast.parse(source)) == expected
    assert guard_messages(ast.parse(source), "DomainError") == [(5, re.escape("not a guard")), (6, None)]
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
        "def test_cli(capsys):\n"
        "    assert run_cli(capsys, 'locus') == (2, '', 'error: needs --n\\n')\n"
        "@pytest.mark.parametrize('text', ['bad flag'])\n"
        "def test_cli_fields(capsys, text):\n"
        "    assert run_cli(capsys, 'suite') == (2, '', f'error: {text}\\n')\n"
        "def test_cli_budget(capsys):\n"
        "    assert run_cli(capsys, 'harmonics') == (3, '', 'error: over budget\\n')\n"
    )
    assert raised_messages(ast.parse(tests)) == {"plain (message)", "2 is off by 3", "message"}
    domain = {"elsewhere", "locus", "needs --n", "suite", "bad flag", "text", ""}
    assert raised_messages(ast.parse(tests), "DomainError") == domain
