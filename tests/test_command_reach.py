"""Every function and method of the package runs in some command.

Each case of ``tests/cli_golden.json`` runs once through ``cli.main`` in a fresh
interpreter, with ``sys.setprofile`` recording every Python frame entered from the
package's import on, so no cache warmed by another test hides a function.  Every
function and method defined in ``src/orbitsieve``, nested ones included, must be
entered, or be listed in ``NOT_RUN_BY_THE_GOLDEN_CASES`` with the reason; a listed
definition that some case does enter fails too, so the list cannot go stale.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import orbitsieve

SOURCE = pathlib.Path(orbitsieve.__file__).resolve().parent
GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")

NOT_RUN_BY_THE_GOLDEN_CASES = {
    "cli._Parser.error": "argparse calls it on a usage error, which no golden case makes",
    "cyclotomic.CycloElement.__hash__": "field elements as set members and dict keys in the Python API",
    "cyclotomic.CycloElement.__repr__": "interactive display",
    "cyclotomic.CycloElement.conjugate": "CycloElement.inverse calls it for k >= 3; the golden presentation has k = 2",
    "cyclotomic.CycloField.__hash__": "fields as set members and dict keys in the Python API",
    "cyclotomic.CycloField.__repr__": "interactive display",
    "harmonics.GroebnerBasis.__repr__": "interactive display",
    "loci.Locus.__post_init__": "checks a locus built in Python; every command builds its loci with enumerate_locus",
    "loci.Locus.codes": "encodes the words of a locus built in Python; a built locus builds its own",
    "loci.Locus.size": "|X| of a locus built in Python; one enumerate_locus built counts its own",
    "qpoly.SparsePoly.__hash__": "operator of the public polynomial type",
    "qpoly.SparsePoly.__neg__": "operator of the public polynomial type",
    "qpoly.SparsePoly.__pow__": "operator of the public polynomial type",
    "qpoly.SparsePoly.__repr__": "interactive display",
    "qpoly.SparsePoly.__rsub__": "operator of the public polynomial type",
    "qpoly.SparsePoly.__sub__": "operator of the public polynomial type",
    "qpoly.SparsePoly.from_int": "constructor of the public polynomial type; arithmetic with an int calls it",
    "qpoly.q_multinomial": "public q-analogue that no command calls; the tests' MacMahon reference for the X results",
    "sieving.SievingInstance.size": "library accessor of |X| on an instance; the verifiers count fixed points",
    "suite._bad_cell": "names the first failing row of a suite cell, and every cell passes",
}

# Runs the golden cases under a profile hook and prints their exit codes and the
# (file, first line, name) of every code object entered.
_TRACE = r"""
import contextlib, io, json, sys

entered = set()

def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno, code.co_name))

sys.setprofile(profile)
from orbitsieve.cli import main

codes = []
for case in json.load(open(sys.argv[1], encoding="utf-8")):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(main(list(case["argv"])))
sys.setprofile(None)
json.dump({"codes": codes, "entered": sorted(entered)}, sys.stdout)
"""


def definitions() -> dict[tuple[str, int, str], str]:
    """(module, first line, name) of every function and method of the package, as
    ``co_firstlineno`` counts it (from the first decorator), to its dotted name."""
    out = {}

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                out[(module, first, child.name)] = prefix + child.name
                walk(child, module, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, f"{prefix}{child.name}.")
            else:
                walk(child, module, prefix)

    for path in sorted(SOURCE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.stem, f"{path.stem}.")
    return out


def test_every_definition_runs_in_a_golden_case_or_is_listed():
    # The subprocess imports the package the tests import, however pytest found it.
    paths = [str(SOURCE.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-c", _TRACE, str(GOLDEN)], capture_output=True, text=True, env=env, check=True
    )
    trace = json.loads(proc.stdout)
    assert trace["codes"] == [case["code"] for case in json.loads(GOLDEN.read_text(encoding="utf-8"))]
    entered = {
        (path.stem, line, name)
        for filename, line, name in trace["entered"]
        if (path := pathlib.Path(filename).resolve()).parent == SOURCE
    }
    unentered = sorted(qualified for key, qualified in definitions().items() if key not in entered)
    assert unentered == sorted(NOT_RUN_BY_THE_GOLDEN_CASES)

