"""The benchmark's trace hook still finds every function it wraps.

``perfbench/spans.Tracer`` patches the package's public functions by name; a
rename or deletion in the library would silently drop a per-layer figure from
``perfbench/run.py --trace 1``.  The tracer patches module globals for good, so
it runs in a fresh interpreter, importing the package as ``perfbench/worker.py``
does.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import orbitsieve
from orbitsieve import cli, loci, sieving, suite
from spans import TRACED, Tracer

tracer = Tracer()
tracer.install(orbitsieve)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["suite", "--max-n", "2", "--max-k", "2", "--output", "json"])
expected = [f"{module}.{name}" for module, names in TRACED.items() for name in names]
json.dump({"code": code, "expected": expected, "seen": sorted({s["name"] for s in tracer.spans})}, sys.stdout)
"""


def test_every_traced_function_records_a_span():
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")],
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    result = json.loads(proc.stdout)
    assert result["code"] == 0
    missing = set(result["expected"] + ["harmonics.quotient_basis"]) - set(result["seen"])
    assert not missing
