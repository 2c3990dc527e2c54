"""Golden output of every subcommand in every format, pinned byte for byte.

Each case runs ``orbitsieve.cli.main`` in process and compares the exit code,
stdout and stderr with ``tests/cli_golden.json``.  Refactors of the rendering
or of the pipeline behind it must leave every case unchanged.  To record the
expected file after a deliberate output change, run::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import functools
import json
import pathlib
import sys

import pytest

from orbitsieve.cli import FORMATS, main

GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")

_INVOCATIONS = [
    ["locus", "--family", "X", "--n", "2", "--k", "2", "--list"],
    ["locus", "--family", "tanisaki", "--mu", "2,1,2,1", "--a", "2"],
    ["locus", "--family", "Y", "--n", "3", "--k", "2"],
    ["poly", "--family", "word-bicsp-Z", "--n", "3", "--k", "2"],
    ["poly", "--family", "tanisaki-bicsp", "--mu", "2,1,1"],
    ["poly", "--family", "necklace-Y", "--n", "3", "--k", "4"],
    ["verify", "--family", "word-bicsp-Y", "--n", "2", "--k", "3"],
    ["verify", "--family", "tanisaki-bicsp", "--mu", "2,1,1"],
    ["verify", "--family", "graph-Z", "--n", "4", "--k", "2"],
    ["harmonics", "--family", "Z", "--n", "4", "--k", "2", "--hilbert"],
    ["harmonics", "--family", "Z", "--n", "4", "--k", "2", "--hilbert", "--groebner"],
    ["harmonics", "--family", "Z", "--n", "4", "--k", "2", "--frobenius"],
    ["harmonics", "--family", "Z", "--n", "4", "--k", "2", "--check-presentation"],
    ["harmonics", "--family", "Z", "--n", "4", "--k", "2", "--oracle", "Sn"],
    ["harmonics", "--family", "Z", "--n", "4", "--k", "2", "--oracle", "Cn"],
    ["harmonics", "--family", "Z", "--n", "4", "--k", "2", "--oracle", "Hr"],
    ["harmonics", "--family", "tanisaki", "--mu", "2,1", "--hilbert", "--groebner"],
    ["harmonics", "--family", "tanisaki", "--mu", "1,2,1", "--hilbert", "--groebner"],
    ["harmonics", "--family", "Y", "--n", "2", "--k", "3", "--hilbert", "--groebner"],
    ["harmonics", "--family", "Y", "--n", "3", "--k", "3", "--frobenius"],
    ["harmonics", "--family", "X", "--n", "3", "--k", "3", "--frobenius", "--max-points", "10"],
    ["suite", "--max-n", "2", "--max-k", "2"],
]

CASES = [argv + ["--output", fmt] for argv in _INVOCATIONS for fmt in FORMATS]


def _run(argv, capsys):
    code = main(list(argv))
    captured = capsys.readouterr()
    return {"argv": argv, "code": code, "stdout": captured.out, "stderr": captured.err}


@functools.lru_cache(maxsize=None)
def _expected():
    return {tuple(case["argv"]): case for case in json.loads(GOLDEN.read_text(encoding="utf-8"))}


@pytest.mark.parametrize("argv", CASES, ids=[" ".join(argv) for argv in CASES])
def test_cli_output_matches_golden(argv, capsys):
    assert _run(argv, capsys) == _expected()[tuple(argv)]


def test_golden_file_covers_exactly_the_cases():
    assert sorted(_expected()) == sorted(tuple(argv) for argv in CASES)


if __name__ == "__main__":
    import contextlib
    import io

    records = []
    for argv in CASES:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        records.append({"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {len(records)} cases to {GOLDEN}\n")
