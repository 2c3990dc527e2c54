"""Exit codes, output formats, and determinism of the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

import orbitsieve
from orbitsieve import cli, harmonics, interpolation
from orbitsieve.cli import main
from orbitsieve.errors import DomainError, InternalCheckError
from orbitsieve.loci import enumerate_locus
from orbitsieve.sieving import Report
from orbitsieve.suite import SuiteResult


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_poly_prints_pretty_polynomial(capsys):
    code, out, err = run_cli(capsys, "poly", "--family", "wcomp-csp", "--n", "2", "--k", "2")
    assert code == 0
    assert out == "1 + q + q^2\n"
    assert err == ""


def test_verify_report_json(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--family", "thm-word-bicsp-Y", "--n", "2", "--k", "2", "--output", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"family", "params", "binding", "rows", "all_ok", "notes"}
    assert data["family"] == "word-bicsp-Y"
    assert len(data["rows"]) == 4
    assert data["all_ok"] is True
    assert all(set(row) == {"r", "s", "fixed", "value", "ok"} for row in data["rows"])


def test_unknown_family_is_usage_error_before_computation(capsys):
    code, out, err = run_cli(capsys, "verify", "--family", "no-such-result", "--n", "2", "--k", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_springer_without_n_is_refused_as_every_locus_family_is(capsys):
    assert run_cli(capsys, "locus", "--family", "springer") == (2, "", "error: family 'springer' needs --n\n")


def test_unknown_locus_family_rejected_by_parser(capsys):
    code, out, err = run_cli(capsys, "locus", "--family", "W", "--n", "2", "--k", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_empty_locus_warns_but_exits_zero(capsys):
    code, out, err = run_cli(capsys, "locus", "--family", "Y", "--n", "3", "--k", "2")
    assert code == 0
    assert "size 0" in out
    assert "warning" in err


def test_missing_subcommand_is_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == 2
    assert err.startswith("error:")


def test_malformed_mu_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "locus", "--family", "tanisaki", "--mu", "2,x")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["poly", "--family", "wcomp-csp", "--n", "2", "--k", "2", "--mu", "1,2", "--a", "3", "--output", "json"],
        ["verify", "--family", "word-bicsp-X", "--n", "2", "--k", "2", "--a", "7"],
        ["harmonics", "--family", "X", "--n", "2", "--k", "2", "--mu", "5,5", "--hilbert"],
    ],
)
def test_unused_mu_or_a_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "takes no mu or a" in err


def test_budget_exceeded_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "harmonics", "--family", "X", "--n", "4", "--k", "4", "--hilbert", "--max-points", "10"
    )
    assert code == 3
    assert err.startswith("error:")


@pytest.mark.parametrize("mode", ["--check-presentation", "--hilbert"])
@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--max-points", "-5", "the point budget must be nonnegative, not -5"),
        ("--max-vars", "-1", "the variable budget must be nonnegative, not -1"),
        ("--max-pairs", "-1", "the Buchberger pair budget must be nonnegative, not -1"),
    ],
)
def test_negative_budget_is_usage_error(capsys, mode, flag, value, message):
    # The library raises the same message; a mode that never reads the budget
    # still refuses it.
    code, out, err = run_cli(capsys, "harmonics", "--family", "X", "--n", "3", "--k", "2", mode, flag, value)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_negative_pair_budget_is_refused_as_the_library_refuses_it(capsys, monkeypatch):
    # X(5, 4) also exceeds the point budget; the CLI and verify_presentation both
    # refuse the pair budget first, also beside a negative point budget, with one
    # message, and eliminate nothing.
    def no_elimination(*args, **kwargs):
        raise AssertionError("vanishing_ideal ran before the pair budget was refused")

    monkeypatch.setattr(harmonics, "vanishing_ideal", no_elimination)
    message = "the Buchberger pair budget must be nonnegative, not -1"
    argv = ["harmonics", "--family", "X", "--n", "5", "--k", "4", "--check-presentation", "--max-pairs", "-1"]
    for points in (720, -5):
        with pytest.raises(DomainError, match=f"^{message}$"):
            harmonics.verify_presentation(enumerate_locus("X", 5, 4), max_points=points, max_pairs=-1)
        assert run_cli(capsys, *argv, "--max-points", str(points)) == (2, "", f"error: {message}\n")


def test_zero_pair_budget_is_legal_and_exceeded(capsys):
    code, out, err = run_cli(
        capsys, "harmonics", "--family", "Z", "--n", "3", "--k", "2", "--check-presentation", "--max-pairs", "0"
    )
    assert (code, out, err) == (3, "", "error: Buchberger pair budget 0 exceeded\n")


def test_prime_budget_exceeded_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(interpolation, "MODULAR_PRIMES", 0)
    code, out, err = run_cli(capsys, "harmonics", "--family", "X", "--n", "2", "--k", "2", "--hilbert")
    assert code == 3
    assert out == ""
    assert err.startswith("error:")


def test_internal_check_failure_has_its_own_exit_code(capsys, monkeypatch):
    def broken(ns):
        raise InternalCheckError("invariant violated")

    monkeypatch.setitem(cli._COMMANDS, "poly", broken)
    code, out, err = run_cli(capsys, "poly", "--family", "wcomp-csp", "--n", "2", "--k", "2")
    assert code == 4
    assert out == ""
    assert err == "error: invariant violated\n"


def test_identical_invocations_are_byte_identical(capsys):
    argv = ("verify", "--family", "word-bicsp-X", "--n", "2", "--k", "3", "--output", "json")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second
    argv = ("harmonics", "--family", "Z", "--n", "3", "--k", "2", "--frobenius", "--output", "json")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_csv_report_format(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--family", "springer-bicsp", "--n", "2", "--output", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "r,s,fixed,value,ok"
    assert len(lines) == 1 + 4
    assert lines[1] == "0,0,2,2,yes"


def test_latex_report_is_tabular(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--family", "word-bicsp-Z", "--n", "2", "--k", "2", "--output", "latex"
    )
    assert code == 0
    assert out.startswith("\\begin{tabular}")
    assert out.rstrip().endswith("\\end{tabular}")
    assert "0 & 0 & 2 & 2 & yes" in out


_BAD_REPORT = Report(
    family="graph-Z",
    params={"family": "Z", "n": 2, "k": 2},
    binding={"q": {"action": "position-rotation", "order": 2}},
    rows=[
        {"r": 0, "s": None, "fixed": 2, "value": 2, "ok": True},
        {"r": 1, "s": None, "fixed": 1, "value": 0, "ok": False},
    ],
    all_ok=False,
    notes=(),
)

_FAILING_SUITE = [
    SuiteResult("orbit-csps", True, "12 grids, 18 rows exact", 0.0),
    SuiteResult("property-suites", False, "fake degree of (2, 1) disagrees", 0.0),
]

_FAILURE_CASES = {
    "verify": (
        ("verify", "--family", "graph-Z", "--n", "2", "--k", "2"),
        {
            "pretty": "verify graph-Z  family=Z n=2 k=2\nbinding: q -> position-rotation (order 2)\n"
                      "r s fixed value ok\n0  2 2 yes\n1  1 0 NO\nFAILED: some rows disagree\n",
            "csv": "r,s,fixed,value,ok\n0,,2,2,yes\n1,,1,0,NO\n",
            "latex": "\\begin{tabular}{lllll}\n\\hline\nr & s & fixed & value & ok \\\\\n\\hline\n"
                     "0 &  & 2 & 2 & yes \\\\\n1 &  & 1 & 0 & NO \\\\\n\\hline\n\\end{tabular}\n",
        },
    ),
    "suite": (
        ("suite", "--max-n", "2", "--max-k", "2"),
        {
            "pretty": "PASS orbit-csps: 12 grids, 18 rows exact\nFAIL property-suites: fake degree of (2, 1) disagrees\n"
                      "FAILED: some criteria did not pass\n",
            "csv": 'criterion,status,detail\norbit-csps,PASS,"12 grids, 18 rows exact"\n'
                   'property-suites,FAIL,"fake degree of (2, 1) disagrees"\n',
            "latex": "\\begin{tabular}{lll}\n\\hline\ncriterion & status & detail \\\\\n\\hline\n"
                     "orbit-csps & PASS & 12 grids, 18 rows exact \\\\\n"
                     "property-suites & FAIL & fake degree of (2, 1) disagrees \\\\\n\\hline\n\\end{tabular}\n",
        },
    ),
    "presentation": (
        ("harmonics", "--family", "Z", "--n", "2", "--k", "2", "--check-presentation"),
        {
            "pretty": "FAILED: presentation does not match\n",
            "csv": "field,value\npresentation_matches,false\n",
            "latex": "\\begin{tabular}{ll}\n\\hline\nfield & value \\\\\n\\hline\n"
                     "presentation\\_matches & false \\\\\n\\hline\n\\end{tabular}\n",
        },
    ),
}


@pytest.mark.parametrize("fmt", ["pretty", "csv", "latex"])
@pytest.mark.parametrize("case", sorted(_FAILURE_CASES))
def test_failed_checks_exit_one_with_their_failure_text(capsys, monkeypatch, case, fmt):
    monkeypatch.setattr(cli, "verify_family", lambda *args, **kwargs: _BAD_REPORT)
    monkeypatch.setattr(cli, "run_suite", lambda **kwargs: list(_FAILING_SUITE))
    monkeypatch.setattr(cli, "verify_presentation", lambda *args, **kwargs: False)
    argv, expected = _FAILURE_CASES[case]
    code, out, err = run_cli(capsys, *argv, "--output", fmt)
    assert code == 1
    assert out == expected[fmt]
    assert err == ""


def test_output_written_to_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "poly", "--family", "subset-csp", "--n", "2", "--k", "4",
        "--output", "json", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    data = json.loads(target.read_text())
    assert data["family"] == "subset-csp"
    assert data["pretty"] == "1 + q + 2*q^2 + q^3 + q^4"


def test_locus_list_words(capsys):
    code, out, _ = run_cli(capsys, "locus", "--family", "Z", "--n", "2", "--k", "2", "--list")
    assert code == 0
    assert "size 2" in out
    assert "1 2" in out and "2 1" in out


def test_locus_json_includes_parameters(capsys):
    code, out, _ = run_cli(
        capsys, "locus", "--family", "tanisaki", "--mu", "2,1,2,1", "--a", "2", "--output", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["mu"] == [2, 1, 2, 1]
    assert data["a"] == 2
    assert data["size"] == 180


def test_harmonics_hilbert_and_oracle(capsys):
    code, out, _ = run_cli(capsys, "harmonics", "--family", "X", "--n", "2", "--k", "2", "--hilbert")
    assert code == 0
    assert out == "1 + 2*q + q^2\n"
    code, out, _ = run_cli(capsys, "harmonics", "--family", "Z", "--n", "3", "--k", "2", "--oracle", "Sn")
    assert code == 0
    assert out == "1 + q\n"


def test_harmonics_check_presentation(capsys):
    code, out, _ = run_cli(capsys, "harmonics", "--family", "Y", "--n", "2", "--k", "3", "--check-presentation")
    assert code == 0
    assert out == "presentation matches\n"


def test_groebner_dump_requires_hilbert(capsys):
    code, _, err = run_cli(
        capsys, "harmonics", "--family", "X", "--n", "2", "--k", "2", "--frobenius", "--groebner"
    )
    assert code == 2
    assert err.startswith("error:")


def test_groebner_without_hilbert_is_refused_before_enumerating(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the locus was enumerated")

    monkeypatch.setattr(cli, "enumerate_locus", refuse)
    code, out, err = run_cli(
        capsys, "harmonics", "--family", "X", "--n", "30", "--k", "9", "--oracle", "Sn", "--groebner"
    )
    assert (code, out, err) == (2, "", "error: --groebner accompanies --hilbert\n")


def test_groebner_json_dump(capsys):
    code, out, _ = run_cli(
        capsys, "harmonics", "--family", "X", "--n", "1", "--k", "2", "--hilbert", "--groebner",
        "--output", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"locus", "point_ideal", "graded_ideal", "standard_monomials_by_degree", "hilbert_series"}
    assert data["hilbert_series"] == "1 + q"


def test_suite_clamped_runs_all_criteria(capsys):
    code, out, _ = run_cli(capsys, "suite", "--max-n", "2", "--max-k", "2", "--output", "json")
    assert code == 0
    data = json.loads(out)
    assert data["all_ok"] is True
    assert len(data["criteria"]) == 9
    assert all(cell["ok"] for cell in data["criteria"])


@pytest.mark.parametrize("flag, value", [("--max-n", "0"), ("--max-k", "-1")])
def test_suite_clamp_below_one_is_a_usage_error(capsys, flag, value):
    name = flag[2:].replace("-", "_")
    code, out, err = run_cli(capsys, "suite", flag, value)
    assert (code, out, err) == (2, "", f"error: the suite clamp {name} must be at least 1, not {value}\n")


def run_module(*args):
    # The subprocess imports the package the tests import, however pytest found it.
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(orbitsieve.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "orbitsieve.cli", *args], capture_output=True, text=True, env=env)


def test_module_entry_point():
    proc = run_module("poly", "--family", "comp-csp", "--n", "3", "--k", "2")
    assert proc.returncode == 0
    assert proc.stdout == "1 + q\n"


def test_module_entry_point_exits_with_main_s_code():
    # 3 is main's own budget code, not one argparse could give.
    proc = run_module("harmonics", "--family", "X", "--n", "4", "--k", "4", "--hilbert", "--max-points", "10")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "error: |X| = 256 exceeds the point budget 10\n"
