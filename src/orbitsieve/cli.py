"""Command-line front end: loci, polynomials, verification reports, harmonics checks.

Five subcommands cover the library surface: ``locus`` enumerates a word family,
``poly`` prints a closed-form sieving polynomial, ``verify`` runs a fixed-point
check and prints its report, ``harmonics`` drives the quotient-ring pipeline, and
``suite`` runs the whole acceptance matrix.  Every subcommand renders to json, csv,
latex, or pretty text through one renderer, ``_render``; identical invocations
produce byte-identical output.

Exit codes: 0 all checks pass, 1 a verification found a genuine discrepancy,
2 usage or parameter error, 3 resource budget exceeded, 4 an internal check failed
(a bug in the package, not a property of the input).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .errors import DomainError, InternalCheckError, ResourceBudgetError
from .harmonics import (
    DEFAULT_MAX_PAIRS,
    DEFAULT_MAX_POINTS,
    DEFAULT_MAX_VARS,
    associated_graded,
    check_budget,
    graded_frobenius,
    harmonics_json,
    hilbert_series,
    vanishing_ideal,
    verify_presentation,
)
from .loci import FAMILIES, Locus, enumerate_locus
from .qpoly import SparsePoly
from .sieving import normalize_family, oracle_csp_poly, sieving_polynomial, verify_family
from .suite import run_suite

FORMATS = ("json", "csv", "latex", "pretty")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise DomainError(message)


def _mu_arg(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(","))


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--output", choices=FORMATS, default="pretty")
    common.add_argument("--out", metavar="PATH", default=None)

    params = _Parser(add_help=False)
    params.add_argument("--n", type=int, default=None)
    params.add_argument("--k", type=int, default=None)
    params.add_argument("--mu", type=_mu_arg, default=None, help="comma-separated content, order preserved")
    params.add_argument("--a", type=int, default=None)

    budgets = _Parser(add_help=False)
    budgets.add_argument("--max-points", type=int, default=DEFAULT_MAX_POINTS)
    budgets.add_argument("--max-vars", type=int, default=DEFAULT_MAX_VARS)
    budgets.add_argument("--max-pairs", type=int, default=DEFAULT_MAX_PAIRS)

    parser = _Parser(prog="orbitsieve", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_locus = sub.add_parser("locus", parents=[common, params], help="enumerate a word family")
    p_locus.add_argument("--family", required=True, choices=FAMILIES)
    p_locus.add_argument("--list", action="store_true", dest="list_words")

    p_poly = sub.add_parser("poly", parents=[common, params], help="print a closed-form sieving polynomial")
    p_poly.add_argument("--family", required=True, help="constructor id, e.g. wcomp-csp")

    p_verify = sub.add_parser("verify", parents=[common, params], help="run a sieving verification")
    p_verify.add_argument("--family", required=True, help="result id, e.g. word-bicsp-Y or thm-word-bicsp-Y")

    p_harm = sub.add_parser("harmonics", parents=[common, params, budgets], help="run the quotient-ring pipeline")
    p_harm.add_argument("--family", required=True, choices=FAMILIES)
    mode = p_harm.add_mutually_exclusive_group(required=True)
    mode.add_argument("--hilbert", action="store_true")
    mode.add_argument("--frobenius", action="store_true")
    mode.add_argument("--check-presentation", action="store_true", dest="check_presentation")
    mode.add_argument("--oracle", choices=("Sn", "Cn", "Hr"), default=None)
    p_harm.add_argument("--groebner", action="store_true", help="dump both bases (with --hilbert)")

    p_suite = sub.add_parser("suite", parents=[common], help="run the acceptance matrix")
    p_suite.add_argument("--max-n", type=int, default=None)
    p_suite.add_argument("--max-k", type=int, default=None)

    return parser


# -- rendering ---------------------------------------------------------------------------


def _render(fmt: str, data: dict, header: list[str] | None, rows: list[list] | None, text: str) -> str:
    """One output in the chosen format; no other function picks among ``FORMATS``.

    json dumps ``data``; csv and latex lay out ``header`` and ``rows``, latex with ``_``
    escaped in every cell; pretty prints ``text``, and so do csv and latex when the
    output has no table (``header`` is None).
    """
    if fmt == "json":
        return json.dumps(data, indent=2)
    if fmt == "pretty" or header is None:
        return text
    if fmt == "csv":
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows([header] + rows)
        return buffer.getvalue().rstrip("\n")
    head, *body = [" & ".join(str(cell).replace("_", "\\_") for cell in row) + " \\\\" for row in [header] + rows]
    rule = "\\hline"
    return "\n".join(["\\begin{tabular}{" + "l" * len(header) + "}", rule, head, rule, *body, rule,
                      "\\end{tabular}"])


def _poly_terms(p: SparsePoly) -> list[list[int]]:
    return [[eq, et, coeff] for (eq, et), coeff in p.sorted_terms()]


def _render_poly(fmt: str, data: dict, p: SparsePoly) -> str:
    """A polynomial as its term table; latex prints the polynomial itself, not a tabular."""
    if fmt == "latex":
        return p.latex()
    pretty, terms = p.pretty(), _poly_terms(p)
    data = {**data, "pretty": pretty, "terms": terms}
    return _render(fmt, data, ["q_exponent", "t_exponent", "coefficient"], terms, pretty)


def _value_text(value) -> str:
    return ",".join(str(v) for v in value) if isinstance(value, list) else str(value)


def _params_text(params: dict) -> str:
    return " ".join(f"{key}={_value_text(value)}" for key, value in params.items())


# -- subcommands -------------------------------------------------------------------------


def _locus_from(ns) -> Locus:
    n = ns.n
    if ns.family == "tanisaki":
        if ns.mu is None:
            raise DomainError("tanisaki needs --mu")
        if n is None:
            n = sum(ns.mu)
    if n is None:
        raise DomainError(f"family {ns.family!r} needs --n")
    return enumerate_locus(ns.family, n, ns.k, mu=ns.mu, a=ns.a)


def _cmd_locus(ns) -> tuple[int, str]:
    locus = _locus_from(ns)
    if locus.infeasible:
        print("warning: the parameter range admits no words", file=sys.stderr)
    data = locus.describe()
    lines = ["locus " + _params_text(data), f"size {locus.size}"]
    data.update(size=locus.size, infeasible=locus.infeasible)
    rows = [[key, _value_text(value)] for key, value in data.items()]
    if ns.list_words:
        data["words"] = [list(w) for w in locus.words]
        words = [" ".join(str(x) for x in w) for w in locus.words]
        rows += [["words", ";".join(words)]] if ns.output == "csv" else [["word", w] for w in words]
        lines += words
    return 0, _render(ns.output, data, ["field", "value"], rows, "\n".join(lines))


def _cmd_poly(ns) -> tuple[int, str]:
    family = normalize_family(ns.family)
    p = sieving_polynomial(family, n=ns.n, k=ns.k, mu=ns.mu, a=ns.a)
    params = {key: val for key, val in (("n", ns.n), ("k", ns.k), ("a", ns.a)) if val is not None}
    if ns.mu is not None:
        params["mu"] = list(ns.mu)
    return 0, _render_poly(ns.output, {"family": family, "params": params}, p)


def _cmd_verify(ns) -> tuple[int, str]:
    report = verify_family(ns.family, n=ns.n, k=ns.k, mu=ns.mu, a=ns.a)
    data = report.to_json_dict()
    rows = [[row["r"], "" if row["s"] is None else row["s"], row["fixed"], row["value"],
             "yes" if row["ok"] else "NO"] for row in data["rows"]]
    lines = ["verify " + data["family"] + "  " + _params_text(data["params"])]
    for side, b in data["binding"].items():
        extras = ", ".join(f"{key} {b[key]}" for key in ("step", "order", "perm") if key in b)
        lines.append(f"binding: {side} -> {b['action']} ({extras})")
    lines += ["note: " + note for note in data["notes"]]
    lines += ["r s fixed value ok"] + [" ".join(str(cell) for cell in row) for row in rows]
    lines.append("all rows ok" if report.all_ok else "FAILED: some rows disagree")
    text = "\n".join(lines)
    return (0 if report.all_ok else 1), _render(ns.output, data, ["r", "s", "fixed", "value", "ok"], rows, text)


def _cmd_harmonics(ns) -> tuple[int, str]:
    # Every budget is checked, also one the mode does not read, in verify_presentation's order.
    for value, name in ((ns.max_pairs, "Buchberger pair"), (ns.max_points, "point"), (ns.max_vars, "variable")):
        check_budget(value, name)
    if ns.groebner and not ns.hilbert:
        raise DomainError("--groebner accompanies --hilbert")
    locus = _locus_from(ns)
    budgets = dict(max_points=ns.max_points, max_vars=ns.max_vars)
    if ns.check_presentation:
        matches = verify_presentation(locus, max_pairs=ns.max_pairs, **budgets)
        data = {"locus": locus.describe(), "presentation_matches": matches}
        rows = [["presentation_matches", str(matches).lower()]]
        text = "presentation matches" if matches else "FAILED: presentation does not match"
        return (0 if matches else 1), _render(ns.output, data, ["field", "value"], rows, text)
    if ns.oracle:
        p = oracle_csp_poly(locus, ns.oracle, **budgets)
        return 0, _render_poly(ns.output, {"locus": locus.describe(), "group": ns.oracle}, p)
    if ns.frobenius:
        schur = [{"shape": list(lam), "pretty": poly.pretty(), "terms": _poly_terms(poly)}
                 for lam, poly in graded_frobenius(locus, **budgets).items()]
        rows = [[_value_text(entry["shape"]), entry["pretty"]] for entry in schur]
        data = {"locus": locus.describe(), "schur": schur}
        text = "\n".join(f"s[{shape}]: {coeff}" for shape, coeff in rows)
        return 0, _render(ns.output, data, ["shape", "coefficient"], rows, text)
    gb_i = vanishing_ideal(locus, **budgets)
    gb_t = associated_graded(gb_i)
    if not ns.groebner:
        return 0, _render_poly(ns.output, {"locus": locus.describe()}, hilbert_series(gb_t.quotient_basis()))
    data = harmonics_json(locus, gb_i, gb_t)
    lines = ["hilbert " + data["hilbert_series"]]
    lines += ["point-ideal generator: " + g.pretty() for g in gb_i.gens]
    lines += ["graded generator: " + g.pretty() for g in gb_t.gens]
    return 0, _render(ns.output, data, None, None, "\n".join(lines))


def _cmd_suite(ns) -> tuple[int, str]:
    results = run_suite(max_n=ns.max_n, max_k=ns.max_k)
    all_ok = all(r.ok for r in results)
    data = {"criteria": [{"name": r.name, "ok": r.ok, "detail": r.detail} for r in results], "all_ok": all_ok}
    rows = [[r.name, "PASS" if r.ok else "FAIL", r.detail] for r in results]
    lines = [f"{status} {name}: {detail}" for name, status, detail in rows]
    lines.append("all criteria pass" if all_ok else "FAILED: some criteria did not pass")
    text = "\n".join(lines)
    return (0 if all_ok else 1), _render(ns.output, data, ["criterion", "status", "detail"], rows, text)


_COMMANDS = {
    "locus": _cmd_locus,
    "poly": _cmd_poly,
    "verify": _cmd_verify,
    "harmonics": _cmd_harmonics,
    "suite": _cmd_suite,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        code, text = _COMMANDS[ns.command](ns)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceBudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InternalCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    text = text + "\n"
    if ns.out is not None:
        with open(ns.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
