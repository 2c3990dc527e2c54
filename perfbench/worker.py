"""One workload run in a fresh interpreter, so that every in-process cache starts empty.

The parent (``run.py``) writes a JSON request to stdin:
``{"cells": [...], "trace": bool, "spans_path": str | null}``, or
``{"setup_only": true}``.  The worker imports ``orbitsieve`` from the checkout's
``src/``, reads the request, and notes the moment it is ready: set-up ends there.
It then runs the cells one after another and writes one JSON object to stdout
with the ready time, the wall time of the cells, each cell's time, verdict and
output digests, and the process's peak resident memory.  Untraced, it samples
the machine's speed while the cells run (``calibration.Sampler``) and returns
each cell's mean loop time; all times exclude the sampling loops.  With
``trace`` on, it does not sample; it wraps the library's public functions
(``spans.Tracer``) and also returns the per-layer figures.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import orbitsieve  # noqa: E402
from orbitsieve import cli, loci, sieving, suite  # noqa: E402
from orbitsieve.rat import RAT  # noqa: E402
from calibration import Sampler  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import cell_ids, digest  # noqa: E402


def _mu(value):
    return None if value is None else tuple(value)


def run_verify(cell: dict) -> list[dict]:
    """``orbitsieve verify --family F ... --output json``: the report, rendered as the CLI does."""
    params = dict(cell["params"])
    if "mu" in params:
        params["mu"] = _mu(params["mu"])
    report = sieving.verify_family(cell["family"], **params)
    text = json.dumps(report.to_json_dict(), indent=2)
    return [{"ok": report.all_ok, "digests": {"report": digest(text)}}]


def run_oracle(cell: dict) -> list[dict]:
    """``harmonics --oracle G`` for every group of one locus, each against its closed form."""
    spec = cell["locus"]
    mu = _mu(spec["mu"])
    locus = loci.enumerate_locus(spec["family"], spec["n"], spec["k"], mu=mu)
    ok = True
    digests = {}
    for group, closed_family in cell["groups"]:
        poly = sieving.oracle_csp_poly(locus, group)
        if mu is None:
            closed = sieving.sieving_polynomial(closed_family, n=spec["n"], k=spec["k"])
        else:
            closed = sieving.sieving_polynomial(closed_family, mu=mu)
        ok = ok and poly == closed
        digests[group] = digest(json.dumps([[eq, et, c] for (eq, et), c in poly.sorted_terms()]))
    return [{"ok": ok, "digests": digests}]


def run_suite(cell: dict, sampler: Sampler) -> list[dict]:
    """One ``cli.main`` call; each criterion it ran is a cell, timed around ``run_criterion``."""
    results = []
    original = suite.run_criterion

    def keep(*args, **kwargs):
        result, seconds, loop_s = sampler.measure(original, *args, **kwargs)
        results.append((result, seconds, loop_s))
        return result

    suite.run_criterion = keep
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(cell["argv"]))
    finally:
        suite.run_criterion = original
    text = out.getvalue()
    entries = {entry["name"]: entry for entry in json.loads(text)["criteria"]}
    return [
        {
            "ok": code == 0 and result.ok,
            "seconds": seconds,
            "loop_s": loop_s,
            "digests": {"entry": digest(json.dumps(entries[result.name], sort_keys=True)), "stdout": digest(text)},
        }
        for result, seconds, loop_s in results
    ]


def _attempt(cell: dict, sampler: Sampler) -> tuple[list[dict], str | None]:
    try:
        if cell["kind"] == "suite":
            return run_suite(cell, sampler), None
        return (run_verify if cell["kind"] == "verify" else run_oracle)(cell), None
    except Exception as exc:  # a failing cell is counted as failed; the run goes on
        return [], f"{type(exc).__name__}: {exc}"


def run_cells(cells: list[dict], sampler: Sampler) -> tuple[list[dict], float]:
    """Run the cells in order; return their results and the wall time, sampling loops excluded.

    While the sampler runs, each result carries the mean loop time measured
    inside the cell, or, for a cell too short to be sampled, over the last few
    samples; otherwise it carries None.
    """
    results = []
    wall = 0.0
    for cell in cells:
        (outs, error), elapsed, loop_s = sampler.measure(_attempt, cell, sampler)
        wall += elapsed
        for index, cell_id in enumerate(cell_ids(cell)):
            out = outs[index] if index < len(outs) else {"ok": False, "digests": {}}
            results.append({
                "id": cell_id,
                "seconds": out.get("seconds", elapsed),
                "loop_s": out.get("loop_s") or loop_s or sampler.recent(),
                "ok": out["ok"],
                "digests": out["digests"],
                "error": error,
            })
    return results, wall


def main() -> int:
    request = json.load(sys.stdin)
    ready = time.perf_counter()
    if request.get("setup_only"):
        json.dump({"ready": ready}, sys.stdout)
        return 0
    reply = {"ready": ready, "rat_backend": f"{RAT.__module__}.{RAT.__name__}"}
    if request["trace"]:
        tracer = Tracer()
        tracer.install(orbitsieve)
        with tracer.span("bench.run"):
            reply["results"], reply["wall_s"] = run_cells(request["cells"], Sampler())
        reply["layers"] = layer_metrics(tracer.spans)
        with open(request["spans_path"], "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)
    else:
        with Sampler() as sampler:
            reply["results"], reply["wall_s"] = run_cells(request["cells"], sampler)
    reply["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    json.dump(reply, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
