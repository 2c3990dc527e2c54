"""The orbitsieve benchmark.

    python3 perfbench/run.py --workload verify-grids --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

Workloads (``workloads.py`` holds the cell pools):

- ``verify-grids``: closed-form fixed-point grids; brute-force scans dominate and
  the harmonics layer does no work.
- ``oracle-mid``: the independent oracle on mid-size loci; rational elimination in
  ``vanishing_ideal`` dominates.
- ``suite-k4``: ``orbitsieve suite --max-k 4 --output json``; many tiny loci, so
  per-call set-up in every layer counts.

One caller in a closed loop: each workload run is a fresh interpreter
(``worker.py``) that runs every cell once, one at a time, so the in-process
caches start empty as they do for one CLI call.  Runs go one after another
until ``--seconds`` have passed, and always at least ``MIN_RUNS`` of them.

End-to-end metrics (``--trace 0``).  Every time is scaled to the reference
machine speed with the calibration loop timed around it in the same process
(``calibration.py``); the raw times are in the record.

- ``wall_s``: seconds for one workload run, set-up excluded; median over runs.
- ``cell_p50_s`` and ``cell_tail_s``: seconds per cell, pooled over the first
  ``MIN_RUNS`` runs, so that every invocation reads the same ranks.  The tail
  is the highest percentile with at least ten samples beyond it; the record
  names the percentile and the sample count.
- ``setup_s``: from process launch until ``orbitsieve`` is imported and the
  cells are loaded; median over ``SETUP_LAUNCHES`` set-up-only launches and
  every run.
- ``peak_rss_mb``: peak resident memory of a run's process; median over runs.

A cell fails on a wrong verdict, a digest mismatch against ``digests.json``, an
exception or a run that does not finish.  Failed cells are the ``failed`` field
of the result line; their share is in the record, not a metric, because it is
zero on a correct program.

With ``--trace 1`` untraced and traced runs alternate, and the per-layer
figures (``spans.layer_metrics``, raw seconds) are medians over the traced
runs; ``trace.overhead_s`` is the traced minus the untraced median raw wall time.

Each invocation also writes a record to ``perfbench/out/``: the rational
backend, Python version, CPU count, load average, the calibration loop timed
before and after every run, and every run's figures.  The last line of stdout
is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from calibration import calibrate, normalize
from workloads import WORKLOADS, cell_ids, digest_mismatches, load_digests, make_cells

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")

# Runs whose cells are pooled for the percentiles.  Every workload has an odd
# number of cells per run, so the pooled median falls inside one cell's samples.
MIN_RUNS = {"verify-grids": 6, "oracle-mid": 4, "suite-k4": 4}
SETUP_LAUNCHES = 5
TAIL_BEYOND = 10
# A run that would start after this many seconds is not started, whatever --seconds says.
LAST_START_S = 120.0
RUN_TIMEOUT_S = 170.0

END_TO_END = {"wall_s": "s", "cell_p50_s": "s", "cell_tail_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "harmonics.vanishing_ideal_s": "s",
    "harmonics.vanishing_ideal_calls": "count",
    "harmonics.vanishing_ideal_points": "count",
    "harmonics.vanishing_ideal_generators": "count",
    "harmonics.buchberger_graded_s": "s",
    "harmonics.buchberger_stated_s": "s",
    "harmonics.buchberger_calls": "count",
    "harmonics.quotient_basis_s": "s",
    "harmonics.graded_character_s": "s",
    "harmonics.graded_character_calls": "count",
    "harmonics.graded_frobenius_self_s": "s",
    "harmonics.graded_frobenius_calls": "count",
    "harmonics.graded_frobenius_cache_hits": "count",
    "harmonics.verify_presentation_self_s": "s",
    "characters.invariant_hilbert_s": "s",
    "sieving.verify_self_s": "s",
    "sieving.rows": "count",
    "sieving.word_images": "count",
    "sieving.build_instance_self_s": "s",
    "sieving.sieving_polynomial_s": "s",
    "sieving.sieving_polynomial_calls": "count",
    "sieving.oracle_csp_poly_self_s": "s",
    "loci.enumerate_locus_s": "s",
    "loci.words": "count",
    "loci.orbit_set_s": "s",
    "cyclotomic.eval_at_unity_s": "s",
    "cyclotomic.eval_at_unity_calls": "count",
    **{f"suite.{name}_s": "s" for name in (
        "word-bicsp-grids", "orbit-csps", "necklace-graph-csps", "tanisaki-sieving", "springer-bicsp",
        "presentations", "frobenius-coherence", "oracle-coherence", "property-suites",
    )},
    "suite.self_s": "s",
    "cli.self_s": "s",
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def tail(values: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float] | None:
    """Highest percentile with at least ``beyond`` samples above it: (value, percentile)."""
    ordered = sorted(values)
    for rank in range(len(ordered) - beyond, 0, -1):
        value = ordered[rank - 1]
        if sum(1 for v in ordered if v > value) >= beyond:
            return value, 100.0 * rank / len(ordered)
    return None


def launch(request: dict) -> tuple[dict | None, float, str]:
    """Start one worker, wait for it, and return (reply, seconds since launch, error)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER], cwd=ROOT,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = proc.communicate(json.dumps(request).encode(), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, time.perf_counter() - start, "timed out"
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        return None, elapsed, f"exit {proc.returncode}: {err.decode(errors='replace').strip()[-500:]}"
    reply = json.loads(out)
    reply["setup_s"] = reply["ready"] - start
    return reply, elapsed, ""


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.perf_counter()
    cells = make_cells(workload, seed)
    expected_ids = [cell_id for cell in cells for cell_id in cell_ids(cell)]
    expected = load_digests()
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json")
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cells": expected_ids,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_before": list(os.getloadavg()),
        "runs": [],
    }

    setups = []  # (raw seconds, calibration loop seconds right before the launch)
    for _ in range(SETUP_LAUNCHES):
        loop_s = calibrate()
        reply, _, error = launch({"setup_only": True})
        if reply is None:
            raise SystemExit(f"set-up failed: {error}")
        setups.append((reply["setup_s"], loop_s))

    min_runs = 2 if trace else MIN_RUNS[workload]
    attempted = failed = 0
    while True:
        done = len(record["runs"])
        if done >= min_runs:
            typical = statistics.median(run["process_s"] for run in record["runs"])
            elapsed = time.perf_counter() - start
            if elapsed + typical > seconds or elapsed > LAST_START_S:
                break
        traced = trace and done % 2 == 1
        calib_before = calibrate()
        reply, process_s, error = launch({"cells": cells, "trace": traced, "spans_path": spans_path})
        run = {"traced": traced, "process_s": process_s, "error": error,
               "calib_before_s": calib_before, "calib_after_s": calibrate()}
        record["runs"].append(run)
        by_id = {result["id"]: result for result in reply["results"]} if reply else {}
        bad = []
        for cell_id in expected_ids:
            result = by_id.get(cell_id)
            mismatches = digest_mismatches(cell_id, result["digests"], expected) if result else ["<no result>"]
            if result is None or not result["ok"] or result["error"] or mismatches:
                bad.append({"id": cell_id, "mismatches": mismatches,
                            "error": result and result["error"], "ok": bool(result and result["ok"])})
        attempted += len(expected_ids)
        failed += len(bad)
        run["failed_cells"] = bad
        if reply is None:
            continue
        setups.append((reply["setup_s"], calib_before))
        run.update({key: reply[key] for key in ("wall_s", "setup_s", "peak_rss_mb", "rat_backend")})
        run["cell_s"] = {result["id"]: result["seconds"] for result in reply["results"]}
        if traced:
            run["layers"] = reply["layers"]
        else:
            run["cell_loop_s"] = {result["id"]: result["loop_s"] for result in reply["results"]}
            run["cell_norm_s"] = {i: normalize(t, run["cell_loop_s"][i]) for i, t in run["cell_s"].items()}
            # The cells cover the run, so their time-weighted speed normalizes its wall time.
            run["wall_norm_s"] = run["wall_s"] * sum(run["cell_norm_s"].values()) / sum(run["cell_s"].values())

    plain = [run for run in record["runs"] if not run["traced"] and "wall_s" in run]
    traced_runs = [run for run in record["runs"] if run["traced"] and "wall_s" in run]
    metrics: dict[str, float] = {}
    if plain:
        pooled = [s for run in plain[:MIN_RUNS[workload]] for s in run["cell_norm_s"].values()]
        metrics["wall_s"] = statistics.median(run["wall_norm_s"] for run in plain)
        metrics["cell_p50_s"] = statistics.median(pooled)
        tail_at = tail(pooled)
        if tail_at is not None:
            metrics["cell_tail_s"] = tail_at[0]
            record["cell_tail_percentile"] = tail_at[1]
        record["cell_samples"] = len(pooled)
        metrics["setup_s"] = statistics.median(normalize(t, loop_s) for t, loop_s in setups)
        metrics["peak_rss_mb"] = statistics.median(run["peak_rss_mb"] for run in plain)
        record["raw"] = {
            "wall_s": statistics.median(run["wall_s"] for run in plain),
            "setup_s": statistics.median(t for t, _ in setups),
        }
    if traced_runs:
        layers = {name: statistics.median(run["layers"].get(name, 0) for run in traced_runs) for name in PER_LAYER}
        layers["trace.wall_s"] = statistics.median(run["wall_s"] for run in traced_runs)
        if plain:
            layers["trace.overhead_s"] = layers["trace.wall_s"] - record["raw"]["wall_s"]
        record["self_time_sum_s"] = statistics.median(
            sum(v for k, v in run["layers"].items() if k.endswith("_s") and not _inclusive(k))
            for run in traced_runs
        )
        metrics.update(layers)

    wanted = PER_LAYER if trace else END_TO_END
    record["setup_samples_s"] = setups
    record["failed_share"] = failed / attempted if attempted else 1.0
    record["loadavg_after"] = list(os.getloadavg())
    record["rat_backend"] = next((run["rat_backend"] for run in record["runs"] if "rat_backend" in run), None)
    record["metrics"] = metrics
    record["dropped_metrics"] = {
        "failed_share": "zero on a correct program; reported as the result's failed/attempted and in this record",
        "per-layer memory": "ru_maxrss is per process; peak_rss_mb is reported per workload only",
    }
    with open(os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    complete = all(name in metrics for name in wanted)
    return {
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in wanted.items()},
        "record": record,
    }


def _inclusive(name: str) -> bool:
    return name.startswith("suite.") and name != "suite.self_s"


def summary(workload: str, result: dict) -> list[str]:
    record = result["record"]
    lines = [f"{workload}: {result['failed']}/{result['attempted']} cells failed, "
             f"backend {record['rat_backend']}, python {record['python']}, nproc {record['nproc']}, "
             f"load {record['loadavg_before'][0]:.2f}"]
    for name, metric in result["metrics"].items():
        note = ""
        if name == "cell_tail_s" and "cell_tail_percentile" in record:
            note = f"  (p{record['cell_tail_percentile']:.0f} of {record['cell_samples']} cells)"
        lines.append(f"  {name} {metric['value']:.6g} {metric['unit']}{note}")
    if not record["trace"]:
        lines.append(f"  failed_share {record['failed_share']:.6g} share")
    elif "self_time_sum_s" in record and "raw" in record:
        lines.append(f"  self times add up to {record['self_time_sum_s']:.6g} s; "
                     f"untraced wall {record['raw']['wall_s']:.6g} s")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "orbitsieve", "__init__.py")):
        print(f"error: no orbitsieve sources under {ROOT}/src", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    for name, result in results.items():
        print("\n".join(summary(name, result)))
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": m for name, r in results.items() for key, m in r["metrics"].items()},
        }
    else:
        final = {key: value for key, value in results[args.workload].items() if key != "record"}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
