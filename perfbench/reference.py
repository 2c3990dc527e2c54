"""One-off reference timings, kept beside the benchmark rather than in it.

Run from the repository root:

    python3 perfbench/reference.py

Each figure comes from its own fresh interpreter, so the in-process caches
(the Frobenius cache and the lru_caches) start empty, as for one CLI call.
The result is written to perfbench/reference.json.  It takes several minutes.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

_PRELUDE = f"import sys, time; sys.path.insert(0, {os.path.join(ROOT, 'src')!r})\n"

PROBES = {
    "vanishing_ideal_X_4_5": (
        "from orbitsieve import enumerate_locus, vanishing_ideal\n"
        "locus = enumerate_locus('X', 4, 5)\n"
        "start = time.perf_counter()\n"
        "gb = vanishing_ideal(locus)\n"
        "print(time.perf_counter() - start, len(gb.gens))\n"
    ),
    "oracle_coherence_fresh": (
        "from orbitsieve import run_criterion\n"
        "start = time.perf_counter()\n"
        "result = run_criterion('oracle-coherence')\n"
        "print(time.perf_counter() - start, result.ok)\n"
    ),
    "tanisaki_2_2_1_1_default_budget": (
        "from orbitsieve import ResourceBudgetError, enumerate_locus, graded_frobenius\n"
        "locus = enumerate_locus('tanisaki', 6, mu=(2, 2, 1, 1))\n"
        "try:\n"
        "    graded_frobenius(locus)\n"
        "    print(0, 'accepted')\n"
        "except ResourceBudgetError as exc:\n"
        "    print(0, 'refused:', exc)\n"
    ),
}


def main() -> int:
    from_rat = subprocess.run(
        [sys.executable, "-c", _PRELUDE + "from orbitsieve.rat import RAT; print(RAT.__module__ + '.' + RAT.__name__)"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    record = {
        "rational_backend": from_rat,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_before": list(os.getloadavg()),
        "probes": {},
    }
    for name, body in PROBES.items():
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _PRELUDE + body], capture_output=True, text=True, check=True)
        process_s = time.perf_counter() - start
        seconds, outcome = proc.stdout.split(maxsplit=1)
        record["probes"][name] = {"seconds": float(seconds), "process_s": process_s, "outcome": outcome.strip()}
        print(name, record["probes"][name], flush=True)
    record["loadavg_after"] = list(os.getloadavg())
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
