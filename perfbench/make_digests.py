"""Write ``digests.json``: the digest of every output of every cell any seed can pick.

The committed file was made at the commit that introduced the benchmark.  Every
benchmark run compares its outputs against it, so regenerate it only for a
change that is meant to alter the program's output:

    python3 perfbench/make_digests.py
"""

from __future__ import annotations

import json

from workloads import DIGESTS_PATH, WORKLOADS, all_pool_cells, cell_ids
from calibration import Sampler
from worker import run_cells


def main() -> int:
    digests = {}
    for workload in WORKLOADS:
        results, _ = run_cells(all_pool_cells(workload), Sampler())
        for result in results:
            if not result["ok"]:
                raise SystemExit(f"{result['id']} failed ({result['error']}); no digests written")
            digests[result["id"]] = result["digests"]
    expected = {cell_id for w in WORKLOADS for cell in all_pool_cells(w) for cell_id in cell_ids(cell)}
    if set(digests) != expected:
        raise SystemExit("a cell produced no result; no digests written")
    with open(DIGESTS_PATH, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"{len(digests)} cells written to {DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
