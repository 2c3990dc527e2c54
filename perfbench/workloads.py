"""The benchmark's workloads: cell pools, the seed-to-cells generator and the digest check.

A cell is the unit a user asks for in one CLI call.  Each pool entry is a list of
interchangeable cells of equal cost (the same point set under the same actions,
named by different families); the seed picks one cell from every entry and then
orders the cells.  Different seeds therefore do the same amount of work, and
every cell any seed can pick has a committed digest in ``digests.json``.

This module imports nothing from ``orbitsieve``: the parent process generates
the cells, and only the worker processes run them.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

SUITE_ARGV = ["suite", "--max-k", "4", "--output", "json"]
SUITE_CRITERIA = (
    "word-bicsp-grids",
    "orbit-csps",
    "necklace-graph-csps",
    "tanisaki-sieving",
    "springer-bicsp",
    "presentations",
    "frobenius-coherence",
    "oracle-coherence",
    "property-suites",
)

# Closed form that each position subgroup's oracle polynomial must equal.
_CLOSED_FORMS = {
    "X": {"Sn": "wcomp-csp", "Cn": "necklace-X", "Hr": "graph-X"},
    "Y": {"Sn": "subset-csp", "Cn": "necklace-Y", "Hr": "graph-Y"},
    "Z": {"Sn": "comp-csp", "Cn": "necklace-Z", "Hr": "graph-Z"},
    "tanisaki": {"Sn": "tanisaki-trivial", "Cn": "tanisaki-necklace", "Hr": "tanisaki-graph"},
}


def _verify(family: str, **params) -> dict:
    return {"kind": "verify", "family": family, "params": params}


def _oracle(family: str, n: int, k: int | None = None, mu: list[int] | None = None) -> dict:
    groups = ["Sn", "Cn"] + (["Hr"] if n % 2 == 0 else [])
    return {
        "kind": "oracle",
        "locus": {"family": family, "n": n, "k": k, "mu": mu},
        "groups": [[group, _CLOSED_FORMS[family][group]] for group in groups],
    }


POOLS: dict[str, list[list[dict]]] = {
    # The five closed-form criteria on grids of up to about 10^4 words, plus one
    # 65,536-word necklace grid.  Brute-force fixed-point scans dominate.
    "verify-grids": [
        [_verify("word-bicsp-Z", n=7, k=4)],
        [_verify("word-bicsp-Y", n=5, k=8)],
        [_verify("word-bicsp-X", n=6, k=4)],
        [_verify("word-bicsp-Z", n=6, k=5)],
        [_verify("wcomp-csp", n=8, k=4)],
        [_verify("subset-csp", n=5, k=8)],
        [_verify("comp-csp", n=7, k=4)],
        [_verify("necklace-X", n=8, k=4)],
        [_verify("necklace-Y", n=5, k=8)],
        [_verify("graph-X", n=8, k=3)],
        [_verify("tanisaki-bicsp", mu=[2, 2, 2, 2])],
        [_verify("tanisaki-bicsp", mu=[2, 1, 2, 1], a=2), _verify("tanisaki-bicsp", mu=[1, 2, 1, 2], a=2)],
        [_verify("tanisaki-necklace", mu=[2, 2, 2, 2])],
        # All permutations of 1..7 under the value shift and the rotation.
        [
            _verify("springer-bicsp", n=7),
            _verify("word-bicsp-Y", n=7, k=7),
            _verify("tanisaki-bicsp", mu=[1, 1, 1, 1, 1, 1, 1]),
        ],
        [_verify("springer-bicsp", n=6)],
    ],
    # Mid-size loci over fields of degree phi(k) in {2, 4}; rational elimination
    # in vanishing_ideal dominates, and every group after a locus' first hits the
    # Frobenius cache.
    "oracle-mid": [
        [_oracle("X", 3, 5)],
        [_oracle("X", 3, 6)],
        # All permutations of 1..5: the tanisaki locus of content 1^5 is Y(5, 5).
        [_oracle("tanisaki", 5, mu=[1, 1, 1, 1, 1]), _oracle("Y", 5, 5)],
        [_oracle("Z", 5, 3)],
        [_oracle("Y", 3, 6)],
        [_oracle("Y", 3, 5)],
        [_oracle("X", 4, 3)],
        [_oracle("Z", 4, 3)],
        [_oracle("Y", 4, 4)],
    ],
    # One fixed CLI call; its cells are the nine criteria.
    "suite-k4": [[{"kind": "suite", "argv": SUITE_ARGV}]],
}

WORKLOADS = tuple(POOLS)


def _params_text(params: dict) -> str:
    parts = []
    for key, value in params.items():
        if value is None:
            continue
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        parts.append(f"{key}={value}")
    return " ".join(parts)


def cell_ids(cell: dict) -> list[str]:
    """Ids of the cells one call produces: one, or one per criterion for ``suite``."""
    if cell["kind"] == "verify":
        return [f"verify {cell['family']} {_params_text(cell['params'])}"]
    if cell["kind"] == "oracle":
        locus = dict(cell["locus"])
        return [f"oracle {locus.pop('family')} {_params_text(locus)}"]
    return [f"suite {name}" for name in SUITE_CRITERIA]


def make_cells(workload: str, seed: int) -> list[dict]:
    """The calls of one workload run; the same seed always gives the same list."""
    rng = random.Random(f"{workload}/{seed}")
    cells = [rng.choice(entry) for entry in POOLS[workload]]
    rng.shuffle(cells)
    return cells


def all_pool_cells(workload: str) -> list[dict]:
    return [cell for entry in POOLS[workload] for cell in entry]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_digests() -> dict[str, dict[str, str]]:
    with open(DIGESTS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def digest_mismatches(cell_id: str, digests: dict[str, str], expected: dict[str, dict[str, str]]) -> list[str]:
    """Names of the outputs of one cell whose digest differs from the committed one."""
    want = expected.get(cell_id)
    if want is None:
        return ["<no committed digest>"]
    return sorted(key for key in set(want) | set(digests) if want.get(key) != digests.get(key))
