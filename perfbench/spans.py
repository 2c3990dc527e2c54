"""Spans recorded from outside the library, and the per-layer figures computed from them.

``Tracer.install`` replaces each named public function in every module that binds
it (``from .x import f`` copies the binding, so patching the defining module alone
would miss callers), plus ``GroebnerBasis.quotient_basis``.  Hot inner methods
such as ``CycloElement.__mul__`` or ``nf_monomial`` are left alone.  Spans are
kept in memory; the worker writes them out when its run ends.

The calls are single-threaded and nest, so a span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import time
from types import ModuleType
from typing import Callable

# Counts taken at a span's boundary from its arguments and result, keyed by metric name.
Counter = Callable[[tuple, dict, object], dict]


def _rows_count(args, kwargs, report) -> dict:
    rows = report.rows
    # Row r=0 (s=0) is the identity, whose fixed points are the whole scanned set.
    return {"sieving.rows": len(rows), "sieving.word_images": len(rows) * rows[0]["fixed"] if rows else 0}


TRACED: dict[str, dict[str, Counter | None]] = {
    "loci": {
        "enumerate_locus": lambda a, kw, locus: {"loci.words": locus.size},
        "orbit_set": None,
    },
    "sieving": {
        "sieving_polynomial": None,
        "build_instance": None,
        "verify_family": None,
        "verify_csp": _rows_count,
        "verify_bicsp": _rows_count,
        "oracle_csp_poly": None,
    },
    "harmonics": {
        "vanishing_ideal": lambda a, kw, gb: {
            "harmonics.vanishing_ideal_points": a[0].size,
            "harmonics.vanishing_ideal_generators": len(gb.gens),
        },
        "buchberger": None,
        "graded_character": None,
        "graded_frobenius": None,
        "verify_presentation": None,
    },
    "cyclotomic": {"eval_at_unity": None},
    "characters": {"invariant_hilbert": None},
    "suite": {"run_criterion": None},
    "cli": {"main": None},
}


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, label: str | None = None):
        """A span the caller opens itself (the run's root)."""
        record = self._open(name, label)
        try:
            yield record
        finally:
            self._close(record)

    def _open(self, name: str, label: str | None) -> dict:
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "label": label,
            "start": self.clock(),
            "end": None,
            "counts": {},
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        return record

    def _close(self, record: dict) -> None:
        record["end"] = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, counter: Counter | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = args[0] if name == "suite.run_criterion" and args else None
            record = tracer._open(name, label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(record)
            if counter is not None:
                record["counts"] = counter(args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the functions in ``TRACED`` in every module of ``package`` that binds them."""
        modules = [package] + [value for value in vars(package).values() if isinstance(value, ModuleType)]
        for module_name, functions in TRACED.items():
            owner = getattr(package, module_name)
            for fn_name, counter in functions.items():
                original = getattr(owner, fn_name)
                wrapped = self.wrap(f"{module_name}.{fn_name}", original, counter)
                for module in modules:
                    if getattr(module, fn_name, None) is original:
                        setattr(module, fn_name, wrapped)
        basis = package.harmonics.GroebnerBasis
        basis.quotient_basis = self.wrap("harmonics.quotient_basis", basis.quotient_basis)


def self_times(spans: list[dict]) -> list[float]:
    """Self time of every span: its duration minus its direct children's durations."""
    out = [span["end"] - span["start"] for span in spans]
    for span in spans:
        if span["parent"] is not None:
            out[span["parent"]] -= span["end"] - span["start"]
    return out


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer figures of one traced run.  ``spans[0]`` is the run's root span.

    Every ``*_s`` figure except the inclusive ``suite.<criterion>_s`` is a self
    time, and together they partition the root span: they add up to the traced
    wall time of the run.
    """
    selfs = self_times(spans)
    has_child = {span["parent"] for span in spans}
    m: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        m[key] = m.get(key, 0) + value

    for span, own in zip(spans, selfs):
        name = span["name"]
        duration = span["end"] - span["start"]
        parent = spans[span["parent"]]["name"] if span["parent"] is not None else None
        for key, value in span["counts"].items():
            add(key, value)
        if name == "bench.run":
            add("bench.self_s", own)
        elif name == "cli.main":
            add("cli.self_s", own)
        elif name == "suite.run_criterion":
            add("suite.self_s", own)
            add(f"suite.{span['label']}_s", duration)
        elif name in ("sieving.verify_family", "sieving.verify_csp", "sieving.verify_bicsp"):
            add("sieving.verify_self_s", own)
        elif name == "harmonics.buchberger":
            kind = {"harmonics.graded_frobenius": "graded", "harmonics.verify_presentation": "stated"}.get(parent, "other")
            add(f"harmonics.buchberger_{kind}_s", own)
            add("harmonics.buchberger_calls", 1)
        elif name == "harmonics.graded_frobenius":
            add("harmonics.graded_frobenius_self_s", own)
            add("harmonics.graded_frobenius_calls", 1)
            add("harmonics.graded_frobenius_cache_hits", 0 if span["id"] in has_child else 1)
        elif name in ("harmonics.verify_presentation", "sieving.build_instance", "sieving.oracle_csp_poly"):
            add(f"{name}_self_s", own)
        else:
            # Every other layer reports its self time and its number of calls.
            add(f"{name}_s", own)
            add(f"{name}_calls", 1)
    return m
