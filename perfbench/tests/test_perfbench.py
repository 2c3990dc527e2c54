"""Tests of the benchmark's own code: cell generation, the tail rule, the digest check
and the span arithmetic."""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)

import run  # noqa: E402
from calibration import Sampler  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_cells_are_a_function_of_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.make_cells(workload, 7) == workloads.make_cells(workload, 7)
        assert len(workloads.make_cells(workload, 7)) == len(workloads.POOLS[workload])
    orders = {json.dumps(workloads.make_cells("verify-grids", seed)) for seed in range(5)}
    assert len(orders) > 1


def test_every_cell_a_seed_can_pick_has_a_digest():
    committed = workloads.load_digests()
    for workload in workloads.WORKLOADS:
        for cell in workloads.all_pool_cells(workload):
            for cell_id in workloads.cell_ids(cell):
                assert cell_id in committed


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(v) for v in range(1, 31)]) == (20.0, 100.0 * 20 / 30)
    assert run.tail([float(v) for v in range(1, 11)]) is None
    # Ties at the cut: the value must have ten samples strictly above it.
    values = [1.0] * 5 + [2.0] * 3 + [3.0] * 10
    assert run.tail(values) == (2.0, 100.0 * 8 / 18)
    assert run.tail([1.0] * 5 + [2.0] * 9) is None


def test_digest_check_flags_an_altered_output(monkeypatch):
    committed = workloads.load_digests()
    cell = workloads.POOLS["verify-grids"][6][0]
    assert cell["family"] == "comp-csp"
    (cell_id,) = workloads.cell_ids(cell)
    (result,), _ = worker.run_cells([cell], Sampler())
    assert result["ok"] and workloads.digest_mismatches(cell_id, result["digests"], committed) == []

    original = worker.sieving.verify_family

    def altered(*args, **kwargs):
        report = original(*args, **kwargs)
        report.rows[-1] = dict(report.rows[-1], fixed=report.rows[-1]["fixed"] + 1)
        return report

    monkeypatch.setattr(worker.sieving, "verify_family", altered)
    (result,), _ = worker.run_cells([cell], Sampler())
    assert workloads.digest_mismatches(cell_id, result["digests"], committed) == ["report"]
    assert workloads.digest_mismatches("verify no-such-cell", result["digests"], committed)


def _span(idx, parent, name, start, end, **counts):
    return {"id": idx, "parent": parent, "name": name, "label": None, "start": start, "end": end, "counts": counts}


def test_self_times_on_a_synthetic_tree():
    tree = [
        _span(0, None, "bench.run", 0.0, 10.0),
        _span(1, 0, "sieving.oracle_csp_poly", 1.0, 7.0),
        _span(2, 1, "harmonics.graded_frobenius", 1.5, 6.5),
        _span(3, 2, "harmonics.vanishing_ideal", 2.0, 5.0, **{"harmonics.vanishing_ideal_points": 9}),
        _span(4, 2, "harmonics.buchberger", 5.0, 6.0),
        _span(5, 0, "harmonics.graded_frobenius", 8.0, 8.5),
    ]
    assert spans.self_times(tree) == [3.5, 1.0, 1.0, 3.0, 1.0, 0.5]
    m = spans.layer_metrics(tree)
    assert m["bench.self_s"] == 3.5
    assert m["harmonics.graded_frobenius_self_s"] == 1.5
    assert m["harmonics.graded_frobenius_calls"] == 2
    assert m["harmonics.graded_frobenius_cache_hits"] == 1
    assert m["harmonics.buchberger_graded_s"] == 1.0
    assert m["harmonics.vanishing_ideal_points"] == 9
    assert sum(v for k, v in m.items() if k.endswith("_s")) == 10.0


def test_tracer_nests_spans_and_counts():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    def inner(x):
        return [x] * x

    wrapped_inner = tracer.wrap("loci.inner", inner, lambda a, kw, out: {"loci.words": len(out)})
    outer = tracer.wrap("sieving.outer", lambda x: wrapped_inner(x) + wrapped_inner(x))
    with tracer.span("bench.run"):
        assert outer(2) == [2, 2, 2, 2]
    assert [(s["name"], s["parent"]) for s in tracer.spans] == [
        ("bench.run", None), ("sieving.outer", 0), ("loci.inner", 1), ("loci.inner", 1)]
    assert spans.layer_metrics(tracer.spans)["loci.words"] == 4


def test_benchmark_json_names_the_metrics_run_py_prints():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_sampler_excludes_its_loops_from_the_measured_time():
    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    with Sampler() as sampler:
        primed = len(sampler.samples)
        _, seconds, loop_s = sampler.measure(busy, 0.2)
    inside = sampler.samples[primed:]
    assert len(inside) >= 3 and abs(loop_s - sum(inside) / len(inside)) < 1e-12
    # busy() ends at a fixed wall time, so the loops that interrupted it are what is missing.
    assert abs((0.2 - seconds) - sum(inside)) < 0.005
    assert Sampler().measure(busy, 0.01)[2] is None
