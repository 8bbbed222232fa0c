"""Tests of the benchmark's own arithmetic: percentiles, self time, error rate.

Run with ``python3 -m pytest perfbench -q`` from the repository root.  They
import neither the library nor numpy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import benchstats  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import clocks  # noqa: E402
from clocks import CpuClock, process_tree  # noqa: E402
from spans import Tracer, covered, instrument, self_times  # noqa: E402


# ----------------------------------------------------------------------
# Percentiles and their support
# ----------------------------------------------------------------------
def test_nearest_rank_percentiles():
    values = list(range(1, 101))  # 1..100
    assert benchstats.percentile(values, 0.5) == 50
    assert benchstats.percentile(values, 0.99) == 99
    assert benchstats.percentile(values, 1.0) == 100
    assert benchstats.percentile([7.0], 0.99) == 7.0
    assert benchstats.percentile([], 0.5) == 0.0
    assert benchstats.percentile([3, 1, 2], 0.5) == 2  # order-independent


def test_samples_beyond_and_support():
    assert benchstats.beyond(1000, 0.99) == 10
    assert benchstats.supported(1000, 0.99)
    assert benchstats.beyond(999, 0.99) == 9
    assert not benchstats.supported(999, 0.99)
    assert benchstats.beyond(300, 0.99) == 3
    assert not benchstats.supported(300, 0.99)
    assert benchstats.supported(20, 0.5)
    assert not benchstats.supported(19, 0.5)


def test_latency_summary_reports_count_and_support():
    summary = benchstats.latency_summary(list(range(300)))
    assert summary["n"] == 300
    assert summary["p50"] == 149
    assert summary["p99_beyond"] == 3
    assert summary["p99_supported"] is False
    assert benchstats.latency_summary(list(range(5000)))["p99_supported"] is True


def test_rank_rejects_bad_input():
    with pytest.raises(ValueError):
        benchstats.rank(0, 0.5)
    with pytest.raises(ValueError):
        benchstats.rank(10, 0.0)
    with pytest.raises(ValueError):
        benchstats.rank(10, 1.5)


def test_median():
    assert benchstats.median([3.0, 1.0, 2.0]) == 2.0
    assert benchstats.median([4.0, 1.0]) == 2.5
    assert benchstats.median([]) == 0.0


def test_rate_is_changes_over_summed_update_time():
    assert benchstats.rate([1.0] * 100, 100) == 1.0
    assert benchstats.rate([1.0] * 250, 500) == 2.0  # batches: 2 changes per update
    assert benchstats.rate([0.5, 1.5], 4) == 2.0
    assert benchstats.rate([], 0) == 0.0


# ----------------------------------------------------------------------
# Error rate
# ----------------------------------------------------------------------
def test_error_rate_arithmetic():
    assert benchstats.error_rate(10, 0) == 0.0
    assert benchstats.error_rate(8, 2) == 0.25
    assert benchstats.error_rate(3, 3) == 1.0
    with pytest.raises(ValueError):
        benchstats.error_rate(0, 0)
    with pytest.raises(ValueError):
        benchstats.error_rate(5, 6)
    with pytest.raises(ValueError):
        benchstats.error_rate(5, -1)


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_covered_clips_and_merges_children():
    assert covered((0, 100), []) == 0
    assert covered((0, 100), [(10, 20), (30, 50)]) == 30
    assert covered((0, 100), [(10, 40), (30, 50)]) == 40  # overlap counted once
    assert covered((0, 100), [(-5, 10), (90, 120)]) == 20  # clipped to the parent
    assert covered((0, 100), [(10, 60), (20, 30)]) == 50  # nested inside a sibling


def test_self_times_subtract_direct_children_only():
    rows = [
        # index, name, start, end, parent
        (0, "job", 0, 100, -1),
        (1, "step", 10, 50, 0),
        (2, "apply", 20, 40, 1),
        (3, "step", 60, 90, 0),
    ]
    times = self_times(rows)
    assert times[0] == 100 - 40 - 30
    assert times[1] == 40 - 20
    assert times[2] == 20
    assert times[3] == 30


def test_tracer_nesting_and_run_id(tmp_path):
    tracer = Tracer("run-7")
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    rows = tracer.rows()
    assert [row[1] for row in rows] == ["outer", "inner", "inner"]
    assert [row[4] for row in rows] == [-1, 0, 0]
    assert all(row[3] >= row[2] for row in rows)
    path = tmp_path / "spans.jsonl"
    assert tracer.write_jsonl(str(path)) == 3
    assert Tracer("run-8").write_jsonl(str(path)) == 0  # appends
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert {line["run"] for line in lines} == {"run-7"}
    assert lines[1]["parent"] == lines[0]["id"]
    times = self_times(rows)
    inner = sum(row[3] - row[2] for row in rows[1:])
    assert times[0] == rows[0][3] - rows[0][2] - inner


class _Target:
    def work(self, value):
        return value * 2


def test_instrument_wraps_in_a_span():
    tracer = Tracer("wrap")
    instrument(tracer, [(_Target, "work", "target.work")])
    assert _Target().work(21) == 42
    assert [row[1] for row in tracer.rows()] == ["target.work"]


# ----------------------------------------------------------------------
# CPU clock
# ----------------------------------------------------------------------
def test_cpu_clock_counts_a_watched_child_and_banks_it():
    child = subprocess.Popen(
        [sys.executable, "-c", "import sys, time\nt = time.process_time()\n"
         "while time.process_time() - t < 0.2: pass\nsys.stdin.read()"],
        stdin=subprocess.PIPE,
    )
    try:
        assert child.pid in process_tree(os.getpid())
        clock = CpuClock()
        before = clock()
        clock.watch(process_tree(child.pid))
        deadline = time.monotonic() + 30
        while clock() - before < 150_000_000 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert clock() - before >= 150_000_000  # the child's own CPU time
        clock.bank()
        banked = clock()
    finally:
        child.communicate(b"")
    assert clock() >= banked  # the banked total outlives the child


def test_ref_clock_scales_each_segment_by_its_probes(monkeypatch):
    probes = iter([600_000, 1_200_000, 1_000_000, 1_400_000])
    monkeypatch.setattr(clocks, "probe_ns", lambda: next(probes))
    # Raw CPU readings include the probes' own time (0.6 ms, then 4.2 ms in all).
    cpu = iter([600_000, 9_000_000 + 4_200_000, 12_000_000 + 4_200_000])
    clock = clocks.RefClock(lambda: next(cpu))
    clock.close()  # probes by hand below
    clock.probe()
    clock.probe()
    clock.probe()
    _, first = clock.mark()  # 9 ms at the median probe, 1.2 ms: half speed
    assert clock.factor == pytest.approx(0.5)
    assert first == pytest.approx(4_500_000)
    _, second = clock.mark()  # 3 ms, no probe since: the last one, 1.4 ms
    assert second - first == pytest.approx(3_000_000 * 600_000 / 1_400_000)
    assert clock.probes == [600_000, 1_200_000, 1_000_000, 1_400_000]


# ----------------------------------------------------------------------
# Per-layer derivation
# ----------------------------------------------------------------------
def test_layer_metrics_from_synthetic_spans():
    ms = 1_000_000
    rows = [
        (0, "scenario.setup", 0, 100 * ms, -1),
        (1, "workloads.materialize", 0, 80 * ms, 0),
        (2, "graph.build", 0, 30 * ms, 1),
        (3, "scenario.step", 100 * ms, 100 * ms + 10_000, -1),
        (4, "core.apply", 100 * ms + 2_000, 100 * ms + 8_000, 3),
        (5, "scenario.fill", 150 * ms, 151 * ms, -1),
        (6, "core.apply", 150 * ms, 151 * ms, 5),  # fill: not a streamed update
        (7, "scenario.checkpoint_save", 200 * ms, 260 * ms, -1),
        (8, "scenario.checkpoint_encode", 200 * ms, 220 * ms, 7),
        (9, "scenario.checkpoint_encode", 220 * ms, 250 * ms, 7),
        (10, "scenario.resume", 300 * ms, 400 * ms, -1),
        (11, "workloads.materialize", 300 * ms, 370 * ms, 10),
        (12, "graph.build", 300 * ms, 305 * ms, 11),
    ]
    out = layers.layer_metrics(rows, "sequential", {"changes_per_materialize": 10})
    assert out["graph.build_s"] == pytest.approx(0.030)  # the resume's build is left out
    assert out["workloads.materialize_s"] == pytest.approx((0.050 + 0.065) / 2)
    assert out["workloads.us_per_change"] == pytest.approx((0.050 + 0.065) / 20 * 1e6)
    assert out["core.bootstrap_s"] == pytest.approx(0.020)
    assert out["core.apply_p50_us"] == pytest.approx(6.0)
    assert out["scenario.step_overhead_us"] == pytest.approx(4.0)
    assert out["scenario.checkpoint_encode_s"] == pytest.approx(0.050)
    assert out["scenario.checkpoint_write_s"] == pytest.approx(0.010)
    assert out["scenario.resume_materialize_s"] == pytest.approx(0.070)
    assert out["scenario.resume_restore_s"] == pytest.approx(0.030)
    assert "distributed.apply_p50_us" not in out  # never called


def test_merge_takes_the_median_over_processes_that_saw_a_metric():
    merged = layers.merge([{"graph.build_s": 1.0}, {"graph.build_s": 3.0}, {"core.verify_s": 2.0}])
    assert set(merged) == {name for name, _ in layers.PER_LAYER}
    assert merged["graph.build_s"] == 2.0
    assert merged["core.verify_s"] == 2.0
    assert merged["distributed.verify_s"] == 0.0


def test_service_tax_is_request_minus_batch_apply():
    us = 1_000
    rows = [(i, "service.request", 0, 500 * us, -1) for i in range(3)]
    rows.append((3, "scenario.replay", 0, 300 * us, -1))
    rows.append((4, "core.batch_apply", 0, 200 * us, 3))
    out = layers.layer_metrics(rows, "sequential", {})
    assert out["service.request_p50_us"] == pytest.approx(500.0)
    assert out["core.batch_apply_p50_us"] == pytest.approx(200.0)
    assert out["service.tax_us"] == pytest.approx(300.0)


# ----------------------------------------------------------------------
# Sessions and end-to-end figures
# ----------------------------------------------------------------------
def _process(job, setup=(), checkpoint=(), resume=(), updates=(), changes=0):
    times = {"job_s": [job], "setup_s": list(setup), "checkpoint_s": list(checkpoint),
             "resume_s": list(resume)}
    times.update({"wall_" + key: [2 * value for value in values] for key, values in times.items()})
    return {"times": times, "update_ref_ns": list(updates),
            "update_wall_ns": [2 * ns for ns in updates], "stream_changes": changes,
            "attempted": len(updates) + 1, "failed": 0, "failures": [], "peak_rss_kb": 1024}


def test_a_session_is_its_run_and_resume_processes():
    session = run.combine(
        _process(3.0, setup=[1.0], checkpoint=[0.5, 0.7], updates=[1000] * 4, changes=4),
        _process(2.0, resume=[0.4], updates=[3000] * 4, changes=4),
    )
    assert session["times"]["job_s"] == [5.0]  # one job, split over two processes
    assert session["times"]["wall_job_s"] == [10.0]
    assert session["times"]["checkpoint_s"] == [0.5, 0.7]
    assert session["attempted"] == 10
    e2e = run.end_to_end([session])
    assert e2e["job_s"] == 5.0 and e2e["wall_job_s"] == 10.0
    assert e2e["setup_s"] == 1.0 and e2e["resume_s"] == 0.4
    assert e2e["checkpoint_s"] == pytest.approx(0.6)
    assert e2e["update_p50_us"] == 1.0 and e2e["wall_update_p50_us"] == 2.0
    assert e2e["changes_per_s"] == pytest.approx(8 / 16e-6)  # per reference CPU second
    assert e2e["peak_rss_mb"] == 1.0


def test_benchmark_json_matches_the_metric_tables():
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    if not path.exists():
        pytest.skip("BENCHMARK.json not present")
    spec = json.loads(path.read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        layers.END_TO_END
    )
    assert not {name for name, _ in layers.REPORTED} & {m["name"] for m in spec["end_to_end"]}
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert all(metric["bound"] <= 0.25 for metric in spec["end_to_end"])
    setup = next(metric for metric in spec["end_to_end"] if metric["name"] == "setup_s")
    assert setup["bound"] == max(metric["bound"] for metric in spec["end_to_end"])
