"""Metric tables of the benchmark and the span -> per-layer derivation.

``END_TO_END`` and ``PER_LAYER`` are the metric names the benchmark prints
(``BENCHMARK.json`` lists the same names; ``test_perfbench.py`` holds the
two in step).  ``LAYER_MAP`` records, for each layer (a ``repro`` module),
which end-to-end metric its per-layer metrics should move and on which
workload -- written down before anything was measured.

:func:`layer_metrics` turns the spans of one traced process into the
per-layer values it observed; :func:`merge` combines the processes of a
run.  A layer the run never called reports 0.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

import benchstats
from spans import NO_PARENT, self_times

#: (name, unit, better) of every end-to-end metric the benchmark gates on
#: (the result line carries exactly these), in print order.  Times are CPU
#: time of every process doing the work.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("job_s", "s", "lower"),
    ("changes_per_s", "1/s", "higher"),
    ("update_p50_us", "us", "lower"),
    ("checkpoint_s", "s", "lower"),
    ("resume_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: End-to-end metrics printed with every run but not gated on: the p99 of
#: the update latency swings with how many stalls a run of a shared machine
#: catches, and churn-lifecycle-5k has too few updates to support it; the
#: wall-clock twins of the gated times move with host steal time; the error
#: rate is 0 on every correct run (``failed`` carries it).
REPORTED: Tuple[Tuple[str, str], ...] = (
    ("update_p99_us", "us"),
    ("wall_setup_s", "s"),
    ("wall_job_s", "s"),
    ("wall_changes_per_s", "1/s"),
    ("wall_update_p50_us", "us"),
    ("wall_update_p99_us", "us"),
    ("wall_checkpoint_s", "s"),
    ("wall_resume_s", "s"),
    ("error_rate", "ratio"),
)

#: (name, unit) of every per-layer metric, grouped by layer.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("graph.build_s", "s"),
    ("graph.edges", "count"),
    ("workloads.materialize_s", "s"),
    ("workloads.us_per_change", "us"),
    ("core.bootstrap_s", "s"),
    ("core.apply_p50_us", "us"),
    ("core.apply_p99_us", "us"),
    ("core.verify_s", "s"),
    ("core.batch_apply_p50_us", "us"),
    ("core.adjustments_per_change", "count"),
    ("core.influenced_per_change", "count"),
    ("core.update_work_per_change", "count"),
    ("distributed.bootstrap_s", "s"),
    ("distributed.apply_p50_us", "us"),
    ("distributed.apply_p99_us", "us"),
    ("distributed.verify_s", "s"),
    ("distributed.rounds_per_change", "count"),
    ("distributed.broadcasts_per_change", "count"),
    ("distributed.bits_per_change", "bits"),
    ("scenario.step_overhead_us", "us"),
    ("scenario.checkpoint_take_s", "s"),
    ("scenario.checkpoint_encode_s", "s"),
    ("scenario.checkpoint_write_s", "s"),
    ("scenario.checkpoint_bytes", "bytes"),
    ("scenario.checkpoint_load_s", "s"),
    ("scenario.resume_materialize_s", "s"),
    ("scenario.resume_restore_s", "s"),
    ("service.create_s", "s"),
    ("service.request_p50_us", "us"),
    ("service.request_p99_us", "us"),
    ("service.tax_us", "us"),
    ("service.checkpoint_op_s", "s"),
    ("service.rehydrate_s", "s"),
    ("service.ops", "count"),
    ("service.evictions", "count"),
    ("service.rehydrations", "count"),
    ("trace.overhead_frac", "ratio"),
)

#: layer -> (its per-layer metric prefix, end-to-end metrics it should move,
#: workload where it carries most of the work, workload where it carries little).
LAYER_MAP: Tuple[Tuple[str, str, str, str, str], ...] = (
    ("repro.graph", "graph.", "setup_s (small share)",
     "churn-lifecycle-5k", "window workloads (no graph spec)"),
    ("repro.workloads", "workloads.", "setup_s, resume_s, job_s",
     "churn-lifecycle-5k", "window workloads (sliding window samples nothing present)"),
    ("repro.core", "core.", "update_p50_us, update_p99_us, changes_per_s",
     "window-stream-seq", "window-stream-protocol"),
    ("repro.core (batched)", "core.batch_", "update_p50_us, changes_per_s",
     "service-fleet", "every unbatched workload"),
    ("repro.distributed", "distributed.", "update_p50_us, update_p99_us, changes_per_s",
     "window-stream-protocol", "every sequential workload"),
    ("repro.scenario", "scenario.", "checkpoint_s, resume_s; step overhead -> update_p50_us",
     "window-stream-seq", "service-fleet (checkpoints run in the shards)"),
    ("repro.service", "service.", "update_p50_us, changes_per_s, checkpoint_s, resume_s",
     "service-fleet", "every in-process workload"),
    ("trace", "trace.", "none", "all", "all"),
)


class SpanIndex:
    """Spans of one traced process, indexed by name and by parent."""

    def __init__(self, rows: Sequence[Tuple[int, str, int, int, int]]) -> None:
        self.self_ns = self_times(rows)
        self.by_id = {row[0]: row for row in rows}
        self.by_name: Dict[str, List[Tuple[int, str, int, int, int]]] = {}
        self.children: Dict[int, List[Tuple[int, str, int, int, int]]] = {}
        for row in rows:
            self.by_name.setdefault(row[1], []).append(row)
            if row[4] != NO_PARENT:
                self.children.setdefault(row[4], []).append(row)

    def durations_s(self, name: str, under: str = "") -> List[float]:
        """Durations of the ``name`` spans (only those inside an ``under`` span)."""
        return [
            (row[3] - row[2]) / 1e9
            for row in self.by_name.get(name, ())
            if not under or self._inside(row, under)
        ]

    def _inside(self, row, ancestor: str) -> bool:
        while row[4] != NO_PARENT:
            row = self.by_id[row[4]]
            if row[1] == ancestor:
                return True
        return False

    def self_s(self, name: str) -> List[float]:
        return [self.self_ns[row[0]] / 1e9 for row in self.by_name.get(name, ())]

    def child_s(self, name: str, child: str) -> List[float]:
        """Per ``name`` span: the summed duration of its ``child``-named children."""
        return [
            sum(
                (kid[3] - kid[2]) / 1e9
                for kid in self.children.get(row[0], ())
                if kid[1] == child
            )
            for row in self.by_name.get(name, ())
        ]


def layer_metrics(
    rows: Sequence[Tuple[int, str, int, int, int]],
    runner: str,
    counts: Mapping[str, float],
) -> Dict[str, float]:
    """The per-layer metrics one traced process observed.

    A metric whose spans or count the process never saw is left out: a
    session's set-up and its resume run in different processes, and
    ``merge`` combines what each of them saw.  ``runner`` ("sequential" or
    "protocol") attributes session bootstrap and verify to ``core`` or
    ``distributed``; ``counts`` carries the values the job read off the
    library rather than off spans (``graph.edges``,
    ``scenario.checkpoint_bytes``, the cost counters, the service ``stats``,
    and ``changes_per_materialize``).
    """
    index = SpanIndex(rows)
    us = 1e6
    out: Dict[str, float] = {}

    def put(name: str, values: List[float], summary=benchstats.median) -> None:
        if values:
            out[name] = summary(values)

    p50 = lambda values: benchstats.percentile(values, 0.5)  # noqa: E731
    p99 = lambda values: benchstats.percentile(values, 0.99)  # noqa: E731

    # Set-ups build cold in a fresh process; a resume's build is its own span.
    put("graph.build_s", index.durations_s("graph.build", under="scenario.setup"))
    materialize_self = index.self_s("workloads.materialize")
    put("workloads.materialize_s", materialize_self)
    generated = counts.get("changes_per_materialize", 0) * len(materialize_self)
    if generated:
        out["workloads.us_per_change"] = sum(materialize_self) / generated * us

    backend = "core" if runner == "sequential" else "distributed"
    put(f"{backend}.bootstrap_s", index.self_s("scenario.setup"))
    put(f"{backend}.verify_s", index.durations_s(f"{backend}.verify"))
    # Only the timed stream: fill-phase applies and resume replays are left out.
    for name in ("core.apply", "distributed.apply"):
        latencies = [value * us for value in index.durations_s(name, under="scenario.step")]
        put(f"{name}_p50_us", latencies, p50)
        put(f"{name}_p99_us", latencies, p99)
    batch = [value * us for value in index.durations_s("core.batch_apply", under="scenario.replay")]
    put("core.batch_apply_p50_us", batch, p50)

    put("scenario.step_overhead_us", [value * us for value in index.self_s("scenario.step")], p50)
    put("scenario.checkpoint_take_s", index.durations_s("scenario.checkpoint_take"))
    put(
        "scenario.checkpoint_encode_s",
        index.child_s("scenario.checkpoint_save", "scenario.checkpoint_encode"),
    )
    put("scenario.checkpoint_write_s", index.self_s("scenario.checkpoint_save"))
    put("scenario.checkpoint_load_s", index.durations_s("scenario.checkpoint_load"))
    put(
        "scenario.resume_materialize_s",
        index.child_s("scenario.resume", "workloads.materialize"),
    )
    put("scenario.resume_restore_s", index.self_s("scenario.resume"))

    put("service.create_s", index.durations_s("service.create"))
    requests = [value * us for value in index.durations_s("service.request")]
    put("service.request_p50_us", requests, p50)
    put("service.request_p99_us", requests, p99)
    if requests and batch:
        out["service.tax_us"] = out["service.request_p50_us"] - out["core.batch_apply_p50_us"]
    put("service.checkpoint_op_s", index.durations_s("service.checkpoint_op"))
    put("service.rehydrate_s", index.durations_s("service.rehydrate"))

    for name, _ in PER_LAYER:
        if name in counts:
            out[name] = float(counts[name])
    return out


def merge(observed: Sequence[Mapping[str, float]]) -> Dict[str, float]:
    """Every per-layer metric: the median over the processes that observed it, else 0."""
    return {
        name: benchstats.median(values[name] for values in observed if name in values)
        for name, _ in PER_LAYER
    }
