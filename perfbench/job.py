"""One benchmark job process: ``python3 perfbench/job.py ...``.

``run.py`` starts this with the working directory set to the job's own temp
dir and reads back the JSON result it writes to ``--out``.  A session job
(churn-lifecycle-5k, the window workloads) takes two processes: the first
sets up, streams and writes a checkpoint file; the second (``--resume``)
loads that file, resumes, streams the rest and verifies.  A fresh process
keeps the process-wide graph memo of ``GraphSpec.build`` cold for every
set-up and every resume, and gives every process its own peak RSS.  The
service-fleet job is one process driving a daemon it starts.

Every job drives the library through its public API only
(``ScenarioSpec``/``Session``, ``checkpoint_io``, ``ServiceClient`` against a
``repro-mis serve`` daemon), checks its outputs, and records raw samples:
set-up, job, checkpoint and resume times, per-update latencies and the
streamed change count, each as CPU time and as wall time.  With
``--trace 1`` it also records spans around the calls into each layer and
returns the per-layer metrics derived from them.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import subprocess
import sys
import time
from array import array
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core.dynamic_mis import DynamicMIS
from repro.scenario import (
    BackendSpec,
    GraphSpec,
    ScenarioSpec,
    Session,
    WorkloadSpec,
    load_checkpoint,
    save_checkpoint,
)
from repro.scenario import checkpoint_io
from repro.service import ServiceClient
from repro.workloads.sequences import replay_on_graph
from repro.workloads.trace import encode_node

import layers
from clocks import CpuClock, RefClock, process_tree
from spans import Tracer, instrument

#: Checkpoints per session (the first belongs to the job, the rest only
#: add samples).
CHECKPOINTS = 2
#: Changes per churn-lifecycle-5k session: materializing them is about half
#: of set-up (the graph build is the rest) and most of resume.
LIFECYCLE_CHANGES = 50
#: Nodes (= window size) of the window workloads.
SEQ_NODES = 20000
PROTOCOL_NODES = 5000
FLEET_NODES = 5000
#: Churn changes per second of ``--seconds``, after the window has filled:
#: per session for the in-process window workloads, per fleet session.
SEQ_CHURN = 3000
PROTOCOL_CHURN = 1500
FLEET_CHURN = 1000
FLEET_SESSIONS = 8
FLEET_BATCH = 64
FLEET_SHARDS = 2
#: Set-ups (daemon start plus every create) of the fleet, and the number of
#: checkpoint + evict/rehydrate cycles spread over its stream.
FLEET_SETUPS = 3
FLEET_SPOOL_CYCLES = 32


# ----------------------------------------------------------------------
# Workload inputs (a pure function of workload, seed, seconds, repetition)
# ----------------------------------------------------------------------
def _rng(workload: str, seed: int, rep: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{rep}")


def lifecycle_spec(seed: int, seconds: int, rep: int) -> ScenarioSpec:
    """``--seed`` draws the graph and the priority order; the churn stream's
    own seed depends on the repetition only.

    A mixed_churn node insertion wires the new node to 30% of all nodes
    (~1500 edges at n=5000), so over a run the number of insertions
    alone moves set-up, checkpoint and stream times by tens of percent;
    holding the stream's draws fixed keeps that out of the seed-to-seed
    spread while every run still gets a graph and an order of its own.
    """
    rng = _rng("churn-lifecycle-5k", seed, rep)
    nodes = 5000
    return ScenarioSpec(
        name=f"churn-lifecycle-5k-{seed}-{rep}",
        seed=rng.randrange(2**31),
        graph=GraphSpec(
            family="erdos_renyi",
            nodes=nodes,
            seed=rng.randrange(2**31),
            params={"edge_probability": 8 / (nodes - 1)},
        ),
        workload=WorkloadSpec(
            kind="mixed_churn",
            num_changes=LIFECYCLE_CHANGES,
            seed=_rng("churn-lifecycle-5k", 0, rep).randrange(2**31),
        ),
        backend=BackendSpec(runner="sequential", engine="fast"),
    )


def window_spec(
    name: str, seed: int, nodes: int, churn: int, runner: str, batch_size: int = 0
) -> ScenarioSpec:
    """A sliding window over ``nodes`` nodes: ``nodes`` fill changes, then ``churn``."""
    rng = _rng(name, seed, 0)
    return ScenarioSpec(
        name=name,
        seed=rng.randrange(2**31),
        graph=None,
        workload=WorkloadSpec(
            kind="sliding_window",
            num_changes=nodes + churn,
            seed=rng.randrange(2**31),
            params={"num_nodes": nodes, "window_size": nodes},
        ),
        backend=BackendSpec(runner=runner, engine="fast", network="fast", protocol="buffered"),
        batch_size=batch_size,
    )


def seq_spec(seed: int, seconds: int, rep: int) -> ScenarioSpec:
    return window_spec(
        f"window-stream-seq-{rep}", seed, SEQ_NODES, SEQ_CHURN * seconds, "sequential"
    )


def protocol_spec(seed: int, seconds: int, rep: int) -> ScenarioSpec:
    return window_spec(
        f"window-stream-protocol-{rep}", seed, PROTOCOL_NODES, PROTOCOL_CHURN * seconds,
        "protocol",
    )


def fleet_specs(seed: int, seconds: int) -> List[ScenarioSpec]:
    return [
        window_spec(
            f"fleet-{index}", seed, FLEET_NODES, FLEET_CHURN * seconds, "sequential",
            batch_size=FLEET_BATCH,
        )
        for index in range(FLEET_SESSIONS)
    ]


# ----------------------------------------------------------------------
# Clocks and the result record
# ----------------------------------------------------------------------
#: Timed figures: the gated reference-speed sample and its ungated wall-time twin.
TIMED = ("setup_s", "job_s", "checkpoint_s", "resume_s")
#: A stream closes a reference-clock segment after this much CPU time, so
#: each update latency is scaled by the probes taken around it.
BLOCK_NS = 40_000_000


class Record:
    """Raw samples and operation counts of one job process.

    Every timed figure is kept twice: as CPU time at reference speed of all
    processes doing the work (``setup_s`` ...; gated; see ``RefClock``) and
    as wall time (``wall_setup_s`` ...; printed only).
    """

    def __init__(self, fleet: Optional[CpuClock] = None) -> None:
        #: The service-fleet clock also counts the daemon and its shards.
        self.fleet = fleet
        self.clock = RefClock(fleet or time.process_time_ns)
        self.times: Dict[str, List[float]] = {
            key: [] for name in TIMED for key in (name, "wall_" + name)
        }
        self.update_ref_ns: List[float] = []
        self.update_wall_ns = array("q")
        self.stream_changes = 0
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.counts: Dict[str, float] = {}
        self.position = 0

    def stamp(self) -> Tuple[int, float]:
        """Wall and reference-speed CPU clock readings, in ns."""
        return self.clock.mark()

    def since(self, name: str, stamp: Tuple[int, float]) -> None:
        """Add the time since ``stamp`` as one ``name`` sample."""
        wall, ref = self.clock.mark()
        self.times[name].append((ref - stamp[1]) / 1e9)
        self.times["wall_" + name].append((wall - stamp[0]) / 1e9)

    def updates(self, cpu_ns: List[int]) -> None:
        """Close the stream's current segment; keep its update latencies at reference speed."""
        self.clock.mark()
        self.update_ref_ns.extend(ns * self.clock.factor for ns in cpu_ns)
        cpu_ns.clear()

    def check(self, ok: bool, message: str) -> None:
        """Count one output check; a failed check is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(message)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "times": self.times,
            "update_ref_ns": self.update_ref_ns,
            "update_wall_ns": self.update_wall_ns.tolist(),
            "probe_ns": self.clock.probes,
            "stream_changes": self.stream_changes,
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "position": self.position,
        }


# ----------------------------------------------------------------------
# Tracing hooks (traced jobs only)
# ----------------------------------------------------------------------
class _TracedJson:
    """``json`` as seen by ``checkpoint_io``, with ``dumps`` in an encode span."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def dumps(self, *args, **kwargs):
        with self._tracer.span("scenario.checkpoint_encode"):
            return json.dumps(*args, **kwargs)

    def __getattr__(self, name: str):
        return getattr(json, name)


def install_hooks(tracer: Tracer) -> None:
    """Span the library calls that happen inside the benchmark's own calls."""
    from repro.distributed.fast_network import FastBufferedMISNetwork

    instrument(
        tracer,
        [
            (GraphSpec, "build", "graph.build"),
            (ScenarioSpec, "materialize", "workloads.materialize"),
            (DynamicMIS, "apply", "core.apply"),
            (DynamicMIS, "apply_batch", "core.batch_apply"),
            (FastBufferedMISNetwork, "apply", "distributed.apply"),
            (checkpoint_io, "checkpoint_to_dict", "scenario.checkpoint_encode"),
        ],
    )
    checkpoint_io.json = _TracedJson(tracer)


class Spans:
    """Call-site spans; a no-op without a tracer."""

    def __init__(self, tracer: Optional[Tracer]) -> None:
        self.tracer = tracer

    def __call__(self, name: str):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.span(name)


# ----------------------------------------------------------------------
# In-process session jobs
# ----------------------------------------------------------------------
def window_fill(spec: ScenarioSpec) -> int:
    """Changes a sliding_window workload spends filling its window.

    They are all insertions into a graph that starts empty; the steady
    insert/delete churn the window workloads measure starts after them.
    """
    if spec.workload.kind != "sliding_window":
        return 0
    return spec.workload.params["window_size"]


def fill(session: Session, units: int, tracer: Optional[Tracer]) -> None:
    """Step ``units`` times untimed (part of the job, not of the stream figures)."""
    with Spans(tracer)("scenario.fill"):
        for _ in range(units):
            session.step()


def stream(session: Session, units: int, record: Record, tracer: Optional[Tracer]) -> None:
    """Step ``units`` times (closed loop), timing every step."""
    clock = record.clock
    step, wall, cpu = session.step, clock.wall, clock.cpu
    wall_ns, block = record.update_wall_ns, []
    name = tracer.name_id("scenario.step") if tracer is not None else None
    before = session.position
    record.stamp()
    for _ in range(units):
        c0 = cpu()
        w0 = wall()
        if tracer is not None:
            token = tracer.begin(name)
            step()
            tracer.end(token)
        else:
            step()
        w1 = wall()
        block.append(cpu() - c0)
        wall_ns.append(w1 - w0)
        if clock.since_mark() >= BLOCK_NS:
            record.updates(block)
    record.updates(block)
    record.stream_changes += session.position - before
    record.attempted += units


def session_run(
    spec: ScenarioSpec, path: str, record: Record, tracer: Optional[Tracer]
) -> None:
    """Set up, fill the window, stream half the rest, checkpoint to ``path``.

    The first of the ``CHECKPOINTS`` checkpoints ends this process's share
    of the job; the repeats only add samples.  The resume runs in a fresh
    process (``session_resume``), so it builds its graph cold, as a resume
    from a checkpoint file does.
    """
    span = Spans(tracer)
    job_start = record.stamp()
    with span("scenario.setup"):
        session = Session(spec)
    record.since("setup_s", job_start)
    filled = window_fill(spec)
    fill(session, filled, tracer)
    stream(session, (session.num_changes - filled) // 2, record, tracer)

    for repeat in range(CHECKPOINTS):
        started = record.stamp()
        with span("scenario.checkpoint_take"):
            checkpoint = session.checkpoint(full=True)
        with span("scenario.checkpoint_save"):
            save_checkpoint(path, checkpoint)
        record.since("checkpoint_s", started)
        record.attempted += 1
        del checkpoint
        if repeat == 0:
            record.since("job_s", job_start)
    record.counts["scenario.checkpoint_bytes"] = os.path.getsize(path)
    record.position = session.position


def session_resume(path: str, position: int, record: Record, tracer: Optional[Tracer]) -> str:
    """Load the checkpoint file, resume, stream the rest, verify; return the runner."""
    span = Spans(tracer)
    job_start = record.stamp()
    with span("scenario.checkpoint_load"):
        loaded = load_checkpoint(path)
    with span("scenario.resume"):
        resumed = Session.resume(loaded)
    record.since("resume_s", job_start)
    record.attempted += 1
    del loaded
    record.check(resumed.position == position, f"resumed at {resumed.position} != {position}")

    runner = resumed.spec.backend.runner
    backend = "core" if runner == "sequential" else "distributed"
    stream(resumed, resumed.num_changes - resumed.position, record, tracer)
    try:
        with span(f"{backend}.verify"):
            resumed.verify()
        record.check(True, "")
    except AssertionError as error:
        record.check(False, f"verify: {error}")
    record.since("job_s", job_start)

    check_resumed(resumed, record)
    cost_counts(resumed, record)
    record.counts["graph.edges"] = resumed.initial_graph.num_edges()
    record.counts["changes_per_materialize"] = resumed.num_changes
    return runner


def check_resumed(session: Session, record: Record) -> None:
    """The resumed run reached the end on exactly the replayed graph."""
    record.check(
        session.position == session.num_changes,
        f"stopped at {session.position} of {session.num_changes} changes",
    )
    expected = replay_on_graph(session.initial_graph, session.changes)
    record.check(expected == session.graph.copy(), "final graph != replay of the workload")


def cost_counts(session: Session, record: Record) -> None:
    """The backend's deterministic per-change cost counters."""
    summary = session.metrics_summary()
    if session.maintainer is not None:
        record.counts["core.adjustments_per_change"] = summary["mean_adjustments"]
        record.counts["core.influenced_per_change"] = summary["mean_influenced_size"]
        record.counts["core.update_work_per_change"] = summary["mean_update_work"]
    else:
        record.counts["distributed.rounds_per_change"] = summary["mean_rounds"]
        record.counts["distributed.broadcasts_per_change"] = summary["mean_broadcasts"]
        record.counts["distributed.bits_per_change"] = summary["mean_bits"]


SESSION_SPECS = {
    "churn-lifecycle-5k": lifecycle_spec,
    "window-stream-seq": seq_spec,
    "window-stream-protocol": protocol_spec,
}


# ----------------------------------------------------------------------
# Service fleet
# ----------------------------------------------------------------------
class Daemon:
    """A ``repro-mis serve`` daemon on a unix socket in the working directory."""

    def __init__(self, name: str) -> None:
        self.address = f"unix:{name}.sock"
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--spool", f"{name}-spool",
                "--bind", self.address,
                "--shards", str(FLEET_SHARDS),
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        line = self.process.stdout.readline()
        if not line.startswith("listening on"):
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")

    def stop(self) -> None:
        if self.process.poll() is None:
            try:
                with ServiceClient(self.address, timeout=30.0) as client:
                    client.shutdown()
            except Exception:  # noqa: BLE001 - fall through to terminate
                self.process.terminate()
        try:
            self.process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()


def fleet_life(specs: List[ScenarioSpec], record: Record, span: Spans) -> Daemon:
    """Start a daemon and create every session (one set-up sample).

    The daemon and its shards start counting CPU time at zero, so watching
    them from here charges set-up with all of their start-up work.
    """
    started = record.stamp()
    with span("service.start"):
        daemon = Daemon("fleet")
    record.fleet.watch(process_tree(daemon.process.pid))
    try:
        with ServiceClient(daemon.address) as client:
            for spec in specs:
                with span("service.create"):
                    client.create(spec.name, spec.to_dict())
    except BaseException:
        record.fleet.bank()
        daemon.stop()
        raise
    record.since("setup_s", started)
    record.attempted += len(specs)
    return daemon


def stop_fleet(daemon: Daemon, record: Record) -> None:
    record.fleet.bank()
    daemon.stop()


def run_fleet(args, record: Record, tracer: Optional[Tracer]) -> str:
    span = Spans(tracer)
    specs = fleet_specs(args.seed, args.seconds)
    names = [spec.name for spec in specs]
    record.counts["changes_per_materialize"] = specs[0].workload.num_changes

    for _ in range(FLEET_SETUPS - 1):
        daemon = fleet_life(specs, record, span)
        try:
            with ServiceClient(daemon.address) as client:
                for name in names:
                    client.close_session(name)
        finally:
            stop_fleet(daemon, record)

    job_start = record.stamp()
    daemon = fleet_life(specs, record, span)
    try:
        with ServiceClient(daemon.address) as client:
            for name in names:
                client.apply_batch(name, steps=window_fill(specs[0]) // FLEET_BATCH)
            record.attempted += len(names)
            units = -(-specs[0].workload.num_changes // FLEET_BATCH)
            mis = drive_fleet(client, names, max(1, units // FLEET_SPOOL_CYCLES), record, tracer)
            record.since("job_s", job_start)
            stats = client.stats()
            record.attempted += 1
            for name in names:
                client.close_session(name)
        record.counts["service.ops"] = stats["ops"]
        record.counts["service.evictions"] = stats["evictions"]
        record.counts["service.rehydrations"] = stats["rehydrations"]
    finally:
        stop_fleet(daemon, record)

    for spec in specs:
        replay = Session(spec)
        fill(replay, window_fill(spec) // FLEET_BATCH, tracer)
        with span("scenario.replay"):
            while replay.step() is not None:
                pass
        try:
            replay.verify()
            record.check(True, "")
        except AssertionError as error:
            record.check(False, f"{spec.name} replay verify: {error}")
        result = mis[spec.name]
        record.check(
            result["position"] == result["num_changes"] == replay.position,
            f"{spec.name} stopped at {result['position']} of {result['num_changes']}",
        )
        expected = sorted((encode_node(node) for node in replay.mis()), key=repr)
        record.check(result["mis"] == expected, f"{spec.name}: daemon MIS != in-process replay")
    summary = replay.metrics_summary()
    record.counts["core.adjustments_per_change"] = summary.get(
        "mean_batch_adjustments_per_change", 0.0
    )
    return "sequential"


def drive_fleet(
    client: ServiceClient,
    names: List[str],
    period: int,
    record: Record,
    tracer: Optional[Tracer],
) -> Dict[str, Any]:
    """Stream every session to exhaustion; return each one's final ``mis`` query.

    Closed loop over one connection: one ``apply_batch`` per live session in
    turn, each sent after the last returns.  With one request in flight the
    client, the daemon and the busy shard never contend for two cores (two
    connections swung changes_per_s by 45% between runs).  Every ``period``
    turns, the next session in line takes a ``checkpoint`` op and an
    ``evict`` -> ``query`` rehydrate cycle, so those samples spread over the
    whole stream.
    """
    span = Spans(tracer)
    clock = record.clock
    wall, cpu = clock.wall, clock.cpu
    wall_ns, block = record.update_wall_ns, []
    name_id = tracer.name_id("service.request") if tracer is not None else None
    live = list(names)
    turns = 0
    record.stamp()
    while live:
        for name in list(live):
            c0 = cpu()
            w0 = wall()
            token = tracer.begin(name_id) if tracer is not None else None
            status = client.apply_batch(name, steps=1)
            if token is not None:
                tracer.end(token)
            w1 = wall()
            block.append(cpu() - c0)
            wall_ns.append(w1 - w0)
            record.attempted += 1
            record.stream_changes += status["applied"] * FLEET_BATCH
            if status["done"]:
                live.remove(name)
            if clock.since_mark() >= BLOCK_NS:
                record.updates(block)
        turns += 1
        if turns % period == 0:
            record.updates(block)
            name = names[(turns // period) % len(names)]
            started = record.stamp()
            with span("service.checkpoint_op"):
                client.checkpoint(name)
            record.since("checkpoint_s", started)
            started = record.stamp()
            with span("service.evict"):
                client.evict(name)
            with span("service.rehydrate"):
                status = client.query(name, "status")
            record.since("resume_s", started)
            record.attempted += 3
            record.check(status["live"], f"{name} did not rehydrate")
    record.updates(block)
    mis = {}
    for name in names:
        mis[name] = client.query(name, "mis")
        record.attempted += 1
    return mis


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
CHECKPOINT_FILE = "session.ckpt.json"


def run_job(args) -> Dict[str, Any]:
    record = Record(CpuClock() if args.workload == "service-fleet" else None)
    tracer = None
    if args.trace:
        phase = "resume" if args.resume else "run"
        tracer = Tracer(f"{args.workload}:seed={args.seed}:rep={args.rep}:{phase}")
        install_hooks(tracer)
    if args.workload == "service-fleet":
        runner = run_fleet(args, record, tracer)
    elif args.workload not in SESSION_SPECS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    elif args.resume:
        runner = session_resume(CHECKPOINT_FILE, args.position, record, tracer)
    else:
        spec = SESSION_SPECS[args.workload](args.seed, args.seconds, args.rep)
        record.counts["changes_per_materialize"] = spec.workload.num_changes
        session_run(spec, CHECKPOINT_FILE, record, tracer)
        runner = spec.backend.runner
    record.clock.close()
    result = record.to_dict()
    result["peak_rss_kb"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    if tracer is not None:
        result["layers"] = [layers.layer_metrics(tracer.rows(), runner, record.counts)]
        if args.spans:
            tracer.write_jsonl(args.spans)
    return result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    parser.add_argument(
        "--resume", action="store_true",
        help=f"resume the session from {CHECKPOINT_FILE} in the working directory",
    )
    parser.add_argument("--position", type=int, default=0, help="position the resume must reach")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    try:
        result = run_job(args)
    except Exception as error:  # noqa: BLE001 - reported as a failed job
        import traceback

        traceback.print_exc()
        result = {"attempted": 1, "failed": 1, "failures": [f"{type(error).__name__}: {error}"]}
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
