"""The repository benchmark: four full-path workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload window-stream-seq --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload in turn
    python3 perfbench/run.py --describe                       # the layer -> metric map

Each workload runs in fresh ``job.py`` processes inside a temp dir under
``.perfbench-tmp/`` that is removed afterwards: the in-process workloads run
several sessions, each as a run process and a resume process; service-fleet
runs one.  ``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs
the workload once untraced and once traced, and prints every per-layer
metric plus ``trace.overhead_frac`` (traced over untraced ``job_s``, minus
one).  ``--spans FILE`` additionally writes the traced spans as JSON lines.

The gated times are CPU time (user + system) of every process doing the
work -- the job process, and on service-fleet the daemon and its shards --
at reference speed: a timer runs a fixed piece of Python work every 20 ms,
and each stretch of CPU time is scaled by how fast that probe ran during it
(``clocks.py``).  On a shared host, two-second medians of the same work
ranged from 0.8 to 1.4 times their overall median within one minute, in CPU
time as much as in wall time; the probes take that swing out.  Every gated
time has a ``wall_`` twin that is printed, not gated, and the record line
carries the median probe time of the run.

The last line of the output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Exit code 0 when every output check held, 1 when one failed, 2 when the
library cannot be found (``src/repro`` missing) or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path
from typing import Any, Dict, List, Optional

import benchstats
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = (
    "churn-lifecycle-5k",
    "window-stream-seq",
    "window-stream-protocol",
    "service-fleet",
)

#: Every run ends within this many seconds; a job still running is killed.
RUN_BUDGET_S = 170.0
#: Sessions (each its own pair of processes) of the in-process workloads.
LIFECYCLE_SESSIONS = 4
WINDOW_SESSIONS = 3


def sessions(workload: str) -> int:
    if workload == "service-fleet":
        return 1
    return LIFECYCLE_SESSIONS if workload == "churn-lifecycle-5k" else WINDOW_SESSIONS


# ----------------------------------------------------------------------
# Jobs
# ----------------------------------------------------------------------
def run_job(
    workload: str, seed: int, seconds: int, rep: int, trace: int, jobdir: Path,
    deadline: float, spans: Optional[str], resume_at: Optional[int] = None,
) -> Dict[str, Any]:
    """One ``job.py`` process in ``jobdir``, in its own process group."""
    out = jobdir / ("resume.json" if resume_at is not None else "run.json")
    command = [
        sys.executable, str(HERE / "job.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--rep", str(rep), "--trace", str(trace), "--out", str(out),
    ]
    if resume_at is not None:
        command += ["--resume", "--position", str(resume_at)]
    if spans:
        command += ["--spans", spans]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH", "")])
    )
    process = subprocess.Popen(command, cwd=jobdir, env=env, start_new_session=True)
    try:
        process.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        return _failed_job(f"job killed after the {RUN_BUDGET_S:.0f} s run budget")
    finally:
        _reap_group(process.pid)
    if process.returncode != 0 or not out.exists():
        return _failed_job(f"job exited with code {process.returncode}")
    return json.loads(out.read_text(encoding="utf-8"))


def run_session(
    workload: str, seed: int, seconds: int, rep: int, trace: int, workdir: Path,
    deadline: float, spans: Optional[str],
) -> Dict[str, Any]:
    """One session: its run process and, for a session workload, its resume process."""
    jobdir = Path(tempfile.mkdtemp(prefix=f"job{rep}-t{trace}-", dir=workdir))
    first = run_job(workload, seed, seconds, rep, trace, jobdir, deadline, spans)
    if workload == "service-fleet" or first.get("failed"):
        return first
    second = run_job(
        workload, seed, seconds, rep, trace, jobdir, deadline, spans, first["position"]
    )
    return combine(first, second)


def combine(first: Dict[str, Any], second: Dict[str, Any]) -> Dict[str, Any]:
    """One session's result from its run and resume processes: samples pooled,
    ``job_s`` (each process's share of the job) summed."""
    times = {
        key: first.get("times", {}).get(key, []) + second.get("times", {}).get(key, [])
        for key in set(first.get("times", {})) | set(second.get("times", {}))
    }
    for key in ("job_s", "wall_job_s"):
        times[key] = [sum(times.get(key, ()))]
    return {
        "times": times,
        "update_ref_ns": first.get("update_ref_ns", []) + second.get("update_ref_ns", []),
        "update_wall_ns": first.get("update_wall_ns", []) + second.get("update_wall_ns", []),
        "probe_ns": first.get("probe_ns", []) + second.get("probe_ns", []),
        "stream_changes": first.get("stream_changes", 0) + second.get("stream_changes", 0),
        "attempted": first.get("attempted", 0) + second.get("attempted", 0),
        "failed": first.get("failed", 0) + second.get("failed", 0),
        "failures": first.get("failures", []) + second.get("failures", []),
        "peak_rss_kb": max(first.get("peak_rss_kb", 0), second.get("peak_rss_kb", 0)),
        "layers": first.get("layers", []) + second.get("layers", []),
    }


def _reap_group(group: int) -> None:
    """Stop whatever a job left running in its process group."""
    try:
        os.killpg(group, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _failed_job(message: str) -> Dict[str, Any]:
    return {"attempted": 1, "failed": 1, "failures": [message]}


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def _pool(results: List[Dict[str, Any]], key: str) -> List[float]:
    out: List[float] = []
    for result in results:
        out.extend(result.get(key, ()))
    return out


def _times(results: List[Dict[str, Any]], key: str) -> List[float]:
    return _pool([result.get("times", {}) for result in results], key)


def end_to_end(results: List[Dict[str, Any]]) -> Dict[str, float]:
    """The end-to-end metrics of a workload from its untraced sessions.

    The gated times are CPU time at reference speed of every process doing
    the work; each has a ``wall_`` twin, printed only.
    """
    changes = sum(result.get("stream_changes", 0) for result in results)
    out: Dict[str, float] = {}
    for prefix, key in (("", "update_ref_ns"), ("wall_", "update_wall_ns")):
        updates_ns = _pool(results, key)
        latencies = [ns / 1000.0 for ns in updates_ns]
        out[prefix + "setup_s"] = benchstats.median(_times(results, prefix + "setup_s"))
        out[prefix + "job_s"] = benchstats.median(_times(results, prefix + "job_s"))
        out[prefix + "changes_per_s"] = benchstats.rate([ns / 1e9 for ns in updates_ns], changes)
        out[prefix + "update_p50_us"] = benchstats.percentile(latencies, 0.5)
        out[prefix + "update_p99_us"] = benchstats.percentile(latencies, 0.99)
        out[prefix + "checkpoint_s"] = benchstats.median(_times(results, prefix + "checkpoint_s"))
        out[prefix + "resume_s"] = benchstats.median(_times(results, prefix + "resume_s"))
    out["peak_rss_mb"] = max((result.get("peak_rss_kb", 0) for result in results), default=0) / 1024.0
    return out


def per_layer(traced: List[Dict[str, Any]], untraced: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer metrics (each the median over the traced processes that saw
    it) plus the tracing overhead."""
    out = layers.merge(_pool(traced, "layers"))
    plain = benchstats.median(_times(untraced, "job_s"))
    spanned = benchstats.median(_times(traced, "job_s"))
    out["trace.overhead_frac"] = spanned / plain - 1.0 if plain else 0.0
    return out


def sample_counts(results: List[Dict[str, Any]]) -> Dict[str, int]:
    counts = {
        key: len(_times(results, key)) for key in ("setup_s", "job_s", "checkpoint_s", "resume_s")
    }
    counts["updates"] = len(_pool(results, "update_ref_ns"))
    return counts


def environment(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, Any]:
    try:
        numpy_version: Optional[str] = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _commit(),
    }


def _commit() -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return completed.stdout.strip() or None


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def run_workload(
    workload: str, seed: int, seconds: int, trace: int, spans: Optional[str]
) -> Dict[str, Any]:
    """Run one workload's sessions, print its report, return the result line."""
    deadline = time.monotonic() + RUN_BUDGET_S
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=scratch))
    try:
        untraced = [
            run_session(workload, seed, seconds, rep, 0, workdir, deadline, None)
            for rep in range(sessions(workload))
        ]
        traced = []
        if trace:
            traced = [
                run_session(workload, seed, seconds, rep, 1, workdir, deadline, spans)
                for rep in range(sessions(workload))
            ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    jobs = untraced + traced
    attempted = sum(result.get("attempted", 0) for result in jobs)
    failed = sum(result.get("failed", 0) for result in jobs)
    failures = [message for result in jobs for message in result.get("failures", ())]
    e2e = end_to_end(untraced)
    counts = sample_counts(untraced)
    latency = benchstats.latency_summary(_pool(untraced, "update_ref_ns"))
    e2e["error_rate"] = benchstats.error_rate(max(attempted, 1), failed)

    print(f"== {workload}  seed={seed}  seconds={seconds}  trace={trace}  (* gated)")
    units = {name: unit for name, unit, _ in layers.END_TO_END}
    units.update(layers.REPORTED)
    gated = {name for name, _, _ in layers.END_TO_END}
    notes = {
        "setup_s": f"ref CPU, median of {counts['setup_s']}",
        "job_s": f"ref CPU, median of {counts['job_s']}",
        "changes_per_s": "per ref CPU second of the streams",
        "checkpoint_s": f"ref CPU, median of {counts['checkpoint_s']}",
        "resume_s": f"ref CPU, median of {counts['resume_s']}",
        "update_p50_us": f"ref CPU, n={latency['n']}",
        "update_p99_us": f"ref CPU, n={latency['n']}, {latency['p99_beyond']} beyond"
        + ("" if latency["p99_supported"] else " -- fewer than 10: not reported"),
        "error_rate": f"{failed} of {attempted} operations",
    }
    if not latency["p99_supported"]:  # fewer than 10 samples beyond it: no p99
        e2e["update_p99_us"] = e2e["wall_update_p99_us"] = None
    for name, value in e2e.items():
        note = notes.get(name, notes.get(name[len("wall_"):], "").replace("ref CPU", "wall"))
        shown = "-" if value is None else f"{value:.6g}"
        print(f"{'*' if name in gated else '':>2} {name:<20} {shown:>16} {units[name]:<5} {note}")
    for message in failures[:10]:
        print(f"  FAILED: {message}")

    if trace:
        metrics = per_layer(traced, untraced)
        layer_units = dict(layers.PER_LAYER)
        for name, value in metrics.items():
            print(f"  {name:<36} {value:>16.6g} {layer_units[name]}")
        result_metrics = {
            name: {"value": value, "unit": layer_units[name]} for name, value in metrics.items()
        }
    else:
        result_metrics = {
            name: {"value": e2e[name], "unit": unit} for name, unit, _ in layers.END_TO_END
        }

    record = environment(workload, seed, seconds, trace)
    record.update(
        probe_ms=benchstats.median(_pool(untraced, "probe_ns")) / 1e6,
        samples=counts,
        reported={name: e2e[name] for name, _ in layers.REPORTED},
        failures=failures[:10],
    )
    print("# record " + json.dumps(record, sort_keys=True))
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": result_metrics,
    }


def describe() -> None:
    print("layer -> per-layer metrics -> end-to-end metrics it should move")
    for layer, prefix, moves, most, little in layers.LAYER_MAP:
        names = ", ".join(name for name, _ in layers.PER_LAYER if name.startswith(prefix))
        print(f"{layer}\n  metrics: {names}\n  moves:   {moves}")
        print(f"  most work on: {most}\n  little on:    {little}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="write traced spans to this JSONL file")
    parser.add_argument("--describe", action="store_true", help="print the layer map and exit")
    args = parser.parse_args(argv)
    if args.describe:
        describe()
        return 0
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the library is missing ({SRC / 'repro'} not found)", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    spans = None
    if args.spans:
        spans = str(Path(args.spans).resolve())
        Path(spans).write_text("", encoding="utf-8")  # every traced process appends
    results = []
    for name in names:
        results.append(run_workload(name, args.seed, args.seconds, args.trace, spans))
        sys.stdout.flush()
    if len(results) == 1:
        line = results[0]
    else:
        line = {
            "correct": all(result["correct"] for result in results),
            "attempted": sum(result["attempted"] for result in results),
            "failed": sum(result["failed"] for result in results),
            "metrics": {
                f"{name}/{metric}": value
                for name, result in zip(names, results)
                for metric, value in result["metrics"].items()
            },
        }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
