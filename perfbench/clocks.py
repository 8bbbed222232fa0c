"""Clocks for the benchmark's gated times: CPU time at reference speed.

:class:`CpuClock` sums the CPU time of this process and the processes it
watches (on service-fleet, the daemon and its shards).  Linux only: another
process's CPU time is read through its process CPU clock, and its
descendants are found in ``/proc``.  :class:`RefClock` scales CPU time by
how fast a fixed probe ran meanwhile, which takes the host's speed swings
out of the figures.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path
from typing import Dict, List, Tuple


def process_cpu_clock(pid: int) -> int:
    """The clock id of process ``pid``'s CPU time (glibc's ``clock_getcpuclockid``)."""
    return ((~pid) << 3) | 2


def process_tree(root: int) -> List[int]:
    """``root`` and every process descended from it."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path("/proc", entry, "stat").read_text()
            except OSError:
                continue  # exited meanwhile
            parent = int(stat.rsplit(")", 1)[1].split()[1])
            children.setdefault(parent, []).append(int(entry))
    tree, todo = [], [root]
    while todo:
        pid = todo.pop()
        tree.append(pid)
        todo.extend(children.get(pid, ()))
    return tree


class CpuClock:
    """CPU time (user + system, ns) of this process plus the processes it watches.

    A watched process is read through its process CPU clock while it lives;
    ``bank`` keeps the watched totals before those processes exit, so the
    clock never runs backwards.
    """

    def __init__(self) -> None:
        self._clocks: List[int] = []
        self._banked = 0

    def watch(self, pids: List[int]) -> None:
        self._clocks = [process_cpu_clock(pid) for pid in pids]

    def bank(self) -> None:
        self._banked += sum(time.clock_gettime_ns(clock) for clock in self._clocks)
        self._clocks = []

    def __call__(self) -> int:
        read = time.clock_gettime_ns
        return time.process_time_ns() + self._banked + sum(read(clock) for clock in self._clocks)


def probe_work() -> int:
    """A fixed piece of dict-and-sort Python work, like the library's own."""
    table = {}
    value = 12345
    for index in range(1500):
        value = (value * 1103515245 + 12345) & 0x7FFFFFFF
        table[value] = index
    total = 0
    for key in sorted(table):
        total += table[key] & 7
    return total


def probe_ns() -> int:
    """CPU time of one run of the probe work, here and now."""
    started = time.process_time_ns()
    probe_work()
    return time.process_time_ns() - started


#: About the probe's CPU time on a calm 2-vCPU x86-64 VM (CPython 3.11).  It
#: only sets the scale: reference-speed figures read as seconds on that VM.
REFERENCE_PROBE_NS = 600_000
#: Wall seconds between probes: short next to the host's speed swings, long
#: next to the probe (a ~3% overhead).
PROBE_INTERVAL_S = 0.02


class RefClock:
    """CPU time at reference speed, with the wall time next to it.

    The host's speed swings: on a shared 2-vCPU VM, two-second medians of
    the same probe work ranged from 0.8 to 1.4 times their overall median
    within one minute, in CPU time as much as in wall time, so neither
    steadies the figures.  A wall-clock
    timer runs the probe every ``PROBE_INTERVAL_S``, also in the middle of
    a long library call.  ``mark`` closes a segment: the CPU time since the
    last mark, scaled by ``REFERENCE_PROBE_NS`` over the median probe taken
    in the segment (the last probe, if none was).  An interval between two
    marks is thus measured at the speed the probe saw during it.  The
    probes' own time is left out of both clocks.  One per process: it owns
    ``SIGALRM`` until ``close``.
    """

    def __init__(self, cpu=time.process_time_ns) -> None:
        self._raw_cpu = cpu
        #: Scale of the last closed segment (reference probe / local probe).
        self.factor = 1.0
        self.probes: List[int] = []
        self._segment: List[int] = []
        self._ref_ns = 0.0
        self._probing_cpu = 0
        self._probing_wall = 0
        self.probe()
        self._cpu = self.cpu()
        signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def probe(self) -> None:
        """Time the probe work now (the timer calls this)."""
        wall = time.perf_counter_ns()
        spent = probe_ns()
        self.probes.append(spent)
        self._segment.append(spent)
        self._probing_cpu += spent
        self._probing_wall += time.perf_counter_ns() - wall

    def cpu(self) -> int:
        """Raw CPU ns, probes left out."""
        return self._raw_cpu() - self._probing_cpu

    def wall(self) -> int:
        """Wall ns, probes left out."""
        return time.perf_counter_ns() - self._probing_wall

    def mark(self) -> Tuple[int, float]:
        """Close a segment; return (wall ns, reference-speed CPU ns) so far."""
        wall, cpu = self.wall(), self.cpu()
        probes = sorted(self._segment or self.probes[-1:])
        self._segment = []
        self.factor = REFERENCE_PROBE_NS / probes[len(probes) // 2]
        self._ref_ns += (cpu - self._cpu) * self.factor
        self._cpu = cpu
        return wall, self._ref_ns

    def since_mark(self) -> int:
        """Raw CPU ns since the last mark."""
        return self.cpu() - self._cpu
