"""In-memory span recording for the traced benchmark run.

A :class:`Tracer` records named spans (start, end, parent, run id) into
column arrays, so a few hundred thousand spans stay a few megabytes.  Every
traced job process is single-threaded and has its own tracer.  Spans are
opened around calls into the library's public functions: directly at the
benchmark's call sites, or through :func:`instrument`, which wraps a public
method or module function for the lifetime of one traced process.  Nothing
here runs in an untraced run.

:func:`self_times` computes each span's self time: its duration minus the
part of its interval that its child spans cover.
"""

from __future__ import annotations

import json
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

NO_PARENT = -1


class Tracer:
    """Record nestable named spans; one tracer per traced process."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._name = array("i")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("i")
        self._stack: List[int] = []

    def name_id(self, name: str) -> int:
        """The interned id of ``name``."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, name_id: int) -> int:
        """Open a span (child of the innermost open span)."""
        index = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self._end.append(0)
        self._stack.append(index)
        self._start.append(time.perf_counter_ns())
        return index

    def end(self, index: int) -> None:
        """Close the span ``begin`` returned (spans close innermost first)."""
        self._end[index] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """``with tracer.span(name):`` -- a span around the block."""
        index = self.begin(self.name_id(name))
        try:
            yield
        finally:
            self.end(index)

    def rows(self) -> List[Tuple[int, str, int, int, int]]:
        """Every closed span as ``(index, name, start_ns, end_ns, parent)``."""
        return [
            (index, self.names[self._name[index]], self._start[index], self._end[index],
             self._parent[index])
            for index in range(len(self._start))
            if self._end[index]
        ]

    def write_jsonl(self, path: str) -> int:
        """Append every span to ``path`` as one JSON line; returns the span count."""
        rows = self.rows()
        with open(path, "a", encoding="utf-8") as handle:
            for index, name, start, end, parent in rows:
                handle.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "id": index,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )
        return len(rows)


def instrument(tracer: Tracer, targets: Sequence[Tuple[object, str, str]]) -> None:
    """Wrap ``owner.attribute`` in a span named ``name`` for each target.

    ``owner`` is a class (the wrapper then applies to every instance) or a
    module (for a module-level function).  The wrappers stay for the life of
    the traced process.
    """
    for owner, attribute, name in targets:
        original = getattr(owner, attribute)
        setattr(owner, attribute, _wrapped(tracer, tracer.name_id(name), original))


def _wrapped(tracer: Tracer, name_id: int, function: Callable) -> Callable:
    begin, end = tracer.begin, tracer.end

    def wrapper(*args, **kwargs):
        index = begin(name_id)
        try:
            return function(*args, **kwargs)
        finally:
            end(index)

    return wrapper


def covered(interval: Tuple[int, int], children: Sequence[Tuple[int, int]]) -> int:
    """Length of the part of ``interval`` that the union of ``children`` covers."""
    low, high = interval
    total = 0
    reach = low
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(rows: Sequence[Tuple[int, str, int, int, int]]) -> Dict[int, int]:
    """Self time (ns) of every span, keyed by its index."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for _, _, start, end, parent in rows:
        if parent != NO_PARENT:
            children.setdefault(parent, []).append((start, end))
    return {
        index: (end - start) - covered((start, end), children.get(index, ()))
        for index, _, start, end, _ in rows
    }
