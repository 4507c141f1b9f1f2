"""In-memory span recorder for the benchmark's traced runs.

A span is one call into a layer of the program, recorded from outside it:
name, start and end (``perf_counter_ns``) and the span that was open on the
same thread when it began.  Spans live in flat integer arrays while the run
goes on and are written out once, when the run ends, so recording costs a few
appends per call and no I/O.

The recorder wraps public methods on objects the benchmark itself builds and
hands to the program (a predictor, a routing policy, a coordinator, an
engine); the program's own code is not touched.
"""

from __future__ import annotations

import functools
import threading
import time
from array import array
from pathlib import Path

import numpy as np


class SpanRecorder:
    """Collects spans and counters; safe to call from several threads."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("q")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self.counters: dict[str, int] = {}
        self._local = threading.local()
        self._append_lock = threading.Lock()

    # ----------------------------------------------------------- recording

    def _name_id(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        with self._append_lock:
            index = len(self._start)
            self._name.append(self._name_id(name))
            self._parent.append(stack[-1] if stack else -1)
            self._start.append(time.perf_counter_ns())
            self._end.append(0)
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._end[index] = time.perf_counter_ns()
        self._stack().pop()

    def span(self, name: str):
        """Context manager recording one span around a block."""
        return _Span(self, name)

    def wrap(self, owner: object, method: str, name: str, rows=None) -> None:
        """Replace ``owner.method`` by a spanned call to the original.

        ``rows`` maps the call's first argument to a count added to the
        ``<name>.rows`` counter (the batch size of a vectorized call).
        """
        original = getattr(owner, method)
        open_span, close_span = self._open, self._close
        counters = self.counters
        rows_key = f"{name}.rows"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if rows is not None:
                counters[rows_key] = counters.get(rows_key, 0) + rows(args[0])
            index = open_span(name)
            try:
                return original(*args, **kwargs)
            finally:
                close_span(index)

        setattr(owner, method, traced)

    # ----------------------------------------------------------- reading

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.array(self._name, dtype=np.int64),
            "start_ns": np.array(self._start, dtype=np.int64),
            "end_ns": np.array(self._end, dtype=np.int64),
            "parent": np.array(self._parent, dtype=np.int64),
        }

    def summary(self) -> dict:
        """Per-name span statistics (see :func:`summarize`) plus counters."""
        return {"spans": summarize(self.names, self.arrays()), "counters": dict(self.counters)}

    def write(self, path: Path) -> None:
        """Write every span and counter to ``path`` (``numpy.savez``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as handle:
            np.savez(
                handle,
                names=np.array(self.names, dtype=str),
                counter_names=np.array(sorted(self.counters), dtype=str),
                counter_values=np.array([self.counters[k] for k in sorted(self.counters)], dtype=np.int64),
                **self.arrays(),
            )


def summarize(names: list[str], columns: dict[str, np.ndarray]) -> dict:
    """Per-name span count, total and self time, and duration quantiles.

    Self time is a span's duration minus the durations of its direct
    children (children are nested calls on the same thread).
    """
    durations = (columns["end_ns"] - columns["start_ns"]).astype(np.float64) / 1e9
    child_time = np.zeros(len(durations))
    parents = columns["parent"]
    has_parent = parents >= 0
    np.add.at(child_time, parents[has_parent], durations[has_parent])
    summary = {}
    for name_id, name in enumerate(names):
        mask = columns["name"] == name_id
        spans = durations[mask]
        summary[name] = {
            "count": int(mask.sum()),
            "total_s": float(spans.sum()),
            "self_s": float((spans - child_time[mask]).sum()),
            "p50_ms": float(np.median(spans) * 1e3) if len(spans) else 0.0,
            "max_ms": float(spans.max() * 1e3) if len(spans) else 0.0,
        }
    return summary


def load_summary(path: Path) -> dict:
    """Read a file written by :meth:`SpanRecorder.write` back into a summary."""
    with np.load(path) as data:
        names = [str(name) for name in data["names"]]
        columns = {key: data[key] for key in ("name", "start_ns", "end_ns", "parent")}
        counters = {
            str(key): int(value) for key, value in zip(data["counter_names"], data["counter_values"])
        }
    return {"spans": summarize(names, columns), "counters": counters}


class _Span:
    __slots__ = ("_recorder", "_name", "_index")

    def __init__(self, recorder: SpanRecorder, name: str) -> None:
        self._recorder = recorder
        self._name = name

    def __enter__(self) -> "_Span":
        self._index = self._recorder._open(self._name)
        return self

    def __exit__(self, *exc) -> None:
        self._recorder._close(self._index)
