"""Span recorder that wraps the toolkit's public entry points from outside.

Each wrapped callable records one span per call: name, start, end, parent
span and the workload operation (frame or control step) it served. Spans live
in flat arrays while the run goes and are written out once at the end.
Self time of a span is its duration minus the durations of its direct
children; calls are strictly nested on one thread, so children never overlap.

Wrapping happens at module-attribute level; for methods, on the class. Names
that other toolkit modules imported with ``from x import y`` are rebound
there too, so internal calls go through the wrapper. A target that no longer
exists is reported as absent with zero calls instead of failing the run.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

def span_name(module: str, attr: str) -> str:
    """Layer-qualified span name, e.g. ``tracker.Tracker.detect``."""
    return f"{module.rsplit('.', 1)[-1]}.{attr}"


class SpanRecorder:
    """In-memory span store plus per-name counters filled by result hooks."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.current_op = -1
        self.counts: dict[str, float] = {}
        self._installed: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn, hook=None):
        """Return ``fn`` wrapped so that every call records a span."""
        self.names.append(name)
        nid = len(self.names) - 1
        stack = self.stack
        name_id, parent, op, start, end = (
            self.name_id, self.parent, self.op, self.start, self.end
        )
        recorder = self

        def traced(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(recorder.current_op)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            if hook is not None:
                try:
                    hook(recorder, args, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    recorder.count("hook_errors." + name)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self, targets, hooks: dict) -> None:
        """Wrap each ``(module, attribute path)`` target; missing ones become absent."""
        for module_name, attr in targets:
            name = span_name(module_name, attr)
            module = sys.modules.get(module_name)
            owner = module
            *path, leaf = attr.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf] if path else getattr(owner, leaf)
            except (AttributeError, KeyError, TypeError):
                self.absent.append(name)
                continue
            wrapped = self.wrap(name, original, hooks.get(name))
            self._rebind(owner, leaf, wrapped)
            if not path:
                # rebind names other toolkit modules imported with ``from``
                for other_name, other in list(sys.modules.items()):
                    if other is module or not other_name.startswith("diverkit"):
                        continue
                    for key, value in list(vars(other).items()):
                        if value is original:
                            self._rebind(other, key, wrapped)

    def _rebind(self, owner, key: str, value) -> None:
        self._installed.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._installed):
            setattr(owner, key, value)
        self._installed.clear()

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds."""
        ids = np.array(self.name_id, dtype=np.int64)
        parents = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        child = np.zeros(len(dur))
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        incl = np.bincount(ids, weights=dur, minlength=n)
        self_s = np.bincount(ids, weights=dur - child, minlength=n)
        out = {
            name: {"calls": int(calls[i]), "incl_s": float(incl[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }
        for name in self.absent:
            out[name] = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "absent": True}
        return out

    def save(self, path) -> None:
        """Write every span as arrays, times relative to the first span."""
        start = np.array(self.start)
        origin = start[0] if len(start) else 0.0
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int64),
            op=np.array(self.op, dtype=np.int64),
            start=start - origin,
            end=np.array(self.end) - origin,
        )
