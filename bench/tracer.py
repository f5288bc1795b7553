"""In-memory call spans around the public functions of the siqr modules.

The tracer replaces every public function of the package (the names in
each module's ``__all__``) with a wrapper that records one span per
call: name, start, end, parent span and operation id. The replacement is
made in every loaded siqr module that holds a reference to the function,
so calls that go through a name another module imported (``cli`` uses
``integrate`` from ``integrator``, ``observer`` uses
``integrate_driven``) are recorded too. Nothing in the package is edited
on disk and the originals are put back by ``uninstall``.

Spans are kept in flat arrays while the run lasts and are only
aggregated and written out at the end.
"""
from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np


def _steps(result):
    return result.states.shape[0] - 1


# Work counts read off a function's return value, by span name.
RESULT_COUNTS = {
    "integrator.integrate": ("integrator.steps", _steps),
    "integrator.integrate_driven": ("integrator.steps", _steps),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.current_op = -1
        self.errors: Counter = Counter()  # (span name, exception class) -> count
        self.counts: Counter = Counter()  # counter name -> total
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, span_name: str, fn):
        nid = self._intern(span_name)
        count = RESULT_COUNTS.get(span_name)
        start, end, names, parents, ops = self.start, self.end, self.name, self.parent, self.op
        stack, errors, counts = self._stack, self.errors, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                errors[(span_name, type(exc).__name__)] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if count is not None:
                counts[count[0]] += count[1](result)
            return result

        return traced

    def install(self, package: str = "siqr") -> None:
        """Wrap every public function of the package's loaded modules."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == package or key.startswith(package + "."))
        ]
        wrappers = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[fn] = self.wrap(f"{short}.{attr}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _arrays(self):
        return (
            np.array(self.name, dtype=np.int32),
            np.array(self.parent, dtype=np.int32),
            np.array(self.op, dtype=np.int32),
            np.array(self.start, dtype=float),
            np.array(self.end, dtype=float),
        )

    def summary(self) -> dict:
        """Calls, total time and self time per span name.

        Self time is a span's duration minus the time its direct child
        spans cover; children never overlap (one thread), so that is the
        sum of the children's durations.
        """
        names, parents, _, start, end = self._arrays()
        dur = end - start
        has_parent = parents >= 0
        child_time = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child_time
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=self_time, minlength=k)
        return {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        """Write every span to a compressed .npz file."""
        name, parent, op, start, end = self._arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name=name, parent=parent, op=op, start=start, end=end
        )
