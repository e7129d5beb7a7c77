"""In-memory span tracer for the traced benchmark run.

Each traced function is wrapped once and the wrapper is bound in every
``advgame`` module that holds the original object, because ``from .x import f``
copies the name at import time: wrapping only ``x.f`` would miss those callers
and the counts would come out short.

A span records (id, parent id, op index, name, start, end). Spans stay in
memory and are written out when the run ends. Per function the tracer keeps
``calls``, inclusive ``ms`` (outermost activation only, so recursion such as
``interval_form`` -> ``interval_form`` is not counted twice), ``self_ms``
(span minus its direct child spans) and one optional work count (``rows`` or
``grid_points``).
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.incl: list[float] = []
        self.self_time: list[float] = []
        self.work: list[int] = []
        self.op = -1  # index of the op in progress; -1 during set-up
        self.active = True  # off while the benchmark checks outputs
        self._stack: list[list] = []  # [name index, span id, child seconds]
        self._next_id = 0
        self._ids = array("q")
        self._parents = array("q")
        self._ops = array("q")
        self._name_idx = array("H")
        self._starts = array("d")
        self._ends = array("d")

    def install(self, module: str, name: str, work=None) -> None:
        """Wrap advgame.<module>.<name> wherever a module of the package binds it.

        work(bound_arguments) -> int gives the function's work count per call.
        """
        mod = importlib.import_module(f"advgame.{module}")
        fn = getattr(mod, name)
        idx = len(self.names)
        self.names.append(f"{module}.{name}")
        self.calls.append(0)
        self.incl.append(0.0)
        self.self_time.append(0.0)
        self.work.append(0)
        wrapper = self._wrap(fn, idx, work)
        for m in list(sys.modules.values()):
            if getattr(m, "__name__", "").split(".")[0] != "advgame":
                continue
            for attr, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, attr, wrapper)

    def _wrap(self, fn, idx: int, work):
        sig = inspect.signature(fn) if work is not None else None
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][1] if stack else -1
            frame = [idx, sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self.calls[idx] += 1
                self.self_time[idx] += dur - frame[2]
                if not any(f[0] == idx for f in stack):
                    self.incl[idx] += dur
                if stack:
                    stack[-1][2] += dur
                if sig is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    self.work[idx] += int(work(bound.arguments))
                self._ids.append(sid)
                self._parents.append(parent)
                self._ops.append(self.op)
                self._name_idx.append(idx)
                self._starts.append(start)
                self._ends.append(end)

        return wrapper

    def stats(self) -> dict[str, dict[str, float]]:
        return {
            name: {"calls": self.calls[i], "ms": 1e3 * self.incl[i],
                   "self_ms": 1e3 * self.self_time[i], "work": self.work[i]}
            for i, name in enumerate(self.names)
        }

    def write(self, path: str) -> None:
        """Spans as CSV: id,parent,op,name,start_s,end_s (times from the first span)."""
        t0 = min(self._starts) if self._starts else 0.0
        with open(path, "w") as fh:
            fh.write("id,parent,op,name,start_s,end_s\n")
            for k in range(len(self._ids)):
                fh.write(f"{self._ids[k]},{self._parents[k]},{self._ops[k]},"
                         f"{self.names[self._name_idx[k]]},"
                         f"{self._starts[k] - t0:.9f},{self._ends[k] - t0:.9f}\n")
