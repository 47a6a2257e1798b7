"""Outside-in span tracer.

It wraps callables of the library from outside, without changing the
library's source. Spans are kept in memory, in flat arrays, with name,
start, end and parent. A span's self time is its duration minus the time
covered by its child spans. Every span belongs to the phase named by its
root span, so one layer's figures can be split by phase.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self._undo: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(self.clock())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around a block of the caller's code, such as a phase."""
        i = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(i)

    def phase(self) -> str | None:
        """Name of the root span the current call runs under."""
        return self.names[self.name[self._stack[0]]] if self._stack else None

    def count(self, key: str, value: float = 1) -> None:
        """Add to a counter kept per phase."""
        self.counters[(self.phase(), key)] += value

    def peak(self, key: str, value: float) -> None:
        """Raise a counter kept per phase to at least ``value``."""
        k = (self.phase(), key)
        self.counters[k] = max(self.counters[k], value)

    def wrapper(self, original, name: str, pre=None, post=None):
        """A traced stand-in for ``original``. ``pre(*args)`` runs before the
        span opens; ``post(state, result, *args)`` runs after it closes, with
        what ``pre`` returned, so neither is counted in the span."""
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            state = pre(*args, **kwargs) if pre is not None else None
            i = tracer._open(nid)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(i)
            if post is not None:
                post(state, result, *args, **kwargs)
            return result

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap_method(self, cls, attr: str, name: str, pre=None, post=None) -> None:
        self.patch(cls, attr, self.wrapper(cls.__dict__[attr], name, pre, post))

    def wrap_function(self, func, name: str, package: str, pre=None, post=None) -> None:
        """Wrap ``func`` in every loaded module of ``package`` that binds it
        by name, so callers that imported it directly are traced too."""
        traced = self.wrapper(func, name, pre, post)
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self.patch(module, attr, traced)

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[tuple[str, str], dict[str, float]]:
        """Per (phase, span name): calls, inclusive total_s and self_s."""
        n = len(self.name)
        covered = array("d", bytes(8 * n))
        root = array("q", bytes(8 * n))
        out: dict[tuple[str, str], dict[str, float]] = {}
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
                root[i] = root[p]
            else:
                root[i] = i
        for i in range(n):
            key = (self.names[self.name[root[i]]], self.names[self.name[i]])
            row = out.get(key)
            if row is None:
                row = out[key] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - covered[i]
        return out

    def write(self, path: str) -> int:
        """Write every span, gzip-compressed, as one tab-separated line: index,
        name, parent, start, end (seconds on the tracer's clock). Returns the
        span count."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index\tname\tparent\tstart\tend\n")
            for i in range(len(self.name)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t{self.parent[i]}\t"
                         f"{self.start[i]!r}\t{self.end[i]!r}\n")
        return len(self.name)
