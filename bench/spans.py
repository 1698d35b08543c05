"""Spans around kneserchrom functions, wrapped from outside the package.

``install`` replaces a function by a wrapper that records one span per
call: its name, its parent (the span open when it started), its start and
end times, and whether it returned something other than None.  The wrapper
is bound under every name that refers to the function in every loaded
``kneserchrom`` module, because ``catalog``, ``kneser`` and ``generate``
import names directly and would otherwise keep calling the original.

Spans live in flat arrays until ``totals`` folds them into per-name calls,
inclusive time and self time (a span's duration minus the time its child
spans cover).  Only the standard library is used.
"""

from __future__ import annotations

import sys
import time
from array import array


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array("H")  # name index, per span
        self.parent = array("l")  # index of the enclosing span, -1 at a root
        self.start = array("d")
        self.end = array("d")
        self.found = bytearray()  # 1 when the call returned a value other than None
        self._open: list[int] = []

    def wrap(self, fn, name: str):
        """``fn`` with one span recorded per call."""
        name_id = len(self.names)
        self.names.append(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        found, open_spans, clock = self.found, self._open, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(name_id)
            parent.append(open_spans[-1] if open_spans else -1)
            end.append(0.0)
            found.append(0)
            open_spans.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                open_spans.pop()
            if result is not None:
                found[idx] = 1
            return result

        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, non-None results."""
        covered = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "found": 0} for name in self.names}
        for i, name_id in enumerate(self.name_of):
            row = out[self.names[name_id]]
            duration = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - covered[i]
            row["found"] += self.found[i]
        return out


def install(tracer: Tracer, targets) -> list[str]:
    """Wrap each ``(module, attribute, span name)`` target in place.

    A dotted attribute such as ``SeriesCache.get`` is replaced on its class;
    a plain one is rebound in every ``kneserchrom`` module bound to it.
    Returns the targets the package no longer has, which stay unwrapped.
    """
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "kneserchrom"]
    missing = []
    for module_name, attribute, span_name in targets:
        owner = sys.modules[module_name]
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None)
        if original is None:
            missing.append(f"{module_name}.{attribute}")
            continue
        wrapped = tracer.wrap(original, span_name)
        if path:
            setattr(owner, leaf, wrapped)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    return missing
