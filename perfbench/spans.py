"""In-memory span recorder for the traced run.

A span is (name, start, end, parent).  Self time, the span's duration minus
the time its child spans cover, is summed per name as spans close, so the
per-layer totals need no second pass over the spans.  Full spans are kept
for the first traced pass only: every pass repeats the same work, because
each pass builds its monads afresh.
"""

import json
import sys
from array import array
from time import perf_counter


class Spans:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.self_s = []
        self.count = []
        self.keep = True
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []  # [kept index or -1, name id, start, child time]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.count.append(0)
        return self._ids[name]

    def enter(self, nid: int) -> None:
        idx = -1
        if self.keep:
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1][0] if self._stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
        self._stack.append([idx, nid, perf_counter(), 0.0])

    def exit(self) -> None:
        t = perf_counter()
        idx, nid, start, child = self._stack.pop()
        dur = t - start
        if idx >= 0:
            self.start[idx] = start
            self.end[idx] = t
        self.self_s[nid] += dur - child
        self.count[nid] += 1
        if self._stack:
            self._stack[-1][3] += dur

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        enter, exit_ = self.enter, self.exit

        def wrapped(*args, **kwargs):
            enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        wrapped.__wrapped__ = fn
        return wrapped

    def totals(self, name: str) -> tuple:
        """(count, self seconds) summed over every span of this name."""
        nid = self._ids.get(name)
        return (0, 0.0) if nid is None else (self.count[nid], self.self_s[nid])

    def write(self, path: str) -> None:
        """Kept spans: a JSON header line, then name/parent/start/end arrays.

        Times are seconds from the first kept span's start.
        """
        base = self.start[0] if self.start else 0.0
        start = array("d", (s - base for s in self.start))
        end = array("d", (e - base for e in self.end))
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": ["name:uint16", "parent:int32", "start:float64", "end:float64"],
                  "byteorder": sys.byteorder}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, start, end):
                arr.tofile(fh)
