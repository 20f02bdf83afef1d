"""In-memory span recorder for the traced run.

A span is (name, operation id, parent span index, start ns, end ns); a
parent of -1 marks a root. Spans are kept in memory, one typed array per
field (40 bytes a span), and written out once, when the run ends.
"""

from __future__ import annotations

from array import array
from time import perf_counter_ns as now

import numpy as np

FIELDS = ("name", "op", "parent", "start", "end")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._cols = {f: array("q") for f in FIELDS}

    def __len__(self) -> int:
        return len(self._cols["name"])

    def add(self, name: str, op_id: int, parent: int, start: int, end: int) -> int:
        """Record a finished span; returns its index."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        c = self._cols
        c["name"].append(nid)
        c["op"].append(op_id)
        c["parent"].append(parent)
        c["start"].append(start)
        c["end"].append(end)
        return len(c["name"]) - 1

    def open(self, name: str, op_id: int, parent: int = -1) -> int:
        """Start a span now; returns its index for ``close`` and for children."""
        return self.add(name, op_id, parent, now(), 0)

    def close(self, index: int) -> None:
        self._cols["end"][index] = now()

    def duration(self, index: int) -> int:
        return self._cols["end"][index] - self._cols["start"][index]

    def arrays(self) -> dict[str, np.ndarray]:
        a = {f: np.frombuffer(col, dtype=np.int64).copy() for f, col in self._cols.items()}
        dur = a["end"] - a["start"]
        return {"names": np.asarray(self.names), **a, "self": dur - children_time(a["parent"], dur)}

    def save(self, path) -> None:
        a = self.arrays()
        del a["self"]
        np.savez(path, **a)


def children_time(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    """Time each span's children cover.

    One caller runs everything in sequence, so the children of a span never
    overlap each other and their union is the sum of their durations.
    """
    has_parent = parent >= 0
    return np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur)).astype(
        np.int64
    )
