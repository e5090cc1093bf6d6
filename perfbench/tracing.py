"""Span recording around public program calls, for the traced run.

The benchmark never edits the program. Instead it replaces public
callables (class attributes and module-level functions) with wrappers
that record one span per call: name, start, end and the index of the
enclosing span. Spans live in flat ``array`` columns so a soak run's
million-odd calls stay small in memory; :meth:`SpanRecorder.save`
writes them out when the run ends.

A span's self time is its duration minus the durations of its direct
children. Calls are synchronous and single-threaded in the measuring
process, so children nest inside their parent and never overlap, and
the self times of all spans add up to the durations of the root spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional

import numpy as np


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it.

    Every span name belongs to a layer (the program module it times) and
    to a group. A span is *outer* when no enclosing span is of the same
    group; counting only outer spans gives the calls into a group, not
    its re-entries (``FaultyNetwork.send`` calling ``MessageNetwork.send``,
    ``PlacementSession.solve`` calling ``PlacementEngine.solve``).
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layer_of: List[str] = []
        self.group_of: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_col = array("H")
        self.parent_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.outer_col = array("b")
        self._stack: List[int] = [-1]
        self._depth: Dict[str, int] = {}
        self.enabled = False

    def _name_id(self, name: str, layer: str, group: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
            self.group_of.append(group)
            self._depth.setdefault(group, 0)
        return nid

    def wrap(self, name: str, layer: str, fn: Callable, group: Optional[str] = None) -> Callable:
        """``fn`` wrapped so that each call records one span while the
        recorder is enabled."""
        group = group or name
        nid = self._name_id(name, layer, group)
        rec = self
        stack, depth = self._stack, self._depth
        names, parents = self.name_col, self.parent_col
        starts, ends, outers = self.start_col, self.end_col, self.outer_col
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not rec.enabled:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            outers.append(depth[group] == 0)
            ends.append(0.0)
            depth[group] += 1
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                depth[group] -= 1

        return traced

    def patch_method(self, cls: type, attr: str, name: str, layer: str, group: Optional[str] = None) -> None:
        """Trace ``cls.attr`` for every instance, and for subclasses that
        do not override it."""
        setattr(cls, attr, self.wrap(name, layer, cls.__dict__[attr], group))

    def patch_function(self, module, attr: str, name: str, layer: str, group: Optional[str] = None) -> None:
        """Trace a module-level function under every name it was
        imported as in the already-loaded ``repro`` modules."""
        original = getattr(module, attr)
        patch_everywhere(original, self.wrap(name, layer, original, group))

    # -- analysis -----------------------------------------------------------
    def columns(self):
        n = len(self.start_col)
        name = np.frombuffer(self.name_col, dtype=np.uint16, count=n).astype(np.int64)
        parent = np.frombuffer(self.parent_col, dtype=np.int32, count=n).astype(np.int64)
        start = np.frombuffer(self.start_col, dtype=np.float64, count=n)
        end = np.frombuffer(self.end_col, dtype=np.float64, count=n)
        outer = np.frombuffer(self.outer_col, dtype=np.int8, count=n).astype(bool)
        return name, parent, start, end, outer

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: its layer and group, outer calls, inclusive
        seconds of outer calls, and self seconds over all calls."""
        name, parent, start, end, outer = self.columns()
        dur = end - start
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(name[outer], minlength=k)
        incl = np.bincount(name[outer], weights=dur[outer], minlength=k)
        selfs = np.bincount(name, weights=dur - covered, minlength=k)
        return {
            n: {
                "layer": self.layer_of[i],
                "group": self.group_of[i],
                "calls": int(calls[i]),
                "s": float(incl[i]),
                "self_s": float(selfs[i]),
            }
            for i, n in enumerate(self.names)
        }

    def outside(self, span_name: str, ancestor_name: str) -> np.ndarray:
        """Durations of the ``span_name`` spans that no ``ancestor_name``
        span encloses."""
        name, parent, start, end, _ = self.columns()
        if span_name not in self._ids:
            return np.zeros(0)
        anc = self._ids.get(ancestor_name, -1)
        picked = []
        for idx in np.flatnonzero(name == self._ids[span_name]):
            p = parent[idx]
            while p >= 0 and name[p] != anc:
                p = parent[p]
            if p < 0:
                picked.append(idx)
        return (end - start)[picked]

    def save(self, path: str, meta: str) -> None:
        """Write every span and the name table as one ``.npz`` file."""
        name, parent, start, end, _ = self.columns()
        origin = start.min() if len(start) else 0.0
        np.savez_compressed(
            path,
            names=np.array(self.names),
            layers=np.array(self.layer_of),
            name=name.astype(np.uint16),
            parent=parent.astype(np.int32),
            start=start - origin,
            end=end - origin,
            meta=np.array(meta),
        )


def patch_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind every ``repro.*`` module attribute that is ``original``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
