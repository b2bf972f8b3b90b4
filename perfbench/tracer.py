"""Span tracer that instruments the topogas package from outside.

Package modules import names directly (`from .feature_model import
forward_batch`), so a function is wrapped in every namespace that calls it,
not only where it is defined.  Each call becomes a span: name, parent span,
start, end and one optional number (rows, node count, method, or the rise of
the process peak RSS across the call).  Spans stay in memory until the run
ends; self time is a span's duration minus its children's durations.
"""

import functools
import resource
import time
from array import array

import numpy as np


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_of(fn) -> str:
    """The package module that defines fn; the CLI counts as the harness layer."""
    layer = fn.__module__.rsplit(".", 1)[-1]
    return "harness" if layer == "cli" else layer


class Tracer:
    def __init__(self):
        self.names: list = []
        self.layers: list = []
        self._name_ids: dict = {}
        self._wrappers: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self._stack = [-1]

    def _intern(self, name: str, layer: str) -> int:
        key = (layer, name)
        if key not in self._name_ids:
            self._name_ids[key] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._name_ids[key]

    def wrap(self, fn, measure=None, rss: bool = False):
        """Wrap fn once; measure(args, kwargs) gives the span's number."""
        if id(fn) in self._wrappers:
            return self._wrappers[id(fn)]
        name_id = self._intern(fn.__name__, layer_of(fn))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(self.start)
            self.name_id.append(name_id)
            self.parent.append(self._stack[-1])
            self.value.append(0.0 if measure is None else float(measure(args, kwargs)))
            self.end.append(0.0)
            self._stack.append(span)
            rss_before = maxrss_mb() if rss else 0.0
            self.start.append(time.monotonic())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[span] = time.monotonic()
                if rss:
                    self.value[span] = maxrss_mb() - rss_before
                self._stack.pop()

        self._wrappers[id(fn)] = wrapper
        return wrapper

    def patch(self, namespace, attr: str, measure=None, rss: bool = False) -> None:
        """Replace namespace.attr (a module global or a class attribute) by its wrapper."""
        raw = vars(namespace)[attr]
        if isinstance(raw, staticmethod):
            setattr(namespace, attr, staticmethod(self.wrap(raw.__func__, measure, rss)))
        else:
            setattr(namespace, attr, self.wrap(raw, measure, rss))

    # -- analysis -----------------------------------------------------------

    def arrays(self):
        """(name ids, parents, durations, values, self times) as numpy arrays."""
        names = np.array(self.name_id, dtype=np.int64)
        parents = np.array(self.parent, dtype=np.int64)
        durations = np.array(self.end) - np.array(self.start)
        values = np.array(self.value)
        child = np.zeros(len(durations))
        nested = parents >= 0
        np.add.at(child, parents[nested], durations[nested])
        return names, parents, durations, values, durations - child

    def id_of(self, layer: str, name: str) -> int:
        return self._name_ids.get((layer, name), -1)

    def enclosing(self, layer: str, name: str) -> np.ndarray:
        """For each span, the nearest enclosing span (itself included) named name, else -1."""
        target = self.id_of(layer, name)
        out = np.full(len(self.start), -1, dtype=np.int64)
        for span, (nid, parent) in enumerate(zip(self.name_id, self.parent)):
            if nid == target:
                out[span] = span
            elif parent >= 0:
                out[span] = out[parent]
        return out

    def write(self, path) -> None:
        """Write every span as one tab-separated line: id, parent, layer.name, start, end, value."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart\tend\tvalue\n")
            for span in range(len(self.start)):
                nid = self.name_id[span]
                fh.write(f"{span}\t{self.parent[span]}\t{self.layers[nid]}.{self.names[nid]}\t"
                         f"{self.start[span]!r}\t{self.end[span]!r}\t{self.value[span]!r}\n")
