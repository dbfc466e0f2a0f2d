"""Per-layer timing from outside the program.

:class:`Probes` wraps each layer's public entry point at the name its
callers look up, records one span per call (name, request id, thread,
start, end, parent), keeps the spans in memory and writes them once at
the end.  Spans on the serve dispatcher thread are linked to their
requests through the encoded features each request enqueued.  The
program's own ``obs`` counters are read from a registry installed for the
traced run only; the program's tracer stays off.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time

import numpy as np

import repro.fleet.service as fleet_service
import repro.gpu as gpu
import repro.gpu.colocation as colocation
import repro.perf.batching as batching
import repro.serve.service as serve_service
from repro.core import DNNOccu
from repro.obs.metrics import (Counter, Histogram, install_registry,
                               uninstall_registry)
from repro.serve.batcher import MicroBatcher
from repro.tensor.trace import TracedExecutor

#: span name -> the (owner, attribute) pairs its callers look up
ENTRY_POINTS = {
    "perf.cache.graph_key": ((serve_service, "graph_key"),
                             (fleet_service, "graph_key")),
    "features.encode": ((serve_service, "encode_graph"),),
    "perf.batching.spd": ((serve_service, "ensure_spd"),
                          (batching, "ensure_spd")),
    "perf.batching.collate": ((batching, "collate"),),
    "serve.request": ((serve_service.PredictorService, "predict"),),
    "serve.predict_many": ((serve_service.PredictorService,
                            "predict_many"),),
    "serve.enqueue": ((MicroBatcher, "submit"),),
    "serve.predict_features": ((serve_service.ModelSession,
                                "predict_features"),),
    "core.predict": ((DNNOccu, "predict"),),
    "core.forward_batch": ((DNNOccu, "forward_batch"),),
    "tensor.trace.run": ((TracedExecutor, "run"),),
    "fleet.dispatch": ((fleet_service.FleetService, "predict_async"),),
    "gpu.colocation.plan": ((gpu, "plan_colocation"),
                            (colocation, "plan_colocation")),
}

#: counter families diffed across the measured window
COUNTER_PREFIXES = ("serve_", "trace_", "perf_spd_memo_", "perf_batch_",
                    "fleet_")


class _Span:
    __slots__ = ("name", "rid", "thread", "t0", "t1", "parent", "child_s")

    def __init__(self, name, rid, parent):
        self.name = name
        self.rid = rid
        self.thread = threading.get_ident()
        self.parent = parent
        self.child_s = 0.0
        self.t0 = time.perf_counter()
        self.t1 = None

    def to_dict(self, index: dict) -> dict:
        return {"name": self.name, "rid": self.rid, "thread": self.thread,
                "t0": self.t0, "t1": self.t1,
                "parent": None if self.parent is None
                else index[id(self.parent)]}


def _snapshot(registry) -> dict:
    """(name, labels) -> metric and its value ((count, sum) for histograms)."""
    out = {}
    for metric in registry:
        if not metric.name.startswith(COUNTER_PREFIXES):
            continue
        key = (metric.name, tuple(sorted(metric.labels.items())))
        if isinstance(metric, Histogram):
            _, count, total = metric.state()
            out[key] = (metric, (count, total))
        else:
            out[key] = (metric, metric.snapshot())
    return out


class Probes:
    """Wrapped entry points, spans in memory and the counter registry."""

    def __init__(self):
        self.spans: list[_Span] = []
        self.queue_waits: list[tuple[float, float]] = []   # (t, wait_s)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._enqueued: dict[int, tuple] = {}   # id(feats) -> (rid, t)
        self._restore: list[tuple] = []
        self.registry = None
        self._counters_at_start: dict = {}

    # -- installation --------------------------------------------------- #
    def install(self) -> None:
        self.registry = install_registry()
        linking = {"serve.enqueue": self._submit_wrapper,
                   "serve.predict_features": self._features_wrapper}
        for name, sites in ENTRY_POINTS.items():
            for owner, attr in sites:
                orig = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
                wrapped = linking[name](orig) if name in linking \
                    else self._wrapper(name, orig)
                setattr(owner, attr, wrapped)
                self._restore.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()
        uninstall_registry()

    # -- spans ---------------------------------------------------------- #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def request(self, rid):
        """Tag spans opened on this thread with request ``rid``."""
        self._local.rid = rid
        try:
            yield
        finally:
            self._local.rid = None

    @contextlib.contextmanager
    def _span(self, name: str, rid=None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None:
            rid = parent.rid if parent is not None \
                else getattr(self._local, "rid", None)
        sp = _Span(name, rid, parent)
        stack.append(sp)
        try:
            yield sp
        finally:
            sp.t1 = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent.child_s += sp.t1 - sp.t0
            self.spans.append(sp)

    def _wrapper(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self._span(name):
                return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _submit_wrapper(self, fn):
        """``MicroBatcher.submit``: remember which request enqueued what."""
        def submit(batcher, item):
            feats = getattr(item, "feats", None)
            if feats is not None:
                with self._lock:
                    self._enqueued[id(feats)] = (
                        getattr(self._local, "rid", None),
                        time.perf_counter())
            with self._span("serve.enqueue"):
                return fn(batcher, item)
        return submit

    def _features_wrapper(self, fn):
        """``ModelSession.predict_features``: link the flush to requests."""
        def predict_features(session, feats_list):
            now = time.perf_counter()
            rids = []
            with self._lock:
                for feats in feats_list:
                    entry = self._enqueued.pop(id(feats), None)
                    if entry is not None:
                        rids.append(entry[0])
                        self.queue_waits.append((now, now - entry[1]))
            rid = None if not rids else \
                rids[0] if len(rids) == 1 else tuple(rids)
            with self._span("serve.predict_features", rid):
                return fn(session, feats_list)
        return predict_features

    # -- counters ------------------------------------------------------- #
    def start_window(self) -> None:
        self._counters_at_start = _snapshot(self.registry)

    def counter_deltas(self) -> dict:
        """Counter families' change since :meth:`start_window`.

        Counters and histogram (count, sum) pairs are differenced; gauges
        report their value at the end.
        """
        out = {}
        for key, (metric, value) in _snapshot(self.registry).items():
            before = self._counters_at_start.get(key, (None, None))[1]
            if isinstance(metric, Histogram):
                b = before or (0, 0.0)
                out[key] = (value[0] - b[0], value[1] - b[1])
            elif isinstance(metric, Counter):
                out[key] = value - (before or 0.0)
            else:
                out[key] = value
        return out

    # -- reduction ------------------------------------------------------ #
    def busy_ms(self, name: str, t0: float, t1: float) -> float:
        """Self time of ``name`` spans started inside ``[t0, t1]``."""
        return 1e3 * sum(sp.t1 - sp.t0 - sp.child_s for sp in self.spans
                         if sp.name == name and t0 <= sp.t0 <= t1)

    def span_ends(self, name: str) -> dict:
        """Request id -> end time of its ``name`` span."""
        return {sp.rid: sp.t1 for sp in self.spans if sp.name == name}

    def waits_in(self, t0: float, t1: float) -> list[float]:
        return [w for t, w in self.queue_waits if t0 <= t <= t1]

    def write(self, path) -> None:
        """Write every span, with parents as indices, as one JSON file."""
        index = {id(sp): i for i, sp in enumerate(self.spans)}
        with open(path, "w") as fh:
            json.dump({"spans": [sp.to_dict(index) for sp in self.spans]},
                      fh)


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0
