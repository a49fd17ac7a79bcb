"""Outside-in span tracing: wrap the layers' public entry points.

Nothing under ``src/`` knows about this file.  :meth:`Tracer.install`
replaces each listed entry point with a timing wrapper and
:meth:`Tracer.uninstall` puts the original objects back, so the timed
windows run the program exactly as shipped and only the traced pass
pays for spans.

A span is ``(id, parent, name, start_ns, end_ns, calls, aggregated)``.
``parent`` is the enclosing span *of the same thread* (0 at the top of
a thread); spans of other threads and of the other process are placed
by time containment in :mod:`bench.layers` — ``time.monotonic_ns`` is
one clock for every process of the host.  Entry points called hundreds
of times per request (record decode, clause compile) are not given a
span per call: their count and total time are charged to the innermost
open span and emitted as one aggregated child when it closes.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
from contextlib import contextmanager
from time import monotonic_ns

__all__ = ["Tracer", "TARGETS"]

#: (span name, kind, "module:attr" or "module:Class.attr").  The span
#: name's first component is the layer the time is budgeted to.
TARGETS = [
    # net: client calls and the wire codec of both processes
    ("net.client.retrieve", "call", "repro.net.client:RetrievalClient.retrieve"),
    ("net.client.solve", "resumed", "repro.net.client:RetrievalClient.solve"),
    ("net.client.mutate", "call", "repro.net.client:RetrievalClient.mutate"),
    ("net.encode_request", "call", "repro.net.protocol:encode_retrieve_request"),
    ("net.encode_request", "call", "repro.net.protocol:encode_batch_request"),
    ("net.encode_request", "call", "repro.net.protocol:encode_solve_request"),
    ("net.encode_request", "call", "repro.net.protocol:encode_mutate_request"),
    ("net.decode_request", "call", "repro.net.protocol:decode_retrieve_request"),
    ("net.decode_request", "call", "repro.net.protocol:decode_batch_request"),
    ("net.decode_request", "call", "repro.net.protocol:decode_solve_request"),
    ("net.decode_request", "call", "repro.net.protocol:decode_mutate_request"),
    ("net.encode_response", "call", "repro.net.protocol:encode_result_response"),
    ("net.encode_response", "call", "repro.net.protocol:encode_batch_response"),
    ("net.encode_response", "call", "repro.net.protocol:encode_solution"),
    ("net.encode_response", "call", "repro.net.protocol:encode_solve_done"),
    ("net.encode_response", "call", "repro.net.protocol:encode_mutated_response"),
    ("net.decode_response", "call", "repro.net.protocol:decode_result_response"),
    ("net.decode_response", "call", "repro.net.protocol:decode_batch_response"),
    ("net.decode_response", "call", "repro.net.protocol:decode_solution"),
    ("net.decode_response", "call", "repro.net.protocol:decode_solve_done"),
    ("net.decode_response", "call", "repro.net.protocol:decode_mutated_response"),
    # cluster: the sharded front door, its router, the fleet client
    ("cluster.retrieve", "call", "repro.cluster.server:ShardedRetrievalServer.retrieve"),
    ("cluster.retrieve_batch", "call",
     "repro.cluster.server:ShardedRetrievalServer.retrieve_batch"),
    ("cluster.mutate", "call", "repro.cluster.server:ShardedRetrievalServer.assertz"),
    ("cluster.mutate", "call",
     "repro.cluster.server:ShardedRetrievalServer.retract_matching"),
    ("cluster.mutate", "call",
     "repro.cluster.server:ShardedRetrievalServer.remove_exact"),
    ("cluster.route", "call", "repro.cluster.routing:ShardRouter.route_goal"),
    ("cluster.fleet.retrieve", "call", "repro.cluster.fleet:FleetClient.retrieve"),
    ("cluster.fleet.write", "call", "repro.cluster.fleet:FleetClient.assertz"),
    ("cluster.fleet.write", "call", "repro.cluster.fleet:FleetClient.retract"),
    # crs
    ("crs.retrieve", "call", "repro.crs.server:ClauseRetrievalServer.retrieve"),
    ("crs.retrieve", "call", "repro.crs.server:ClauseRetrievalServer.retrieve_batch"),
    ("crs.select_mode", "call", "repro.crs.planner:select_mode"),
    # scw (FS1)
    ("scw.search", "call", "repro.scw.fs1:FirstStageFilter.search"),
    ("scw.search", "call", "repro.scw.fs1:FirstStageFilter.search_batch"),
    # fs2
    ("fs2.set_query", "call", "repro.fs2.engine:SecondStageFilter.set_query"),
    ("fs2.search", "call", "repro.fs2.engine:SecondStageFilter.search"),
    ("fs2.read_results", "call", "repro.fs2.engine:SecondStageFilter.read_results"),
    # pif: per-record calls, aggregated
    ("pif.decode", "aggregated", "repro.pif.clausefile:CompiledClause.from_bytes"),
    ("pif.decode", "aggregated", "repro.pif.clausefile:decode_compiled"),
    ("pif.compile", "aggregated", "repro.pif.clausefile:compile_clause"),
    # disk
    ("disk.read", "call", "repro.disk.dma:DiskSim.read_extent"),
    ("disk.read", "call", "repro.disk.dma:DiskSim.stream_records"),
    ("disk.write", "call", "repro.disk.dma:DiskSim.write_extent"),
    # storage: WAL and clause-store mutation
    ("storage.wal_stage", "call", "repro.storage.wal:DurableStore.stage"),
    ("storage.wal_wait_durable", "call", "repro.storage.wal:DurableStore.wait_durable"),
    ("storage.add_clause", "call", "repro.storage.kb:KnowledgeBase.add_clause"),
    ("storage.retract_rebuild", "call",
     "repro.storage.kb:KnowledgeBase.retract_matching"),
    ("storage.retract_rebuild", "call", "repro.storage.kb:KnowledgeBase.remove_exact"),
    ("storage.compaction", "call",
     "repro.cluster.server:ShardedRetrievalServer.compact"),
    # engine
    ("engine.solve", "resumed", "repro.engine.solve:SolveEngine.solve"),
    ("engine.prefetch", "call", "repro.engine.solve:ClusterRetriever.prefetch"),
]


class Tracer:
    """Records spans in memory while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)  # next() is atomic under the GIL
        #: (owner, attribute, original object) for every replaced binding
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """An explicit span (the driver's per-op root)."""
        stack = self._stack()
        frame = [next(self._ids), None]
        parent = stack[-1][0] if stack else 0
        stack.append(frame)
        start = monotonic_ns()
        try:
            yield
        finally:
            end = monotonic_ns()
            stack.pop()
            self._close(frame, parent, name, start, end)

    def _close(self, frame, parent, name, start, end) -> None:
        span_id, charged = frame
        self.spans.append((span_id, parent, name, start, end, 1, False))
        if charged:
            for child, (calls, total) in charged.items():
                self.spans.append(
                    (next(self._ids), span_id, child, start, start + total,
                     calls, True)
                )

    def drain(self) -> list[tuple]:
        spans, self.spans = self.spans, []
        return spans

    # -- wrappers ------------------------------------------------------------

    def _call(self, name: str, fn):
        stack_of = self._stack
        ids = self._ids
        close = self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            frame = [next(ids), None]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            start = monotonic_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = monotonic_ns()
                stack.pop()
                close(frame, parent, name, start, end)

        return wrapper

    def _aggregated(self, name: str, fn):
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            # No open span to charge, or already inside a charged call.
            if not stack or getattr(local, "charging", False):
                return fn(*args, **kwargs)
            local.charging = True
            start = monotonic_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = monotonic_ns() - start
                local.charging = False
                frame = stack[-1]
                if frame[1] is None:
                    frame[1] = {}
                entry = frame[1].setdefault(name, [0, 0])
                entry[0] += 1
                entry[1] += elapsed

        return wrapper

    def _resumed(self, name: str, fn):
        """A generator function: one span per resumption.

        Only the time the generator itself runs is its layer's; what
        the consumer does between answers belongs to the consumer.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            step = self._call(name, inner.__next__)

            def resumptions():
                try:
                    while True:
                        try:
                            value = step()
                        except StopIteration:
                            return
                        yield value
                finally:
                    inner.close()

            return resumptions()

        return wrapper

    # -- install / uninstall -------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        for name, kind, path in targets:
            module_name, _, attr_path = path.partition(":")
            module = importlib.import_module(module_name)
            owner_name, _, attr = attr_path.rpartition(".")
            if owner_name:
                self._patch_method(getattr(module, owner_name), attr, kind, name)
            else:
                self._patch_function(getattr(module, attr), kind, name)

    def _wrap(self, kind: str, name: str, fn):
        make = {
            "call": self._call,
            "aggregated": self._aggregated,
            "resumed": self._resumed,
        }[kind]
        wrapper = make(name, fn)
        wrapper.traced_as = name  # how a test tells a wrapper from the original
        return wrapper

    def _patch_method(self, cls, attr, kind, name) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(self._wrap(kind, name, original.__func__))
        else:
            replacement = self._wrap(kind, name, original)
        self._undo.append((cls, attr, original))
        setattr(cls, attr, replacement)

    def _patch_function(self, original, kind, name) -> None:
        """Rebind every ``repro`` module global that is this function.

        ``from ..pif import decode_compiled`` copies the binding into
        the importer, so the defining module alone is not enough.
        """
        replacement = self._wrap(kind, name, original)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for global_name, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, global_name, original))
                    setattr(module, global_name, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._undo)
