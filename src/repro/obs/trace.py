"""Span-style tracing with a ring-buffer recorder and NDJSON export.

A *span* covers one stage of the retrieval pipeline — ``crs.retrieve``,
``disk.read``, ``fs1.scan``, ``fs2.search``, ``software.scan`` — with
wall-clock timing, nesting (parent ids), and free-form attributes that
carry the *modelled* 1989 times alongside the host's real ones.  The
:class:`TraceRecorder` keeps the last N spans in a ring buffer, so a
long-running multi-client simulation can stay instrumented without
unbounded memory growth.

:class:`Instrumentation` bundles a recorder with a
:class:`~repro.obs.metrics.MetricsRegistry` behind one ``enabled`` switch.
Instrumented components default to the process-wide instance
(:func:`get_default`), which starts *disabled* — a no-op costing one
attribute check per call site — so nothing is recorded unless a driver
(the CLI, an example, a test) opts in.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from .metrics import Counter, Gauge, Histogram, MetricsRegistry

__all__ = [
    "Span",
    "TraceRecorder",
    "Instrumentation",
    "LabelledInstrumentation",
    "get_default",
    "set_default",
]


@dataclass
class Span:
    """One timed, attributed stage of the pipeline."""

    span_id: int
    parent_id: int | None
    name: str
    start_s: float
    end_s: float | None = None
    attrs: dict = field(default_factory=dict)

    def set(self, **attrs) -> None:
        """Attach or update attributes while the span is open."""
        self.attrs.update(attrs)

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "attrs": self.attrs,
        }


class _NullSpan:
    """Shared do-nothing span handed out when tracing is disabled."""

    __slots__ = ()

    def set(self, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()


class TraceRecorder:
    """Ring buffer of completed spans with structured export."""

    def __init__(self, capacity: int = 4096):
        self._spans: deque[Span] = deque(maxlen=capacity)
        self._next_id = 1
        self._id_lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self._spans)

    def new_span(self, name: str, parent_id: int | None, **attrs) -> Span:
        with self._id_lock:
            span_id = self._next_id
            self._next_id += 1
        return Span(
            span_id=span_id,
            parent_id=parent_id,
            name=name,
            start_s=time.perf_counter(),
            attrs=dict(attrs),
        )

    def record(self, span: Span) -> None:
        if span.end_s is None:
            span.end_s = time.perf_counter()
        self._spans.append(span)

    def spans(self, name: str | None = None) -> list[Span]:
        if name is None:
            return list(self._spans)
        return [s for s in self._spans if s.name == name]

    def span_names(self) -> set[str]:
        return {s.name for s in self._spans}

    def to_ndjson(self) -> str:
        """One JSON object per line, in completion order."""
        return "\n".join(
            json.dumps(s.to_dict(), default=str) for s in self._spans
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(
            [s.to_dict() for s in self._spans], indent=indent, default=str
        )

    def write_ndjson(self, path: str) -> int:
        """Write the buffer as NDJSON; returns the span count written."""
        text = self.to_ndjson()
        with open(path, "w", encoding="utf-8") as handle:
            if text:
                handle.write(text + "\n")
        return len(self._spans)

    def clear(self) -> None:
        self._spans.clear()


class Instrumentation:
    """A registry + recorder pair behind one enable switch.

    Every instrumented component takes an optional ``obs`` argument and
    falls back to the global default, so one ``Instrumentation`` naturally
    spans the whole pipeline of a run: disk, FS1, FS2, CRS, locks, engine.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        recorder: TraceRecorder | None = None,
        enabled: bool = True,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.recorder = recorder if recorder is not None else TraceRecorder()
        self.enabled = enabled
        # Span nesting is per *thread*: concurrent shard workers each get
        # their own parent stack, so one worker closing a span can never
        # mis-parent (or pop) a span another worker has open.
        self._local = threading.local()
        self._null_counter = Counter("null")
        self._null_gauge = Gauge("null")
        self._null_histogram = Histogram("null")

    @property
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enable(self) -> "Instrumentation":
        self.enabled = True
        return self

    def disable(self) -> "Instrumentation":
        self.enabled = False
        return self

    # -- metrics passthrough ----------------------------------------------

    def counter(self, name: str, **labels: str) -> Counter:
        if not self.enabled:
            return self._null_counter
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        if not self.enabled:
            return self._null_gauge
        return self.registry.gauge(name, **labels)

    def histogram(
        self, name: str, buckets: tuple[float, ...] | None = None, **labels: str
    ) -> Histogram:
        if not self.enabled:
            return self._null_histogram
        return self.registry.histogram(name, buckets=buckets, **labels)

    # -- tracing ------------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs):
        """Context manager timing one pipeline stage.

        Spans opened while another span of the *same instrumentation* is
        open become its children, giving per-retrieval trees like
        ``engine.retrieve > crs.retrieve_batch > fs1.scan``.
        """
        if not self.enabled:
            yield _NULL_SPAN
            return
        parent_id = self._stack[-1] if self._stack else None
        span = self.recorder.new_span(name, parent_id, **attrs)
        self._stack.append(span.span_id)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end_s = time.perf_counter()
            self.recorder.record(span)

    def clear(self) -> None:
        self.registry.reset()
        self.recorder.clear()

    # -- label scoping -------------------------------------------------------

    def labelled(self, **labels: str) -> "LabelledInstrumentation":
        """A view of this instrumentation that stamps ``labels`` on
        every metric and span (e.g. ``obs.labelled(shard="3")``).

        The view shares this instrumentation's registry and recorder, so
        family totals still aggregate across all label combinations —
        ``registry.total("crs.retrievals")`` covers every shard — while
        each shard's share stays separately addressable.
        """
        return LabelledInstrumentation(
            self, {k: str(v) for k, v in labels.items()}
        )


class LabelledInstrumentation:
    """An :class:`Instrumentation` view adding fixed labels to all calls.

    Components take it anywhere an ``obs`` is accepted: it exposes the
    same ``counter``/``gauge``/``histogram``/``span`` surface plus the
    shared ``registry``/``recorder``/``enabled`` of its base, so a shard
    can be built with ``obs.labelled(shard="0")`` and every existing
    call site transparently becomes a per-shard time series.
    """

    def __init__(self, base: Instrumentation, labels: dict[str, str]):
        self._base = base
        self.labels = dict(labels)

    @property
    def enabled(self) -> bool:
        return self._base.enabled

    @property
    def registry(self) -> MetricsRegistry:
        return self._base.registry

    @property
    def recorder(self) -> TraceRecorder:
        return self._base.recorder

    def labelled(self, **labels: str) -> "LabelledInstrumentation":
        merged = dict(self.labels)
        merged.update({k: str(v) for k, v in labels.items()})
        return LabelledInstrumentation(self._base, merged)

    def counter(self, name: str, **labels: str) -> Counter:
        return self._base.counter(name, **{**self.labels, **labels})

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._base.gauge(name, **{**self.labels, **labels})

    def histogram(
        self, name: str, buckets: tuple[float, ...] | None = None, **labels: str
    ) -> Histogram:
        return self._base.histogram(
            name, buckets=buckets, **{**self.labels, **labels}
        )

    def span(self, name: str, **attrs):
        return self._base.span(name, **{**self.labels, **attrs})


#: Process-wide default, disabled until a driver opts in.
_DEFAULT = Instrumentation(enabled=False)


def get_default() -> Instrumentation:
    """The process-wide instrumentation components fall back to."""
    return _DEFAULT


def set_default(obs: Instrumentation) -> Instrumentation:
    """Replace the process-wide default; returns the previous one.

    Components capture the default at *construction*, so set it before
    building the knowledge base / CRS / machine you want instrumented.
    """
    global _DEFAULT
    previous = _DEFAULT
    _DEFAULT = obs
    return previous
