"""Dependency-free metrics: counters, gauges, fixed-bucket histograms.

The paper's whole argument is about *where retrieval time goes* — disk
streaming vs FS1 index scan vs FS2 partial unification vs host software.
A :class:`MetricsRegistry` aggregates that accounting across every
retrieval, client and transaction of a run, so mode comparisons and
bottleneck hunts no longer depend on eyeballing per-call
:class:`~repro.crs.RetrievalStats`.

Metric instruments are identified by a family name plus optional string
labels (``registry.counter("crs.retrievals", mode="fs1")``); each distinct
label combination is its own time series.  Everything is plain Python —
no third-party client libraries — and the registry serialises to a flat
``dict`` for JSON export or to aligned text for terminal reports.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]

#: Default histogram bucket upper bounds: a coarse log scale wide enough
#: for candidate counts, byte volumes and microsecond-scale times alike.
DEFAULT_BUCKETS = (1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 10_000, 100_000)

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _parse_snapshot_key(key: str) -> tuple[str, dict[str, str]]:
    """Invert the ``name{k=v,...}`` encoding used by ``snapshot()``."""
    if "{" not in key:
        return key, {}
    name, _, rest = key.partition("{")
    labels: dict[str, str] = {}
    for pair in rest.rstrip("}").split(","):
        if pair:
            label, _, value = pair.partition("=")
            labels[label] = value
    return name, labels


@dataclass
class Counter:
    """A monotonically increasing count (float increments allowed).

    Updates are lock-protected: ``value += amount`` is read-modify-write,
    and concurrent shard workers must never lose increments (the stress
    suite asserts registry totals equal the sum of per-call stats).
    """

    name: str
    labels: LabelKey = ()
    value: float = 0.0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self.value += amount


@dataclass
class Gauge:
    """A value that can go up and down (e.g. active transactions)."""

    name: str
    labels: LabelKey = ()
    value: float = 0.0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self.value -= amount


@dataclass
class Histogram:
    """Fixed-bucket histogram: counts per upper bound plus an overflow.

    ``buckets`` are inclusive upper bounds in increasing order; a sample
    larger than the last bound lands in the implicit ``+Inf`` bucket.
    """

    name: str
    labels: LabelKey = ()
    buckets: tuple[float, ...] = DEFAULT_BUCKETS
    counts: list[int] = field(default_factory=list)
    sum: float = 0.0
    count: int = 0
    min: float | None = None
    max: float | None = None
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.buckets) + 1)

    def observe(self, value: float) -> None:
        with self._lock:
            for position, bound in enumerate(self.buckets):
                if value <= bound:
                    self.counts[position] += 1
                    break
            else:
                self.counts[-1] += 1
            self.sum += value
            self.count += 1
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class MetricsRegistry:
    """Get-or-create store for every instrument of one run.

    Thread-safe on creation (multi-client simulations may fan out); the
    instruments themselves are plain attribute updates, which is fine for
    the synchronous simulation and cheap enough for the hot path.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[tuple[str, LabelKey], Counter | Gauge | Histogram] = {}

    # -- get-or-create ---------------------------------------------------

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(
        self, name: str, buckets: tuple[float, ...] | None = None, **labels: str
    ) -> Histogram:
        key = (name, _label_key(labels))
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = Histogram(
                    name, key[1], buckets=buckets or DEFAULT_BUCKETS
                )
                self._instruments[key] = instrument
            elif not isinstance(instrument, Histogram):
                raise TypeError(f"{name!r} is a {type(instrument).__name__}")
            return instrument

    def _get(self, kind, name: str, labels: dict[str, str]):
        key = (name, _label_key(labels))
        with self._lock:
            instrument = self._instruments.get(key)
            if instrument is None:
                instrument = kind(name, key[1])
                self._instruments[key] = instrument
            elif not isinstance(instrument, kind):
                raise TypeError(
                    f"{name!r} is a {type(instrument).__name__}, not a "
                    f"{kind.__name__}"
                )
            return instrument

    # -- reading ----------------------------------------------------------

    def __iter__(self):
        return iter(sorted(self._instruments.values(), key=lambda i: (i.name, i.labels)))

    def __len__(self) -> int:
        return len(self._instruments)

    def value(self, name: str, **labels: str) -> float:
        """Current value of a counter/gauge (0.0 if never touched)."""
        instrument = self._instruments.get((name, _label_key(labels)))
        if instrument is None:
            return 0.0
        if isinstance(instrument, Histogram):
            raise TypeError(f"{name!r} is a Histogram; read .sum/.count")
        return instrument.value

    def total(self, name: str) -> float:
        """Sum of a counter family across all label combinations."""
        return sum(
            i.value
            for (n, _), i in self._instruments.items()
            if n == name and isinstance(i, (Counter, Gauge))
        )

    def snapshot(self) -> dict[str, dict]:
        """A JSON-ready flat mapping of every instrument."""
        out: dict[str, dict] = {}
        for instrument in self:
            label_text = ",".join(f"{k}={v}" for k, v in instrument.labels)
            key = instrument.name + (f"{{{label_text}}}" if label_text else "")
            if isinstance(instrument, Histogram):
                out[key] = {
                    "type": "histogram",
                    "count": instrument.count,
                    "sum": instrument.sum,
                    "min": instrument.min,
                    "max": instrument.max,
                    "mean": instrument.mean,
                    "buckets": dict(
                        zip([str(b) for b in instrument.buckets] + ["+Inf"],
                            instrument.counts)
                    ),
                }
            else:
                kind = "counter" if isinstance(instrument, Counter) else "gauge"
                out[key] = {"type": kind, "value": instrument.value}
        return out

    def merge_snapshot(
        self,
        snapshot: dict[str, dict],
        previous: dict[str, dict] | None = None,
        **labels: str,
    ) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        The aggregation transport for process workers: each worker keeps
        its own registry (instruments are not shareable across process
        boundaries) and the parent periodically pulls a snapshot and
        merges it here.  ``previous`` is the last snapshot already
        merged from the same source — counters and histograms advance by
        the *delta* since then, so repeated pulls never double-count;
        gauges are set to the latest value.  Extra ``labels`` (e.g.
        ``worker="3"``) are stamped on every merged series.

        A counter that went backwards (the worker restarted with a fresh
        registry) is credited its full current value.  Histogram bucket
        layouts are expected to match the local family (both sides run
        the same code); on a mismatch the buckets are skipped but
        count/sum/min/max still merge.
        """
        previous = previous or {}
        extra = {k: str(v) for k, v in labels.items()}
        for key, data in snapshot.items():
            name, parsed = _parse_snapshot_key(key)
            merged = {**parsed, **extra}
            prior = previous.get(key)
            kind = data["type"]
            if kind == "counter":
                delta = data["value"] - (prior["value"] if prior else 0.0)
                if delta < 0:
                    delta = data["value"]
                if delta > 0:
                    self.counter(name, **merged).inc(delta)
            elif kind == "gauge":
                self.gauge(name, **merged).set(data["value"])
            else:
                bounds = tuple(
                    float(b) for b in data["buckets"] if b != "+Inf"
                )
                hist = self.histogram(name, buckets=bounds, **merged)
                prev_count = prior["count"] if prior else 0
                count_delta = data["count"] - prev_count
                if count_delta < 0:  # source restarted
                    prior = None
                    count_delta = data["count"]
                if count_delta == 0:
                    continue
                prev_buckets = prior["buckets"] if prior else {}
                with hist._lock:
                    incoming = list(data["buckets"].items())
                    if len(incoming) == len(hist.counts):
                        for position, (bucket, count) in enumerate(incoming):
                            hist.counts[position] += count - prev_buckets.get(
                                bucket, 0
                            )
                    hist.sum += data["sum"] - (prior["sum"] if prior else 0.0)
                    hist.count += count_delta
                    for extreme, fold in (("min", min), ("max", max)):
                        value = data[extreme]
                        if value is None:
                            continue
                        current = getattr(hist, extreme)
                        setattr(
                            hist,
                            extreme,
                            value if current is None else fold(current, value),
                        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def render(self) -> str:
        """Aligned text dump, one line per instrument."""
        def number(value) -> str:
            return f"{value:g}" if isinstance(value, float) else str(value)

        lines = []
        for key, data in sorted(self.snapshot().items()):
            if data["type"] == "histogram":
                lines.append(
                    f"{key:<44} count={data['count']:<8} "
                    f"mean={number(data['mean'])} min={number(data['min'])} "
                    f"max={number(data['max'])}"
                )
            else:
                lines.append(f"{key:<44} {number(data['value'])}")
        return "\n".join(lines)

    def reset(self) -> None:
        with self._lock:
            self._instruments.clear()
