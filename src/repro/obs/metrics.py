"""Metrics registry: counters, gauges, and histograms with JSON export.

The observability layer's second leg (next to the phase spans of
:mod:`repro.obs.spans`): named numeric instruments that hot paths update
cheaply and the bench/profile CLI exports as one JSON document. The
instruments mirror the quantities the clique-counting literature keys on
— candidate-set sizes, pruning hit-rates, executor chunk imbalance — so
a regression in any of them is visible *before* it shows up as wall time.

Design constraints (this is pure Python on hot loops):

* creating an instrument is a dict lookup — hoist it out of loops
  (``h = metrics.histogram("search.candidate_size")`` once, then
  ``h.record(x)`` per iteration);
* every instrument update is O(1) with no allocation;
* histograms use power-of-two buckets so ``record`` is a single
  ``bit_length`` call and bulk fills can be vectorized with numpy
  (:meth:`Histogram.record_many`).

A registry is attached to a :class:`~repro.pram.tracker.Tracker` with
``tracker.attach_metrics(registry)``; instrumented engines consult
``tracker.metrics`` (``None`` when observability is off, so the guarded
path costs one attribute test).
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """A monotonically increasing count (events, probes, hits)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def to_dict(self) -> Dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A point-in-time value; also tracks the maximum ever set."""

    __slots__ = ("name", "value", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.max = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)
        if self.value > self.max:
            self.max = self.value

    def set_max(self, value: float) -> None:
        """Raise the gauge to ``value`` if it is larger (peak tracking)."""
        if value > self.max:
            self.max = float(value)
        if value > self.value:
            self.value = float(value)

    def to_dict(self) -> Dict[str, Any]:
        return {"type": "gauge", "value": self.value, "max": self.max}


class Histogram:
    """Power-of-two-bucketed distribution of non-negative values.

    Bucket ``i`` counts values ``v`` with ``2^(i-1) < v <= 2^i - 1`` …
    concretely, a value lands in bucket ``int(v).bit_length()`` (bucket 0
    holds zeros), which keeps :meth:`record` branch-free and lets
    :meth:`record_many` fill from a numpy array without a Python loop.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max = 0.0
        self.buckets: List[int] = []

    def record(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"histogram {self.name!r} takes values >= 0")
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        b = int(value).bit_length()
        if b >= len(self.buckets):
            self.buckets.extend([0] * (b + 1 - len(self.buckets)))
        self.buckets[b] += 1

    def record_many(self, values: Any) -> None:
        """Vectorized bulk fill from a numpy array (or any sequence)."""
        import numpy as np

        arr = np.asarray(values)
        if arr.size == 0:
            return
        if arr.min() < 0:
            raise ValueError(f"histogram {self.name!r} takes values >= 0")
        ints = arr.astype(np.int64)
        # bit_length via frexp-free integer log2: bucket of v is the
        # position of its highest set bit plus one (0 for v == 0).
        nonzero = ints > 0
        bucket_ids = np.zeros(arr.shape, dtype=np.int64)
        if nonzero.any():
            bucket_ids[nonzero] = (
                np.floor(np.log2(ints[nonzero].astype(np.float64))).astype(np.int64)
                + 1
            )
        counts = np.bincount(bucket_ids.ravel())
        if counts.size > len(self.buckets):
            self.buckets.extend([0] * (counts.size - len(self.buckets)))
        for i, c in enumerate(counts.tolist()):
            self.buckets[i] += c
        self.count += int(arr.size)
        self.total += float(arr.sum())
        lo = float(arr.min())
        if self.min is None or lo < self.min:
            self.min = lo
        self.max = max(self.max, float(arr.max()))

    def absorb(self, data: Dict[str, Any]) -> None:
        """Pool another histogram's :meth:`to_dict` export into this one."""
        if not data["count"]:
            return
        self.count += data["count"]
        self.total += data["sum"]
        if self.min is None or data["min"] < self.min:
            self.min = data["min"]
        self.max = max(self.max, data["max"])
        buckets = data["buckets"]
        if len(buckets) > len(self.buckets):
            self.buckets.extend([0] * (len(buckets) - len(self.buckets)))
        for i, c in enumerate(buckets):
            self.buckets[i] += c

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max,
            "mean": self.mean,
            "buckets": list(self.buckets),
        }


class MetricsRegistry:
    """Named instruments, created on first use, exported as one dict.

    Instrument kinds live in one namespace: asking for an existing name
    with a different kind is an error (it would silently fork the data).

    A registry may be shared by every worker thread of the query
    service (one registry, one tracker *per query*), so instrument
    creation is locked: two threads asking for a new name must converge
    on one instrument, not fork two and lose one's updates. Instrument
    *updates* stay lock-free — ``inc``/``record`` are single bytecode-
    cheap mutations whose worst concurrent failure is a lost increment,
    and the exactness-critical counters (``service.*``,
    ``prepared.*``) are serialized by their callers (the event loop and
    the prepared-layer locks respectively).
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Any] = {}
        self._lock = threading.Lock()

    def _get(self, name: str, cls: type) -> Any:
        inst = self._instruments.get(name)
        if inst is None:
            with self._lock:
                inst = self._instruments.get(name)
                if inst is None:
                    inst = cls(name)
                    self._instruments[name] = inst
        if not isinstance(inst, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(inst).__name__}, not {cls.__name__}"
            )
        return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def merge(self, exported: Dict[str, Dict[str, Any]]) -> None:
        """Fold another registry's :meth:`to_dict` export into this one.

        Counters add, gauges keep the larger peak, histograms pool: how
        a worker process's instruments reach its parent's registry.
        """
        for name, data in exported.items():
            if data["type"] == "counter":
                self.counter(name).inc(data["value"])
            elif data["type"] == "gauge":
                self.gauge(name).set_max(data["max"])
            else:
                self.histogram(name).absorb(data)

    def to_dict(self) -> Dict[str, Dict[str, Any]]:
        """Export every instrument, keyed by name, sorted for determinism."""
        return {
            name: self._instruments[name].to_dict()
            for name in sorted(self._instruments)
        }
