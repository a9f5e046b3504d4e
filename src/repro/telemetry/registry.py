"""The unified metrics registry: counters, gauges and log2 histograms.

The registry holds the system's *native instruments* (:class:`Counter`,
:class:`Gauge`, :class:`Histogram`): query latency distributions, WAL
group-commit batch sizes, lock wait/hold times, and callback gauges computed
at read time.  The layers' own work counters (``ScanCounter`` in the cursor
pipeline, ``RankStats`` in the WAND merge, dataclasses in the naming layer)
stay where the hot paths bump them; ``fs.stats()`` reads them directly and
appends this registry's snapshot under ``"telemetry"``.

Disabled mode (``MetricsRegistry(enabled=False)``) hands out shared null
instruments whose mutators are no-ops, so instrumented call sites keep
working with near-zero overhead.

Histograms bucket by powers of two (the exponent of the observed value), so
a histogram never holds more than ~:data:`Histogram.MAX_BUCKETS` buckets
regardless of how many observations it absorbs — a few kilobytes each, see
the README sizing note.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Dict, List, Optional, Tuple


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "help", "_value", "_lock")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def snapshot(self) -> int:
        return self._value


class Gauge:
    """A value that can go up and down — or track a callback.

    With ``fn`` the gauge is *derived*: reads evaluate the callback, and the
    mutators raise (two writers — the callback and ``set`` — would silently
    shadow each other).
    """

    __slots__ = ("name", "help", "_value", "_fn", "_lock")

    def __init__(self, name: str, help: str = "",
                 fn: Optional[Callable[[], float]] = None) -> None:
        self.name = name
        self.help = help
        self._value = 0.0
        self._fn = fn
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        if self._fn is not None:
            raise ValueError(f"gauge {self.name!r} is callback-derived")
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1) -> None:
        if self._fn is not None:
            raise ValueError(f"gauge {self.name!r} is callback-derived")
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        if self._fn is not None:
            return self._fn()
        return self._value

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """A log2-bucketed distribution (count, sum, min, max, buckets).

    ``observe(x)`` lands ``x`` in the bucket whose upper bound is the
    smallest power of two ``>= x``; non-positive observations share a single
    underflow bucket.  Exponents are clamped to ``[MIN_EXP, MAX_EXP]``, so
    memory is bounded by :data:`MAX_BUCKETS` integer slots however many
    values are observed — the property that makes it safe to keep one
    histogram per metric forever.
    """

    #: clamp range for bucket exponents: 2^-40 (~1e-12) .. 2^64 (~1.8e19)
    #: comfortably covers microsecond latencies and byte counts.
    MIN_EXP = -40
    MAX_EXP = 64
    #: underflow bucket + one bucket per exponent in the clamp range.
    MAX_BUCKETS = MAX_EXP - MIN_EXP + 2

    __slots__ = ("name", "help", "count", "total", "min", "max", "_buckets", "_lock")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        #: exponent -> count; None keys the underflow (<= 0) bucket.
        self._buckets: Dict[Optional[int], int] = {}
        self._lock = threading.Lock()

    @classmethod
    def bucket_exponent(cls, value: float) -> Optional[int]:
        """The bucket key for ``value`` (None = the underflow bucket)."""
        if value <= 0:
            return None
        mantissa, exponent = math.frexp(value)  # value = mantissa * 2**exponent
        if mantissa == 0.5:  # exact power of two: belongs to its own bound
            exponent -= 1
        return max(cls.MIN_EXP, min(cls.MAX_EXP, exponent))

    def observe(self, value: float) -> None:
        # Inlined bucket_exponent: observe is the one histogram method on
        # query hot paths, and the classmethod dispatch alone is measurable
        # against the telemetry-overhead gate.
        if value <= 0:
            exponent: Optional[int] = None
        else:
            mantissa, exponent = math.frexp(value)
            if mantissa == 0.5:  # exact power of two: belongs to its own bound
                exponent -= 1
            if exponent < self.MIN_EXP:
                exponent = self.MIN_EXP
            elif exponent > self.MAX_EXP:
                exponent = self.MAX_EXP
        buckets = self._buckets
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            buckets[exponent] = buckets.get(exponent, 0) + 1

    def buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, count)`` pairs in ascending bound order."""
        with self._lock:
            items = dict(self._buckets)
        pairs: List[Tuple[float, int]] = []
        if None in items:
            pairs.append((0.0, items.pop(None)))
        pairs.extend((float(2.0 ** exponent), count)
                     for exponent, count in sorted(items.items()))
        return pairs

    def snapshot(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": {f"le_{bound:g}": count for bound, count in self.buckets()},
        }


class _NullCounter(Counter):
    """Shared no-op counter handed out by a disabled registry."""

    def __init__(self) -> None:
        super().__init__("null", "")

    def inc(self, amount: int = 1) -> None:
        pass


class _NullGauge(Gauge):
    def __init__(self) -> None:
        super().__init__("null", "")

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1) -> None:
        pass


class _NullHistogram(Histogram):
    def __init__(self) -> None:
        super().__init__("null", "")

    def observe(self, value: float) -> None:
        pass


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()


class MetricsRegistry:
    """One namespace of instruments (see module docstring).

    Instrument factories are idempotent: asking twice for the same name
    returns the same object (and asking for the same name as a different
    instrument kind raises).  A disabled registry returns the shared null
    instruments — call sites need no enabled-checks of their own.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ---------------------------------------------------------- instruments

    def _get(self, table: Dict, others: Tuple[Dict, ...], name: str, factory):
        with self._lock:
            existing = table.get(name)
            if existing is not None:
                return existing
            for other in others:
                if name in other:
                    raise ValueError(
                        f"metric {name!r} already registered as a different kind"
                    )
            instrument = factory()
            table[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        if not self.enabled:
            return NULL_COUNTER
        return self._get(self._counters, (self._gauges, self._histograms),
                         name, lambda: Counter(name, help))

    def gauge(self, name: str, help: str = "",
              fn: Optional[Callable[[], float]] = None) -> Gauge:
        if not self.enabled:
            return NULL_GAUGE
        return self._get(self._gauges, (self._counters, self._histograms),
                         name, lambda: Gauge(name, help, fn=fn))

    def histogram(self, name: str, help: str = "") -> Histogram:
        if not self.enabled:
            return NULL_HISTOGRAM
        return self._get(self._histograms, (self._counters, self._gauges),
                         name, lambda: Histogram(name, help))

    # ------------------------------------------------------------- snapshot

    def describe(self) -> Dict[str, Tuple[str, str]]:
        """Every native instrument's ``name -> (kind, help)`` — what the
        Prometheus exporter turns into ``# TYPE`` / ``# HELP`` lines."""
        with self._lock:
            out: Dict[str, Tuple[str, str]] = {}
            for name, counter in self._counters.items():
                out[name] = ("counter", counter.help)
            for name, gauge in self._gauges.items():
                out[name] = ("gauge", gauge.help)
            for name, hist in self._histograms.items():
                out[name] = ("histogram", hist.help)
            return out

    def snapshot(self) -> Dict[str, object]:
        """Every metric's current value, grouped by instrument kind."""
        with self._lock:
            counters = list(self._counters.items())
            gauges = list(self._gauges.items())
            histograms = list(self._histograms.items())
        return {
            "counters": {name: counter.snapshot() for name, counter in counters},
            "gauges": {name: gauge.snapshot() for name, gauge in gauges},
            "histograms": {name: hist.snapshot() for name, hist in histograms},
        }
