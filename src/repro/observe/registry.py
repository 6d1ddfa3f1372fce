"""The process-wide metrics registry: counters, gauges, histograms.

The paper's campaigns are time-series phenomena — coverage-unique
acceptances, MCMC mutator drift, per-phase JVM latency all evolve over
thousands of iterations — so every stage of the pipeline records into a
shared :class:`MetricsRegistry` instead of ad-hoc per-object counters.
The registry is the *canonical* store; legacy façades such as
:class:`~repro.core.executor.ExecutorStats` keep their shape for
compatibility and feed the same hot-path code.

Design points:

* **Thread safety.** The monitor's HTTP threads and the service's
  status publisher read instruments while the run records them; every
  instrument guards its state with its own lock (the GIL does not make
  ``+=`` atomic across the read/add/store bytecodes).
* **Label families.** ``registry.counter(name, help, ("vendor",))``
  returns a family; ``family.labels(vendor="hotspot9")`` returns the
  child instrument, cached per label-value tuple so hot paths can
  pre-resolve children once and pay a plain method call per update.
* **Fixed histogram buckets.** Latency histograms default to
  :data:`DEFAULT_LATENCY_BUCKETS` (100 µs … 10 s), cumulative in the
  Prometheus convention (``value <= le``).
* **Exposition.** :meth:`MetricsRegistry.render_prometheus` emits the
  Prometheus text format (``# HELP``/``# TYPE`` + samples), which
  ``repro observe check`` parses back.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Default latency buckets (seconds): 100 µs to 10 s, roughly log-spaced.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)


class Counter:
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def samples(self, name: str, labels: str) -> List[str]:
        return [f"{name}{labels} {format_value(self.value)}"]


class Gauge:
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def samples(self, name: str, labels: str) -> List[str]:
        return [f"{name}{labels} {format_value(self.value)}"]


class Histogram:
    """Observations bucketed at fixed boundaries (Prometheus semantics).

    ``bucket_counts[i]`` counts observations with
    ``value <= buckets[i]``, *non*-cumulative internally; exposition
    accumulates and appends the implicit ``+Inf`` bucket.
    """

    kind = "histogram"

    def __init__(self, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        if not buckets:
            raise ValueError("histogram needs at least one bucket")
        ordered = tuple(sorted(float(b) for b in buckets))
        if len(set(ordered)) != len(ordered):
            raise ValueError("histogram buckets must be distinct")
        self.buckets = ordered
        self._lock = threading.Lock()
        self._bucket_counts = [0] * (len(ordered) + 1)  # last = overflow
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = _bucket_index(self.buckets, value)
        with self._lock:
            self._bucket_counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def bucket_counts(self) -> List[int]:
        """Per-bucket (non-cumulative) counts; the last is ``+Inf``."""
        with self._lock:
            return list(self._bucket_counts)

    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def samples(self, name: str, labels: str) -> List[str]:
        with self._lock:
            counts = list(self._bucket_counts)
            total, acc = self._count, self._sum
        lines = []
        cumulative = 0
        for boundary, count in zip(self.buckets, counts):
            cumulative += count
            lines.append(f"{name}_bucket{_merge_le(labels, boundary)} "
                         f"{cumulative}")
        lines.append(f'{name}_bucket{_merge_le(labels, math.inf)} {total}')
        lines.append(f"{name}_sum{labels} {format_value(acc)}")
        lines.append(f"{name}_count{labels} {total}")
        return lines


def _bucket_index(buckets: Tuple[float, ...], value: float) -> int:
    """The first bucket with ``value <= boundary``, else the overflow."""
    for index, boundary in enumerate(buckets):
        if value <= boundary:
            return index
    return len(buckets)


def _merge_le(labels: str, boundary: float) -> str:
    le = "+Inf" if math.isinf(boundary) else format_value(boundary)
    if labels:
        return f'{labels[:-1]},le="{le}"}}'
    return f'{{le="{le}"}}'


def format_value(value: float) -> str:
    """Render a sample value: integers without the trailing ``.0``."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"') \
        .replace("\n", "\\n")


class Family:
    """One named metric with a fixed label schema.

    ``labels(**values)`` returns the child instrument for one label-value
    combination; families declared with no labels proxy the instrument
    API directly (``family.inc()`` etc.).
    """

    def __init__(self, name: str, help_text: str,
                 labelnames: Sequence[str], factory):
        self.name = name
        self.help = help_text
        self.labelnames = tuple(labelnames)
        self._factory = factory
        self._children: Dict[Tuple[str, ...], object] = {}
        self._lock = threading.Lock()
        if not self.labelnames:
            self._children[()] = factory()

    @property
    def kind(self) -> str:
        return self._factory().kind if not self._children \
            else next(iter(self._children.values())).kind

    def labels(self, **values: str):
        if set(values) != set(self.labelnames):
            raise ValueError(
                f"{self.name} expects labels {self.labelnames}, "
                f"got {tuple(sorted(values))}")
        key = tuple(str(values[n]) for n in self.labelnames)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.setdefault(key, self._factory())
        return child

    # -- no-label proxying ---------------------------------------------------

    def _default(self):
        if self.labelnames:
            raise ValueError(f"{self.name} has labels {self.labelnames}; "
                             "use .labels(...)")
        return self._children[()]

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default().dec(amount)

    def set(self, value: float) -> None:
        self._default().set(value)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    @property
    def value(self) -> float:
        return self._default().value

    # -- exposition ----------------------------------------------------------

    def children(self) -> Iterable[Tuple[Tuple[str, ...], object]]:
        with self._lock:
            return sorted(self._children.items())

    def render(self) -> List[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        for key, child in self.children():
            if key:
                pairs = ",".join(
                    f'{name}="{_escape_label(value)}"'
                    for name, value in zip(self.labelnames, key))
                labels = "{" + pairs + "}"
            else:
                labels = ""
            lines.extend(child.samples(self.name, labels))
        return lines


class MetricsRegistry:
    """A named collection of metric families, safe for concurrent use.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice
    for the same name returns the same family, so independent modules can
    share instruments without plumbing them around.  Re-declaring a name
    as a different kind (or different labels) is a programming error and
    raises.
    """

    def __init__(self) -> None:
        self._families: Dict[str, Family] = {}
        self._lock = threading.Lock()

    def counter(self, name: str, help_text: str = "",
                labelnames: Sequence[str] = ()) -> Family:
        return self._get_or_create(name, help_text, labelnames, Counter)

    def gauge(self, name: str, help_text: str = "",
              labelnames: Sequence[str] = ()) -> Family:
        return self._get_or_create(name, help_text, labelnames, Gauge)

    def histogram(self, name: str, help_text: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS
                  ) -> Family:
        return self._get_or_create(name, help_text, labelnames,
                                   lambda: Histogram(buckets))

    def get(self, name: str) -> Optional[Family]:
        with self._lock:
            return self._families.get(name)

    def families(self) -> List[Family]:
        with self._lock:
            return [self._families[name]
                    for name in sorted(self._families)]

    def _get_or_create(self, name: str, help_text: str,
                       labelnames: Sequence[str], factory) -> Family:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = Family(name, help_text, labelnames, factory)
                self._families[name] = family
                return family
        probe = factory()
        if family.kind != probe.kind:
            raise ValueError(f"{name} already registered as {family.kind}")
        if family.labelnames != tuple(labelnames):
            raise ValueError(f"{name} already registered with labels "
                             f"{family.labelnames}")
        return family

    def render_prometheus(self) -> str:
        """The Prometheus text exposition of every family."""
        lines: List[str] = []
        for family in self.families():
            lines.extend(family.render())
        return "\n".join(lines) + ("\n" if lines else "")
