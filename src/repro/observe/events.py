"""The structured event bus: typed events, pluggable sinks.

Every stage of the fuzz → coverage → difftest pipeline emits typed
events so a campaign can be watched live, recorded to disk, and replayed
offline.  The taxonomy (one constant per type, all in
:data:`EVENT_TYPES`):

================== ========================================================
type               emitted by
================== ========================================================
``iteration``      the fuzzing loop, once per mutation iteration (with
                   its ``round`` and the ``seed`` label it mutated)
``mutant_accepted``  the fuzzing loop, when a mutant joins TestClasses
``mutant_discarded`` the mutation engine, when an iteration produced
                   no classfile (with the discard category)
``mcmc_transition``  the Metropolis–Hastings chain, per accepted proposal
                   (with the run's ``algorithm`` label)
``checkpoint_written``  the campaign checkpoint layer, per checkpoint
``reduction_step`` the delta-debugging reducer, per surviving deletion
``discrepancy_found``  the differential harness
``triage_cluster`` the triage engine, once per newly discovered cluster
================== ========================================================

An event records a fact no metric holds.  Counts and latencies that a
metric family already records (JVM phases, executor batches, cache
lookups, scheduled seeds, rounds) stay in the registry only.

The bus is **no-op cheap when disabled**: with no sinks attached
``EventBus.enabled`` is false and every instrumentation site guards its
emission on it, so the hot path pays a single attribute check.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

# -- the taxonomy -----------------------------------------------------------

ITERATION = "iteration"
MUTANT_ACCEPTED = "mutant_accepted"
MUTANT_DISCARDED = "mutant_discarded"
MCMC_TRANSITION = "mcmc_transition"
CHECKPOINT_WRITTEN = "checkpoint_written"
REDUCTION_STEP = "reduction_step"
DISCREPANCY_FOUND = "discrepancy_found"
TRIAGE_CLUSTER = "triage_cluster"

#: Every event type the pipeline emits.
EVENT_TYPES = (ITERATION, MUTANT_ACCEPTED, MUTANT_DISCARDED,
               MCMC_TRANSITION, CHECKPOINT_WRITTEN, REDUCTION_STEP,
               DISCREPANCY_FOUND, TRIAGE_CLUSTER)


@dataclass(frozen=True)
class Event:
    """One structured event.

    Attributes:
        type: one of :data:`EVENT_TYPES`.
        ts: wall-clock timestamp (``time.time()``).
        seq: process-wide monotonically increasing sequence number, so
            recorded logs have a total order even at equal timestamps.
        fields: the type-specific payload (JSON-serialisable values).
    """

    type: str
    ts: float
    seq: int
    fields: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        record = {"type": self.type, "ts": self.ts, "seq": self.seq}
        record.update(self.fields)
        return json.dumps(record, sort_keys=True, default=str)

    @classmethod
    def from_json(cls, line: str) -> "Event":
        record = json.loads(line)
        return cls(type=record.pop("type"), ts=record.pop("ts"),
                   seq=record.pop("seq", 0), fields=record)


# -- sinks ------------------------------------------------------------------

class EventSink:
    """Interface: receive events one at a time; optionally flush/close."""

    def emit(self, event: Event) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release resources; further emits are undefined."""


class JsonlSink(EventSink):
    """Appends one JSON object per line to a file.

    The file is opened lazily on the first event so constructing a sink
    never touches the filesystem, and every event type round-trips
    through :meth:`Event.to_json`/:meth:`Event.from_json`.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.written = 0
        self._handle = None
        self._lock = threading.Lock()

    def emit(self, event: Event) -> None:
        with self._lock:
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = self.path.open("a", encoding="utf-8")
            self._handle.write(event.to_json() + "\n")
            self.written += 1

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


class RingBufferSink(EventSink):
    """Keeps the last ``capacity`` events in memory (for live inspection)."""

    def __init__(self, capacity: int = 4096):
        self._events: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def emit(self, event: Event) -> None:
        with self._lock:
            self._events.append(event)

    def events(self, event_type: Optional[str] = None) -> List[Event]:
        with self._lock:
            snapshot = list(self._events)
        if event_type is None:
            return snapshot
        return [e for e in snapshot if e.type == event_type]

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


class StderrProgressSink(EventSink):
    """A live one-line-per-interval progress report on stderr.

    Prints a summary line every ``every`` iteration events (and every
    discrepancy immediately); all other event types only update internal
    tallies, so the sink is readable at randfuzz iteration rates.
    """

    def __init__(self, every: int = 100, stream=None):
        self.every = max(1, every)
        self.stream = stream if stream is not None else sys.stderr
        self._iterations = 0
        self._accepted = 0
        self._discrepancies = 0
        self._lock = threading.Lock()

    def emit(self, event: Event) -> None:
        with self._lock:
            if event.type == ITERATION:
                self._iterations += 1
                if event.fields.get("accepted"):
                    self._accepted += 1
                if self._iterations % self.every == 0:
                    rate = self._accepted / self._iterations
                    print(f"[observe] {event.fields.get('algorithm', '?')} "
                          f"iteration {self._iterations}: "
                          f"{self._accepted} accepted ({rate:.1%}), "
                          f"{self._discrepancies} discrepancies",
                          file=self.stream, flush=True)
            elif event.type == DISCREPANCY_FOUND:
                self._discrepancies += 1
                print(f"[observe] discrepancy: "
                      f"{event.fields.get('label', '?')} "
                      f"codes={event.fields.get('codes')}",
                      file=self.stream, flush=True)


class CallbackSink(EventSink):
    """Adapts a plain callable into a sink (handy in tests)."""

    def __init__(self, callback: Callable[[Event], None]):
        self._callback = callback

    def emit(self, event: Event) -> None:
        self._callback(event)


# -- the bus ----------------------------------------------------------------

class EventBus:
    """Fans events out to the attached sinks.

    Attributes:
        enabled: true iff at least one sink is attached.  Emission sites
            check this before building payloads, so a bus with no sinks
            costs one attribute read per site.
    """

    def __init__(self) -> None:
        self.sinks: List[EventSink] = []
        self.enabled = False
        self._lock = threading.Lock()
        self._seq = 0

    def add_sink(self, sink: EventSink) -> EventSink:
        with self._lock:
            self.sinks.append(sink)
            self.enabled = True
        return sink

    def emit(self, event_type: str, **fields: Any) -> None:
        """Build and dispatch one event (no-op when no sinks attached)."""
        if not self.enabled:
            return
        with self._lock:
            self._seq += 1
            event = Event(event_type, time.time(), self._seq, fields)
            for sink in self.sinks:
                sink.emit(event)

    def dispatch(self, event: Event) -> None:
        """Fan out an already-built event, preserving its ts/seq.

        This is the replay path (``repro monitor`` feeding a recorded
        log back through live sinks); the bus sequence is advanced past
        the event's so interleaved :meth:`emit` calls stay ordered.
        """
        if not self.enabled:
            return
        with self._lock:
            self._seq = max(self._seq, event.seq)
            for sink in self.sinks:
                sink.emit(event)

    def close(self) -> None:
        with self._lock:
            for sink in self.sinks:
                sink.close()


def read_events(path: Union[str, Path]) -> Iterator[Event]:
    """Stream events back from a JSONL log (skipping blank lines).

    A malformed *final* line is tolerated silently — a campaign killed
    mid-write leaves a truncated tail, and the recorded prefix is still
    a valid log (the same contract as the triage store).  A malformed
    line anywhere else is real corruption and raises.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    for index, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            yield Event.from_json(line)
        except json.JSONDecodeError:
            if index == len(lines) - 1:
                break  # the crash-truncated tail
            raise
