"""Run-status aggregation: the ``GET /status`` snapshot behind the monitor.

:class:`StatusTracker` is an :class:`~repro.observe.events.EventSink`
that folds the live event stream into a compact run-status summary —
current round, mutants/sec over a sliding window, acceptance tallies,
checkpoint high-water mark, discrepancy and triage counts — and, at
snapshot time, reads the shared
:class:`~repro.observe.registry.MetricsRegistry` for everything the
instruments already track (per-vendor JVM runs, cache hit rates, the
unique-trace gauge).

Everything mutable lives behind one lock; ``snapshot()`` copies under it
and assembles the JSON-ready dict outside, so an HTTP scrape holds the
lock for microseconds regardless of response size.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional

from repro.observe.events import (
    CHECKPOINT_WRITTEN,
    DISCREPANCY_FOUND,
    ITERATION,
    MUTANT_DISCARDED,
    TRIAGE_CLUSTER,
    Event,
    EventSink,
)
from repro.observe.registry import MetricsRegistry

#: Sliding-window length (seconds) for the mutants/sec estimate.
RATE_WINDOW_SECONDS = 30.0


def config_fingerprint(config: Dict[str, Any]) -> str:
    """A short stable fingerprint of a run configuration dict."""
    canonical = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


class StatusTracker(EventSink):
    """Folds events + registry reads into one ``/status`` snapshot."""

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 rate_window: float = RATE_WINDOW_SECONDS):
        self._registry = registry
        self._lock = threading.Lock()
        self._rate_window = rate_window
        self._started = time.time()
        # -- run identity (set via begin_run/update) --
        self._run: Dict[str, Any] = {}
        self._extra: Dict[str, Any] = {}
        # -- service-job context (set via set_job; daemon-managed legs) --
        self._job: Dict[str, Any] = {}
        # -- event-folded tallies --
        self._iterations = 0
        self._accepted = 0
        self._generated = 0
        self._round = 0
        self._tests = 0
        self._pool = 0
        self._algorithm: Optional[str] = None
        self._discards: Dict[str, int] = {}
        self._discrepancies = 0
        self._recent_discrepancies: deque = deque(maxlen=10)
        self._clusters = 0
        self._checkpoint: Dict[str, Any] = {}
        self._census: Dict[str, int] = {}
        self._iteration_times: deque = deque(maxlen=4096)

    # -- run identity --------------------------------------------------------

    def begin_run(self, run_id: str, config: Optional[Dict[str, Any]] = None,
                  **fields: Any) -> None:
        """Declare the run this tracker is watching (id + config)."""
        config = dict(config or {})
        with self._lock:
            self._run = {"id": run_id,
                         "config": config,
                         "config_fingerprint": config_fingerprint(config),
                         "started": time.time()}
            self._run.update(fields)

    def update(self, **fields: Any) -> None:
        """Merge free-form campaign-level fields into the snapshot."""
        with self._lock:
            self._extra.update(fields)

    def set_job(self, **fields: Any) -> None:
        """Record the service-job context of a daemon-managed run.

        The `repro serve` worker sets the fields the run itself cannot
        know — ``id`` (the queue's job id), ``leg``/``legs`` (this leg's
        1-based index and the job's leg count), and ``queue_depth``
        (jobs queued behind this one when the leg started).  They
        surface as the snapshot's ``job`` section (empty for
        foreground runs); see ``docs/architecture.md`` for the full
        ``/status`` schema.
        """
        with self._lock:
            self._job.update(fields)

    # -- the sink ------------------------------------------------------------

    def emit(self, event: Event) -> None:
        with self._lock:
            self._census[event.type] = self._census.get(event.type, 0) + 1
            if event.type == ITERATION:
                self._iterations += 1
                self._iteration_times.append(event.ts)
                if event.fields.get("generated"):
                    self._generated += 1
                if event.fields.get("accepted"):
                    self._accepted += 1
                self._tests = int(event.fields.get("tests", self._tests))
                self._pool = int(event.fields.get("pool", self._pool))
                self._round = int(event.fields.get("round", self._round))
                algorithm = event.fields.get("algorithm")
                if algorithm is not None:
                    self._algorithm = str(algorithm)
            elif event.type == MUTANT_DISCARDED:
                category = str(event.fields.get("category", "?"))
                self._discards[category] = \
                    self._discards.get(category, 0) + 1
            elif event.type == CHECKPOINT_WRITTEN:
                self._checkpoint = {
                    "index": event.fields.get("index"),
                    "iterations": event.fields.get("iterations"),
                    "path": event.fields.get("path"),
                    "ts": event.ts,
                }
            elif event.type == DISCREPANCY_FOUND:
                self._discrepancies += 1
                self._recent_discrepancies.append(
                    {"label": event.fields.get("label"),
                     "codes": event.fields.get("codes")})
            elif event.type == TRIAGE_CLUSTER:
                self._clusters += 1

    # -- snapshot assembly ---------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The JSON-ready status document (copies state under the lock)."""
        now = time.time()
        with self._lock:
            run = dict(self._run)
            extra = dict(self._extra)
            job = dict(self._job)
            iterations = self._iterations
            accepted = self._accepted
            generated = self._generated
            times = list(self._iteration_times)
            progress = {
                "round": self._round,
                "iterations": iterations,
                "generated": generated,
                "accepted": accepted,
                "acceptance_rate": (accepted / iterations)
                if iterations else 0.0,
                "algorithm": self._algorithm,
                "tests": self._tests,
                "pool": self._pool,
                "discards": dict(self._discards),
            }
            discrepancies = {
                "total": self._discrepancies,
                "recent": list(self._recent_discrepancies),
                "triage_clusters": self._clusters,
            }
            checkpoint = dict(self._checkpoint)
            census = dict(self._census)
        progress["mutants_per_second"] = self._window_rate(times, now)
        if checkpoint.get("ts") is not None:
            checkpoint["age_seconds"] = round(now - checkpoint.pop("ts"), 3)
        if run.get("started") is not None:
            run["uptime_seconds"] = round(now - run["started"], 3)
        status = {
            "run": run,
            "campaign": extra,
            "job": job,
            "progress": progress,
            "coverage": self._coverage_section(),
            "executor": self._executor_section(),
            "discrepancies": discrepancies,
            "checkpoint": checkpoint,
            "events": census,
            "now": now,
        }
        return status

    def _window_rate(self, times: List[float], now: float) -> float:
        cutoff = now - self._rate_window
        recent = [t for t in times if t >= cutoff]
        if len(recent) < 2:
            return 0.0
        span = max(now - recent[0], 1e-9)
        return round(len(recent) / span, 3)

    # -- registry reads ------------------------------------------------------

    def _family_values(self, name: str) -> List[Any]:
        """``[(label-tuple, value)]`` for one family, or ``[]``."""
        if self._registry is None:
            return []
        family = self._registry.get(name)
        if family is None:
            return []
        values = []
        for key, child in family.children():
            try:
                values.append((key, child.value))
            except AttributeError:  # histograms have no scalar .value
                continue
        return values

    def _coverage_section(self) -> Dict[str, Any]:
        unique = {".".join(k) if k else "all": v for k, v
                  in self._family_values("repro_unique_traces")}
        return {"unique_traces": unique}

    def _executor_section(self) -> Dict[str, Any]:
        vendor_runs = {".".join(k) if k else "all": int(v) for k, v
                       in self._family_values("repro_jvm_runs_total")}
        caches: Dict[str, Dict[str, int]] = {}
        for key, value in self._family_values("repro_cache_lookups_total"):
            store, result = key if len(key) == 2 else ("?", "?")
            caches.setdefault(store, {})[result] = int(value)
        cache_section = {}
        for store, results in sorted(caches.items()):
            hits = results.get("hit", 0)
            total = sum(results.values())
            cache_section[store] = {
                "lookups": results,
                "hit_rate": round(hits / total, 4) if total else 0.0,
            }
        batches = {".".join(k) if k else "all": int(v) for k, v
                   in self._family_values("repro_executor_batches_total")}
        section = {"vendor_runs": vendor_runs, "caches": cache_section,
                   "batches": batches}
        workers = self._worker_subsection()
        if workers:
            section["workers"] = workers
        return section

    def _worker_subsection(self) -> Dict[str, Any]:
        """Warm/cold run split of the process backend's reference workers.

        Empty (and omitted from the snapshot) for serial runs, which
        never start worker processes.
        """
        runs = {".".join(k) if k else "?": int(v) for k, v
                in self._family_values("repro_worker_runs_total")}
        if not runs:
            return {}
        warm = runs.get("warm", 0)
        total = sum(runs.values())
        recycles = sum(int(v) for _, v in self._family_values(
            "repro_worker_recycles_total"))
        return {"runs": runs,
                "warm_rate": round(warm / total, 4) if total else 0.0,
                "recycles": recycles}
