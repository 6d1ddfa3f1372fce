"""Pluggable execution engines for JVM runs.

Every JVM execution in the pipeline — the five-vendor differential runs
of :class:`~repro.core.difftest.DifferentialHarness` and the
coverage-collected reference runs of the fuzzing loop — routes through an
:class:`Executor`.  Two engines share one interface:

* :class:`SerialExecutor` — the in-order baseline;
* :class:`ProcessExecutor` — a ``ProcessPoolExecutor`` backend that ships
  classfile bytes to worker processes for real CPU parallelism.  Its
  coverage-collected reference runs come back as pickled tracefiles,
  which the parent re-keys onto its own interned site ids.

Because ``Jvm.run(bytes)`` is a pure function of the classfile bytes and
the vendor policy, runs can be cached content-addressed: an
:class:`OutcomeCache` maps ``(sha256(bytes), vendor)`` to the
:class:`~repro.jvm.outcome.Outcome`, and reference runs additionally to
the collected :class:`~repro.coverage.tracefile.Tracefile`.  A campaign
re-executes the same bytes often — every accepted ``TestClasses`` member
is differential-tested once inside ``GenClasses`` and again in the test
suite, and every algorithm primes coverage on the same seed corpus — so
the cache turns those repeats into lookups.

Determinism is part of the interface contract: for a fixed input
sequence, every engine returns bit-identical
:class:`~repro.jvm.outcome.DifferentialResult` sequences in submit order
(parallel engines join futures in submission order, never completion
order).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
import time
from concurrent import futures
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.classfile.reader import ParsedClass, parse_class
from repro.core import worker
from repro.coverage.probes import CoverageCollector
from repro.coverage.tracefile import Tracefile
from repro.jvm.machine import Jvm
from repro.jvm.outcome import DifferentialResult, Outcome


def classfile_digest(data: bytes) -> str:
    """The content address of a classfile: its SHA-256 hex digest."""
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

@dataclass
class ExecutorStats:
    """Counters and timings for one executor's lifetime.

    Attributes:
        runs: actual JVM executions performed (cache hits excluded).
        cache_hits: differential-run outcomes served from the cache.
        cache_misses: differential-run outcomes that had to execute.
        trace_hits: reference runs served from the tracefile cache.
        trace_misses: reference runs that had to execute.
        batches: ``run_differential`` calls.
        batch_seconds: wall-clock spent inside ``run_differential``.
        ref_batches: ``run_reference_many`` calls.
        ref_batch_seconds: wall-clock spent inside ``run_reference_many``.
        vendor_runs: vendor name → actual executions.
        vendor_seconds: vendor name → wall-clock spent executing.
        warm_runs: reference-worker runs served on already-built state.
        cold_runs: reference-worker runs that paid a JVM construction
            (worker start or recycle).
        worker_recycles: persistent workers that hit the
            ``max_runs_per_worker`` bound and rebuilt their state.
    """

    runs: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    trace_hits: int = 0
    trace_misses: int = 0
    batches: int = 0
    batch_seconds: float = 0.0
    ref_batches: int = 0
    ref_batch_seconds: float = 0.0
    vendor_runs: Dict[str, int] = field(default_factory=dict)
    vendor_seconds: Dict[str, float] = field(default_factory=dict)
    warm_runs: int = 0
    cold_runs: int = 0
    worker_recycles: int = 0

    def record_run(self, vendor: str, seconds: float) -> None:
        self.runs += 1
        self.vendor_runs[vendor] = self.vendor_runs.get(vendor, 0) + 1
        self.vendor_seconds[vendor] = \
            self.vendor_seconds.get(vendor, 0.0) + seconds

    def vendor_mean_ms(self, vendor: str) -> float:
        """Mean per-run latency for ``vendor``, in milliseconds."""
        runs = self.vendor_runs.get(vendor, 0)
        if runs == 0:
            return 0.0
        return self.vendor_seconds.get(vendor, 0.0) / runs * 1000.0

    def snapshot(self) -> "ExecutorStats":
        """An independent copy (for before/after phase deltas)."""
        return replace(self, vendor_runs=dict(self.vendor_runs),
                       vendor_seconds=dict(self.vendor_seconds))

    def since(self, earlier: "ExecutorStats") -> "ExecutorStats":
        """The delta accumulated after ``earlier`` was snapshotted."""
        delta = ExecutorStats(
            runs=self.runs - earlier.runs,
            cache_hits=self.cache_hits - earlier.cache_hits,
            cache_misses=self.cache_misses - earlier.cache_misses,
            trace_hits=self.trace_hits - earlier.trace_hits,
            trace_misses=self.trace_misses - earlier.trace_misses,
            batches=self.batches - earlier.batches,
            batch_seconds=self.batch_seconds - earlier.batch_seconds,
            ref_batches=self.ref_batches - earlier.ref_batches,
            ref_batch_seconds=self.ref_batch_seconds
            - earlier.ref_batch_seconds,
            warm_runs=self.warm_runs - earlier.warm_runs,
            cold_runs=self.cold_runs - earlier.cold_runs,
            worker_recycles=self.worker_recycles
            - earlier.worker_recycles,
        )
        for vendor, runs in self.vendor_runs.items():
            diff = runs - earlier.vendor_runs.get(vendor, 0)
            if diff:
                delta.vendor_runs[vendor] = diff
        for vendor, seconds in self.vendor_seconds.items():
            diff = seconds - earlier.vendor_seconds.get(vendor, 0.0)
            if vendor in delta.vendor_runs:
                delta.vendor_seconds[vendor] = diff
        return delta

    def add(self, other: "ExecutorStats") -> None:
        """Fold ``other``'s counters into this one (for merging phases)."""
        self.runs += other.runs
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.trace_hits += other.trace_hits
        self.trace_misses += other.trace_misses
        self.batches += other.batches
        self.batch_seconds += other.batch_seconds
        self.ref_batches += other.ref_batches
        self.ref_batch_seconds += other.ref_batch_seconds
        self.warm_runs += other.warm_runs
        self.cold_runs += other.cold_runs
        self.worker_recycles += other.worker_recycles
        for vendor, runs in other.vendor_runs.items():
            self.vendor_runs[vendor] = self.vendor_runs.get(vendor, 0) + runs
        for vendor, seconds in other.vendor_seconds.items():
            self.vendor_seconds[vendor] = \
                self.vendor_seconds.get(vendor, 0.0) + seconds

    def format(self) -> str:
        """Human-readable stats block (the CLI's ``--stats`` output)."""
        lookups = self.cache_hits + self.cache_misses
        lines = [
            f"runs: {self.runs}  batches: {self.batches} "
            f"({self.batch_seconds:.2f}s)",
            f"outcome cache: {self.cache_hits} hits / "
            f"{self.cache_misses} misses"
            + (f" ({self.cache_hits / lookups:.0%} hit rate)"
               if lookups else ""),
            f"tracefile cache: {self.trace_hits} hits / "
            f"{self.trace_misses} misses",
        ]
        if self.ref_batches:
            lines.append(f"reference batches: {self.ref_batches} "
                         f"({self.ref_batch_seconds:.2f}s)")
        if self.warm_runs or self.cold_runs:
            lines.append(
                f"worker runs: {self.warm_runs} warm / "
                f"{self.cold_runs} cold"
                + (f"  recycles: {self.worker_recycles}"
                   if self.worker_recycles else ""))
        if self.vendor_runs:
            width = max(len(v) for v in self.vendor_runs)
            lines.append(f"{'vendor'.ljust(width)}  {'runs':>8}  "
                         f"{'total_s':>8}  {'mean_ms':>8}")
            for vendor in sorted(self.vendor_runs):
                lines.append(
                    f"{vendor.ljust(width)}  "
                    f"{self.vendor_runs[vendor]:>8}  "
                    f"{self.vendor_seconds.get(vendor, 0.0):>8.3f}  "
                    f"{self.vendor_mean_ms(vendor):>8.3f}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Content-addressed cache
# ---------------------------------------------------------------------------

class OutcomeCache:
    """Content-addressed cache of deterministic JVM runs.

    Keys are ``(sha256(classfile bytes), vendor name)``; values are the
    run's :class:`Outcome` (and, for reference runs, the collected
    :class:`Tracefile`).  Safe for concurrent use.

    Outcomes and traces live in separate stores joined by key: a
    reference run's ``put_trace`` populates *both*, so its outcome also
    serves later differential lookups.  A differential run caches the
    outcome alone; a later reference lookup of the same bytes is a miss
    and re-runs for coverage, and since ``Jvm.run`` is a pure function of
    the bytes and the vendor, the re-run's outcome is the cached one.
    """

    def __init__(self) -> None:
        self._outcomes: Dict[Tuple[str, str], Outcome] = {}
        self._traces: Dict[Tuple[str, str], Tracefile] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._outcomes) + len(self._traces)

    def clear(self) -> None:
        with self._lock:
            self._outcomes.clear()
            self._traces.clear()

    def get_outcome(self, digest: str, vendor: str) -> Optional[Outcome]:
        with self._lock:
            return self._outcomes.get((digest, vendor))

    def put_outcome(self, digest: str, vendor: str,
                    outcome: Outcome) -> None:
        with self._lock:
            self._outcomes[(digest, vendor)] = outcome

    def get_trace(self, digest: str, vendor: str
                  ) -> Optional[Tuple[Outcome, Tracefile]]:
        """``(outcome, trace)`` of a reference run, or ``None``."""
        with self._lock:
            key = (digest, vendor)
            trace = self._traces.get(key)
            if trace is None:
                return None
            return self._outcomes[key], trace

    def put_trace(self, digest: str, vendor: str, outcome: Outcome,
                  trace: Tracefile) -> None:
        with self._lock:
            key = (digest, vendor)
            self._outcomes[key] = outcome
            self._traces[key] = trace


class _ExecutorInstruments:
    """Pre-resolved telemetry instruments for one engine's hot path.

    Constructed only when an engine is handed a telemetry bundle; every
    instrument child is resolved once here so per-run recording is a
    plain method call.  The engine emits no events: runs, cache lookups
    and batches are counts and latencies, and the registry holds them.
    """

    __slots__ = ("telemetry", "_runs", "_run_seconds", "_cache",
                 "_batches", "_batch_seconds", "_ref_batches",
                 "_ref_batch_seconds", "_reference_seconds",
                 "_worker_warm", "_worker_cold", "_worker_recycles")

    def __init__(self, telemetry, kind: str):
        self.telemetry = telemetry
        registry = telemetry.registry
        self._runs = registry.counter(
            "repro_jvm_runs_total",
            "Actual JVM executions performed (cache hits excluded).",
            ("vendor",))
        self._run_seconds = registry.histogram(
            "repro_jvm_run_seconds",
            "Latency of individual JVM executions.", ("vendor",))
        self._cache = registry.counter(
            "repro_cache_lookups_total",
            "Content-addressed cache lookups by store and result.",
            ("store", "result"))
        batches = registry.counter(
            "repro_executor_batches_total",
            "run_differential / run_reference_many batches executed.",
            ("engine",))
        batch_seconds = registry.histogram(
            "repro_executor_batch_seconds",
            "Wall-clock latency of executor batches.", ("engine",))
        self._batches = batches.labels(engine=kind)
        self._batch_seconds = batch_seconds.labels(engine=kind)
        self._ref_batches = batches.labels(engine=f"{kind}.reference")
        self._ref_batch_seconds = \
            batch_seconds.labels(engine=f"{kind}.reference")
        self._reference_seconds = registry.histogram(
            "repro_reference_run_seconds",
            "Latency of coverage-collected reference runs.")
        worker_runs = registry.counter(
            "repro_worker_runs_total",
            "Reference-worker runs by warm/cold state.", ("state",))
        self._worker_warm = worker_runs.labels(state="warm")
        self._worker_cold = worker_runs.labels(state="cold")
        self._worker_recycles = registry.counter(
            "repro_worker_recycles_total",
            "Persistent reference workers recycled at the "
            "max-runs-per-worker bound.")

    def record_run(self, vendor: str, seconds: float) -> None:
        self._runs.labels(vendor=vendor).inc()
        self._run_seconds.labels(vendor=vendor).observe(seconds)

    def record_reference(self, seconds: float) -> None:
        self._reference_seconds.observe(seconds)

    def cache_lookup(self, store: str, hit: bool) -> None:
        self._cache.labels(store=store,
                           result="hit" if hit else "miss").inc()

    def worker_run(self, warm: bool) -> None:
        (self._worker_warm if warm else self._worker_cold).inc()

    def worker_recycle(self) -> None:
        self._worker_recycles.inc()

    def batch(self, seconds: float) -> None:
        self._batches.inc()
        self._batch_seconds.observe(seconds)

    def reference_batch(self, seconds: float) -> None:
        self._ref_batches.inc()
        self._ref_batch_seconds.observe(seconds)


# ---------------------------------------------------------------------------
# The executor interface
# ---------------------------------------------------------------------------

class Executor:
    """Interface: run classfiles on JVMs, with optional caching and stats.

    Attributes:
        cache: the content-addressed outcome/tracefile cache, or ``None``
            when caching is disabled (the default — benchmarks and ad-hoc
            harnesses must measure real executions unless they opt in).
        stats: lifetime counters, thread-safe.
        telemetry: optional :class:`~repro.observe.Telemetry`; when set,
            runs, cache lookups and batches additionally feed the
            structured metrics registry.  ``None`` (the default) costs
            one attribute check per operation.
    """

    kind = "abstract"

    def __init__(self, cache: Optional[OutcomeCache] = None,
                 stats: Optional[ExecutorStats] = None,
                 telemetry=None):
        self.cache = cache
        self.stats = stats if stats is not None else ExecutorStats()
        self.telemetry = telemetry
        self._observe = _ExecutorInstruments(telemetry, self.kind) \
            if telemetry is not None else None
        self._stats_lock = threading.Lock()
        self._reference_lock = threading.Lock()

    # -- single runs --------------------------------------------------------------

    def run_one(self, jvm: Jvm, data: bytes,
                digest: Optional[str] = None) -> Outcome:
        """Run one classfile on one JVM, through the cache when enabled."""
        if self.cache is None:
            return self._execute(jvm, data)
        digest = digest or classfile_digest(data)
        outcome = self._cached_outcome(digest, jvm)
        if outcome is None:
            outcome = self._execute(jvm, data)
            self.cache.put_outcome(digest, jvm.name, outcome)
        return outcome

    def _cached_outcome(self, digest: str, jvm: Jvm) -> Optional[Outcome]:
        """One counted outcome-cache lookup."""
        cached = self.cache.get_outcome(digest, jvm.name)
        with self._stats_lock:
            if cached is not None:
                self.stats.cache_hits += 1
            else:
                self.stats.cache_misses += 1
        if self._observe is not None:
            self._observe.cache_lookup("outcome", cached is not None)
        return cached

    def run_reference(self, jvm: Jvm, data: bytes
                      ) -> Tuple[Outcome, Tracefile]:
        """Run on the (instrumented) reference JVM, collecting coverage.

        Reference runs always execute in the calling thread — the fuzzing
        loop is sequential by construction (each acceptance decision
        feeds the next iteration's seed pool) — but they share the
        content-addressed cache, so re-running the same bytes (seed
        priming across algorithms, pool re-runs) is a lookup.
        """
        digest = classfile_digest(data) if self.cache is not None else ""
        if self.cache is not None:
            cached = self.cache.get_trace(digest, jvm.name)
            with self._stats_lock:
                if cached is not None:
                    self.stats.trace_hits += 1
                else:
                    self.stats.trace_misses += 1
            if self._observe is not None:
                self._observe.cache_lookup("trace", cached is not None)
            if cached is not None:
                return cached
        with self._reference_lock:
            outcome, trace, elapsed = self._reference_execute(jvm, data)
        with self._stats_lock:
            self.stats.record_run(jvm.name, elapsed)
        if self._observe is not None:
            self._observe.record_run(jvm.name, elapsed)
            self._observe.record_reference(elapsed)
        if self.cache is not None:
            self.cache.put_trace(digest, jvm.name, outcome, trace)
        return outcome, trace

    @staticmethod
    def _reference_execute(jvm: Jvm, data: bytes
                           ) -> Tuple[Outcome, Tracefile, float]:
        """One instrumented run: collector scope + timing, no bookkeeping."""
        collector = CoverageCollector()
        started = time.perf_counter()
        with collector:
            outcome = jvm.run(data)
        elapsed = time.perf_counter() - started
        return outcome, collector.tracefile(), elapsed

    def run_reference_many(self, jvm: Jvm, batch: Sequence[bytes]
                           ) -> List[Tuple[Outcome, Tracefile]]:
        """Run a batch of classfiles on the reference JVM, in input order.

        The bulk counterpart of :meth:`run_reference` for the speculative
        fuzzing pipeline: every item is first short-circuited through the
        content-addressed tracefile cache, and only the misses are handed
        to the backend's :meth:`_run_reference_batch` fan-out (a
        dedicated reference worker pool for the process engine, an
        in-order loop for the serial one).

        Results are deterministic and bit-identical across engines for a
        fixed input batch — ``Jvm.run`` is a pure function of the bytes,
        and results are stitched back in submit order.

        Identical classfiles *within* one batch are deduplicated by
        digest: each distinct miss executes exactly once and every
        duplicate position is filled from that single ``(outcome,
        trace)`` pair — so duplicates share one :class:`Tracefile`
        instance (one set of cached interned views, and on the
        process backend one pickled trace crossing the pool boundary
        instead of one per position).  Duplicate positions count as
        ``trace_hits``: they are served without an execution, exactly
        like a cache hit.
        """
        items = list(batch)
        started = time.perf_counter()
        results: List[Optional[Tuple[Outcome, Tracefile]]] = \
            [None] * len(items)
        #: digest → every position in this batch awaiting its result.
        positions: Dict[str, List[int]] = {}
        misses: List[Tuple[str, bytes]] = []
        if self.cache is not None:
            hits = 0
            for position, data in enumerate(items):
                digest = classfile_digest(data)
                cached = self.cache.get_trace(digest, jvm.name)
                if cached is not None:
                    results[position] = cached
                    hits += 1
                elif digest in positions:
                    positions[digest].append(position)
                    hits += 1
                else:
                    positions[digest] = [position]
                    misses.append((digest, data))
            with self._stats_lock:
                self.stats.trace_hits += hits
                self.stats.trace_misses += len(misses)
            if self._observe is not None:
                for _ in range(hits):
                    self._observe.cache_lookup("trace", True)
                for _ in misses:
                    self._observe.cache_lookup("trace", False)
        else:
            for position, data in enumerate(items):
                digest = classfile_digest(data)
                if digest in positions:
                    positions[digest].append(position)
                else:
                    positions[digest] = [position]
                    misses.append((digest, data))
        if misses:
            executed = self._run_reference_batch(
                jvm, [data for _, data in misses])
            for (digest, _), (outcome, trace, seconds) in zip(
                    misses, executed):
                with self._stats_lock:
                    self.stats.record_run(jvm.name, seconds)
                if self._observe is not None:
                    self._observe.record_run(jvm.name, seconds)
                    self._observe.record_reference(seconds)
                if self.cache is not None:
                    self.cache.put_trace(digest, jvm.name, outcome, trace)
                pair = (outcome, trace)
                for position in positions[digest]:
                    results[position] = pair
        elapsed = time.perf_counter() - started
        with self._stats_lock:
            self.stats.ref_batches += 1
            self.stats.ref_batch_seconds += elapsed
        if self._observe is not None:
            self._observe.reference_batch(elapsed)
        return results

    def _run_reference_batch(self, jvm: Jvm, batch: List[bytes]
                             ) -> List[Tuple[Outcome, Tracefile, float]]:
        """Execute the cache-missing items; in-order serial fallback."""
        with self._reference_lock:
            return [self._reference_execute(jvm, data) for data in batch]

    # -- in-process map -------------------------------------------------------------

    def map_many(self, fn, items: Sequence) -> List:
        """Apply ``fn`` to every item in the calling process, in input
        order, on every engine.

        The fuzzing pipeline compiles and dumps each round's mutants
        through it.  Compiles stay in the fuzzing process, where each
        clone's compile template lives; only reference runs fan out.  It
        is kept as the one call that the benchmark's ``executor.map``
        span wraps.
        """
        return [fn(item) for item in items]

    # -- batched differential runs ----------------------------------------------

    def run_differential(self, jvms: Sequence[Jvm],
                         classfiles: Iterable[Tuple[str, bytes]]
                         ) -> List[DifferentialResult]:
        """Run every ``(label, bytes)`` pair on every JVM.

        Results are returned in input order, bit-identical across
        engines.
        """
        batch = list(classfiles)
        started = time.perf_counter()
        results = self._run_batch(list(jvms), batch)
        elapsed = time.perf_counter() - started
        with self._stats_lock:
            self.stats.batches += 1
            self.stats.batch_seconds += elapsed
        if self._observe is not None:
            self._observe.batch(elapsed)
        return results

    def _run_batch(self, jvms: List[Jvm],
                   batch: List[Tuple[str, bytes]]
                   ) -> List[DifferentialResult]:
        raise NotImplementedError

    def _run_classfile(self, jvms: List[Jvm], label: str,
                       data: bytes) -> DifferentialResult:
        """One classfile on every JVM: one parse serves every vendor
        whose outcome is not cached (none is made when all are)."""
        digest = classfile_digest(data) if self.cache is not None else None
        parsed = None
        outcomes = []
        for jvm in jvms:
            outcome = self._cached_outcome(digest, jvm) \
                if digest is not None else None
            if outcome is None:
                if parsed is None:
                    parsed = parse_class(data)
                outcome = self._execute(jvm, parsed)
                if digest is not None:
                    self.cache.put_outcome(digest, jvm.name, outcome)
            outcomes.append(outcome)
        return DifferentialResult(outcomes=outcomes, label=label)

    def _execute(self, jvm: Jvm, data: Union[bytes, ParsedClass]) -> Outcome:
        started = time.perf_counter()
        outcome = jvm.run(data)
        elapsed = time.perf_counter() - started
        with self._stats_lock:
            self.stats.record_run(jvm.name, elapsed)
        if self._observe is not None:
            self._observe.record_run(jvm.name, elapsed)
        return outcome

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Release worker pools (no-op for pool-less engines)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(Executor):
    """The in-order baseline engine: no pools, no concurrency."""

    kind = "serial"

    def _run_batch(self, jvms, batch):
        return [self._run_classfile(jvms, label, data)
                for label, data in batch]


# -- process backend ----------------------------------------------------------

#: Per-worker JVM instances, set once by the pool initializer.
_WORKER_JVMS: List[Jvm] = []


def _process_worker_init(blob: bytes) -> None:
    global _WORKER_JVMS
    _WORKER_JVMS = pickle.loads(blob)


def _process_worker_run(data: bytes
                        ) -> Tuple[List[Outcome], List[float]]:
    # One parse shared by every vendor; timings are per-vendor runs.
    parsed = parse_class(data)
    outcomes: List[Outcome] = []
    timings: List[float] = []
    for jvm in _WORKER_JVMS:
        started = time.perf_counter()
        outcomes.append(jvm.run(parsed))
        timings.append(time.perf_counter() - started)
    return outcomes, timings


class ProcessExecutor(Executor):
    """Process-pool engine: real CPU parallelism for CPU-bound runs.

    The JVM list is pickled once and installed in each worker by the pool
    initializer; tasks ship only classfile bytes and return picklable
    outcomes plus per-vendor timings.  The pool is rebuilt when a batch
    arrives with a different JVM configuration — detected by object
    identity first, so the steady state (the same JVM list every batch)
    never re-pickles anything.

    The reference path runs on persistent workers (see
    :mod:`repro.core.worker`): warm reference JVMs, recycled every
    ``max_runs_per_worker`` runs, that pickle each run's tracefile back.
    The parent re-keys every returned trace onto its own interned ids
    in submit order, so decision streams stay byte-identical to the
    serial backend.
    """

    kind = "process"

    def __init__(self, jobs: Optional[int] = None,
                 max_runs_per_worker: Optional[int] = None, **kwargs):
        super().__init__(**kwargs)
        self.jobs = max(1, jobs if jobs is not None
                        else (os.cpu_count() or 1))
        self.max_runs_per_worker = \
            worker.DEFAULT_MAX_RUNS_PER_WORKER \
            if max_runs_per_worker is None else max_runs_per_worker
        self._pool: Optional[futures.ProcessPoolExecutor] = None
        self._pool_key: Optional[bytes] = None
        self._pool_ids: Optional[Tuple[int, ...]] = None
        self._ref_pool: Optional[futures.ProcessPoolExecutor] = None
        self._ref_pool_key: Optional[bytes] = None
        self._ref_pool_id: Optional[int] = None

    def _ensure_pool(self, jvms: List[Jvm]) -> futures.ProcessPoolExecutor:
        # Identity fingerprint first: the common case is the same JVM
        # list object on every batch, which must not pay a pickle pass
        # per batch just to compare pool keys.
        ids = tuple(map(id, jvms))
        if self._pool is not None and ids == self._pool_ids:
            return self._pool
        blob = pickle.dumps(jvms)
        if self._pool is None or self._pool_key != blob:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
            self._pool = futures.ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_process_worker_init, initargs=(blob,))
            self._pool_key = blob
        self._pool_ids = ids
        return self._pool

    def _run_batch(self, jvms, batch):
        pool = self._ensure_pool(jvms)
        # (label, digest, future-or-None, cached outcomes) in submit order.
        pending: List[Tuple[str, Optional[str],
                            Optional[futures.Future],
                            Optional[List[Outcome]]]] = []
        for label, data in batch:
            digest = cached = None
            if self.cache is not None:
                digest = classfile_digest(data)
                found = [self.cache.get_outcome(digest, jvm.name)
                         for jvm in jvms]
                # A classfile is a hit only when every vendor outcome is
                # present — partial entries re-run everywhere.
                if all(outcome is not None for outcome in found):
                    cached = found
            with self._stats_lock:
                if cached is not None:
                    self.stats.cache_hits += len(jvms)
                elif self.cache is not None:
                    self.stats.cache_misses += len(jvms)
            if self._observe is not None and self.cache is not None:
                for _ in jvms:
                    self._observe.cache_lookup("outcome",
                                               cached is not None)
            task = None if cached is not None \
                else pool.submit(_process_worker_run, data)
            pending.append((label, digest, task, cached))
        results = []
        for label, digest, task, cached in pending:
            if cached is not None:
                outcomes = cached
            else:
                outcomes, timings = task.result()
                with self._stats_lock:
                    for jvm, seconds in zip(jvms, timings):
                        self.stats.record_run(jvm.name, seconds)
                if self._observe is not None:
                    for jvm, seconds in zip(jvms, timings):
                        self._observe.record_run(jvm.name, seconds)
                if self.cache is not None:
                    for jvm, outcome in zip(jvms, outcomes):
                        self.cache.put_outcome(digest, jvm.name, outcome)
            results.append(DifferentialResult(outcomes=list(outcomes),
                                              label=label))
        return results

    def _ensure_ref_pool(self, jvm: Jvm):
        if self._ref_pool is not None and id(jvm) == self._ref_pool_id:
            return self._ref_pool
        blob = pickle.dumps(jvm)
        if self._ref_pool is not None and self._ref_pool_key == blob:
            self._ref_pool_id = id(jvm)
            return self._ref_pool
        self._shutdown_ref_pool()
        self._ref_pool = futures.ProcessPoolExecutor(
            max_workers=self.jobs,
            initializer=worker.persistent_init,
            initargs=(blob, self.max_runs_per_worker))
        self._ref_pool_key = blob
        self._ref_pool_id = id(jvm)
        return self._ref_pool

    def _run_reference_batch(self, jvm, batch):
        pool = self._ensure_ref_pool(jvm)
        pending = [pool.submit(worker.persistent_run, data)
                   for data in batch]
        executed = []
        for task in pending:
            outcome, trace, seconds, warm, recycled = task.result()
            # Decoded in submit order: ids are minted here, in the
            # parent, in the same order on every run.
            trace = worker.decode_payload(trace)
            with self._stats_lock:
                if warm:
                    self.stats.warm_runs += 1
                else:
                    self.stats.cold_runs += 1
                if recycled:
                    self.stats.worker_recycles += 1
            if self._observe is not None:
                self._observe.worker_run(warm)
                if recycled:
                    self._observe.worker_recycle()
            executed.append((outcome, trace, seconds))
        return executed

    def _shutdown_ref_pool(self) -> None:
        """Stop the reference workers.

        Runs on normal close, on pool rebuild, and on the SIGINT path
        (the CLI's interrupt handlers close the executor), so no worker
        outlives the executor.
        """
        if self._ref_pool is not None:
            self._ref_pool.shutdown(wait=True, cancel_futures=True)
            self._ref_pool = None
            self._ref_pool_key = None
            self._ref_pool_id = None

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._pool_key = None
            self._pool_ids = None
        self._shutdown_ref_pool()


# ---------------------------------------------------------------------------
# Factory
# ---------------------------------------------------------------------------

def make_executor(jobs: int = 1, backend: str = "process",
                  cache: bool = True, telemetry=None) -> Executor:
    """Build the engine for a job count (the CLI's ``--jobs``).

    ``jobs <= 1`` selects the serial engine and anything above it the
    process engine; ``backend`` names the parallel engine and accepts
    only ``"process"``.  ``cache=True`` attaches a fresh
    :class:`OutcomeCache`.  ``telemetry`` threads an optional
    :class:`~repro.observe.Telemetry` into the engine.
    """
    if backend != "process":
        raise ValueError(f"unknown parallel backend {backend!r} "
                         f"(expected 'process')")
    outcome_cache = OutcomeCache() if cache else None
    if jobs <= 1:
        return SerialExecutor(cache=outcome_cache, telemetry=telemetry)
    return ProcessExecutor(jobs=jobs, cache=outcome_cache,
                           telemetry=telemetry)
