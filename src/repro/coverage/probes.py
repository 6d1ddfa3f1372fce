"""Coverage probes woven through the reference JVM's checking code.

The paper collects GCOV/LCOV statement and branch coverage over HotSpot's
``classfile/`` package while a mutant runs.  Our probes serve the same
role: every named call to :func:`probe` is one *statement site* (a fixed
code location in the pipeline), and every call to :func:`branch` is one
*branch site* whose taken/not-taken outcomes are recorded separately.

Probes are zero-cost when no collector is active, so the four non-reference
JVMs run uninstrumented — matching the paper, where only the reference
HotSpot 9 build was compiled with ``--enable-native-coverage``.

Collectors are *thread-local*: a collector activated in one thread never
records probes fired by JVM runs on other threads, which is what lets a
parallel executor run uninstrumented differential batches while a
reference run collects coverage elsewhere.  A process-wide counter of
active collectors keeps the no-collector fast path at a single global
check.
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import Optional

from repro.coverage.tracefile import Tracefile

#: Thread-local slot holding the thread's active collector.
_TLS = threading.local()

#: Number of active collectors across all threads (fast-path gate).
_ACTIVE_COUNT = 0
_COUNT_LOCK = threading.Lock()

#: Process-wide sticky flag: collect comparison-progress sites.
#:
#: Off by default so the :func:`log_int32_cmp`-family probes are inert
#: and decision streams stay byte-identical to runs without them; the
#: ``--cmp-coverage`` CLI flag turns them on for the whole process (and,
#: through the executor initializers, for worker processes).  Sticky
#: because a criterion's uniqueness state accumulated with comparison
#: sites cannot be compared against tracefiles collected without them.
_CMP_COVERAGE = False


def enable_cmp_coverage() -> None:
    """Collect comparison-progress coverage from now on (sticky)."""
    global _CMP_COVERAGE
    _CMP_COVERAGE = True


def cmp_coverage_enabled() -> bool:
    """Whether comparison-progress collection is on in this process."""
    return _CMP_COVERAGE


class CoverageCollector:
    """Records statement and branch hits into a :class:`Tracefile`.

    Use as a context manager around one JVM execution::

        collector = CoverageCollector()
        with collector:
            jvm.run(classfile_bytes)
        trace = collector.tracefile()
    """

    def __init__(self) -> None:
        self._statements: Counter = Counter()
        self._branches: Counter = Counter()
        self._comparisons: Counter = Counter()

    # -- recording -------------------------------------------------------------

    def hit_statement(self, site: str) -> None:
        self._statements[site] += 1

    def hit_branch(self, site: str, taken: bool) -> None:
        self._branches[(site, taken)] += 1

    def hit_comparison(self, site: str) -> None:
        self._comparisons[site] += 1

    # -- context management ------------------------------------------------------

    def __enter__(self) -> "CoverageCollector":
        global _ACTIVE_COUNT
        if getattr(_TLS, "collector", None) is not None:
            raise RuntimeError("a CoverageCollector is already active "
                               "in this thread")
        _TLS.collector = self
        with _COUNT_LOCK:
            _ACTIVE_COUNT += 1
        return self

    def __exit__(self, *exc_info) -> None:
        global _ACTIVE_COUNT
        _TLS.collector = None
        with _COUNT_LOCK:
            _ACTIVE_COUNT -= 1

    # -- results --------------------------------------------------------------------

    def counts(self) -> "tuple[Counter, Counter, Counter]":
        """The raw ``(statements, branches, comparisons)`` hit counters.

        For callers that re-encode coverage themselves (the process
        backend's persistent workers pack these straight into shared
        memory) instead of snapshotting a :class:`Tracefile`.  Read-only
        by convention: the counters are live until the collector exits.
        """
        return self._statements, self._branches, self._comparisons

    def tracefile(self) -> Tracefile:
        """Snapshot the recorded coverage."""
        return Tracefile(statements=dict(self._statements),
                         branches=dict(self._branches),
                         comparisons=dict(self._comparisons))


def active_collector() -> Optional[CoverageCollector]:
    """The collector currently in scope on this thread, if any."""
    return getattr(_TLS, "collector", None)


def probe(site: str) -> None:
    """Record a statement hit at ``site`` (no-op without a collector)."""
    if _ACTIVE_COUNT:
        collector = getattr(_TLS, "collector", None)
        if collector is not None:
            collector.hit_statement(site)


def branch(site: str, taken: bool) -> bool:
    """Record a branch outcome; returns ``taken`` so it wraps conditions.

    Usage::

        if branch("linker.super_is_final", super_cls.is_final):
            raise VerifyError(...)
    """
    if _ACTIVE_COUNT:
        collector = getattr(_TLS, "collector", None)
        if collector is not None:
            collector.hit_branch(site, bool(taken))
    return taken


# ---------------------------------------------------------------------------
# Comparison-progress probes (cmplog-style)
# ---------------------------------------------------------------------------

#: Longest string prefix rewarded per comparison site.
_MAX_STR_PREFIX = 32


def _cmp_collector() -> Optional[CoverageCollector]:
    """The active collector, only when comparison collection is on."""
    if not _CMP_COVERAGE or not _ACTIVE_COUNT:
        return None
    return getattr(_TLS, "collector", None)


def _log_int_cmp(site: str, left: int, right: int, width: int,
                 collector: CoverageCollector) -> None:
    # Reward progress toward an equality the way cmplog does: one site
    # for matching signs, then one per matching byte scanning from the
    # most significant byte down, stopping at the first mismatch.  A
    # mutant that gets one byte closer to the compared constant earns a
    # fresh comparison site and survives set-based acceptance.
    if (left < 0) != (right < 0):
        return
    collector.hit_comparison(site + "#sign")
    mask = (1 << (8 * width)) - 1
    left &= mask
    right &= mask
    for byte_index in range(width - 1, -1, -1):
        shift = 8 * byte_index
        if (left >> shift) & 0xFF != (right >> shift) & 0xFF:
            break
        collector.hit_comparison(f"{site}#b{byte_index}")


def log_int32_cmp(site: str, left: int, right: int) -> None:
    """Record 32-bit comparison progress at ``site`` (no-op unless
    ``--cmp-coverage`` is on and a collector is active)."""
    collector = _cmp_collector()
    if collector is not None:
        _log_int_cmp(site, left, right, 4, collector)


def log_int64_cmp(site: str, left: int, right: int) -> None:
    """64-bit analogue of :func:`log_int32_cmp` (``lcmp`` dispatch)."""
    collector = _cmp_collector()
    if collector is not None:
        _log_int_cmp(site, left, right, 8, collector)


def log_str_cmp(site: str, left: str, right: str) -> None:
    """Record string comparison progress: one site per matching prefix
    character (capped), mirroring cmplog's memcmp hook."""
    collector = _cmp_collector()
    if collector is None:
        return
    prefix = 0
    for first, second in zip(left, right):
        if first != second or prefix >= _MAX_STR_PREFIX:
            break
        prefix += 1
        collector.hit_comparison(f"{site}#c{prefix}")
