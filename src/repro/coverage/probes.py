"""Coverage probes woven through the reference JVM's checking code.

The paper collects GCOV/LCOV statement and branch coverage over HotSpot's
``classfile/`` package while a mutant runs.  Our probes serve the same
role: every named call to :func:`probe` is one *statement site* (a fixed
code location in the pipeline), and every call to :func:`branch` is one
*branch site* whose taken/not-taken outcomes are recorded separately.

Probes are zero-cost when no collector is active, so the four non-reference
JVMs run uninstrumented — matching the paper, where only the reference
HotSpot 9 build was compiled with ``--enable-native-coverage``.

One module-global slot holds the active collector.  Every JVM run
happens in a process's main thread (the serial engine) or in a worker
process of its own, so at most one collector is ever in scope per
process, and a probe without one costs a single global test.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from repro.coverage.tracefile import Tracefile

#: The collector in scope in this process, if any.
_ACTIVE: Optional["CoverageCollector"] = None


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

    # -- recording -------------------------------------------------------------

    def hit_statement(self, site: str) -> None:
        self._statements[site] += 1

    def hit_branch(self, site: str, taken: bool) -> None:
        self._branches[(site, taken)] += 1

    # -- context management ------------------------------------------------------

    def __enter__(self) -> "CoverageCollector":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a CoverageCollector is already active "
                               "in this process")
        _ACTIVE = self
        return self

    def __exit__(self, *exc_info) -> None:
        global _ACTIVE
        _ACTIVE = None

    # -- results --------------------------------------------------------------------

    def tracefile(self) -> Tracefile:
        """Snapshot the recorded coverage."""
        return Tracefile(statements=dict(self._statements),
                         branches=dict(self._branches))


def active_collector() -> Optional[CoverageCollector]:
    """The collector currently in scope in this process, if any."""
    return _ACTIVE


def probe(site: str) -> None:
    """Record a statement hit at ``site`` (no-op without a collector)."""
    if _ACTIVE is not None:
        _ACTIVE.hit_statement(site)


def branch(site: str, taken: bool) -> bool:
    """Record a branch outcome; returns ``taken`` so it wraps conditions.

    Usage::

        if branch("linker.super_is_final", super_cls.is_final):
            raise VerifyError(...)
    """
    if _ACTIVE is not None:
        _ACTIVE.hit_branch(site, bool(taken))
    return taken
