"""Coverage probes woven through the reference JVM's checking code.

The paper collects GCOV/LCOV statement and branch coverage over HotSpot's
``classfile/`` package while a mutant runs.  Our probes serve the same
role: every named call to :func:`probe` is one *statement site* (a fixed
code location in the pipeline), and every call to :func:`branch` is one
*branch site* whose taken/not-taken outcomes are recorded separately.

Probes are zero-cost when no collector is active, so the four non-reference
JVMs run uninstrumented — matching the paper, where only the reference
HotSpot 9 build was compiled with ``--enable-native-coverage``.

Module globals hold the active collector and its two count dicts, which
the probes update in place.  Every JVM run happens in a process's main
thread (the serial engine) or in a worker process of its own, so at most
one collector is ever in scope per process, and a probe without one
costs a single global test.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.coverage.tracefile import Tracefile

#: The collector in scope in this process, if any.
_ACTIVE: Optional["CoverageCollector"] = None

#: The active collector's count dicts, which the probes write directly:
#: a hit is one Python frame.  ``None`` when no collector is in scope.
_STATEMENTS: Optional[Dict[str, int]] = None
_BRANCHES: Optional[Dict[Tuple[str, bool], int]] = None


class CoverageCollector:
    """Records statement and branch hits into a :class:`Tracefile`.

    Use as a context manager around one JVM execution::

        collector = CoverageCollector()
        with collector:
            jvm.run(classfile_bytes)
        trace = collector.tracefile()

    Its counts are plain dicts in first-hit order, so the tracefile's
    sites (and the ids the interner gives them) come in the order the
    run first reached them.
    """

    def __init__(self) -> None:
        self._statements: Dict[str, int] = {}
        self._branches: Dict[Tuple[str, bool], int] = {}

    # -- context management ------------------------------------------------------

    def __enter__(self) -> "CoverageCollector":
        global _ACTIVE, _STATEMENTS, _BRANCHES
        if _ACTIVE is not None:
            raise RuntimeError("a CoverageCollector is already active "
                               "in this process")
        _ACTIVE = self
        _STATEMENTS = self._statements
        _BRANCHES = self._branches
        return self

    def __exit__(self, *exc_info) -> None:
        global _ACTIVE, _STATEMENTS, _BRANCHES
        _ACTIVE = _STATEMENTS = _BRANCHES = None

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
    statements = _STATEMENTS
    if statements is not None:
        statements[site] = statements.get(site, 0) + 1


def branch(site: str, taken: bool) -> bool:
    """Record a branch outcome; returns ``taken`` so it wraps conditions.

    Usage::

        if branch("linker.super_is_final", super_cls.is_final):
            raise VerifyError(...)
    """
    branches = _BRANCHES
    if branches is not None:
        key = (site, True if taken else False)
        branches[key] = branches.get(key, 0) + 1
    return taken
