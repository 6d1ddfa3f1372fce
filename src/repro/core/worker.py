"""Worker-process internals for the process backend's reference path.

Each pool worker is **persistent**: it unpickles the reference JVM once
at initialisation and keeps the parsed vendor policy, runtime and
library environment warm across mutants; ``Jvm.run`` already builds a
fresh interpreter per call, so the only per-run reset needed is the
coverage collector scope.  A worker returns each run's
:class:`~repro.coverage.tracefile.Tracefile` by pickle, and the parent
re-keys it onto its own interned ids with :func:`decode_payload`: only
the parent mints ids, so no id space has to be shared across processes.
A ``max_runs_per_worker`` recycle bound rebuilds the JVM from its
pickle blob in place every N runs: leak hygiene for a long campaign
without tearing the process down.

Every run's result carries ``warm`` (state was already built when the
run arrived) and ``recycled`` flags so the parent can account warm/cold
runs and recycles in :class:`~repro.core.executor.ExecutorStats`.

Module-level globals hold the per-process state, following the same
pattern as the differential pool initialisers in ``executor.py`` — pool
task functions must be importable top-level callables.
"""

from __future__ import annotations

import pickle
import signal
import time
from array import array
from typing import Optional, Tuple

from repro.coverage.interner import GLOBAL_INTERNER
from repro.coverage.probes import CoverageCollector
from repro.coverage.tracefile import PackedTracefile, Tracefile

#: Default recycle bound: rebuild each worker's JVM state after this
#: many runs.  High enough that rebuild cost vanishes in the noise, low
#: enough that unbounded growth in any warm structure stays bounded.
DEFAULT_MAX_RUNS_PER_WORKER = 512


class _PersistentState:
    """One persistent worker's warm state (module-global per process)."""

    __slots__ = ("blob", "jvm", "max_runs", "runs_since_init", "recycles")

    def __init__(self, blob: bytes, jvm, max_runs: int) -> None:
        self.blob = blob
        self.jvm = jvm
        self.max_runs = max_runs
        self.runs_since_init = 0
        self.recycles = 0


_PERSISTENT: Optional[_PersistentState] = None


def persistent_init(blob: bytes, max_runs: int) -> None:
    """Pool initializer: build the warm state once per worker process.

    A graceful-shutdown SIGTERM handler inherited by fork is undone
    first: a worker that only sets the parent's shutdown flag would
    survive pool shutdown, and workers hold nothing worth a final
    checkpoint, so they just die.  SIGTERM is unblocked only once the
    default action is back, so one that arrived while the worker was
    starting kills it now.
    """
    global _PERSISTENT
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
    _PERSISTENT = _PersistentState(blob, pickle.loads(blob), max_runs)


def persistent_run(data: bytes
                   ) -> Tuple[object, Tracefile, float, bool, bool]:
    """One reference run on the warm JVM.

    Returns ``(outcome, trace, seconds, warm, recycled)``; ``trace`` is
    the run's plain :class:`Tracefile`, which the parent passes to
    :func:`decode_payload`.
    """
    state = _PERSISTENT
    recycled = False
    if state.max_runs and state.runs_since_init >= state.max_runs:
        state.jvm = pickle.loads(state.blob)
        state.runs_since_init = 0
        state.recycles += 1
        recycled = True
    warm = state.runs_since_init > 0
    collector = CoverageCollector()
    started = time.perf_counter()
    with collector:
        outcome = state.jvm.run(data)
    elapsed = time.perf_counter() - started
    state.runs_since_init += 1
    return outcome, collector.tracefile(), elapsed, warm, recycled


def _pack(ids, counts) -> array:
    """Interleave ids and counts into one flat ``array('I')``.

    Counts fit: a run stops after the policy's bounded step budget, far
    below 2**32 hits of any one site.
    """
    pairs = array("I", [0]) * (2 * len(ids))
    pairs[0::2] = array("I", ids)
    pairs[1::2] = array("I", counts)
    return pairs


def decode_payload(trace: Tracefile) -> PackedTracefile:
    """Parent side: re-key a worker's tracefile onto this process's ids.

    Sites are interned through :data:`GLOBAL_INTERNER` in the trace's
    first-hit order, so the result iterates exactly like ``trace`` and
    compares equal to it.  The packed form drops the unpickled site
    strings, each trace's private copies, and keeps only ids and counts.
    """
    statements = trace.statements
    branches = trace.branches
    return PackedTracefile(
        _pack(GLOBAL_INTERNER.statement_id_list(statements),
              statements.values()),
        _pack(GLOBAL_INTERNER.branch_id_list(branches),
              branches.values()))
