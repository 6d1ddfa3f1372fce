"""Worker-process internals for the process backend's reference path.

Each pool worker is **persistent**: it unpickles the reference JVM once
at initialisation and keeps the parsed vendor policy, runtime and
library environment warm across mutants; ``Jvm.run`` already builds a
fresh interpreter per call, so the only per-run reset needed is the
(thread-local) coverage collector scope.  Workers intern coverage
through the shared site table and return packed ``(id, count)`` arrays —
written into their assigned :class:`~repro.coverage.shm.TraceSlotRing`
slot when one was granted — so neither a string dict pickle nor a
parent-side re-interning pass survives on the hot path.  A
``max_runs_per_worker`` recycle bound rebuilds the JVM from its pickle
blob in place every N runs: leak hygiene for a long campaign without
tearing the process down.

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

from repro.coverage import shm
from repro.coverage.interner import GLOBAL_INTERNER, SharedTableFull
from repro.coverage.probes import CoverageCollector, enable_cmp_coverage

#: Default recycle bound: rebuild each worker's JVM state after this
#: many runs.  High enough that rebuild cost vanishes in the noise, low
#: enough that unbounded growth in any warm structure stays bounded.
DEFAULT_MAX_RUNS_PER_WORKER = 512


class _PersistentState:
    """One persistent worker's warm state (module-global per process)."""

    __slots__ = ("blob", "jvm", "ring", "max_runs", "runs_since_init",
                 "recycles")

    def __init__(self, blob: bytes, jvm, ring, max_runs: int) -> None:
        self.blob = blob
        self.jvm = jvm
        self.ring = ring
        self.max_runs = max_runs
        self.runs_since_init = 0
        self.recycles = 0


_PERSISTENT: Optional[_PersistentState] = None


def persistent_init(blob: bytes, table, ring, max_runs: int,
                    cmp_coverage: bool = False) -> None:
    """Pool initializer: build the warm state once per worker process.

    ``table`` and ``ring`` arrive by fork inheritance (the parent
    attaches the table to its interner *before* the pool exists, so the
    attach below is normally a no-op on the inherited interner state).

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
    if cmp_coverage:
        enable_cmp_coverage()
    if table is not None:
        GLOBAL_INTERNER.attach_shared(table)
    _PERSISTENT = _PersistentState(blob, pickle.loads(blob), ring,
                                   max_runs)


def persistent_run(data: bytes, slot_index: Optional[int]
                   ) -> Tuple[object, tuple, float, bool, bool]:
    """One reference run on the warm JVM, coverage packed for transport.

    Returns ``(outcome, payload, seconds, warm, recycled)`` where
    ``payload`` is one of::

        ("shm", slot_index, length)   # packed bytes in the slot ring
        ("inline", packed_bytes)      # no slot granted / payload too big
        ("trace", Tracefile)          # shared table full: dict fallback

    The fallbacks keep every degradation *transport-shaped*: the decoded
    tracefile is byte-identical in all three cases, so decisions never
    depend on which path a run took.
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
    return outcome, _pack(collector, state.ring, slot_index), elapsed, \
        warm, recycled


def _pack(collector: CoverageCollector, ring,
          slot_index: Optional[int]) -> tuple:
    """Encode one run's coverage for the cheapest transport available."""
    statements, branches, comparisons = collector.counts()
    try:
        stmt_pairs = array("I")
        for site, count in statements.items():
            stmt_pairs.append(GLOBAL_INTERNER.statement_id(site))
            stmt_pairs.append(count)
        br_pairs = array("I")
        for key, count in branches.items():
            br_pairs.append(GLOBAL_INTERNER.branch_id(key))
            br_pairs.append(count)
        cmp_pairs = array("I")
        for site, count in comparisons.items():
            cmp_pairs.append(GLOBAL_INTERNER.comparison_id(site))
            cmp_pairs.append(count)
    except (SharedTableFull, OverflowError):
        # Table capacity exhausted (or a count beyond 32 bits): fall
        # back to the exact pickled-dict transport for this run.
        return ("trace", collector.tracefile())
    payload = shm.encode_payload(stmt_pairs, br_pairs, cmp_pairs)
    if slot_index is not None and ring is not None \
            and len(payload) <= ring.slot_size:
        ring.write(slot_index, payload)
        return ("shm", slot_index, len(payload))
    return ("inline", payload)


def decode_payload(payload: tuple, ring):
    """Parent-side inverse of :func:`_pack` → a :class:`Tracefile`."""
    from repro.coverage.tracefile import Tracefile
    kind = payload[0]
    if kind == "trace":
        return payload[1]
    if kind == "shm":
        raw = ring.read(payload[1], payload[2])
    else:
        raw = payload[1]
    return Tracefile.from_packed(*shm.decode_payload(raw))
