"""Resumable campaign checkpoints: crash-durable fuzzing-run state.

A long campaign that dies used to lose everything — ``repro.core.storage``
only writes final suites.  This module periodically snapshots the whole
deterministic state of a fuzzing run into a checkpoint directory so a
killed run can be resumed **bit-equal**: for a fixed seed, the resumed
run's accepted suite (labels, classfile bytes, coverage signatures)
matches the uninterrupted run's.

What a checkpoint carries (everything the speculate→fan-out→replay
pipeline needs to continue mid-run):

* the Mersenne-Twister RNG state;
* the mutator-selector state (MCMC chain position, ranking, per-mutator
  stats — or the uniform selector's tallies);
* the seed pool: every member's Jimple form plus its scheduling stats;
* the run's artefacts so far (``gen_classes``/``test_classes``, with
  tracefiles) and the discard tallies.

What it deliberately does **not** carry: interned coverage-site ids
(process-local by contract — see :mod:`repro.coverage.interner`) and the
acceptance-criterion indexes built from them.  Both are rebuilt on
resume by re-priming the seed corpus and re-absorbing the accepted
tracefiles — pure, deterministic replays of cached reference runs.

Two files per directory split that state by how often it changes:

* ``journal.bin`` is append-only.  Each write appends one frame: an
  8-byte payload length, a sha256, and the pickled ``GeneratedClass``
  records produced since the previous write together with the journal
  positions of the accepted ones; the first frame also carries the seed
  pool's Jimple.  A frame's digest covers the previous frame's digest
  and its own payload, so the last digest certifies the whole prefix.
* ``checkpoint.pkl`` holds the small state rewritten every time: RNG,
  selector, discards, name counter, pool counters (each entry named by
  seed index or journal position, never by its Jimple) and the journal
  length and digest it covers.

A write appends and fsyncs its frame first, then replaces the state
file (temp file, fsync, ``os.replace``).  Each write therefore costs the
new classes plus the pool counters, not the whole run.  A kill between
the two steps leaves bytes past the recorded length; resume reads only
up to that length and the next write truncates them.  A
``checkpoint.json`` sidecar mirrors the headline numbers for people.

Version 1 checkpoints kept every class inline in ``checkpoint.pkl``.
:func:`load_checkpoint` still reads them, and the first version 2 write
journals everything such a resume restored; version 1 is never written.

Testing hook: when the environment variable
``REPRO_CRASH_AFTER_CHECKPOINTS`` is set to ``N``, the process simulates
a kill (raises ``KeyboardInterrupt``) right after the ``N``-th checkpoint
is durably written — the deterministic way CI and the test suite exercise
the kill → resume path.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import struct
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.observe.events import CHECKPOINT_WRITTEN

#: Checkpoint schema version :class:`Checkpointer` writes.
CHECKPOINT_VERSION = 2

#: The inline-classes layout: still read on resume, never written.
LEGACY_VERSION = 1

#: The pickled run state (the single source of truth on resume).
STATE_FILE = "checkpoint.pkl"

#: The append-only class journal the state file indexes into.
JOURNAL_FILE = "journal.bin"

#: Human-readable sidecar (advisory; never read on resume).
META_FILE = "checkpoint.json"

#: Simulated-kill testing hook (see module docstring).
CRASH_AFTER_ENV = "REPRO_CRASH_AFTER_CHECKPOINTS"

#: Journal frame header: payload length, chained sha256 digest.
_FRAME = struct.Struct(">Q32s")

#: Pool-entry reference kinds in a version 2 state file.
_SEED_REF = "seed"
_CLASS_REF = "class"


class CheckpointError(ValueError):
    """A checkpoint is missing, corrupt, or incompatible with the run."""


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> None:
    """Durably replace ``path`` with ``data``.

    Temp file, flush, fsync, then ``os.replace``: a crash at any point
    leaves either the old or the new content, never a torn file.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def _chain(digest: bytes, payload) -> bytes:
    """The digest of a frame: sha256 over the previous digest + payload."""
    hasher = hashlib.sha256(digest)
    hasher.update(payload)
    return hasher.digest()


def has_checkpoint(directory: Union[str, Path]) -> bool:
    """Whether ``directory`` holds a resumable checkpoint."""
    return (Path(directory) / STATE_FILE).exists()


def load_checkpoint(directory: Union[str, Path]) -> Dict[str, object]:
    """Read and version-check a checkpoint, rebuilding its classes.

    Whichever version wrote it, the returned state holds the run's
    ``gen_classes``, ``test_classes`` and pool entries with their Jimple
    in place, sharing objects the way the uninterrupted run does.  A
    version 2 state also keeps its ``journal`` position, which the
    resumed run's :class:`Checkpointer` appends after.

    Raises:
        CheckpointError: when missing, unreadable, corrupt, or of an
            unsupported version.
    """
    path = Path(directory) / STATE_FILE
    if not path.exists():
        raise CheckpointError(f"no {STATE_FILE} in {directory}")
    try:
        state = pickle.loads(path.read_bytes())
    except Exception as exc:
        raise CheckpointError(
            f"corrupt checkpoint {path}: {exc}") from exc
    version = state.get("version")
    if version == LEGACY_VERSION:
        return state
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version!r} in {path}")
    journal = state["journal"]
    frames, digest = read_journal(directory, journal["bytes"])
    if digest != journal["digest"]:
        raise CheckpointError(
            f"corrupt checkpoint {path}: {JOURNAL_FILE} does not end "
            f"with the frame it records")
    records: List[object] = []
    accepted: List[int] = []
    for frame in frames:
        records.extend(frame["records"])
        accepted.extend(frame["accepted"])
    seeds = frames[0]["seeds"]

    def resolve(ref):
        kind, position = ref
        return seeds[position] if kind == _SEED_REF \
            else records[position].jclass

    state["gen_classes"] = records
    state["test_classes"] = [records[position] for position in accepted]
    state["pool"]["entries"] = [(resolve(ref), *stats)
                                for ref, *stats in state["pool"]["entries"]]
    return state


def read_journal(directory: Union[str, Path],
                 length: Optional[int] = None
                 ) -> Tuple[List[Dict[str, object]], bytes]:
    """Decode the journal's frames up to ``length`` bytes (default: all).

    Returns the frame payloads, oldest first, and the last frame's
    chained digest.  Bytes past ``length`` are never read: they are the
    trace of a kill between a frame's fsync and the state replace.

    Raises:
        CheckpointError: when the journal is missing, shorter than
            ``length``, or a frame in range is torn or fails its digest.
    """
    path = Path(directory) / JOURNAL_FILE
    try:
        handle = open(path, "rb")
    except FileNotFoundError:
        raise CheckpointError(f"no {JOURNAL_FILE} in {directory}") from None
    frames: List[Dict[str, object]] = []
    digest = b""
    offset = 0
    with handle:
        on_disk = os.fstat(handle.fileno()).st_size
        end = on_disk if length is None else length
        if end > on_disk:
            raise CheckpointError(
                f"corrupt journal {path}: {on_disk} bytes, the checkpoint "
                f"covers {end}")
        while offset < end:
            if offset + _FRAME.size > end:
                raise CheckpointError(
                    f"corrupt journal {path}: torn frame header at byte "
                    f"{offset}")
            size, recorded = _FRAME.unpack(handle.read(_FRAME.size))
            if offset + _FRAME.size + size > end:
                raise CheckpointError(
                    f"corrupt journal {path}: torn frame at byte {offset}")
            payload = handle.read(size)
            digest = _chain(digest, payload)
            if digest != recorded:
                raise CheckpointError(
                    f"corrupt journal {path}: frame at byte {offset} "
                    f"fails its sha256")
            frames.append(pickle.loads(payload))
            offset += _FRAME.size + size
    return frames, digest


def read_meta(directory: Union[str, Path]) -> Dict[str, object]:
    """The advisory sidecar, for status displays (may lag the pickle)."""
    return json.loads((Path(directory) / META_FILE).read_text())


# ---------------------------------------------------------------------------
# Snapshot / restore of one fuzzing run
# ---------------------------------------------------------------------------

def snapshot_run(result, engine, selector, index: int, round_index: int,
                 elapsed: float, pool_ref: Callable[[object], object],
                 journal: Dict[str, object]) -> Dict[str, object]:
    """Capture a run's deterministic state at a round boundary.

    The classes themselves live in the journal: ``pool_ref`` names each
    pool entry's Jimple by seed index or journal position, and
    ``journal`` is the journal position this state covers.
    """
    return {
        "version": CHECKPOINT_VERSION,
        "algorithm": result.algorithm,
        "criterion": result.criterion,
        "batch": result.batch,
        "iterations": result.iterations,
        "scheduler": engine.pool.scheduler.name,
        "index": index,
        "round_index": round_index,
        "elapsed": elapsed,
        "rng_state": engine.rng.getstate(),
        "selector": selector.get_state(),
        "discards": dict(engine.discards),
        "name_counter": engine._name_counter,
        "pool": engine.pool.get_state(pool_ref),
        "journal": journal,
    }


def restore_run(state: Dict[str, object], result, engine,
                selector) -> Tuple[int, int, float]:
    """Restore a snapshot into a freshly built run.

    The caller constructs the engine/selector/result exactly as a fresh
    run would, then this overwrites every piece of mutable state the
    construction randomised.  Returns ``(index, round_index, elapsed)``
    to continue from.

    Raises:
        CheckpointError: when the checkpoint belongs to a different
            configuration (algorithm, criterion, batch, or scheduler) —
            resuming such a run would silently diverge.
    """
    for key, current in (("algorithm", result.algorithm),
                         ("criterion", result.criterion),
                         ("batch", result.batch)):
        if state[key] != current:
            raise CheckpointError(
                f"checkpoint {key} {state[key]!r} does not match this "
                f"run's {current!r}")
    # Checkpoints written while the bitmap index existed carry a
    # ``coverage_index`` key; it is ignored, since "exact" and "bitmap"
    # made identical decisions.
    try:
        engine.pool.set_state(state["pool"])
        selector.set_state(state["selector"])
    except ValueError as exc:
        raise CheckpointError(str(exc)) from exc
    engine.rng.setstate(state["rng_state"])
    engine.discards.clear()
    engine.discards.update(state["discards"])
    engine._name_counter = state["name_counter"]
    result.gen_classes = list(state["gen_classes"])
    result.test_classes = list(state["test_classes"])
    return state["index"], state["round_index"], state["elapsed"]


# ---------------------------------------------------------------------------
# The periodic writer
# ---------------------------------------------------------------------------

class Checkpointer:
    """Writes a run's checkpoints every ``every`` completed iterations.

    The fuzzing pipeline calls :meth:`maybe_write` after each batch
    round's deterministic replay, so snapshots always land on round
    boundaries — the points where a resumed run's batching structure
    matches the uninterrupted run's.

    Attributes:
        directory: the checkpoint directory (created on first write).
        every: iteration interval between checkpoints.
        written: checkpoints durably written by this instance.
    """

    def __init__(self, directory: Union[str, Path], every: int,
                 telemetry=None, start_index: int = 0,
                 on_written: Optional[Callable[[Path, int], None]] = None,
                 journal: Optional[Dict[str, object]] = None):
        if every < 1:
            raise ValueError(f"checkpoint interval must be >= 1, "
                             f"got {every}")
        self.directory = Path(directory)
        self.every = every
        self.written = 0
        self.telemetry = telemetry
        self.on_written = on_written
        self._last_index = start_index
        # The journal position the next frame appends after: a restored
        # version 2 state's, or ``None`` to start a new journal (a fresh
        # run, or one resumed from a version 1 checkpoint).
        self._journal = journal
        # id(jclass) -> pool reference, for the seeds and the first
        # ``_mapped`` journaled classes.
        self._refs: Dict[int, Tuple[str, int]] = {}
        self._mapped = 0
        if telemetry is not None:
            self._counter = telemetry.registry.counter(
                "repro_checkpoints_total",
                "Campaign checkpoints durably written.", ("algorithm",))
            self._seconds = telemetry.registry.histogram(
                "repro_checkpoint_write_seconds",
                "Wall-clock latency of checkpoint writes.")
        else:
            self._counter = self._seconds = None

    def due(self, index: int) -> bool:
        """Whether ``index`` completed iterations warrant a checkpoint."""
        return index - self._last_index >= self.every

    def maybe_write(self, result, engine, selector, index: int,
                    round_index: int, elapsed: float) -> Optional[Path]:
        """Write a checkpoint when one is due; returns its path if so."""
        if not self.due(index):
            return None
        return self.write(result, engine, selector, index, round_index,
                          elapsed)

    def write(self, result, engine, selector, index: int,
              round_index: int, elapsed: float) -> Path:
        """Journal the new classes, then atomically replace the state.

        Returns the state file's path.
        """
        started = time.perf_counter()
        self.directory.mkdir(parents=True, exist_ok=True)
        journal_bytes = self._append_frame(result, engine)
        self._map_refs(result, engine)
        state = snapshot_run(result, engine, selector, index,
                             round_index, elapsed, self._pool_ref,
                             self._journal)
        path = self.directory / STATE_FILE
        blob = pickle.dumps(state)
        atomic_write_bytes(path, blob)
        meta = {
            "version": CHECKPOINT_VERSION,
            "algorithm": result.algorithm,
            "criterion": result.criterion,
            "scheduler": engine.pool.scheduler.name,
            "batch": result.batch,
            "index": index,
            "iterations": result.iterations,
            "generated": len(result.gen_classes),
            "accepted": len(result.test_classes),
            "pool_size": len(engine.pool),
            "journal_bytes": journal_bytes,
            "state_bytes": len(blob),
            "written_at": time.time(),
        }
        atomic_write_bytes(self.directory / META_FILE,
                           json.dumps(meta, indent=2).encode("utf-8"))
        self._last_index = index
        self.written += 1
        seconds = time.perf_counter() - started
        if self.telemetry is not None:
            self._counter.labels(algorithm=result.algorithm).inc()
            self._seconds.observe(seconds)
            if self.telemetry.bus.enabled:
                self.telemetry.bus.emit(
                    CHECKPOINT_WRITTEN, algorithm=result.algorithm,
                    index=index, iterations=result.iterations,
                    accepted=len(result.test_classes),
                    pool=len(engine.pool), path=str(path),
                    journal_bytes=journal_bytes, state_bytes=len(blob),
                    seconds=seconds)
        if self.on_written is not None:
            self.on_written(path, self.written)
        crash_after = os.environ.get(CRASH_AFTER_ENV)
        if crash_after and self.written >= int(crash_after):
            raise KeyboardInterrupt(
                f"simulated kill after checkpoint {self.written} "
                f"({CRASH_AFTER_ENV}={crash_after})")
        return path

    def _append_frame(self, result, engine) -> int:
        """Durably journal the classes generated since the last write.

        Returns the bytes appended.  A new journal's first frame also
        carries the seed pool's Jimple.
        """
        journal = self._journal
        new_journal = journal is None
        if new_journal:
            journal = {"bytes": 0, "digest": b"", "records": 0,
                       "accepted": 0}
        first = journal["records"]
        records = result.gen_classes[first:]
        tests = {id(generated)
                 for generated in result.test_classes[journal["accepted"]:]}
        frame = {"records": records,
                 "accepted": [first + offset
                              for offset, generated in enumerate(records)
                              if id(generated) in tests]}
        if new_journal:
            frame["seeds"] = [entry.jclass for entry in
                              engine.pool.entries[:engine.pool.seed_count]]
        payload = pickle.dumps(frame)
        digest = _chain(journal["digest"], payload)
        with open(self.directory / JOURNAL_FILE,
                  "wb" if new_journal else "r+b") as handle:
            # Drops any tail a kill left past the recorded length.
            handle.truncate(journal["bytes"])
            handle.seek(journal["bytes"])
            handle.write(_FRAME.pack(len(payload), digest))
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        appended = _FRAME.size + len(payload)
        self._journal = {"bytes": journal["bytes"] + appended,
                         "digest": digest,
                         "records": first + len(records),
                         "accepted": journal["accepted"]
                         + len(frame["accepted"])}
        return appended

    def _map_refs(self, result, engine) -> None:
        """Extend the pool-reference map over newly journaled classes."""
        if not self._refs:
            for position, entry in enumerate(
                    engine.pool.entries[:engine.pool.seed_count]):
                self._refs[id(entry.jclass)] = (_SEED_REF, position)
        journaled = self._journal["records"]
        for position in range(self._mapped, journaled):
            self._refs[id(result.gen_classes[position].jclass)] = \
                (_CLASS_REF, position)
        self._mapped = journaled

    def _pool_ref(self, jclass) -> Tuple[str, int]:
        """A pool entry's Jimple as a seed index or journal position."""
        try:
            return self._refs[id(jclass)]
        except KeyError:
            raise CheckpointError(
                "a pool entry is neither a seed nor a journaled class"
            ) from None
