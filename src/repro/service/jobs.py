"""Durable on-disk job queue: specs, sharding, and atomic job records.

A *job* is one submitted unit of service work — a fuzzing run, a scaled
campaign, or a differential-testing pass — stored as a single JSON
record (``job.json``) inside its own directory under the daemon's state
root.  Records are written atomically (temp file + fsync + rename, the
:mod:`repro.core.checkpoint` pattern), so a crash mid-write leaves
either the old record or the new one, never a torn file.

Job lifecycle::

    queued -> running -> done
                      -> failed      (a leg exhausted its attempts)
                      -> cancelled   (operator request)

and ``running -> queued`` on daemon restart or graceful stop — a
recovered job resumes from its legs' checkpoints, not from scratch.

Campaign specs are *sharded* at submit time into per-algorithm legs
(:func:`shard_spec`), each carrying everything a worker subprocess
needs to reproduce the corresponding foreground run bit-identically:
label, iteration count from the calibrated cost model, and the exact
RNG seed :func:`repro.core.campaign.run_campaign` would use.
"""

from __future__ import annotations

import json
import re
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.core.campaign import (
    ALL_ALGORITHMS,
    PAPER_BUDGET_SECONDS,
    iterations_for_budget,
    safe_label,
)
from repro.core.checkpoint import atomic_write_bytes
from repro.corpus.schedule import SCHEDULERS

#: Every state a job (or leg) can be in, in lifecycle order.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
JOB_STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)

#: States a job never leaves.
TERMINAL_STATES = (DONE, FAILED, CANCELLED)

#: Job record file name inside each job directory.
JOB_FILE = "job.json"

#: Schema version stamped into every record.
RECORD_VERSION = 1

#: The spec ``type`` values the service accepts.
JOB_TYPES = ("fuzz", "campaign", "difftest")

_JOB_ID_RE = re.compile(r"^[0-9a-f]{8}-[0-9a-f]{12}$")


class JobError(ValueError):
    """An invalid spec, unknown job id, or corrupt job record."""


def new_job_id() -> str:
    """A short, filesystem-safe, unique job id (time-sortable prefix)."""
    stamp = format(int(time.time()), "08x")
    return f"{stamp}-{uuid.uuid4().hex[:12]}"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise JobError(message)


def validate_spec(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Normalise and validate a submitted job spec.

    Returns a fully-defaulted copy (the record the daemon stores);
    raises :class:`JobError` with an operator-readable message for
    anything malformed.  Common fields: ``seed`` (base RNG seed),
    ``seed_count`` (corpus size), ``batch``, ``seed_schedule``,
    ``checkpoint_every``.  Per-type fields:

    * ``fuzz`` — ``algorithm`` (a campaign label like ``classfuzz[tr]``,
      or bare ``classfuzz`` + ``criterion``) and ``iterations``;
    * ``campaign`` — ``algorithms`` (labels) and ``budget_scale`` (or an
      explicit ``budget_seconds``);
    * ``difftest`` — ``paths`` (``.class`` files or directories).
    """
    _require(isinstance(spec, dict), "spec must be a JSON object")
    job_type = spec.get("type")
    _require(job_type in JOB_TYPES,
             f"spec.type must be one of {JOB_TYPES}, got {job_type!r}")

    out: Dict[str, Any] = {"type": job_type}
    out["seed"] = _int_field(spec, "seed", 0, minimum=0)
    out["batch"] = _int_field(spec, "batch", 1, minimum=1)
    out["checkpoint_every"] = _int_field(
        spec, "checkpoint_every", 50, minimum=1)
    schedule = spec.get("seed_schedule", "uniform")
    _require(isinstance(schedule, str) and schedule in SCHEDULERS,
             f"spec.seed_schedule must be one of {sorted(SCHEDULERS)}, "
             f"got {schedule!r}")
    out["seed_schedule"] = schedule
    exec_fraction = spec.get("exec_fraction", 0.0)
    _require(isinstance(exec_fraction, (int, float))
             and 0.0 <= exec_fraction <= 1.0,
             "spec.exec_fraction must be a number in [0, 1]")
    out["exec_fraction"] = float(exec_fraction)
    out["execution_mutators"] = bool(spec.get("execution_mutators", False))
    if "crash_after_checkpoints" in spec:  # test hook, first attempt only
        out["crash_after_checkpoints"] = _int_field(
            spec, "crash_after_checkpoints", 0, minimum=1)

    if job_type == "fuzz":
        out["seed_count"] = _int_field(spec, "seed_count", 200, minimum=1)
        out["algorithm"] = _canonical_label(
            spec.get("algorithm", "classfuzz[stbr]"), spec.get("criterion"))
        out["iterations"] = _int_field(spec, "iterations", 500, minimum=1)
    elif job_type == "campaign":
        out["seed_count"] = _int_field(spec, "seed_count", 1216, minimum=1)
        algorithms = spec.get("algorithms")
        if algorithms is None:
            algorithms = list(ALL_ALGORITHMS)
        _require(isinstance(algorithms, (list, tuple)) and algorithms,
                 "spec.algorithms must be a non-empty list")
        out["algorithms"] = [_canonical_label(a, None) for a in algorithms]
        if "budget_seconds" in spec:
            budget = spec["budget_seconds"]
        else:
            scale = spec.get("budget_scale", 0.1)
            _require(isinstance(scale, (int, float)) and scale > 0,
                     "spec.budget_scale must be a positive number")
            budget = PAPER_BUDGET_SECONDS * float(scale)
        _require(isinstance(budget, (int, float)) and budget > 0,
                 "spec.budget_seconds must be a positive number")
        out["budget_seconds"] = float(budget)
    else:  # difftest
        paths = spec.get("paths")
        _require(isinstance(paths, (list, tuple)) and paths,
                 "spec.paths must be a non-empty list of paths")
        out["paths"] = [str(p) for p in paths]
    return out


def _int_field(spec: Dict[str, Any], name: str, default: int,
               minimum: int) -> int:
    value = spec.get(name, default)
    _require(isinstance(value, int) and not isinstance(value, bool)
             and value >= minimum,
             f"spec.{name} must be an integer >= {minimum}, got {value!r}")
    return value


def _canonical_label(algorithm: Any, criterion: Optional[str]) -> str:
    """Map ``algorithm`` (+ optional criterion) onto a campaign label."""
    _require(isinstance(algorithm, str) and algorithm,
             f"algorithm must be a non-empty string, got {algorithm!r}")
    label = algorithm
    if label == "classfuzz":
        label = f"classfuzz[{criterion or 'stbr'}]"
    _require(label in ALL_ALGORITHMS,
             f"unknown algorithm {algorithm!r}; expected one of "
             f"{ALL_ALGORITHMS} (or 'classfuzz' + criterion)")
    return label


def shard_spec(spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Split a validated spec into per-leg work units.

    A campaign becomes one leg per algorithm, each with the iteration
    count :func:`~repro.core.campaign.iterations_for_budget` assigns at
    that budget and the base RNG seed (repetition 0) — i.e. exactly the
    runs ``repro campaign`` would perform in the foreground, so leg
    suites are byte-comparable with ``campaign --suites-out`` output.
    Fuzz and difftest specs become a single leg.
    """
    base = {
        "state": QUEUED,
        "attempts": 0,
        "exit_code": None,
        "started": None,
        "finished": None,
    }
    if spec["type"] == "campaign":
        legs = []
        for label in spec["algorithms"]:
            legs.append(dict(
                base,
                label=safe_label(label),
                kind="fuzz",
                algorithm=label,
                iterations=iterations_for_budget(
                    label, spec["budget_seconds"]),
                rng_seed=spec["seed"],
            ))
        return legs
    if spec["type"] == "fuzz":
        return [dict(base,
                     label=safe_label(spec["algorithm"]),
                     kind="fuzz",
                     algorithm=spec["algorithm"],
                     iterations=spec["iterations"],
                     rng_seed=spec["seed"])]
    return [dict(base, label="difftest", kind="difftest",
                 paths=list(spec["paths"]))]


@dataclass
class Job:
    """One stored job: its normalised spec, sharded legs, and lifecycle.

    Attributes:
        id: the queue-assigned job id (also the job directory name).
        state: one of :data:`JOB_STATES`.
        spec: the :func:`validate_spec`-normalised submission.
        legs: per-leg work units with their own state/attempt tracking.
        created/started/finished: lifecycle timestamps (epoch seconds;
            ``started`` is first-start and survives requeues, so queue
            timings stay honest across daemon restarts).
        error: operator-readable failure description, if any.
        cancel_requested: set by the API; the supervisor acts on it at
            its next poll.
    """

    id: str
    state: str
    spec: Dict[str, Any]
    legs: List[Dict[str, Any]]
    created: float
    started: Optional[float] = None
    finished: Optional[float] = None
    error: Optional[str] = None
    cancel_requested: bool = False
    attempts: int = 0
    _extra: Dict[str, Any] = field(default_factory=dict, repr=False)

    @property
    def is_terminal(self) -> bool:
        """Whether the job can no longer change state."""
        return self.state in TERMINAL_STATES

    def pending_legs(self) -> List[Dict[str, Any]]:
        """Legs still owed work (not done and not cancelled)."""
        return [leg for leg in self.legs
                if leg["state"] not in (DONE, CANCELLED, FAILED)]

    def leg(self, label: str) -> Dict[str, Any]:
        """The leg named ``label`` (raises :class:`JobError` if absent)."""
        for leg in self.legs:
            if leg["label"] == label:
                return leg
        raise JobError(f"job {self.id} has no leg {label!r}")

    def summary(self) -> Dict[str, Any]:
        """The compact ``GET /jobs`` row for this job."""
        running = [leg["label"] for leg in self.legs
                   if leg["state"] == RUNNING]
        return {
            "id": self.id,
            "state": self.state,
            "type": self.spec["type"],
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "legs_done": sum(1 for leg in self.legs
                             if leg["state"] == DONE),
            "legs_total": len(self.legs),
            "current_leg": running[0] if running else None,
            "error": self.error,
        }

    def to_record(self) -> Dict[str, Any]:
        """The JSON-ready ``job.json`` document."""
        record = dict(self._extra)
        record.update({
            "version": RECORD_VERSION,
            "id": self.id,
            "state": self.state,
            "spec": self.spec,
            "legs": self.legs,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "error": self.error,
            "cancel_requested": self.cancel_requested,
            "attempts": self.attempts,
        })
        return record

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "Job":
        """Rebuild a job from its stored record."""
        known = {"version", "id", "state", "spec", "legs", "created",
                 "started", "finished", "error", "cancel_requested",
                 "attempts"}
        try:
            return cls(
                id=record["id"],
                state=record["state"],
                spec=record["spec"],
                legs=record["legs"],
                created=record["created"],
                started=record.get("started"),
                finished=record.get("finished"),
                error=record.get("error"),
                cancel_requested=bool(record.get("cancel_requested")),
                attempts=int(record.get("attempts", 0)),
                _extra={k: v for k, v in record.items() if k not in known},
            )
        except (KeyError, TypeError) as exc:
            raise JobError(f"corrupt job record: {exc}") from exc


class JobStore:
    """Atomic, crash-safe persistence for job records under one root.

    Layout::

        <root>/jobs/<job-id>/job.json       the record (daemon-owned)
        <root>/jobs/<job-id>/legs/<label>/  one artifact dir per leg
                                            (worker-owned: status.json,
                                            events.jsonl, metrics.prom,
                                            checkpoint/, suite/, ...)

    The daemon is the *sole writer* of ``job.json`` (all mutations go
    through :meth:`update` under the store lock); workers write only
    inside their leg directory — no cross-process write races by
    construction.  One daemon per state root: the store does no
    cross-process locking.
    """

    def __init__(self, root: Path):
        self.root = Path(root)
        self.jobs_root = self.root / "jobs"
        self.jobs_root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()

    # -- paths ---------------------------------------------------------------

    def job_dir(self, job_id: str) -> Path:
        """The directory owning ``job_id`` (validates the id format)."""
        if not _JOB_ID_RE.match(job_id or ""):
            raise JobError(f"malformed job id {job_id!r}")
        return self.jobs_root / job_id

    def leg_dir(self, job_id: str, label: str) -> Path:
        """The artifact directory of one leg (labels are pre-sanitised)."""
        return self.job_dir(job_id) / "legs" / label

    # -- record I/O ----------------------------------------------------------

    def save(self, job: Job) -> None:
        """Atomically persist ``job`` (temp file + fsync + rename)."""
        directory = self.job_dir(job.id)
        directory.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(directory / JOB_FILE,
                           json.dumps(job.to_record(), indent=2,
                                      sort_keys=True).encode("utf-8"))

    def load(self, job_id: str) -> Job:
        """Load one job record (raises :class:`JobError` when missing)."""
        path = self.job_dir(job_id) / JOB_FILE
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except FileNotFoundError:
            raise JobError(f"no such job {job_id!r}") from None
        except (OSError, json.JSONDecodeError) as exc:
            raise JobError(f"unreadable job record {job_id!r}: "
                           f"{exc}") from exc
        return Job.from_record(record)

    def list_ids(self) -> List[str]:
        """Ids of every stored job, oldest first (ids are time-sorted)."""
        if not self.jobs_root.is_dir():
            return []
        return sorted(p.name for p in self.jobs_root.iterdir()
                      if p.is_dir() and (p / JOB_FILE).exists())

    def list_jobs(self) -> List[Job]:
        """All loadable jobs, oldest first (skips corrupt records)."""
        jobs = []
        for job_id in self.list_ids():
            try:
                jobs.append(self.load(job_id))
            except JobError:
                continue
        return jobs

    # -- lifecycle -----------------------------------------------------------

    def submit(self, spec: Dict[str, Any]) -> Job:
        """Validate, shard, and durably enqueue one spec."""
        normalised = validate_spec(spec)
        job = Job(
            id=new_job_id(),
            state=QUEUED,
            spec=normalised,
            legs=shard_spec(normalised),
            created=time.time(),
        )
        with self._lock:
            self.save(job)
            for leg in job.legs:
                self.leg_dir(job.id, leg["label"]).mkdir(
                    parents=True, exist_ok=True)
        return job

    def update(self, job_id: str,
               mutate: Callable[[Job], None]) -> Job:
        """Load-mutate-save one record atomically w.r.t. other threads."""
        with self._lock:
            job = self.load(job_id)
            mutate(job)
            self.save(job)
            return job

    def recover(self) -> List[str]:
        """Requeue every job a dead daemon left ``running``.

        Called once at daemon start.  Running legs drop back to
        ``queued`` with their attempt counts intact; their checkpoints
        stay on disk, so the next supervisor pass resumes them
        bit-identically.  Returns the requeued job ids.
        """
        requeued = []
        with self._lock:
            for job in self.list_jobs():
                if job.state != RUNNING:
                    continue

                def _requeue(record: Job) -> None:
                    record.state = QUEUED
                    for leg in record.legs:
                        if leg["state"] == RUNNING:
                            leg["state"] = QUEUED
                self.update(job.id, _requeue)
                requeued.append(job.id)
        return requeued

    def queue_depth(self) -> int:
        """How many jobs are waiting to run."""
        return sum(1 for job in self.list_jobs() if job.state == QUEUED)
