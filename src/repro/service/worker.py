"""Leg worker: the subprocess entry point ``python -m repro.service.worker``.

The daemon never fuzzes in-process — each leg runs in a supervised
subprocess so a crash (or a deliberate ``SIGKILL`` of the daemon) can
never corrupt the queue, and so SIGTERM-driven graceful shutdown uses
the exact signal path production kills use.  The worker:

* loads its job record *read-only* (``job.json`` stays daemon-owned;
  everything the worker writes lives inside its own leg directory);
* installs the :mod:`repro.core.shutdown` SIGTERM handler, runs the leg
  under the checkpoint machinery (``checkpoint/`` in the leg dir,
  ``resume=True`` so a retried attempt continues bit-identically);
* publishes progress by atomically rewriting ``status.json`` from its
  :class:`~repro.observe.status.StatusTracker` snapshot (with the
  ``job`` section filled in) every ~half second;
* leaves artifacts behind: ``events.jsonl``, ``metrics.prom``,
  ``suite/`` (fuzz legs), ``report.json`` (difftest legs),
  ``result.json``, ``error.txt`` on failure.

Exit-code protocol (what the supervisor reads):

* ``0`` — leg complete, artifacts in place;
* ``143`` — SIGTERM honoured: final checkpoint written, resumable;
* ``130`` — interrupted (KeyboardInterrupt / the
  ``REPRO_CRASH_AFTER_CHECKPOINTS`` hook): resumable;
* anything else — failure; the supervisor retries up to its attempt
  budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core.campaign import run_algorithm
from repro.core.checkpoint import CRASH_AFTER_ENV, atomic_write_bytes
from repro.core.executor import make_executor
from repro.core.shutdown import (
    GRACEFUL_EXIT_CODE,
    GracefulShutdown,
    install_sigterm_handler,
    reset_shutdown,
)
from repro.corpus import CorpusConfig, generate_corpus
from repro.service.jobs import Job, JobStore

#: How often the status.json snapshot is refreshed while a leg runs.
STATUS_INTERVAL_SECONDS = 0.5

#: File names the worker maintains inside its leg directory.
STATUS_FILE = "status.json"
RESULT_FILE = "result.json"
ERROR_FILE = "error.txt"


def write_json(path: Path, document: Dict[str, Any]) -> None:
    """Atomically write one JSON document (crash leaves old or new)."""
    atomic_write_bytes(path, json.dumps(document, indent=2,
                                        sort_keys=True).encode("utf-8"))


class _StatusPublisher:
    """Background thread mirroring tracker snapshots into ``status.json``."""

    def __init__(self, tracker, path: Path):
        self._tracker = tracker
        self._path = path
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def start(self) -> "_StatusPublisher":
        self.write_once()
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(STATUS_INTERVAL_SECONDS):
            self.write_once()

    def write_once(self) -> None:
        try:
            write_json(self._path, self._tracker.snapshot())
        except OSError:
            pass  # progress publishing must never kill the leg

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)
        self.write_once()


def _collect_classfiles(paths: List[str]) -> List[Tuple[str, bytes]]:
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.glob("*.class")))
        else:
            files.append(path)
    return [(path.stem, path.read_bytes()) for path in files]


def _run_fuzz_leg(job: Job, leg: Dict[str, Any], leg_dir: Path,
                  telemetry) -> Dict[str, Any]:
    from repro.core.storage import save_suite

    spec = job.spec
    seeds = generate_corpus(CorpusConfig(
        count=spec["seed_count"], seed=spec["seed"],
        exec_fraction=spec.get("exec_fraction", 0.0)))
    extra = {}
    if spec.get("execution_mutators"):
        from repro.core.mutators import EXECUTION_MUTATORS, MUTATORS

        extra["mutators"] = list(MUTATORS) + list(EXECUTION_MUTATORS)
    executor = make_executor(telemetry=telemetry)
    try:
        result = run_algorithm(
            leg["algorithm"], seeds, leg["iterations"], leg["rng_seed"],
            executor=executor, telemetry=telemetry,
            batch=spec["batch"], schedule=spec["seed_schedule"],
            checkpoint_dir=leg_dir / "checkpoint",
            checkpoint_every=spec["checkpoint_every"],
            resume=True, **extra)
    finally:
        executor.close()
    manifest = save_suite(result, leg_dir / "suite")
    return {
        "kind": "fuzz",
        "algorithm": leg["algorithm"],
        "iterations": result.iterations,
        "generated": len(result.gen_classes),
        "accepted": len(result.test_classes),
        "succ": result.succ,
        "elapsed_seconds": result.elapsed_seconds,
        "discards": dict(result.discards),
        "manifest": str(manifest),
    }


def _run_difftest_leg(job: Job, leg: Dict[str, Any], leg_dir: Path,
                      telemetry) -> Dict[str, Any]:
    from repro.core.difftest import DifferentialHarness
    from repro.core.metrics import evaluate_suite

    suite = _collect_classfiles(leg["paths"])
    harness = DifferentialHarness(telemetry=telemetry)
    report = evaluate_suite("service", suite, harness)
    document = {
        "kind": "difftest",
        "size": report.size,
        "all_invoked": report.all_invoked,
        "all_rejected_same_stage": report.all_rejected_same_stage,
        "discrepancies": report.discrepancies,
        "distinct_discrepancies": report.distinct_discrepancies,
        "fine_discrepancies": report.fine_discrepancies,
    }
    write_json(leg_dir / "report.json", document)
    return document


def run_leg(root: Path, job_id: str, leg_label: str, attempt: int,
            queue_depth: int) -> int:
    """Execute one leg to completion; returns the process exit code."""
    store = JobStore(root)
    job = store.load(job_id)
    leg = job.leg(leg_label)
    leg_dir = store.leg_dir(job_id, leg_label)
    leg_dir.mkdir(parents=True, exist_ok=True)

    # Deterministic crash-testing hook: a leg spec may ask its *first*
    # attempt to die after N checkpoints; retries run clean, so tests
    # exercise the resume path without looping forever.
    if job.spec.get("crash_after_checkpoints") and attempt == 0:
        os.environ[CRASH_AFTER_ENV] = str(
            job.spec["crash_after_checkpoints"])
    else:
        os.environ.pop(CRASH_AFTER_ENV, None)

    reset_shutdown()
    install_sigterm_handler()

    from repro.observe.telemetry import make_telemetry
    telemetry = make_telemetry(events_path=leg_dir / "events.jsonl")
    tracker = telemetry.attach_status()
    tracker.begin_run(f"{job_id}/{leg_label}",
                      config=dict(job.spec, leg=leg_label))
    tracker.set_job(id=job_id,
                    leg=[l["label"] for l in job.legs].index(leg_label) + 1,
                    legs=len(job.legs),
                    queue_depth=queue_depth,
                    attempt=attempt)
    publisher = _StatusPublisher(tracker, leg_dir / STATUS_FILE).start()
    try:
        with telemetry.activate():
            if leg["kind"] == "difftest":
                document = _run_difftest_leg(job, leg, leg_dir, telemetry)
            else:
                document = _run_fuzz_leg(job, leg, leg_dir, telemetry)
        write_json(leg_dir / RESULT_FILE, document)
        return 0
    except GracefulShutdown as exc:
        print(f"leg {leg_label}: {exc}", file=sys.stderr)
        return GRACEFUL_EXIT_CODE
    except KeyboardInterrupt:
        return 130
    except Exception as exc:  # report, then fail the attempt
        atomic_write_bytes(leg_dir / ERROR_FILE,
                           f"{type(exc).__name__}: {exc}\n".encode("utf-8"))
        print(f"leg {leg_label} failed: {exc}", file=sys.stderr)
        return 1
    finally:
        publisher.stop()
        try:
            (leg_dir / "metrics.prom").write_text(
                telemetry.render_prometheus(), encoding="utf-8")
        except OSError:
            pass
        telemetry.close()


def main(argv: Optional[List[str]] = None) -> int:
    """Parse supervisor-provided arguments and run the leg."""
    parser = argparse.ArgumentParser(
        prog="repro-service-worker",
        description="run one service-job leg (daemon-internal)")
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--job", required=True)
    parser.add_argument("--leg", required=True)
    parser.add_argument("--attempt", type=int, default=0)
    parser.add_argument("--queue-depth", type=int, default=0)
    args = parser.parse_args(argv)
    return run_leg(args.root, args.job, args.leg, args.attempt,
                   args.queue_depth)


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(main())
