"""Decision-stream identity of the process backend's reference workers.

The contract: persistent workers — warm JVM state, tracefiles pickled
back and re-keyed onto the parent's interned ids — must keep fuzzing
decision streams **byte-identical** to the serial backend over full
classfuzz rounds and through a kill → resume cycle, and the worker
processes must never outlive the executor (normal close and interrupt
paths alike).  The transport needs no shared memory at all.
"""

import hashlib
import multiprocessing
from pathlib import Path

import pytest

from repro.core.checkpoint import CRASH_AFTER_ENV
from repro.core.executor import OutcomeCache, ProcessExecutor
from repro.core.fuzzing import classfuzz
from repro.corpus import CorpusConfig, generate_corpus

SHM_DIR = Path("/dev/shm")


@pytest.fixture(scope="module")
def seeds():
    return generate_corpus(CorpusConfig(count=25, seed=11))


def fingerprint(result):
    """The cross-backend-comparable essence of a FuzzResult."""
    return {
        "gen": [g.label for g in result.gen_classes],
        "tests": [t.label for t in result.test_classes],
        "discards": dict(result.discards),
        "digests": [hashlib.sha256(g.data).hexdigest()[:16]
                    for g in result.test_classes],
        "signatures": [t.tracefile.signature if t.tracefile else None
                       for t in result.test_classes],
    }


def repro_segments():
    if not SHM_DIR.is_dir():  # pragma: no cover - non-tmpfs platforms
        return []
    return sorted(p.name for p in SHM_DIR.glob("repro_*"))


def process_engine(**kwargs):
    kwargs.setdefault("jobs", 2)
    kwargs.setdefault("cache", OutcomeCache())
    try:
        return ProcessExecutor(**kwargs)
    except (OSError, ValueError, ImportError) as exc:  # pragma: no cover
        pytest.skip(f"process pool unavailable: {exc}")


class TestDecisionStreamIdentity:
    def test_persistent_matches_serial_over_tr_rounds(self, seeds):
        baseline = classfuzz(seeds, iterations=60, criterion="tr",
                             seed=7, batch=8)
        with process_engine() as engine:
            parallel = classfuzz(seeds, iterations=60, criterion="tr",
                                 seed=7, batch=8, executor=engine)
        assert fingerprint(parallel) == fingerprint(baseline)

    def test_recycled_workers_keep_identity(self, seeds):
        baseline = classfuzz(seeds, iterations=40, criterion="stbr",
                             seed=3, batch=8)
        with process_engine(max_runs_per_worker=3) as engine:
            recycled = classfuzz(seeds, iterations=40, criterion="stbr",
                                 seed=3, batch=8, executor=engine)
            assert engine.stats.worker_recycles > 0
        assert fingerprint(recycled) == fingerprint(baseline)


class TestKillAndResume:
    def test_persistent_resume_matches_uninterrupted(self, seeds,
                                                     tmp_path,
                                                     monkeypatch):
        baseline = classfuzz(seeds, iterations=48, criterion="tr",
                             seed=3, batch=8)
        directory = tmp_path / "ckpt"
        monkeypatch.setenv(CRASH_AFTER_ENV, "1")
        engine = process_engine()
        try:
            with pytest.raises(KeyboardInterrupt):
                classfuzz(seeds, iterations=48, criterion="tr", seed=3,
                          batch=8, executor=engine,
                          checkpoint_dir=directory, checkpoint_every=16)
        finally:
            # The CLI's interrupt handler path: close on the way out.
            engine.close()
        monkeypatch.delenv(CRASH_AFTER_ENV)
        # Resume in a fresh persistent executor.
        with process_engine() as engine:
            resumed = classfuzz(seeds, iterations=48, criterion="tr",
                                seed=3, batch=8, executor=engine,
                                checkpoint_dir=directory,
                                checkpoint_every=16, resume=True)
        assert fingerprint(resumed) == fingerprint(baseline)


class TestWorkerAccounting:
    def test_persistent_runs_mostly_warm(self, seeds):
        with process_engine() as engine:
            classfuzz(seeds, iterations=40, criterion="stbr", seed=7,
                      batch=8, executor=engine)
            stats = engine.stats
            # Each worker pays exactly one cold (initial) run; everything
            # after that rides warm state.
            assert 0 < stats.cold_runs <= engine.jobs
            assert stats.warm_runs > stats.cold_runs
            assert stats.worker_recycles == 0
            text = stats.format()
        assert "worker runs:" in text
        assert f"{stats.warm_runs} warm" in text

    def test_worker_telemetry_counters(self, seeds):
        from repro.observe import Telemetry

        telemetry = Telemetry()
        with process_engine(telemetry=telemetry) as engine:
            classfuzz(seeds, iterations=24, criterion="stbr", seed=7,
                      batch=8, executor=engine)
        warm = telemetry.registry.get("repro_worker_runs_total") \
            .labels(state="warm").value
        assert warm > 0
        text = telemetry.render_prometheus()
        assert "repro_worker_runs_total" in text


class TestPoolLifecycle:
    """Workers never outlive the executor, and no shared memory exists."""

    @pytest.mark.skipif(not SHM_DIR.is_dir(),
                        reason="no /dev/shm on this platform")
    def test_no_shared_memory_and_no_workers_after_close(self, seeds):
        before = repro_segments()
        with process_engine() as engine:
            classfuzz(seeds, iterations=16, criterion="tr", seed=7,
                      batch=8, executor=engine)
            mid_run = repro_segments()
            assert multiprocessing.active_children()  # workers are up
        assert mid_run == before
        assert repro_segments() == before
        assert multiprocessing.active_children() == []

    def test_no_workers_after_interrupt(self, seeds, tmp_path,
                                        monkeypatch):
        before = repro_segments()
        monkeypatch.setenv(CRASH_AFTER_ENV, "1")
        engine = process_engine()
        try:
            with pytest.raises(KeyboardInterrupt):
                classfuzz(seeds, iterations=32, criterion="tr", seed=7,
                          batch=8, executor=engine,
                          checkpoint_dir=tmp_path / "ckpt",
                          checkpoint_every=8)
        finally:
            engine.close()
        assert repro_segments() == before
        assert multiprocessing.active_children() == []

    def test_close_is_idempotent(self, seeds):
        engine = process_engine()
        classfuzz(seeds, iterations=8, criterion="tr", seed=7, batch=8,
                  executor=engine)
        engine.close()
        engine.close()
        assert multiprocessing.active_children() == []
