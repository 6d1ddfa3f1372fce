"""Tests for resumable campaign checkpoints (kill → resume bit-equality)."""

import hashlib
import io
import json
import pickle

import pytest

from repro.core.campaign import run_campaign
from repro.core.checkpoint import (
    CRASH_AFTER_ENV,
    JOURNAL_FILE,
    META_FILE,
    STATE_FILE,
    CheckpointError,
    Checkpointer,
    has_checkpoint,
    load_checkpoint,
    read_journal,
    read_meta,
)
from repro.core.fuzzing import classfuzz, greedyfuzz, randfuzz, uniquefuzz
from repro.corpus import CorpusConfig, generate_corpus
from repro.observe import make_telemetry
from repro.observe.events import CHECKPOINT_WRITTEN


@pytest.fixture(scope="module")
def seeds():
    return generate_corpus(CorpusConfig(count=20, seed=11))


def fingerprint(result):
    """Everything the golden-fixture comparison checks, plus lineage."""
    return {
        "gen": [g.label for g in result.gen_classes],
        "tests": [t.label for t in result.test_classes],
        "parents": [g.parent for g in result.gen_classes],
        "discards": dict(result.discards),
        "report": [row for row in result.mutator_report if row[1] > 0],
        "digests": [hashlib.sha256(g.data).hexdigest()[:16]
                    for g in result.gen_classes],
        "signatures": [t.tracefile.signature if t.tracefile else None
                       for t in result.test_classes],
    }


def kill_after(monkeypatch, count):
    monkeypatch.setenv(CRASH_AFTER_ENV, str(count))


class TestCheckpointer:
    def test_writes_on_cadence(self, seeds, tmp_path):
        directory = tmp_path / "ckpt"
        classfuzz(seeds, iterations=40, seed=7,
                  checkpoint_dir=directory, checkpoint_every=10)
        assert has_checkpoint(directory)
        state = load_checkpoint(directory)
        assert state["index"] == 40  # final completion checkpoint
        meta = read_meta(directory)
        assert meta["algorithm"] == "classfuzz"
        assert meta["index"] == 40

    def test_atomic_files_only(self, seeds, tmp_path):
        directory = tmp_path / "ckpt"
        classfuzz(seeds, iterations=20, seed=7,
                  checkpoint_dir=directory, checkpoint_every=5)
        names = {p.name for p in directory.iterdir()}
        assert names == {STATE_FILE, META_FILE, JOURNAL_FILE}

    def test_interval_validated(self, tmp_path):
        with pytest.raises(ValueError, match=">= 1"):
            Checkpointer(tmp_path, every=0)

    def test_missing_checkpoint_rejected(self, tmp_path):
        assert not has_checkpoint(tmp_path)
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_checkpoint(tmp_path)

    def test_corrupt_checkpoint_rejected(self, tmp_path):
        (tmp_path / STATE_FILE).write_bytes(b"not a pickle")
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(tmp_path)

    def test_wrong_version_rejected(self, tmp_path):
        import pickle

        (tmp_path / STATE_FILE).write_bytes(
            pickle.dumps({"version": 999}))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(tmp_path)


class TestKillAndResume:
    @pytest.mark.parametrize("algorithm", [classfuzz, uniquefuzz,
                                           greedyfuzz, randfuzz])
    def test_resumed_run_matches_uninterrupted(self, algorithm, seeds,
                                               tmp_path, monkeypatch):
        baseline = algorithm(seeds, iterations=50, seed=7)
        directory = tmp_path / "ckpt"
        kill_after(monkeypatch, 2)
        with pytest.raises(KeyboardInterrupt):
            algorithm(seeds, iterations=50, seed=7,
                      checkpoint_dir=directory, checkpoint_every=10)
        monkeypatch.delenv(CRASH_AFTER_ENV)
        resumed = algorithm(seeds, iterations=50, seed=7,
                            checkpoint_dir=directory,
                            checkpoint_every=10, resume=True)
        assert fingerprint(resumed) == fingerprint(baseline)

    def test_resume_with_batching(self, seeds, tmp_path, monkeypatch):
        baseline = classfuzz(seeds, iterations=48, seed=3, batch=8)
        directory = tmp_path / "ckpt"
        kill_after(monkeypatch, 1)
        with pytest.raises(KeyboardInterrupt):
            classfuzz(seeds, iterations=48, seed=3, batch=8,
                      checkpoint_dir=directory, checkpoint_every=16)
        monkeypatch.delenv(CRASH_AFTER_ENV)
        resumed = classfuzz(seeds, iterations=48, seed=3, batch=8,
                            checkpoint_dir=directory,
                            checkpoint_every=16, resume=True)
        assert fingerprint(resumed) == fingerprint(baseline)

    def test_resume_after_completion_is_noop(self, seeds, tmp_path):
        directory = tmp_path / "ckpt"
        first = classfuzz(seeds, iterations=30, seed=7,
                          checkpoint_dir=directory, checkpoint_every=10)
        again = classfuzz(seeds, iterations=30, seed=7,
                          checkpoint_dir=directory,
                          checkpoint_every=10, resume=True)
        assert fingerprint(again) == fingerprint(first)

    def test_resume_without_checkpoint_is_fresh_start(self, seeds,
                                                      tmp_path):
        baseline = classfuzz(seeds, iterations=30, seed=7)
        result = classfuzz(seeds, iterations=30, seed=7,
                           checkpoint_dir=tmp_path / "empty",
                           checkpoint_every=10, resume=True)
        assert fingerprint(result) == fingerprint(baseline)

    def test_resume_requires_checkpoint_dir(self, seeds):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            classfuzz(seeds, iterations=10, seed=7, resume=True)

    def test_checkpointing_does_not_change_results(self, seeds,
                                                   tmp_path):
        baseline = classfuzz(seeds, iterations=40, seed=7)
        checkpointed = classfuzz(seeds, iterations=40, seed=7,
                                 checkpoint_dir=tmp_path / "ckpt",
                                 checkpoint_every=10)
        assert fingerprint(checkpointed) == fingerprint(baseline)

    def test_mismatched_algorithm_rejected(self, seeds, tmp_path):
        directory = tmp_path / "ckpt"
        classfuzz(seeds, iterations=20, seed=7,
                  checkpoint_dir=directory, checkpoint_every=10)
        with pytest.raises(CheckpointError, match="algorithm"):
            uniquefuzz(seeds, iterations=20, seed=7,
                       checkpoint_dir=directory, checkpoint_every=10,
                       resume=True)

    def test_mismatched_batch_rejected(self, seeds, tmp_path):
        directory = tmp_path / "ckpt"
        classfuzz(seeds, iterations=20, seed=7, batch=4,
                  checkpoint_dir=directory, checkpoint_every=10)
        with pytest.raises(CheckpointError, match="batch"):
            classfuzz(seeds, iterations=20, seed=7, batch=2,
                      checkpoint_dir=directory, checkpoint_every=10,
                      resume=True)

    def test_mismatched_schedule_rejected(self, seeds, tmp_path):
        directory = tmp_path / "ckpt"
        classfuzz(seeds, iterations=20, seed=7,
                  checkpoint_dir=directory, checkpoint_every=10)
        with pytest.raises(CheckpointError, match="seed schedule"):
            classfuzz(seeds, iterations=20, seed=7,
                      schedule="coverage-yield",
                      checkpoint_dir=directory, checkpoint_every=10,
                      resume=True)

    @pytest.mark.parametrize("index", ["exact", "bitmap"])
    def test_legacy_coverage_index_ignored(self, index, seeds, tmp_path,
                                           monkeypatch):
        # Checkpoints written while the bitmap index existed record a
        # coverage_index; both values made identical decisions.
        baseline = classfuzz(seeds, iterations=40, seed=7, criterion="tr")
        directory = tmp_path / "ckpt"
        kill_after(monkeypatch, 1)
        with pytest.raises(KeyboardInterrupt):
            classfuzz(seeds, iterations=40, seed=7, criterion="tr",
                      checkpoint_dir=directory, checkpoint_every=10)
        monkeypatch.delenv(CRASH_AFTER_ENV)
        path = directory / STATE_FILE
        state = pickle.loads(path.read_bytes())
        state["coverage_index"] = index
        path.write_bytes(pickle.dumps(state))
        resumed = classfuzz(seeds, iterations=40, seed=7, criterion="tr",
                            checkpoint_dir=directory, checkpoint_every=10,
                            resume=True)
        assert fingerprint(resumed) == fingerprint(baseline)

    def test_checkpoint_written_events(self, seeds, tmp_path):
        telemetry = make_telemetry(ring_capacity=1024)
        ring = telemetry.bus.sinks[0]
        classfuzz(seeds, iterations=30, seed=7, telemetry=telemetry,
                  checkpoint_dir=tmp_path / "ckpt", checkpoint_every=10)
        events = ring.events(CHECKPOINT_WRITTEN)
        assert events  # periodic + final completion writes
        assert events[-1].fields["index"] == 30
        text = telemetry.render_prometheus()
        assert "repro_checkpoints_total" in text


class _ClassSpy(pickle.Unpickler):
    """Unpickler that records every class a pickle refers to."""

    def __init__(self, data):
        super().__init__(io.BytesIO(data))
        self.names = set()

    def find_class(self, module, name):
        self.names.add(name)
        return super().find_class(module, name)


class TestJournal:
    def killed_run(self, seeds, directory, monkeypatch):
        kill_after(monkeypatch, 2)
        with pytest.raises(KeyboardInterrupt):
            classfuzz(seeds, iterations=50, seed=7,
                      checkpoint_dir=directory, checkpoint_every=10)
        monkeypatch.delenv(CRASH_AFTER_ENV)

    def resume(self, seeds, directory):
        return classfuzz(seeds, iterations=50, seed=7,
                         checkpoint_dir=directory, checkpoint_every=10,
                         resume=True)

    def test_each_class_is_journaled_once(self, seeds, tmp_path):
        directory = tmp_path / "ckpt"
        telemetry = make_telemetry(ring_capacity=1024)
        result = classfuzz(seeds, iterations=50, seed=7,
                           telemetry=telemetry, checkpoint_dir=directory,
                           checkpoint_every=10)
        frames, _ = read_journal(directory)
        assert sum(len(frame["records"]) for frame in frames) \
            == len(result.gen_classes)
        assert "seeds" in frames[0]
        assert not any("seeds" in frame for frame in frames[1:])
        events = telemetry.bus.sinks[0].events(CHECKPOINT_WRITTEN)
        assert sum(event.fields["journal_bytes"] for event in events) \
            == (directory / JOURNAL_FILE).stat().st_size
        state_bytes = (directory / STATE_FILE).stat().st_size
        assert events[-1].fields["state_bytes"] == state_bytes
        assert read_meta(directory)["state_bytes"] == state_bytes

    def test_state_file_holds_no_classes(self, seeds, tmp_path):
        directory = tmp_path / "ckpt"
        classfuzz(seeds, iterations=50, seed=7,
                  checkpoint_dir=directory, checkpoint_every=10)
        spy = _ClassSpy((directory / STATE_FILE).read_bytes())
        spy.load()
        assert not spy.names & {"JClass", "GeneratedClass"}

    def test_tail_past_recorded_length_is_dropped(self, seeds, tmp_path,
                                                  monkeypatch):
        baseline = classfuzz(seeds, iterations=50, seed=7)
        directory = tmp_path / "ckpt"
        self.killed_run(seeds, directory, monkeypatch)
        # A kill between a frame's fsync and the state replace.
        with open(directory / JOURNAL_FILE, "ab") as handle:
            handle.write(b"torn frame" * 100_000)
        resumed = self.resume(seeds, directory)
        assert fingerprint(resumed) == fingerprint(baseline)
        frames, _ = read_journal(directory)
        assert sum(len(frame["records"]) for frame in frames) \
            == len(resumed.gen_classes)

    def test_flipped_byte_is_corrupt(self, seeds, tmp_path, monkeypatch):
        directory = tmp_path / "ckpt"
        self.killed_run(seeds, directory, monkeypatch)
        path = directory / JOURNAL_FILE
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="corrupt"):
            load_checkpoint(directory)

    def test_fresh_run_starts_new_journal(self, seeds, tmp_path):
        directory = tmp_path / "ckpt"
        classfuzz(seeds, iterations=50, seed=7,
                  checkpoint_dir=directory, checkpoint_every=10)
        fresh = classfuzz(seeds, iterations=30, seed=8,
                          checkpoint_dir=directory, checkpoint_every=10)
        frames, _ = read_journal(directory)
        journaled = [record for frame in frames
                     for record in frame["records"]]
        assert [g.label for g in journaled] \
            == [g.label for g in fresh.gen_classes]
        assert [g.data for g in journaled] \
            == [g.data for g in fresh.gen_classes]
        again = classfuzz(seeds, iterations=30, seed=8,
                          checkpoint_dir=directory, checkpoint_every=10,
                          resume=True)
        assert fingerprint(again) == fingerprint(fresh)

    def test_resumed_state_shares_objects(self, seeds, tmp_path,
                                          monkeypatch):
        directory = tmp_path / "ckpt"
        self.killed_run(seeds, directory, monkeypatch)
        state = load_checkpoint(directory)
        generated = {id(g) for g in state["gen_classes"]}
        assert all(id(t) in generated for t in state["test_classes"])
        bodies = {id(g.jclass) for g in state["test_classes"]}
        mutants = [entry for entry in state["pool"]["entries"]
                   if entry[2] == "mutant"]
        assert mutants
        assert all(id(entry[0]) in bodies for entry in mutants)

    def test_version_1_checkpoint_resumes(self, seeds, tmp_path,
                                          monkeypatch):
        baseline = classfuzz(seeds, iterations=50, seed=7)
        directory = tmp_path / "ckpt"
        self.killed_run(seeds, directory, monkeypatch)
        # The v1 layout: every class inline in the state file, no journal.
        state = load_checkpoint(directory)
        state["version"] = 1
        del state["journal"]
        (directory / STATE_FILE).write_bytes(pickle.dumps(state))
        (directory / JOURNAL_FILE).unlink()
        resumed = self.resume(seeds, directory)
        assert fingerprint(resumed) == fingerprint(baseline)
        assert load_checkpoint(directory)["version"] == 2
        frames, _ = read_journal(directory)
        assert sum(len(frame["records"]) for frame in frames) \
            == len(resumed.gen_classes)


class TestCampaignResume:
    def test_killed_campaign_resumes_equal(self, seeds, tmp_path,
                                           monkeypatch):
        algorithms = ("classfuzz[stbr]", "randfuzz")
        baseline = run_campaign(seeds, budget_seconds=9000,
                                algorithms=algorithms, rng_seed=5)
        directory = tmp_path / "campaign"
        kill_after(monkeypatch, 2)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(seeds, budget_seconds=9000,
                         algorithms=algorithms, rng_seed=5,
                         checkpoint_dir=directory, checkpoint_every=20)
        monkeypatch.delenv(CRASH_AFTER_ENV)
        resumed = run_campaign(seeds, budget_seconds=9000,
                               algorithms=algorithms, rng_seed=5,
                               checkpoint_dir=directory,
                               checkpoint_every=20, resume=True)
        assert len(resumed) == len(baseline)
        for left, right in zip(resumed, baseline):
            assert left.label == right.label
            assert fingerprint(left.fuzz) == fingerprint(right.fuzz)

    def test_each_leg_gets_its_own_subdir(self, seeds, tmp_path):
        directory = tmp_path / "campaign"
        run_campaign(seeds, budget_seconds=4000,
                     algorithms=("classfuzz[stbr]", "randfuzz"),
                     rng_seed=5, checkpoint_dir=directory,
                     checkpoint_every=20)
        subdirs = sorted(p.name for p in directory.iterdir())
        assert subdirs == ["classfuzz-stbr-r0", "randfuzz-r0"]
        for sub in subdirs:
            assert has_checkpoint(directory / sub)
