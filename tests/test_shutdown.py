"""Tests for graceful SIGTERM shutdown (final checkpoint + exit 143)."""

import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core import worker
from repro.core.checkpoint import has_checkpoint, read_meta
from repro.core.fuzzing import classfuzz
from repro.core.shutdown import (
    GRACEFUL_EXIT_CODE,
    GracefulShutdown,
    install_sigterm_handler,
    request_shutdown,
    reset_shutdown,
    shutdown_requested,
)
from repro.corpus import CorpusConfig, generate_corpus

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(scope="module")
def seeds():
    return generate_corpus(CorpusConfig(count=12, seed=9))


@pytest.fixture(autouse=True)
def clean_flag():
    reset_shutdown()
    yield
    reset_shutdown()


class TestShutdownFlag:
    def test_request_sets_and_reset_clears(self):
        assert not shutdown_requested()
        request_shutdown()
        assert shutdown_requested()
        reset_shutdown()
        assert not shutdown_requested()

    def test_install_handler_on_main_thread(self):
        previous = signal.getsignal(signal.SIGTERM)
        try:
            assert install_sigterm_handler()
            assert signal.getsignal(signal.SIGTERM) is request_shutdown
        finally:
            signal.signal(signal.SIGTERM, previous)

    def test_install_handler_off_main_thread_degrades(self):
        import threading

        results = []
        thread = threading.Thread(
            target=lambda: results.append(install_sigterm_handler()))
        thread.start()
        thread.join()
        assert results == [False]


def _sigterm_after_init(init, args, conn):
    # The worst a forked worker can inherit: the graceful handler,
    # blocked.
    install_sigterm_handler()
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
    init(*args)
    conn.send((signal.getsignal(signal.SIGTERM) == signal.SIG_DFL,
               signal.SIGTERM in signal.pthread_sigmask(signal.SIG_BLOCK,
                                                        [])))
    conn.close()


class TestWorkerSigterm:
    """Reference workers must die on ``Pool.terminate()``'s SIGTERM."""

    @pytest.mark.parametrize("init, args", [
        (worker.persistent_init, (pickle.dumps(None), 0)),
    ], ids=["persistent_init"])
    def test_initializer_restores_default_disposition(self, init, args):
        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)
        child = context.Process(target=_sigterm_after_init,
                                args=(init, args, sender))
        child.start()
        sender.close()
        try:
            assert receiver.poll(30)
            assert receiver.recv() == (True, False)  # default, unblocked
        finally:
            child.join(30)
        assert child.exitcode == 0


class TestGracefulRunStop:
    def test_run_raises_after_final_checkpoint(self, seeds, tmp_path):
        directory = tmp_path / "ckpt"
        request_shutdown()  # set before the run: stops at round 1
        with pytest.raises(GracefulShutdown) as excinfo:
            classfuzz(seeds, iterations=100, seed=7,
                      checkpoint_dir=directory, checkpoint_every=50)
        assert excinfo.value.checkpointed
        assert has_checkpoint(directory)
        # the final checkpoint reflects the stop point, not the target
        assert read_meta(directory)["index"] < 100

    def test_resume_completes_identically(self, seeds, tmp_path):
        full = classfuzz(seeds, iterations=60, seed=7)
        directory = tmp_path / "ckpt"
        request_shutdown()
        with pytest.raises(GracefulShutdown):
            classfuzz(seeds, iterations=60, seed=7,
                      checkpoint_dir=directory, checkpoint_every=20)
        reset_shutdown()
        resumed = classfuzz(seeds, iterations=60, seed=7,
                            checkpoint_dir=directory, resume=True)
        assert [t.label for t in resumed.test_classes] == \
            [t.label for t in full.test_classes]
        assert [g.data for g in resumed.gen_classes] == \
            [g.data for g in full.gen_classes]

    def test_no_checkpoint_dir_still_stops_orderly(self, seeds):
        request_shutdown()
        with pytest.raises(GracefulShutdown) as excinfo:
            classfuzz(seeds, iterations=100, seed=7)
        assert not excinfo.value.checkpointed


class TestCliSigterm:
    """The subprocess contract: SIGTERM -> checkpoint -> exit 143 -> resume."""

    def _run_cli(self, *args, **kwargs):
        env = dict(os.environ, PYTHONPATH=SRC)
        return subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=env, **kwargs)

    def test_sigterm_exits_143_and_resume_is_byte_identical(self, tmp_path):
        common = ["fuzz", "--algorithm", "classfuzz", "--criterion", "tr",
                  "--iterations", "2000", "--seed", "9",
                  "--seed-count", "8"]
        full = self._run_cli(*common, "--out", str(tmp_path / "full"))
        assert full.wait(timeout=120) == 0

        ckpt = tmp_path / "ckpt"
        proc = self._run_cli(*common, "--checkpoint-dir", str(ckpt),
                             "--checkpoint-every", "25",
                             "--out", str(tmp_path / "partial"))
        # wait until at least one checkpoint exists, then SIGTERM
        deadline = time.time() + 60
        while time.time() < deadline and not has_checkpoint(ckpt):
            if proc.poll() is not None:
                pytest.fail("run finished before SIGTERM could be sent: "
                            + proc.stderr.read().decode())
            time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == GRACEFUL_EXIT_CODE
        stderr = proc.stderr.read().decode()
        assert "SIGTERM honoured" in stderr
        assert has_checkpoint(ckpt)
        interrupted_at = read_meta(ckpt)["index"]
        assert 0 < interrupted_at < 2000

        resume = self._run_cli(*common, "--checkpoint-dir", str(ckpt),
                               "--resume", "--out",
                               str(tmp_path / "resumed"))
        assert resume.wait(timeout=120) == 0
        full_manifest = (tmp_path / "full" / "manifest.json").read_bytes()
        resumed_manifest = (tmp_path / "resumed"
                            / "manifest.json").read_bytes()
        assert resumed_manifest == full_manifest
