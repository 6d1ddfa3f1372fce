"""Tests for the orchestration service: queue, daemon, HTTP API, E2E."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.campaign import (
    PAPER_BUDGET_SECONDS,
    iterations_for_budget,
    run_algorithm,
)
from repro.core.storage import save_suite
from repro.corpus import CorpusConfig, generate_corpus
from repro.observe.summary import (
    CORE_METRIC_FAMILIES,
    check_prometheus,
    summarize_job,
)
from repro.service.client import ServiceClient, ServiceClientError
from repro.service.daemon import ServiceDaemon, worker_environment
from repro.service.jobs import (
    JobError,
    JobStore,
    new_job_id,
    shard_spec,
    validate_spec,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


class TestSpecValidation:
    def test_defaults_fill_in(self):
        spec = validate_spec({"type": "fuzz"})
        assert spec["algorithm"] == "classfuzz[stbr]"
        assert spec["iterations"] == 500
        assert spec["seed_count"] == 200
        assert spec["seed_schedule"] == "uniform"

    def test_bare_classfuzz_takes_criterion(self):
        spec = validate_spec({"type": "fuzz", "algorithm": "classfuzz",
                              "criterion": "tr"})
        assert spec["algorithm"] == "classfuzz[tr]"

    def test_campaign_budget_scale_matches_cli(self):
        spec = validate_spec({"type": "campaign", "budget_scale": 0.5})
        assert spec["budget_seconds"] == PAPER_BUDGET_SECONDS * 0.5

    @pytest.mark.parametrize("bad", [
        {"type": "warp"},
        {"type": "fuzz", "algorithm": "quantumfuzz"},
        {"type": "fuzz", "iterations": 0},
        {"type": "fuzz", "iterations": "many"},
        {"type": "fuzz", "seed_schedule": "bogus"},
        {"type": "campaign", "algorithms": []},
        {"type": "campaign", "budget_scale": -1},
        {"type": "difftest"},
        {"type": "difftest", "paths": []},
        "not-a-dict",
    ])
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(JobError):
            validate_spec(bad)

    def test_campaign_shards_one_leg_per_algorithm(self):
        spec = validate_spec({
            "type": "campaign", "budget_scale": 0.1, "seed": 3,
            "algorithms": ["classfuzz[tr]", "randfuzz"]})
        legs = shard_spec(spec)
        assert [leg["label"] for leg in legs] == ["classfuzz-tr",
                                                 "randfuzz"]
        assert all(leg["state"] == "queued" for leg in legs)
        assert legs[0]["rng_seed"] == 3
        assert legs[0]["iterations"] == iterations_for_budget(
            "classfuzz[tr]", spec["budget_seconds"])


class TestJobStore:
    def test_submit_persists_and_roundtrips(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.submit({"type": "fuzz", "algorithm": "randfuzz",
                            "iterations": 5})
        loaded = store.load(job.id)
        assert loaded.to_record() == job.to_record()
        assert (store.leg_dir(job.id, "randfuzz")).is_dir()
        # a fresh store over the same root sees the same queue
        assert JobStore(tmp_path).list_ids() == [job.id]

    @pytest.mark.parametrize("field, value", [
        ("coverage_index", "bitmap"),
        ("cmp_coverage", True),
    ], ids=["coverage_index", "cmp_coverage"])
    def test_record_with_coverage_index_still_runs(self, tmp_path, field,
                                                   value):
        # Records queued while the bitmap index or the comparison probe
        # kind existed carry a ``coverage_index`` or ``cmp_coverage``
        # field; the worker no longer reads either.
        import signal

        from repro.service.worker import run_leg

        store = JobStore(tmp_path)
        job = store.submit({"type": "fuzz", "algorithm": "classfuzz[tr]",
                            "iterations": 20, "seed": 3, "seed_count": 8,
                            field: value})
        assert field not in job.spec
        store.update(job.id, lambda record: record.spec.update(
            {field: value}))
        previous = signal.getsignal(signal.SIGTERM)
        try:
            code = run_leg(store.root, job.id, "classfuzz-tr", 0, 0)
        finally:
            # run_leg routes SIGTERM to the graceful-shutdown flag.
            signal.signal(signal.SIGTERM, previous)
        assert code == 0
        seeds = generate_corpus(CorpusConfig(count=8, seed=3))
        expected = save_suite(
            run_algorithm("classfuzz[tr]", seeds, 20, 3),
            tmp_path / "expected")
        served = store.leg_dir(job.id, "classfuzz-tr") / "suite"
        assert expected.read_bytes() == \
            (served / "manifest.json").read_bytes()

    def test_malformed_job_ids_rejected(self, tmp_path):
        store = JobStore(tmp_path)
        for bad in ("../escape", "nope", "", "A" * 30):
            with pytest.raises(JobError):
                store.job_dir(bad)

    def test_load_missing_and_corrupt(self, tmp_path):
        store = JobStore(tmp_path)
        with pytest.raises(JobError):
            store.load(new_job_id())
        job = store.submit({"type": "fuzz"})
        (store.job_dir(job.id) / "job.json").write_text("{torn",
                                                        encoding="utf-8")
        with pytest.raises(JobError):
            store.load(job.id)
        assert store.list_jobs() == []  # corrupt records are skipped

    def test_recover_requeues_running(self, tmp_path):
        store = JobStore(tmp_path)
        job = store.submit({"type": "fuzz"})

        def _fake_running(record):
            record.state = "running"
            record.legs[0]["state"] = "running"
            record.started = record.created
        store.update(job.id, _fake_running)
        assert store.recover() == [job.id]
        recovered = store.load(job.id)
        assert recovered.state == "queued"
        assert recovered.legs[0]["state"] == "queued"
        assert recovered.started is not None  # first-start survives

    def test_cancel_queued_without_scheduler(self, tmp_path):
        daemon = ServiceDaemon(tmp_path)  # never started: stays queued
        job = daemon.submit({"type": "fuzz"})
        cancelled = daemon.cancel(job.id)
        assert cancelled.state == "cancelled"
        assert all(leg["state"] == "cancelled" for leg in cancelled.legs)
        # cancelling a terminal job is a no-op
        assert daemon.cancel(job.id).state == "cancelled"


class TestWorkerEnvironment:
    def test_repro_importable_and_crash_hook_stripped(self, monkeypatch):
        monkeypatch.setenv("REPRO_CRASH_AFTER_CHECKPOINTS", "3")
        env = worker_environment()
        assert "REPRO_CRASH_AFTER_CHECKPOINTS" not in env
        assert SRC in env["PYTHONPATH"].split(os.pathsep)


class TestSummarizeJob:
    def test_renders_timings_and_legs(self):
        record = {"id": "deadbeef-0123456789ab", "state": "done",
                  "spec": {"type": "campaign"},
                  "created": 100.0, "started": 102.5, "finished": 110.0,
                  "legs": [{"label": "randfuzz", "state": "done",
                            "attempts": 1, "started": 102.5,
                            "finished": 110.0}]}
        text = summarize_job(record)
        assert "queued   -> started : 2.5s" in text
        assert "started  -> finished: 7.5s" in text
        assert "submitted-> finished: 10.0s" in text
        assert "randfuzz" in text

    def test_tolerates_missing_fields(self):
        text = summarize_job({"id": "x", "state": "queued"})
        assert "-" in text


class TestStatusTrackerJobSection:
    def test_set_job_surfaces_in_snapshot(self):
        from repro.observe.status import StatusTracker

        tracker = StatusTracker()
        assert tracker.snapshot()["job"] == {}
        tracker.set_job(id="j1", leg=2, legs=6, queue_depth=3)
        assert tracker.snapshot()["job"] == {
            "id": "j1", "leg": 2, "legs": 6, "queue_depth": 3}


@pytest.fixture
def daemon(tmp_path):
    instance = ServiceDaemon(tmp_path / "state", port=0,
                             poll_interval=0.05).start()
    yield instance
    instance.stop()


class TestHttpApi:
    def test_fuzz_job_end_to_end(self, daemon, tmp_path):
        client = ServiceClient(daemon.url)
        assert client.healthz()["ok"] is True
        record = client.submit({"type": "fuzz", "algorithm": "randfuzz",
                                "iterations": 25, "seed": 3,
                                "seed_count": 10})
        document = client.wait(record["id"], timeout=90)
        job = document["job"]
        assert job["state"] == "done"
        assert [leg["state"] for leg in job["legs"]] == ["done"]
        assert job["legs"][0]["exit_code"] == 0
        assert document["timings"]["queued_seconds"] >= 0
        assert document["timings"]["running_seconds"] >= 0
        # the worker's StatusTracker snapshot carries the job section
        leg_status = document["leg_status"]
        assert leg_status["job"]["id"] == record["id"]
        assert leg_status["job"]["legs"] == 1
        # queue overview schema
        overview = client.jobs()
        assert overview["service"]["queue_depth"] == 0
        assert overview["jobs"][0]["id"] == record["id"]
        assert overview["jobs"][0]["legs_done"] == 1
        # artifacts: listing, manifest, metrics pass `observe check`
        listing = json.loads(client.artifact(record["id"],
                                             "legs/randfuzz/"))
        assert "suite/" in listing["entries"]
        manifest = json.loads(client.artifact(
            record["id"], "legs/randfuzz/suite/manifest.json"))
        assert manifest["algorithm"] == "randfuzz"
        metrics = client.artifact(record["id"],
                                  "legs/randfuzz/metrics.prom")
        assert check_prometheus(metrics.decode("utf-8"),
                                ("repro_iterations_total",)) == []
        # and the suite is the exact foreground-run suite
        seeds = generate_corpus(CorpusConfig(count=10, seed=3))
        expected = save_suite(run_algorithm("randfuzz", seeds, 25, 3),
                              tmp_path / "expected")
        assert expected.read_bytes() == client.artifact(
            record["id"], "legs/randfuzz/suite/manifest.json")

    def test_api_error_paths(self, daemon):
        client = ServiceClient(daemon.url)
        with pytest.raises(ServiceClientError, match="400"):
            client.submit({"type": "warp"})
        with pytest.raises(ServiceClientError, match="404"):
            client.job(new_job_id())
        with pytest.raises(ServiceClientError, match="404"):
            client.cancel(new_job_id())
        record = client.submit({"type": "fuzz", "algorithm": "randfuzz",
                                "iterations": 5, "seed_count": 5})
        client.wait(record["id"], timeout=60)
        with pytest.raises(ServiceClientError, match="403"):
            client.artifact(record["id"], "../../../etc/passwd")
        # A non-numeric Content-Length is a bad request, not a dropped
        # connection, and the server keeps serving.
        import http.client
        from urllib.parse import urlsplit

        address = urlsplit(daemon.url)
        connection = http.client.HTTPConnection(address.hostname,
                                                address.port, timeout=10)
        try:
            connection.putrequest("POST", "/jobs")
            connection.putheader("Content-Length", "ten")
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 400
            assert "body" in json.loads(response.read())["error"]
        finally:
            connection.close()
        assert client.healthz()["ok"] is True

    def test_dashboard_served(self, daemon):
        import urllib.request

        with urllib.request.urlopen(daemon.url + "/") as response:
            page = response.read().decode("utf-8")
        assert "repro service queue" in page

    def test_worker_crash_retries_and_resumes(self, daemon):
        client = ServiceClient(daemon.url)
        record = client.submit({
            "type": "fuzz", "algorithm": "classfuzz[tr]",
            "iterations": 60, "seed": 7, "seed_count": 10,
            "checkpoint_every": 10, "crash_after_checkpoints": 1})
        document = client.wait(record["id"], timeout=120)
        job = document["job"]
        assert job["state"] == "done"
        leg = job["legs"][0]
        assert leg["attempts"] == 1  # first attempt died, retry finished
        # the resumed run equals the uninterrupted foreground run
        seeds = generate_corpus(CorpusConfig(count=10, seed=7))
        result = run_algorithm("classfuzz[tr]", seeds, 60, 7)
        manifest = json.loads(client.artifact(
            record["id"], "legs/classfuzz-tr/suite/manifest.json"))
        assert [c["label"] for c in manifest["classes"]
                if c["bucket"] == "tests"] == \
            [t.label for t in result.test_classes]


class TestDaemonCrashRestart:
    """The acceptance E2E: HTTP submit -> kill daemon mid-leg ->
    restart -> job completes byte-identical to the foreground CLI."""

    def test_campaign_survives_daemon_kill(self, tmp_path):
        scale = 0.4  # ~790 iterations/leg: long enough to kill mid-leg
        algorithms = ["classfuzz[tr]", "greedyfuzz"]
        foreground = tmp_path / "foreground"
        cli = subprocess.run(
            [sys.executable, "-m", "repro", "campaign",
             "--budget-scale", str(scale), "--seed", "5",
             "--seed-count", "16", "--algorithms", *algorithms,
             "--suites-out", str(foreground)],
            env=dict(os.environ, PYTHONPATH=SRC),
            capture_output=True, timeout=300)
        assert cli.returncode == 0, cli.stderr.decode()

        state = tmp_path / "state"
        daemon = ServiceDaemon(state, port=0, poll_interval=0.05).start()
        client = ServiceClient(daemon.url)
        record = client.submit({
            "type": "campaign", "budget_scale": scale, "seed": 5,
            "seed_count": 16, "algorithms": algorithms,
            "checkpoint_every": 25})
        job_id = record["id"]
        # wait for a leg to be genuinely mid-flight (its worker has
        # already written a checkpoint), then crash the daemon
        deadline = time.time() + 60
        while time.time() < deadline:
            job = daemon.store.load(job_id)
            running = [leg["label"] for leg in job.legs
                       if leg["state"] == "running"]
            if running and (daemon.store.leg_dir(job_id, running[0])
                            / "checkpoint" / "checkpoint.json").exists():
                break
            time.sleep(0.01)
        else:
            pytest.fail("no leg reached mid-flight before the deadline")
        daemon.kill()
        assert daemon.store.load(job_id).state == "running"  # as it died

        restarted = ServiceDaemon(state, port=0,
                                  poll_interval=0.05).start()
        try:
            document = ServiceClient(restarted.url).wait(job_id,
                                                         timeout=240)
        finally:
            restarted.stop()
        assert document["job"]["state"] == "done"
        for leg in ("classfuzz-tr", "greedyfuzz"):
            expected = (foreground / leg / "manifest.json").read_bytes()
            actual = (state / "jobs" / job_id / "legs" / leg
                      / "suite" / "manifest.json").read_bytes()
            assert actual == expected, f"leg {leg} manifest diverged"


class TestGracefulDaemonStop:
    def test_stop_mid_leg_requeues_resumably(self, tmp_path):
        state = tmp_path / "state"
        daemon = ServiceDaemon(state, port=0, poll_interval=0.05).start()
        client = ServiceClient(daemon.url)
        record = client.submit({
            "type": "fuzz", "algorithm": "classfuzz[tr]",
            "iterations": 2000, "seed": 9, "seed_count": 8,
            "checkpoint_every": 25})
        job_id = record["id"]
        ckpt = (state / "jobs" / job_id / "legs" / "classfuzz-tr"
                / "checkpoint" / "checkpoint.json")
        deadline = time.time() + 60
        while time.time() < deadline and not ckpt.exists():
            time.sleep(0.01)
        assert ckpt.exists(), "leg never started checkpointing"
        daemon.stop()  # SIGTERMs the worker, waits, requeues

        job = daemon.store.load(job_id)
        assert job.state == "queued"
        assert job.legs[0]["state"] == "queued"
        assert job.legs[0]["exit_code"] == 143  # graceful worker exit
        assert job.legs[0]["attempts"] == 0  # a stop is not a failure

        restarted = ServiceDaemon(state, port=0,
                                  poll_interval=0.05).start()
        try:
            document = ServiceClient(restarted.url).wait(job_id,
                                                         timeout=240)
        finally:
            restarted.stop()
        assert document["job"]["state"] == "done"
        seeds = generate_corpus(CorpusConfig(count=8, seed=9))
        result = run_algorithm("classfuzz[tr]", seeds, 2000, 9)
        manifest = json.loads(
            (state / "jobs" / job_id / "legs" / "classfuzz-tr" / "suite"
             / "manifest.json").read_text(encoding="utf-8"))
        assert [c["label"] for c in manifest["classes"]
                if c["bucket"] == "tests"] == \
            [t.label for t in result.test_classes]
