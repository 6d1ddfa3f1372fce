"""Integration tests: telemetry threaded through the real pipeline.

Exercises classfuzz/randfuzz with a live telemetry bundle, the ambient
JVM phase spans, discrepancy events from the differential harness, the
registry under the process executor, and the ``--events`` /
``--metrics-out`` / ``repro observe`` CLI surface end to end.  Counts
and latencies are asserted through the registry: events carry only the
facts no metric holds.
"""

import json

import pytest

from repro.cli import main
from repro.core.campaign import run_campaign
from repro.core.difftest import DifferentialHarness
from repro.core.executor import OutcomeCache, ProcessExecutor, SerialExecutor
from repro.core.fuzzing import classfuzz, randfuzz
from repro.corpus import CorpusConfig, generate_corpus
from repro.jimple.to_classfile import compile_class_bytes
from repro.observe import RingBufferSink, Telemetry
from repro.observe.events import (
    DISCREPANCY_FOUND,
    EVENT_TYPES,
    ITERATION,
    MCMC_TRANSITION,
    MUTANT_ACCEPTED,
)
from repro.observe.summary import check_prometheus


@pytest.fixture(scope="module")
def seeds():
    return generate_corpus(CorpusConfig(count=15, seed=7))


def _telemetry_with_ring():
    telemetry = Telemetry()
    ring = RingBufferSink(capacity=100000)
    telemetry.bus.add_sink(ring)
    return telemetry, ring


class TestFuzzingTelemetry:
    def test_classfuzz_emits_iteration_and_mcmc_events(self, seeds):
        telemetry, ring = _telemetry_with_ring()
        executor = SerialExecutor(cache=OutcomeCache(),
                                  telemetry=telemetry)
        with telemetry.activate():
            result = classfuzz(seeds, iterations=15, seed=2,
                               executor=executor, telemetry=telemetry)
        iterations = ring.events(ITERATION)
        assert len(iterations) == 15
        assert all(e.fields["algorithm"] == "classfuzz[stbr]"
                   for e in iterations)
        accepted = [e for e in iterations if e.fields["accepted"]]
        assert len(accepted) == len(result.test_classes)
        assert len(ring.events(MUTANT_ACCEPTED)) == \
            len(result.test_classes)
        assert len(ring.events(MCMC_TRANSITION)) == 15
        registry = telemetry.registry
        # The reference-JVM coverage runs timed their startup phases.
        phases = {phase for (_, phase), _ in
                  registry.get("repro_jvm_phase_seconds").children()}
        assert "loading" in phases
        assert registry.get("repro_iterations_total") \
            .labels(algorithm="classfuzz[stbr]").value == 15

    def test_classfuzz_records_each_fact_once(self, seeds):
        telemetry, ring = _telemetry_with_ring()
        executor = SerialExecutor(cache=OutcomeCache(),
                                  telemetry=telemetry)
        with telemetry.activate():
            classfuzz(seeds, iterations=30, seed=1, executor=executor,
                      telemetry=telemetry)
        events = ring.events()
        iterations = ring.events(ITERATION)
        assert len(iterations) == 30
        assert len(events) <= 3 * len(iterations)
        # No jvm_phase, executor_batch, cache_hit, batch_round or
        # seed_scheduled: their facts are metrics or iteration fields.
        assert {e.type for e in events} <= set(EVENT_TYPES)
        assert all({"round", "seed"} <= set(e.fields) for e in iterations)

    def test_randfuzz_without_telemetry_is_unchanged(self, seeds):
        plain = randfuzz(seeds, iterations=20, seed=1)
        observed_tel, ring = _telemetry_with_ring()
        observed = randfuzz(seeds, iterations=20, seed=1,
                            telemetry=observed_tel)
        assert [g.label for g in plain.gen_classes] == \
            [g.label for g in observed.gen_classes]
        assert len(ring.events(ITERATION)) == 20

    def test_disabled_telemetry_emits_nothing(self, seeds):
        telemetry = Telemetry()          # registry only; bus disabled
        sink = RingBufferSink()
        # Deliberately NOT attached to the bus.
        randfuzz(seeds, iterations=5, seed=0, telemetry=telemetry)
        assert len(sink) == 0
        assert telemetry.registry.get("repro_iterations_total") \
            .labels(algorithm="randfuzz").value == 5


class TestHarnessTelemetry:
    def test_discrepancy_events(self, seeds):
        telemetry, ring = _telemetry_with_ring()
        harness = DifferentialHarness(telemetry=telemetry)
        suite = [(jclass.name, compile_class_bytes(jclass))
                 for jclass in seeds]
        results = harness.run_many(suite)
        found = [r for r in results if r.is_discrepancy]
        events = ring.events(DISCREPANCY_FOUND)
        assert len(events) == len(found)
        registry = telemetry.registry
        assert registry.get("repro_difftests_total").value == len(suite)
        assert registry.get("repro_discrepancies_total").value == \
            len(found)
        for event in events:
            assert len(event.fields["codes"]) == len(harness.jvms)

    def test_executor_batch_and_cache_events(self, seeds):
        telemetry, ring = _telemetry_with_ring()
        executor = SerialExecutor(cache=OutcomeCache(),
                                  telemetry=telemetry)
        harness = DifferentialHarness(executor=executor)
        suite = [(jclass.name, compile_class_bytes(jclass))
                 for jclass in seeds[:4]]
        harness.run_many(suite)
        harness.run_many(suite)  # second pass: pure cache hits
        registry = telemetry.registry
        assert registry.get("repro_executor_batches_total") \
            .labels(engine="serial").value == 2
        hits = registry.get("repro_cache_lookups_total") \
            .labels(store="outcome", result="hit").value
        assert hits >= 4 * len(harness.jvms)
        assert len(ring) == 0  # batches and lookups emit no events

    def test_process_executor_records_worker_runs(self, seeds):
        telemetry, _ = _telemetry_with_ring()
        executor = ProcessExecutor(jobs=2, cache=OutcomeCache(),
                                   telemetry=telemetry)
        harness = DifferentialHarness(executor=executor)
        suite = [(jclass.name, compile_class_bytes(jclass))
                 for jclass in seeds]
        try:
            with telemetry.activate():
                harness.run_many(suite)
        finally:
            executor.close()
        # Runs execute in the workers; their timings are recorded here.
        runs = telemetry.registry.get("repro_jvm_runs_total")
        total = sum(child.value for _, child in runs.children())
        assert total == len(suite) * len(harness.jvms)


class TestCampaignTelemetry:
    def test_campaign_run_with_telemetry(self, seeds):
        telemetry, ring = _telemetry_with_ring()
        with telemetry.activate():
            run_campaign(seeds, budget_seconds=1500.0,
                         algorithms=("classfuzz[stbr]", "randfuzz"),
                         evaluate=True, telemetry=telemetry)
        types = {event.type for event in ring.events()}
        assert {ITERATION, MCMC_TRANSITION} <= types
        registry = telemetry.registry
        assert registry.get("repro_jvm_phase_seconds").children()
        batches = registry.get("repro_executor_batches_total")
        assert sum(child.value for _, child in batches.children()) > 0
        spans = registry.get("repro_span_seconds")
        names = {key[0] for key, _ in spans.children()}
        assert "campaign.fuzz" in names
        assert "campaign.evaluate" in names
        problems = check_prometheus(telemetry.render_prometheus())
        assert problems == []


class TestObserveCli:
    def test_campaign_events_metrics_and_observe(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        metrics = tmp_path / "metrics.prom"
        code = main(["campaign", "--budget-scale", "0.002",
                     "--seed-count", "20",
                     "--algorithms", "classfuzz[stbr]", "randfuzz",
                     "--mutator-report", "3",
                     "--events", str(events),
                     "--metrics-out", str(metrics)])
        assert code == 0
        output = capsys.readouterr().out
        assert "Table 5 (mutator selection)" in output
        assert "wrote metrics dump" in output

        recorded = {json.loads(line)["type"]
                    for line in events.read_text().splitlines()}
        assert {"iteration", "mcmc_transition"} <= recorded
        assert recorded <= set(EVENT_TYPES)

        assert main(["observe", "check", str(metrics)]) == 0
        assert "OK" in capsys.readouterr().out

        assert main(["observe", "summary", str(events),
                     "--metrics", str(metrics)]) == 0
        summary = capsys.readouterr().out
        assert "Acceptance rate" in summary
        assert "MCMC chain" in summary
        assert "JVM phase latency" in summary
        assert "Executor batches" in summary
        # A serial run starts no workers: no all-zero worker block.
        assert "Worker runs" not in summary

        out_csv = tmp_path / "ts.csv"
        assert main(["observe", "timeseries", str(events),
                     "--out", str(out_csv)]) == 0
        capsys.readouterr()
        assert out_csv.read_text().startswith("algorithm,iteration")

        assert main(["observe", "replay", str(events),
                     "--type", "mcmc_transition", "--limit", "2"]) == 0
        replay = capsys.readouterr().out
        assert "mcmc_transition" in replay

    def test_campaign_summary_has_one_chain_per_leg(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        assert main(["campaign", "--budget-scale", "0.002",
                     "--seed-count", "20",
                     "--algorithms", "classfuzz[st]", "classfuzz[stbr]",
                     "--events", str(events)]) == 0
        capsys.readouterr()
        recorded = [json.loads(line)
                    for line in events.read_text().splitlines()]
        legs = {event["algorithm"] for event in recorded
                if event["type"] == "iteration"}
        chains = {event["algorithm"] for event in recorded
                  if event["type"] == "mcmc_transition"}
        assert chains == legs == {"classfuzz[st]", "classfuzz[stbr]"}
        assert main(["observe", "summary", str(events)]) == 0
        summary = capsys.readouterr().out
        assert "=== MCMC chain: classfuzz[st] ===" in summary
        assert "=== MCMC chain: classfuzz[stbr] ===" in summary
        assert "=== MCMC chain ===" not in summary

    def test_observe_summary_metrics_worker_block(self, tmp_path,
                                                  capsys):
        events = tmp_path / "events.jsonl"
        metrics = tmp_path / "metrics.prom"
        code = main(["fuzz", "--algorithm", "classfuzz",
                     "--criterion", "tr", "--iterations", "16",
                     "--seed-count", "10", "--jobs", "2", "--batch", "4",
                     "--events", str(events),
                     "--metrics-out", str(metrics)])
        assert code == 0
        capsys.readouterr()
        assert main(["observe", "summary", str(events),
                     "--metrics", str(metrics)]) == 0
        summary = capsys.readouterr().out
        assert "=== Worker runs ===" in summary
        assert "warm rate" in summary

    def test_observe_summary_metrics_without_workers(self, tmp_path,
                                                     capsys):
        # A serial run's dump has no worker counters: the summary must
        # omit the block rather than print an empty one.
        events = tmp_path / "events.jsonl"
        events.write_text('{"type": "iteration", "ts": 1.0, "seq": 1, '
                          '"algorithm": "randfuzz", "accepted": true}\n')
        metrics = tmp_path / "metrics.prom"
        metrics.write_text("repro_iterations_total 1\n")
        assert main(["observe", "summary", str(events),
                     "--metrics", str(metrics)]) == 0
        assert "Worker runs" not in capsys.readouterr().out

    def test_observe_summary_reads_job_leg_metrics(self, tmp_path,
                                                   capsys):
        # Without --metrics, a service job directory's summary takes the
        # JVM phase table from each leg's metrics.prom.
        import signal

        from repro.service.jobs import JobStore
        from repro.service.worker import run_leg

        store = JobStore(tmp_path)
        job = store.submit({"type": "fuzz", "algorithm": "classfuzz[stbr]",
                            "iterations": 10, "seed": 2,
                            "seed_count": 8})
        previous = signal.getsignal(signal.SIGTERM)
        try:
            assert run_leg(store.root, job.id, "classfuzz-stbr", 0, 0) == 0
        finally:
            # run_leg routes SIGTERM to the graceful-shutdown flag.
            signal.signal(signal.SIGTERM, previous)
        assert main(["observe", "summary",
                     str(store.job_dir(job.id))]) == 0
        summary = capsys.readouterr().out
        assert f"=== Job {job.id}" in summary
        assert "Acceptance rate" in summary
        assert "JVM phase latency" in summary
        assert "loading" in summary

    def test_observe_check_fails_on_missing_family(self, tmp_path, capsys):
        dump = tmp_path / "partial.prom"
        dump.write_text("repro_iterations_total 3\n")
        assert main(["observe", "check", str(dump)]) == 1
        assert "missing metric family" in capsys.readouterr().err

    def test_observe_check_custom_requirements(self, tmp_path, capsys):
        dump = tmp_path / "one.prom"
        dump.write_text("my_metric 1\n")
        assert main(["observe", "check", str(dump),
                     "--require", "my_metric"]) == 0
        capsys.readouterr()

    def test_fuzz_with_events(self, tmp_path, capsys):
        events = tmp_path / "fuzz.jsonl"
        code = main(["fuzz", "--algorithm", "randfuzz",
                     "--iterations", "10", "--seed-count", "15",
                     "--mutator-report", "2",
                     "--events", str(events)])
        assert code == 0
        capsys.readouterr()
        types = {json.loads(line)["type"]
                 for line in events.read_text().splitlines()}
        assert "iteration" in types
