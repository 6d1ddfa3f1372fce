"""Tests for the pluggable execution engines and the outcome cache."""

import pytest

from repro.core.campaign import run_campaign
from repro.core.difftest import DifferentialHarness
from repro.core.executor import (
    ExecutorStats,
    OutcomeCache,
    ProcessExecutor,
    SerialExecutor,
    classfile_digest,
    make_executor,
)
from repro.corpus import CorpusConfig, generate_corpus
from repro.jimple.to_classfile import compile_class_bytes
from repro.jvm.vendors import all_jvms, reference_jvm


@pytest.fixture(scope="module")
def suite():
    """A small (label, bytes) suite compiled from the seed corpus."""
    seeds = generate_corpus(CorpusConfig(count=12, seed=77))
    return [(jclass.name, compile_class_bytes(jclass))
            for jclass in seeds]


@pytest.fixture(scope="module")
def serial_results(suite):
    return SerialExecutor().run_differential(all_jvms(), suite)


class TestDigest:
    def test_stable(self):
        assert classfile_digest(b"x") == classfile_digest(b"x")

    def test_distinguishes_bytes(self):
        assert classfile_digest(b"x") != classfile_digest(b"y")


class TestSerialExecutor:
    def test_results_in_input_order(self, suite, serial_results):
        assert [r.label for r in serial_results] == \
            [label for label, _ in suite]

    def test_matches_direct_jvm_runs(self, suite, serial_results):
        label, data = suite[0]
        direct = [jvm.run(data) for jvm in all_jvms()]
        assert serial_results[0].outcomes == direct

    def test_uncached_by_default(self, suite):
        engine = SerialExecutor()
        assert engine.cache is None
        engine.run_differential(all_jvms(), suite[:2])
        assert engine.stats.cache_hits == 0
        assert engine.stats.runs == 2 * len(all_jvms())


class TestDeterminism:
    """Parallel engines must be bit-identical to the serial baseline."""

    def test_process_cached_equals_serial(self, suite, serial_results):
        with ProcessExecutor(jobs=2, cache=OutcomeCache()) as engine:
            first = engine.run_differential(all_jvms(), suite)
            second = engine.run_differential(all_jvms(), suite)
        assert first == serial_results
        assert second == serial_results

    def test_process_equals_serial(self, suite, serial_results):
        try:
            with ProcessExecutor(jobs=2) as engine:
                results = engine.run_differential(all_jvms(), suite[:4])
        except (OSError, futures_broken()) as exc:  # pragma: no cover
            pytest.skip(f"process pool unavailable: {exc}")
        assert results == serial_results[:4]

    def test_harness_parallel_equals_serial(self, suite, serial_results):
        with ProcessExecutor(jobs=2) as engine:
            harness = DifferentialHarness(executor=engine)
            assert harness.run_many(suite) == serial_results

    def test_engines_count_the_same_work(self, suite, serial_results):
        """Both engines look each vendor's outcome up once and run only
        the misses: a reference run's cached outcome serves the
        reference vendor's later differential lookup on either."""
        seen = []
        for engine in (SerialExecutor(cache=OutcomeCache()),
                       ProcessExecutor(jobs=2, cache=OutcomeCache())):
            with engine:
                engine.run_reference_many(
                    reference_jvm(), [data for _, data in suite[:3]])
                results = engine.run_differential(all_jvms(), suite[:4])
            stats = engine.stats
            seen.append((results, stats.runs, stats.cache_hits,
                         stats.cache_misses, stats.vendor_runs))
        assert seen[0] == seen[1]
        results, runs, hits, misses, vendor_runs = seen[0]
        lookups = 4 * len(all_jvms())
        assert results == serial_results[:4]
        assert (runs, hits, misses) == (lookups, 3, lookups - 3)
        assert vendor_runs[reference_jvm().name] == 4

    @pytest.mark.parametrize("cached", [True, False])
    def test_engines_count_a_repeat_in_one_batch_alike(self, suite,
                                                       serial_results,
                                                       cached):
        """A classfile listed twice in one batch runs once per vendor
        with a cache; its second occurrence is five hits on either
        engine."""
        (label, data), jvms = suite[0], all_jvms()
        seen = []
        for engine in (SerialExecutor(cache=OutcomeCache() if cached
                                      else None),
                       ProcessExecutor(jobs=2, cache=OutcomeCache()
                                       if cached else None)):
            with engine:
                results = engine.run_differential(
                    jvms, [("a", data), ("b", data)])
            stats = engine.stats
            seen.append(([r.outcomes for r in results], stats.runs,
                         stats.cache_hits, stats.cache_misses))
        assert seen[0] == seen[1]
        outcomes, runs, hits, misses = seen[0]
        assert outcomes == [serial_results[0].outcomes] * 2
        assert (runs, hits, misses) == ((5, 5, 5) if cached else (10, 0, 0))


def futures_broken():
    from concurrent.futures.process import BrokenProcessPool
    return BrokenProcessPool


class TestOutcomeCache:
    def test_run_one_hits_on_repeat(self, suite):
        engine = SerialExecutor(cache=OutcomeCache())
        jvm = all_jvms()[0]
        _, data = suite[0]
        first = engine.run_one(jvm, data)
        second = engine.run_one(jvm, data)
        assert first == second
        assert engine.stats.cache_hits == 1
        assert engine.stats.cache_misses == 1
        assert engine.stats.runs == 1

    def test_vendors_cached_independently(self, suite):
        engine = SerialExecutor(cache=OutcomeCache())
        _, data = suite[0]
        for jvm in all_jvms():
            engine.run_one(jvm, data)
        assert engine.stats.cache_hits == 0
        assert engine.stats.runs == len(all_jvms())

    def test_reference_trace_cached(self, suite):
        engine = SerialExecutor(cache=OutcomeCache())
        jvm = reference_jvm()
        _, data = suite[0]
        first = engine.run_reference_many(jvm, [data])[0]
        second = engine.run_reference_many(jvm, [data])[0]
        assert first == second
        assert engine.stats.trace_hits == 1
        assert engine.stats.trace_misses == 1

    def test_uncached_reference_still_collects(self, suite):
        engine = SerialExecutor()
        outcome, trace = engine.run_reference_many(
            reference_jvm(), [suite[0][1]])[0]
        assert trace.stmt > 0

    def test_process_batch_cache_hits(self, suite):
        try:
            with ProcessExecutor(jobs=2, cache=OutcomeCache()) as engine:
                engine.run_differential(all_jvms(), suite[:3])
                misses = engine.stats.cache_misses
                engine.run_differential(all_jvms(), suite[:3])
        except (OSError, futures_broken()) as exc:  # pragma: no cover
            pytest.skip(f"process pool unavailable: {exc}")
        assert misses == 3 * len(all_jvms())
        assert engine.stats.cache_hits == 3 * len(all_jvms())

    def test_clear(self):
        from repro.jvm.outcome import Outcome

        cache = OutcomeCache()
        cache.put_outcome("d", "v", Outcome(phase=0))
        cache.clear()
        assert len(cache) == 0


class TestOutcomeCacheSplitLookup:
    """get_trace is a full hit or a miss: an outcome alone is a miss."""

    def test_put_trace_serves_outcome_lookups(self, suite):
        from repro.coverage.tracefile import Tracefile
        from repro.jvm.outcome import Outcome

        cache = OutcomeCache()
        outcome = Outcome(phase=0)
        cache.put_trace("d", "v", outcome, Tracefile())
        assert cache.get_outcome("d", "v") == outcome
        assert cache.get_trace("d", "v") == (outcome, Tracefile())

    def test_outcome_without_trace_reads_as_split(self):
        """The split state, an outcome cached without a trace, reads as
        a miss."""
        from repro.jvm.outcome import Outcome

        cache = OutcomeCache()
        cache.put_outcome("d", "v", Outcome(phase=0))
        assert cache.get_trace("d", "v") is None
        assert cache.get_trace("other", "v") is None

    def test_reference_rerun_reuses_cached_outcome(self, suite):
        """A reference lookup of bytes that a differential run cached
        re-runs for coverage, and the re-run's outcome is the cached
        one."""
        engine = SerialExecutor(cache=OutcomeCache())
        jvm = reference_jvm()
        _, data = suite[0]
        (differential,) = engine.run_differential([jvm], [("c", data)])
        # The differential run cached the outcome alone: the reference
        # lookup misses and re-runs for coverage.
        outcome, trace = engine.run_reference_many(jvm, [data])[0]
        assert outcome == differential.outcomes[0]
        assert trace.stmt > 0
        assert engine.stats.trace_misses == 1
        assert "outcome-only" not in engine.stats.format()
        # The re-run stored the trace: next lookup is a full hit.
        engine.run_reference_many(jvm, [data])
        assert engine.stats.trace_hits == 1

    def test_batch_rerun_reuses_cached_outcome(self, suite):
        engine = SerialExecutor(cache=OutcomeCache())
        jvm = reference_jvm()
        batch = [data for _, data in suite[:3]]
        differential = engine.run_differential(
            [jvm], [(str(n), data) for n, data in enumerate(batch)])
        again = engine.run_reference_many(jvm, batch)
        assert [o for o, _ in again] == \
            [result.outcomes[0] for result in differential]
        assert engine.stats.trace_misses == 3

    def test_status_counts_a_split_lookup_once(self, suite):
        """/status's trace hit rate: a lookup after a differential run is
        one miss, and the next lookup one hit."""
        from repro.observe import StatusTracker, Telemetry

        telemetry = Telemetry()
        engine = SerialExecutor(cache=OutcomeCache(), telemetry=telemetry)
        jvm = reference_jvm()
        _, data = suite[0]
        engine.run_differential([jvm], [("c", data)])
        engine.run_reference_many(jvm, [data])
        engine.run_reference_many(jvm, [data])
        trace = StatusTracker(telemetry.registry).snapshot()[
            "executor"]["caches"]["trace"]
        assert trace == {"lookups": {"miss": 1, "hit": 1}, "hit_rate": 0.5}


class TestExecutorStats:
    def test_vendor_latency_recorded(self, suite):
        engine = SerialExecutor()
        engine.run_differential(all_jvms(), suite[:2])
        for jvm in all_jvms():
            assert engine.stats.vendor_runs[jvm.name] == 2
            assert engine.stats.vendor_seconds[jvm.name] >= 0.0
            assert engine.stats.vendor_mean_ms(jvm.name) >= 0.0

    def test_batches_counted(self, suite):
        engine = SerialExecutor()
        engine.run_differential(all_jvms(), suite[:2])
        engine.run_differential(all_jvms(), suite[:2])
        assert engine.stats.batches == 2

    def test_snapshot_and_since(self, suite):
        engine = SerialExecutor()
        engine.run_differential(all_jvms(), suite[:2])
        before = engine.stats.snapshot()
        engine.run_differential(all_jvms(), suite[:3])
        delta = engine.stats.since(before)
        assert delta.runs == 3 * len(all_jvms())
        assert delta.batches == 1
        assert before.runs == 2 * len(all_jvms())

    def test_add_merges(self):
        a = ExecutorStats()
        a.record_run("x", 0.5)
        b = ExecutorStats()
        b.record_run("x", 0.25)
        b.record_run("y", 0.25)
        a.add(b)
        assert a.runs == 3
        assert a.vendor_runs == {"x": 2, "y": 1}
        assert a.vendor_seconds["x"] == pytest.approx(0.75)

    def test_format_lists_vendors(self, suite):
        engine = SerialExecutor(cache=OutcomeCache())
        engine.run_differential(all_jvms(), suite[:1])
        text = engine.stats.format()
        for jvm in all_jvms():
            assert jvm.name in text
        assert "mean_ms" in text
        assert "outcome cache" in text


class TestFactories:
    def test_make_executor_serial_for_one_job(self):
        engine = make_executor(jobs=1)
        assert isinstance(engine, SerialExecutor)
        assert engine.cache is not None

    def test_make_executor_uncached(self):
        assert make_executor(jobs=1, cache=False).cache is None

    def test_make_executor_parallel_is_process(self):
        engine = make_executor(jobs=3)
        assert isinstance(engine, ProcessExecutor)
        assert engine.jobs == 3

    def test_make_executor_process(self):
        engine = make_executor(jobs=2, backend="process")
        assert isinstance(engine, ProcessExecutor)

    @pytest.mark.parametrize("backend", ["thread", "serial"])
    def test_make_executor_rejects_other_backends(self, backend):
        with pytest.raises(ValueError, match="backend"):
            make_executor(jobs=2, backend=backend)

    def test_context_manager_closes_pool(self, suite):
        engine = ProcessExecutor(jobs=2)
        with engine:
            engine.run_differential(all_jvms(), suite[:1])
        assert engine._pool is None


class TestProcessPoolReuse:
    """Steady-state batches must not re-pickle the JVM configuration."""

    def test_same_jvm_list_reuses_pool_without_pickling(self, suite):
        jvms = all_jvms()
        try:
            with ProcessExecutor(jobs=2) as engine:
                engine.run_differential(jvms, suite[:1])
                pool = engine._pool
                engine._pool_key = b"poisoned: a pickle pass would " \
                    b"rebuild the pool"
                engine.run_differential(jvms, suite[:1])
                assert engine._pool is pool  # identity fast path hit
        except (OSError, futures_broken()) as exc:  # pragma: no cover
            pytest.skip(f"process pool unavailable: {exc}")

    def test_equal_but_distinct_list_still_reuses_pool(self, suite):
        try:
            with ProcessExecutor(jobs=2) as engine:
                engine.run_differential(all_jvms(), suite[:1])
                pool = engine._pool
                engine.run_differential(list(all_jvms()), suite[:1])
                assert engine._pool is pool  # blob comparison hit
        except (OSError, futures_broken()) as exc:  # pragma: no cover
            pytest.skip(f"process pool unavailable: {exc}")

    def test_reference_pool_reuses_across_batches(self, suite):
        jvm = reference_jvm()
        try:
            with ProcessExecutor(jobs=2, cache=OutcomeCache()) as engine:
                engine.run_reference_many(jvm, [suite[0][1]])
                pool = engine._ref_pool
                engine.run_reference_many(jvm, [suite[1][1]])
                assert engine._ref_pool is pool
        except (OSError, futures_broken()) as exc:  # pragma: no cover
            pytest.skip(f"process pool unavailable: {exc}")


class TestCampaignEquivalence:
    """A fixed-seed campaign is bit-identical serial vs. parallel."""

    @pytest.fixture(scope="class")
    def seeds(self):
        return generate_corpus(CorpusConfig(count=20, seed=5))

    def _vectors(self, runs):
        return [
            (run.label,
             [g.label for g in run.fuzz.test_classes],
             [r.codes for r in run.gen_report.results],
             [r.codes for r in run.test_report.results])
            for run in runs
        ]

    def test_process_campaign_equals_serial(self, seeds):
        kwargs = dict(budget_seconds=1200.0,
                      algorithms=("classfuzz[stbr]", "randfuzz"),
                      rng_seed=4, evaluate=True)
        serial = run_campaign(seeds, executor=SerialExecutor(), **kwargs)
        with ProcessExecutor(jobs=2, cache=OutcomeCache()) as engine:
            parallel = run_campaign(seeds, executor=engine, **kwargs)
        assert self._vectors(serial) == self._vectors(parallel)

    def test_campaign_cache_reports_hits(self, seeds):
        runs = run_campaign(seeds, budget_seconds=600.0,
                            algorithms=("randfuzz",), rng_seed=1,
                            evaluate=True)
        # Gen and Test suites overlap for randfuzz, so evaluating the
        # second suite is pure cache hits.
        assert runs[0].executor_stats.cache_hits > 0
