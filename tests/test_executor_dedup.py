"""In-batch dedup of ``run_reference_many`` (the duplicate-mutant fix).

Before the fix, a batch holding N identical classfiles executed the
reference JVM N times on a cold cache (the per-item cache lookup only
caught duplicates *after* the first one was executed and stored — which
never happened within one bulk call).  Now identical items are
deduplicated by digest up front: one execution per distinct digest, all
duplicate positions filled from the single ``(outcome, trace)`` pair.
"""

import pytest

from repro.core.executor import (
    OutcomeCache,
    ProcessExecutor,
    SerialExecutor,
)
from repro.corpus import CorpusConfig, generate_corpus
from repro.jimple.to_classfile import compile_class_bytes
from repro.jvm.vendors import reference_jvm


@pytest.fixture(scope="module")
def classfiles():
    seeds = generate_corpus(CorpusConfig(count=6, seed=77))
    return [compile_class_bytes(jclass) for jclass in seeds]


@pytest.fixture(scope="module")
def jvm():
    return reference_jvm()


class TestSerialDedup:
    def test_duplicates_execute_once(self, classfiles, jvm):
        engine = SerialExecutor(cache=OutcomeCache())
        batch = [classfiles[0]] * 5
        results = engine.run_reference_many(jvm, batch)
        assert len(results) == 5
        assert engine.stats.runs == 1
        assert engine.stats.trace_misses == 1
        # The four duplicate positions are served without an execution,
        # exactly like cache hits.
        assert engine.stats.trace_hits == 4

    def test_duplicate_positions_share_one_trace_instance(
            self, classfiles, jvm):
        engine = SerialExecutor(cache=OutcomeCache())
        results = engine.run_reference_many(jvm, [classfiles[0]] * 3)
        outcomes = {id(outcome) for outcome, _ in results}
        traces = {id(trace) for _, trace in results}
        assert len(outcomes) == 1
        assert len(traces) == 1

    def test_mixed_batch_positions_filled_in_input_order(
            self, classfiles, jvm):
        engine = SerialExecutor(cache=OutcomeCache())
        a, b, c = classfiles[:3]
        batch = [a, b, a, c, b, a]
        results = engine.run_reference_many(jvm, batch)
        baseline = {bytes_: SerialExecutor().run_reference_many(
                        jvm, [bytes_])[0]
                    for bytes_ in (a, b, c)}
        assert results == [baseline[bytes_] for bytes_ in batch]
        assert engine.stats.runs == 3
        assert engine.stats.trace_misses == 3
        assert engine.stats.trace_hits == 3

    def test_hits_plus_misses_cover_the_batch(self, classfiles, jvm):
        engine = SerialExecutor(cache=OutcomeCache())
        batch = [classfiles[0], classfiles[1], classfiles[0]]
        engine.run_reference_many(jvm, batch)
        assert engine.stats.trace_hits + engine.stats.trace_misses == \
            len(batch)

    def test_cache_hits_and_in_batch_dedup_compose(self, classfiles,
                                                   jvm):
        engine = SerialExecutor(cache=OutcomeCache())
        engine.run_reference_many(jvm, [classfiles[0]])
        engine.run_reference_many(jvm, [classfiles[0], classfiles[0],
                                        classfiles[1], classfiles[1]])
        # Second call: two positions hit the warm cache, one distinct
        # new digest executes, its duplicate is served in-batch.
        assert engine.stats.runs == 2
        assert engine.stats.trace_misses == 2
        assert engine.stats.trace_hits == 3

    def test_dedup_without_cache(self, classfiles, jvm):
        engine = SerialExecutor()  # cache=None
        batch = [classfiles[0]] * 4 + [classfiles[1]]
        results = engine.run_reference_many(jvm, batch)
        assert engine.stats.runs == 2
        assert len({id(trace) for _, trace in results[:4]}) == 1
        cached = SerialExecutor(cache=OutcomeCache())
        assert results == cached.run_reference_many(jvm, batch)


class TestParallelDedup:
    def test_process_backend_dedups(self, classfiles, jvm):
        batch = [classfiles[0]] * 6 + [classfiles[1]] * 2
        try:
            with ProcessExecutor(jobs=2, cache=OutcomeCache()) as engine:
                results = engine.run_reference_many(jvm, batch)
                stats = engine.stats.snapshot()
        except (OSError, ValueError, ImportError) as exc:
            pytest.skip(f"process pool unavailable: {exc}")
        assert stats.runs == 2
        assert stats.trace_misses == 2
        assert stats.trace_hits == 6
        serial = SerialExecutor(cache=OutcomeCache()).run_reference_many(
            jvm, batch)
        assert results == serial
