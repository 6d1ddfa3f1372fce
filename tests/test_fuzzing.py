"""Tests for the four fuzzing algorithms (Algorithm 1 + baselines)."""

import pytest

from repro.classfile import read_class
from repro.core.fuzzing import (
    classfuzz,
    greedyfuzz,
    randfuzz,
    supplement_main,
    uniquefuzz,
)
from repro.corpus import CorpusConfig, generate_corpus
from repro.jimple import ClassBuilder


@pytest.fixture(scope="module")
def seeds():
    return generate_corpus(CorpusConfig(count=25, seed=11))


class TestSupplementMain:
    def test_adds_main_when_absent(self):
        jclass = ClassBuilder("NoMain").default_init().build()
        supplement_main(jclass)
        assert jclass.find_method("main") is not None

    def test_keeps_existing_main(self):
        jclass = ClassBuilder("HasMain").main_printing("mine").build()
        supplement_main(jclass)
        mains = [m for m in jclass.methods if m.name == "main"]
        assert len(mains) == 1


class TestClassfuzz:
    def test_produces_unique_tests(self, seeds):
        result = classfuzz(seeds, iterations=60, seed=3)
        assert result.algorithm == "classfuzz"
        assert result.iterations == 60
        assert 0 < len(result.test_classes) <= len(result.gen_classes)
        # All accepted tests carry distinct coverage signatures.
        signatures = [g.tracefile.signature for g in result.test_classes]
        assert len(set(signatures)) == len(signatures)

    def test_st_criterion_unique_statement_counts(self, seeds):
        result = classfuzz(seeds, iterations=60, criterion="st", seed=3)
        counts = [g.tracefile.stmt for g in result.test_classes]
        assert len(set(counts)) == len(counts)

    def test_tr_accepts_at_least_stbr(self, seeds):
        stbr = classfuzz(seeds, iterations=80, criterion="stbr", seed=5)
        tr = classfuzz(seeds, iterations=80, criterion="tr", seed=5)
        assert len(tr.test_classes) >= len(stbr.test_classes)

    def test_deterministic_given_seed(self, seeds):
        first = classfuzz(seeds, iterations=40, seed=9)
        second = classfuzz(seeds, iterations=40, seed=9)
        assert [g.label for g in first.test_classes] == \
            [g.label for g in second.test_classes]

    def test_mutants_are_parseable_bytes(self, seeds):
        result = classfuzz(seeds, iterations=40, seed=1)
        for generated in result.gen_classes[:10]:
            assert read_class(generated.data).name == generated.label

    def test_every_mutant_has_main(self, seeds):
        result = classfuzz(seeds, iterations=40, seed=1)
        for generated in result.gen_classes:
            assert generated.jclass.find_method("main") is not None

    def test_mutator_report_covers_selected(self, seeds):
        result = classfuzz(seeds, iterations=50, seed=2)
        assert len(result.mutator_report) == 129
        assert sum(row[1] for row in result.mutator_report) == 50

    def test_succ_definition(self, seeds):
        result = classfuzz(seeds, iterations=50, seed=2)
        assert result.succ == pytest.approx(
            len(result.test_classes) / 50)


class TestBaselines:
    def test_uniquefuzz_unique_signatures(self, seeds):
        result = uniquefuzz(seeds, iterations=60, seed=3)
        signatures = [g.tracefile.signature for g in result.test_classes]
        assert len(set(signatures)) == len(signatures)

    def test_greedyfuzz_accepts_fewest(self, seeds):
        greedy = greedyfuzz(seeds, iterations=60, seed=3)
        unique = uniquefuzz(seeds, iterations=60, seed=3)
        assert len(greedy.test_classes) <= len(unique.test_classes)

    def test_greedyfuzz_coverage_growth_only(self, seeds):
        result = greedyfuzz(seeds, iterations=60, seed=3)
        seen = set()
        for generated in result.test_classes:
            new = generated.tracefile.stmt_set | {
                ("br",) + k for k in generated.tracefile.br_set}
            assert not new <= seen
            seen |= new

    def test_randfuzz_accepts_everything(self, seeds):
        result = randfuzz(seeds, iterations=60, seed=3)
        assert result.test_classes == result.gen_classes
        assert result.gen_classes, "randfuzz produced nothing"

    def test_randfuzz_skips_coverage(self, seeds):
        result = randfuzz(seeds, iterations=30, seed=3)
        assert all(g.tracefile is None for g in result.gen_classes)

    def test_randfuzz_generates_most(self, seeds):
        rand = randfuzz(seeds, iterations=60, seed=3)
        greedy = greedyfuzz(seeds, iterations=60, seed=3)
        assert len(rand.test_classes) > len(greedy.test_classes)


class TestDiscardAccounting:
    """Discarded iterations are counted by failure category, not swallowed."""

    ALGORITHMS = (classfuzz, uniquefuzz, greedyfuzz, randfuzz)

    @pytest.mark.parametrize("algorithm", ALGORITHMS,
                             ids=lambda fn: fn.__name__)
    def test_iterations_fully_accounted(self, seeds, algorithm):
        result = algorithm(seeds, iterations=60, seed=3)
        assert result.iterations == \
            len(result.gen_classes) + result.discarded
        assert all(count > 0 for count in result.discards.values())

    def test_known_categories_only(self, seeds):
        from repro.core.fuzzing import (
            DISCARD_COMPILE_ERROR,
            DISCARD_DUMP_ERROR,
            DISCARD_INAPPLICABLE,
            DISCARD_MUTATOR_ERROR,
        )

        result = classfuzz(seeds, iterations=80, seed=3)
        known = {DISCARD_MUTATOR_ERROR, DISCARD_INAPPLICABLE,
                 DISCARD_COMPILE_ERROR, DISCARD_DUMP_ERROR}
        assert set(result.discards) <= known

    def test_crashing_mutator_counted_not_fatal(self, seeds):
        from repro.core.fuzzing import _FuzzEngine
        from repro.core.mutators import Mutator

        def _crash(jclass, rng):
            raise RuntimeError("rewrite blew up")

        crasher = Mutator("crasher", "jimple", "always crashes", _crash)
        engine = _FuzzEngine(seeds, __import__("random").Random(0),
                             [crasher])
        draft = engine.mutate_draft(crasher)
        assert engine.dump_drafts([(crasher, draft)]) == [None]
        assert engine.discards == {"mutator_error": 1}

    def test_unexpected_dump_failure_propagates(self, seeds):
        # Only JimpleCompileError / struct.error are discardable; a
        # genuine writer bug must surface, not vanish into the counters.
        import random as _random

        from repro.core.fuzzing import _FuzzEngine, supplement_main
        from repro.core import fuzzing as fuzzing_module
        from repro.core.mutators import Mutator

        identity = Mutator("identity", "jimple", "no-op",
                           lambda jclass, rng: True)
        engine = _FuzzEngine(seeds, _random.Random(0), [identity])

        def _boom(compiled):
            raise KeyError("writer bug")

        draft = engine.mutate_draft(identity)
        original = fuzzing_module.write_class
        fuzzing_module.write_class = _boom
        try:
            with pytest.raises(KeyError):
                engine.dump_drafts([(identity, draft)])
        finally:
            fuzzing_module.write_class = original


class _StubReference:
    """A fake reference JVM recording whether it was ever executed."""

    name = "stub-ref"

    def __init__(self):
        self.calls = 0

    def run(self, data):
        from repro.jvm.vendors import reference_jvm

        self.calls += 1
        return reference_jvm().run(data)


class TestReferenceInjection:
    def test_randfuzz_accepts_reference(self, seeds):
        stub = _StubReference()
        result = randfuzz(seeds, iterations=20, seed=3, reference=stub)
        assert result.gen_classes
        # Parity only: randfuzz never executes the reference JVM.
        assert stub.calls == 0

    @pytest.mark.parametrize("algorithm",
                             (classfuzz, uniquefuzz, greedyfuzz),
                             ids=lambda fn: fn.__name__)
    def test_directed_algorithms_use_injected_reference(self, seeds,
                                                        algorithm):
        stub = _StubReference()
        result = algorithm(seeds, iterations=15, seed=3, reference=stub)
        # Seed priming alone already runs the reference once per seed.
        assert stub.calls >= len(seeds)
        assert result.iterations == 15

    def test_all_four_signatures_align(self):
        import inspect

        for algorithm in (classfuzz, uniquefuzz, greedyfuzz, randfuzz):
            parameters = inspect.signature(algorithm).parameters
            assert "reference" in parameters, algorithm.__name__
            assert "executor" in parameters, algorithm.__name__


class TestExecutorInjection:
    def test_shared_executor_caches_across_algorithms(self, seeds):
        from repro.core.executor import OutcomeCache, SerialExecutor

        engine = SerialExecutor(cache=OutcomeCache())
        uniquefuzz(seeds, iterations=10, seed=3, executor=engine)
        misses = engine.stats.trace_misses
        # Re-priming the same seed corpus is pure tracefile-cache hits.
        greedyfuzz(seeds, iterations=10, seed=3, executor=engine)
        assert engine.stats.trace_hits >= len(seeds) - 2
        assert engine.stats.trace_misses >= misses

    def test_results_identical_with_and_without_cache(self, seeds):
        from repro.core.executor import SerialExecutor

        cached = classfuzz(seeds, iterations=40, seed=9)
        uncached = classfuzz(seeds, iterations=40, seed=9,
                             executor=SerialExecutor())
        assert [g.label for g in cached.test_classes] == \
            [g.label for g in uncached.test_classes]


class TestCampaign:
    def test_cost_model_iteration_ratios(self):
        from repro.core.campaign import (
            PAPER_BUDGET_SECONDS,
            iterations_for_budget,
        )

        directed = iterations_for_budget("classfuzz[stbr]",
                                         PAPER_BUDGET_SECONDS)
        blind = iterations_for_budget("randfuzz", PAPER_BUDGET_SECONDS)
        assert directed == 2130
        assert blind == 46318
        assert blind / directed > 20

    def test_scaled_budget_preserves_ratio(self):
        from repro.core.campaign import iterations_for_budget

        budget = 10000.0
        assert iterations_for_budget("randfuzz", budget) > \
            20 * iterations_for_budget("classfuzz[stbr]", budget)

    def test_run_campaign_smoke(self, seeds):
        from repro.core.campaign import format_table4, run_campaign

        runs = run_campaign(seeds, budget_seconds=3600.0,
                            algorithms=("classfuzz[stbr]", "randfuzz"))
        table = format_table4(runs)
        assert "classfuzz[stbr]" in table
        assert runs[0].fuzz.iterations < runs[1].fuzz.iterations
