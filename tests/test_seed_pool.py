"""Tests for the seed pool and its pluggable schedulers."""

import random

import pytest

from repro.corpus import CorpusConfig, generate_corpus
from repro.corpus.pool import ORIGIN_MUTANT, ORIGIN_SEED, SeedPool
from repro.corpus.schedule import (
    DEFAULT_SCHEDULE,
    SCHEDULERS,
    CoverageYieldScheduler,
    EpsilonGreedyScheduler,
    UniformScheduler,
    make_scheduler,
)
from repro.core.fuzzing import classfuzz, uniquefuzz
from repro.observe import make_telemetry
from repro.observe.events import ITERATION


@pytest.fixture(scope="module")
def seeds():
    return generate_corpus(CorpusConfig(count=12, seed=3))


class TestUniformScheduler:
    def test_matches_rng_choice_draws(self, seeds):
        """The uniform pick consumes the Mersenne Twister exactly like
        the historical ``rng.choice(pool)`` — the golden-fixture
        byte-identity contract."""
        entries = list(range(7))
        a, b = random.Random(99), random.Random(99)
        scheduler = UniformScheduler()
        for _ in range(200):
            assert scheduler.pick(a, entries) == b.choice(entries)

    def test_pool_pick_counts_picks(self, seeds):
        pool = SeedPool(seeds)
        rng = random.Random(1)
        for _ in range(30):
            index, entry = pool.pick(rng)
            assert pool.entries[index] is entry
        assert sum(e.picks for e in pool.entries) == 30

    def test_is_the_default(self):
        assert DEFAULT_SCHEDULE == "uniform"
        assert make_scheduler(None).name == "uniform"


class TestEpsilonGreedyScheduler:
    def test_exploits_best_yield(self):
        pool_entries = SeedPool(
            generate_corpus(CorpusConfig(count=3, seed=1))).entries
        pool_entries[1].accepted = 5
        pool_entries[1].picks = 2
        scheduler = EpsilonGreedyScheduler(epsilon=0.0)
        rng = random.Random(0)
        assert all(scheduler.pick(rng, pool_entries) == 1
                   for _ in range(20))

    def test_cold_start_is_uniform(self):
        entries = SeedPool(
            generate_corpus(CorpusConfig(count=5, seed=1))).entries
        scheduler = EpsilonGreedyScheduler(epsilon=0.0)
        rng = random.Random(7)
        picked = {scheduler.pick(rng, entries) for _ in range(200)}
        assert picked == set(range(5))

    def test_deterministic_for_fixed_seed(self):
        entries = SeedPool(
            generate_corpus(CorpusConfig(count=6, seed=2))).entries
        entries[2].novelty = 3
        picks = []
        for _ in range(2):
            rng = random.Random(42)
            scheduler = EpsilonGreedyScheduler(epsilon=0.3)
            picks.append([scheduler.pick(rng, entries)
                          for _ in range(50)])
        assert picks[0] == picks[1]

    def test_epsilon_validated(self):
        with pytest.raises(ValueError, match="epsilon"):
            EpsilonGreedyScheduler(epsilon=1.5)


class TestCoverageYieldScheduler:
    def test_weights_toward_novelty(self):
        entries = SeedPool(
            generate_corpus(CorpusConfig(count=4, seed=1))).entries
        entries[3].novelty = 100
        scheduler = CoverageYieldScheduler()
        rng = random.Random(5)
        picks = [scheduler.pick(rng, entries) for _ in range(300)]
        assert picks.count(3) > 200  # weight 101 of ~104 total

    def test_every_entry_reachable(self):
        entries = SeedPool(
            generate_corpus(CorpusConfig(count=4, seed=1))).entries
        entries[0].novelty = 50
        scheduler = CoverageYieldScheduler()
        rng = random.Random(9)
        picked = {scheduler.pick(rng, entries) for _ in range(2000)}
        assert picked == set(range(4))

    def test_deterministic_for_fixed_seed(self):
        entries = SeedPool(
            generate_corpus(CorpusConfig(count=5, seed=8))).entries
        entries[1].accepted = 4
        runs = []
        for _ in range(2):
            rng = random.Random(13)
            runs.append([CoverageYieldScheduler().pick(rng, entries)
                        for _ in range(40)])
        assert runs[0] == runs[1]


class TestMakeScheduler:
    def test_registry_names(self):
        for name in SCHEDULERS:
            assert make_scheduler(name).name == name

    def test_passthrough_instance(self):
        instance = EpsilonGreedyScheduler(epsilon=0.5)
        assert make_scheduler(instance) is instance

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="coverage-yield"):
            make_scheduler("fancy-new-policy")

    def test_kwargs_forwarded(self):
        scheduler = make_scheduler("epsilon-greedy", epsilon=0.25)
        assert scheduler.epsilon == 0.25


class TestPoolFeedback:
    def test_add_marks_mutant_origin(self, seeds):
        pool = SeedPool(seeds)
        index = pool.add(seeds[0].clone(), "M1", size=123)
        assert pool.entries[index].origin == ORIGIN_MUTANT
        assert pool.entries[index].size == 123
        assert pool.entries[0].origin == ORIGIN_SEED
        assert pool.seed_count == len(seeds)

    def test_absorb_counts_only_new_sites(self, seeds):
        from repro.coverage.tracefile import Tracefile

        pool = SeedPool(seeds)
        first = Tracefile(statements={"a.c:1": 1, "a.c:2": 1},
                          branches={("a.c:1", True): 1})
        again = Tracefile(statements={"a.c:1": 5}, branches={})
        wider = Tracefile(statements={"a.c:1": 1, "a.c:3": 1},
                          branches={})
        assert pool.absorb(first) == 3
        assert pool.absorb(again) == 0
        assert pool.absorb(wider) == 1

    def test_credit_accumulates(self, seeds):
        pool = SeedPool(seeds)
        pool.credit(2, novelty=4)
        pool.credit(2, novelty=1)
        assert pool.entries[2].accepted == 2
        assert pool.entries[2].novelty == 5

    def test_stats_rows_drop_untouched_seeds(self, seeds):
        pool = SeedPool(seeds)
        pool.credit(0, novelty=1)
        pool.add(seeds[1].clone(), "M1")
        rows = pool.stats_rows()
        labels = {row["label"] for row in rows}
        assert pool.entries[0].label in labels
        assert "M1" in labels
        assert len(rows) == 2
        assert len(pool.stats_rows(active_only=False)) == len(seeds) + 1

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError, match="at least one seed"):
            SeedPool([])

    def test_state_round_trip(self, seeds):
        pool = SeedPool(seeds)
        pool.pick(random.Random(0))
        pool.add(seeds[0].clone(), "M1", size=9)
        pool.credit(0, novelty=2)
        restored = SeedPool(seeds)
        restored.set_state(pool.get_state())
        assert [e.stats_row() for e in restored.entries] \
            == [e.stats_row() for e in pool.entries]
        assert restored.seed_count == pool.seed_count

    def test_state_scheduler_mismatch_rejected(self, seeds):
        pool = SeedPool(seeds, scheduler=make_scheduler("uniform"))
        other = SeedPool(seeds,
                         scheduler=make_scheduler("coverage-yield"))
        with pytest.raises(ValueError, match="seed schedule"):
            other.set_state(pool.get_state())


class TestFuzzingIntegration:
    def test_result_records_scheduler_and_stats(self, seeds):
        result = classfuzz(seeds, iterations=30, seed=4,
                           schedule="coverage-yield")
        assert result.scheduler == "coverage-yield"
        assert result.seed_stats
        total_accepted = sum(row["accepted"]
                             for row in result.seed_stats)
        assert total_accepted == len(result.test_classes)
        for row in result.seed_stats:
            assert set(row) == {"label", "origin", "size", "picks",
                                "accepted", "novelty"}

    def test_mutants_carry_parent_lineage(self, seeds):
        result = uniquefuzz(seeds, iterations=30, seed=4)
        labels = {g.label for g in result.gen_classes} \
            | {s.name for s in seeds}
        for generated in result.gen_classes:
            assert generated.parent in labels

    def test_nondefault_schedule_changes_run(self, seeds):
        uniform = classfuzz(seeds, iterations=40, seed=4)
        greedy = classfuzz(seeds, iterations=40, seed=4,
                           schedule=make_scheduler("epsilon-greedy",
                                                   epsilon=0.0))
        assert uniform.scheduler == "uniform"
        assert greedy.scheduler == "epsilon-greedy"
        # Same RNG seed, different pick policy: the runs diverge.
        assert [g.label for g in uniform.gen_classes] \
            != [g.label for g in greedy.gen_classes] \
            or [g.data for g in uniform.gen_classes] \
            != [g.data for g in greedy.gen_classes]

    def test_seed_scheduled_events_emitted(self, seeds):
        telemetry = make_telemetry(ring_capacity=4096)
        ring = telemetry.bus.sinks[0]
        result = uniquefuzz(seeds, iterations=15, seed=2,
                            telemetry=telemetry)
        # Every iteration, discarded ones included, names the pool entry
        # it picked; the per-origin pick counts live in the registry.
        events = ring.events(ITERATION)
        assert len(events) == 15
        labels = {seed.name for seed in seeds} | \
            {g.label for g in result.test_classes}
        assert all(e.fields["seed"] in labels for e in events)
        picks = telemetry.registry.get("repro_seeds_scheduled_total")
        by_origin = {origin: child.value
                     for (_, origin), child in picks.children()}
        assert set(by_origin) <= {ORIGIN_SEED, ORIGIN_MUTANT}
        assert sum(by_origin.values()) == 15
        assert result.seed_stats
