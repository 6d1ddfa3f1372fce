"""Determinism contract of the batched speculative fuzzing pipeline.

Two guarantees are pinned here:

1. ``batch=1`` is **bit-identical to the historical serial loop**: every
   algorithm's output (generated labels, accepted labels, classfile
   digests, discard tallies, mutator report) matches the golden fixture
   captured from the pre-pipeline serial implementation
   (``tests/data/golden_serial_fuzz.json``).
2. For a fixed ``(seed, batch)`` the run is **deterministic across
   repeats and across executor backends** — serial and process — because
   acceptance is replayed sequentially in batch-index order.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.executor import (
    OutcomeCache,
    ProcessExecutor,
    SerialExecutor,
)
from repro.core.fuzzing import classfuzz, greedyfuzz, randfuzz, uniquefuzz
from repro.corpus import CorpusConfig, generate_corpus
from repro.observe import Telemetry
from repro.observe.events import ITERATION, RingBufferSink

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_serial_fuzz.json"

#: golden key → zero-argument runner (mirrors the capture script exactly).
RUNNERS = {
    "classfuzz[st]": lambda seeds, **kw: classfuzz(
        seeds, iterations=60, criterion="st", seed=7, **kw),
    "classfuzz[stbr]": lambda seeds, **kw: classfuzz(
        seeds, iterations=60, criterion="stbr", seed=7, **kw),
    "classfuzz[tr]": lambda seeds, **kw: classfuzz(
        seeds, iterations=60, criterion="tr", seed=7, **kw),
    "uniquefuzz": lambda seeds, **kw: uniquefuzz(
        seeds, iterations=60, seed=7, **kw),
    "greedyfuzz": lambda seeds, **kw: greedyfuzz(
        seeds, iterations=60, seed=7, **kw),
    "randfuzz": lambda seeds, **kw: randfuzz(
        seeds, iterations=60, seed=7, **kw),
}


@pytest.fixture(scope="module")
def seeds():
    return generate_corpus(CorpusConfig(count=25, seed=11))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def fingerprint(result):
    """The cross-backend-comparable essence of a FuzzResult."""
    return {
        "gen": [g.label for g in result.gen_classes],
        "tests": [g.label for g in result.test_classes],
        "discards": dict(result.discards),
        "report": [[name, selected, successes, rate]
                   for name, selected, successes, rate
                   in result.mutator_report if selected > 0],
        "digests": [hashlib.sha256(g.data).hexdigest()[:16]
                    for g in result.test_classes],
    }


class TestBatchOneIsSerial:
    """batch=1 reproduces the pre-pipeline serial loop byte for byte."""

    @pytest.mark.parametrize("key", sorted(RUNNERS))
    def test_matches_golden_serial_output(self, key, seeds, golden):
        result = RUNNERS[key](seeds, batch=1)
        assert fingerprint(result) == golden[key]

    @pytest.mark.parametrize("key", sorted(RUNNERS))
    def test_default_batch_is_one(self, key, seeds, golden):
        # Callers that never heard of batching keep the exact old output.
        result = RUNNERS[key](seeds)
        assert result.batch == 1
        assert fingerprint(result) == golden[key]


class TestBatchedDeterminism:
    """Fixed (seed, batch) → identical output, regardless of backend."""

    def test_repeatable_on_serial_backend(self, seeds):
        first = RUNNERS["classfuzz[stbr]"](seeds, batch=8)
        second = RUNNERS["classfuzz[stbr]"](seeds, batch=8)
        assert fingerprint(first) == fingerprint(second)
        assert first.batch == 8

    @pytest.mark.parametrize("key", ["classfuzz[stbr]", "greedyfuzz"])
    def test_process_backend_matches_serial(self, key, seeds):
        baseline = RUNNERS[key](seeds, batch=8)
        try:
            with ProcessExecutor(jobs=2, cache=OutcomeCache()) as engine:
                spawned = RUNNERS[key](seeds, batch=8, executor=engine)
        except (OSError, ValueError, ImportError) as exc:
            pytest.skip(f"process pool unavailable: {exc}")
        assert fingerprint(spawned) == fingerprint(baseline)

    def test_batch_covers_non_divisible_iterations(self, seeds):
        # 60 iterations in rounds of 7: the tail round shrinks, nothing
        # is dropped or double-run.
        result = RUNNERS["uniquefuzz"](seeds, batch=7)
        assert len(result.gen_classes) + result.discarded == 60


class TestBatchValidation:
    @pytest.mark.parametrize("bad", [0, -3])
    def test_rejects_non_positive_batch(self, seeds, bad):
        with pytest.raises(ValueError, match="batch"):
            randfuzz(seeds, iterations=5, seed=1, batch=bad)


class TestBatchRoundTelemetry:
    """Rounds are counted by ``repro_fuzz_rounds_total``; each
    ``iteration`` event carries the index of the round it ran in."""

    def test_emits_one_round_event_per_round(self, seeds):
        telemetry = Telemetry()
        ring = telemetry.bus.add_sink(RingBufferSink())
        RUNNERS["classfuzz[stbr]"](seeds, batch=8, telemetry=telemetry)
        iterations = ring.events(ITERATION)
        assert len(iterations) == 60
        # ceil(60 / 8) = 8 rounds; the tail round holds 4 iterations.
        assert [e.fields["round"] for e in iterations] == \
            [index // 8 for index in range(60)]
        counter = telemetry.registry.get("repro_fuzz_rounds_total")
        assert counter.labels(
            algorithm="classfuzz[stbr]").value == 8

    def test_serial_run_reports_rounds_equal_iterations(self, seeds):
        telemetry = Telemetry()
        ring = telemetry.bus.add_sink(RingBufferSink())
        RUNNERS["randfuzz"](seeds, batch=1, telemetry=telemetry)
        assert [e.fields["round"] for e in ring.events(ITERATION)] == \
            list(range(60))
        counter = telemetry.registry.get("repro_fuzz_rounds_total")
        assert counter.labels(algorithm="randfuzz").value == 60
