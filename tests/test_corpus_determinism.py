"""Corpus generator determinism: same seed, byte-identical classfiles.

The seed-pool, checkpoint, and distillation layers all assume the
corpus generator is a pure function of its config — the same
``CorpusConfig`` must yield the same compiled bytes whether the corpus
is built twice in one process or in fresh worker processes (a service
leg generates its corpus in a subprocess).
"""

import hashlib
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core.executor import SerialExecutor
from repro.corpus import CorpusConfig, generate_corpus
from repro.jimple.to_classfile import compile_class_bytes


def corpus_digests(count, seed):
    """Module-level (picklable) helper: sha256 of each compiled seed."""
    corpus = generate_corpus(CorpusConfig(count=count, seed=seed))
    return [hashlib.sha256(compile_class_bytes(jclass)).hexdigest()
            for jclass in corpus]


def futures_broken():
    from concurrent.futures.process import BrokenProcessPool

    return BrokenProcessPool


class TestCorpusDeterminism:
    def test_two_runs_byte_identical(self):
        first = generate_corpus(CorpusConfig(count=25, seed=17))
        second = generate_corpus(CorpusConfig(count=25, seed=17))
        assert [c.name for c in first] == [c.name for c in second]
        assert [compile_class_bytes(c) for c in first] \
            == [compile_class_bytes(c) for c in second]

    def test_different_seed_differs(self):
        first = corpus_digests(20, 1)
        second = corpus_digests(20, 2)
        assert first != second

    def test_serial_map_matches_inline(self):
        inline = corpus_digests(15, 9)
        with SerialExecutor() as engine:
            mapped = engine.map_many(corpus_digests_for,
                                     [(15, 9)] * 3)
        assert all(result == inline for result in mapped)

    def test_process_backend_matches_inline(self):
        """Worker processes must see the same bytes the parent would —
        generation cannot depend on process state."""
        inline = corpus_digests(15, 9)
        try:
            with ProcessPoolExecutor(max_workers=2) as pool:
                mapped = list(pool.map(corpus_digests_for, [(15, 9)] * 2))
        except (OSError, futures_broken()) as exc:  # pragma: no cover
            pytest.skip(f"process pool unavailable: {exc}")
        assert all(result == inline for result in mapped)


def corpus_digests_for(args):
    count, seed = args
    return corpus_digests(count, seed)
