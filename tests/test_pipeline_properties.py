"""Property-based tests over the mutation→dump→run pipeline.

The pipeline invariant behind the whole experiment: whatever a mutator
does, the outcome is either a *dump failure* (a counted, failed iteration)
or genuine classfile bytes that every JVM consumes without crashing the
harness.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.classfile.constant_pool import CpInfo, CpTag
from repro.classfile.reader import ReaderOptions, parse_class, read_class
from repro.classfile.writer import write_class
from repro.core.mutators import MUTATORS
from repro.corpus import CorpusConfig, generate_corpus
from repro.errors import JavaError
from repro.jimple.to_classfile import (
    JimpleCompileError,
    compile_class,
    compile_class_bytes,
)
from repro.jvm.outcome import Phase
from repro.jvm.vendors import all_jvms

_SEEDS = generate_corpus(CorpusConfig(count=24, seed=1234))
_JVMS = all_jvms()

_LENIENT = ReaderOptions(max_supported_major=99, min_supported_major=0,
                         reject_trailing_bytes=False)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=len(_SEEDS) - 1),
       st.integers(min_value=0, max_value=len(MUTATORS) - 1),
       st.integers(min_value=0, max_value=2 ** 31))
def test_mutant_bytes_always_parseable(seed_index, mutator_index, rng_seed):
    """A dumped mutant is always structurally parseable bytes."""
    rng = random.Random(rng_seed)
    mutant = _SEEDS[seed_index].clone()
    try:
        if not MUTATORS[mutator_index](mutant, rng):
            return
        data = compile_class_bytes(mutant)
    except (JimpleCompileError, Exception):
        return  # a failed iteration, which the fuzzers count
    parsed = read_class(data, _LENIENT)
    assert parsed.this_class != 0


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=len(_SEEDS) - 1),
       st.integers(min_value=0, max_value=len(MUTATORS) - 1),
       st.integers(min_value=0, max_value=2 ** 31))
def test_jvms_never_crash_on_mutants(seed_index, mutator_index, rng_seed):
    """Every JVM folds every mutant into an Outcome — no exception ever
    escapes ``Jvm.run``."""
    rng = random.Random(rng_seed)
    mutant = _SEEDS[seed_index].clone()
    try:
        MUTATORS[mutator_index](mutant, rng)
        data = compile_class_bytes(mutant)
    except Exception:
        return
    for jvm in _JVMS:
        outcome = jvm.run(data)
        assert outcome.phase in Phase
        if not outcome.ok:
            assert outcome.error


#: Pool entries that reference other pool entries (JVMS 4.4).
_REFERRING_TAGS = (CpTag.CLASS, CpTag.STRING, CpTag.METHOD_TYPE,
                   CpTag.NAME_AND_TYPE, CpTag.FIELDREF, CpTag.METHODREF,
                   CpTag.INTERFACE_METHODREF)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=len(_SEEDS) - 1),
       st.integers(min_value=0, max_value=2 ** 16),
       st.integers(min_value=0, max_value=1),
       st.integers(min_value=0, max_value=400))
def test_jvms_never_crash_on_dangling_pool_references(seed_index, which,
                                                      field, target):
    """One internal pool index of a compiled seed, pointed anywhere (a
    missing slot or an entry of the wrong kind), is folded into an
    Outcome by every JVM."""
    classfile = compile_class(_SEEDS[seed_index])
    pool = classfile.constant_pool
    referring = [(index, info) for index, info in pool
                 if info.tag in _REFERRING_TAGS]
    index, info = referring[which % len(referring)]
    value = list(info.value)
    value[field % len(value)] = target
    pool.add_at(index, CpInfo(info.tag, tuple(value)))
    data = write_class(classfile)
    for jvm in _JVMS:
        outcome = jvm.run(data)
        assert outcome.phase in Phase
        if not outcome.ok:
            assert outcome.error


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=len(_SEEDS) - 1),
       st.integers(min_value=0, max_value=len(MUTATORS) - 1),
       st.integers(min_value=0, max_value=2 ** 31),
       st.lists(st.tuples(st.integers(min_value=0, max_value=2 ** 16),
                          st.integers(min_value=1, max_value=255)),
                max_size=3),
       st.one_of(st.none(), st.integers(min_value=0, max_value=2 ** 16)))
def test_damaged_mutants_never_raise(seed_index, mutator_index, rng_seed,
                                     flips, cut):
    """A mutant with bytes flipped or cut short is a verdict, never an
    exception: ``parse_class`` returns its format error, and no vendor
    run raises.  Every short read is a ``ClassFormatError`` on its own,
    so the reader needs no catch-all around attributes."""
    rng = random.Random(rng_seed)
    mutant = _SEEDS[seed_index].clone()
    try:
        MUTATORS[mutator_index](mutant, rng)
        data = bytearray(compile_class_bytes(mutant))
    except Exception:
        return
    for position, mask in flips:
        data[position % len(data)] ^= mask
    if cut is not None:
        del data[cut % (len(data) + 1):]
    damaged = bytes(data)
    parsed = parse_class(damaged)
    assert (parsed.classfile is None) != (parsed.error is None)
    for jvm in _JVMS:
        outcome = jvm.run(damaged)
        assert outcome.phase in Phase
        if not outcome.ok:
            assert outcome.error


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=len(_SEEDS) - 1),
       st.lists(st.integers(min_value=0, max_value=len(MUTATORS) - 1),
                min_size=2, max_size=6),
       st.integers(min_value=0, max_value=2 ** 31))
def test_mutation_chains_stay_well_behaved(seed_index, chain, rng_seed):
    """Stacked mutations (the fuzzers' seed-feedback regime) preserve the
    dump-or-fail invariant."""
    rng = random.Random(rng_seed)
    mutant = _SEEDS[seed_index].clone()
    for mutator_index in chain:
        try:
            MUTATORS[mutator_index](mutant, rng)
        except Exception:
            return
    try:
        data = compile_class_bytes(mutant)
    except Exception:
        return
    parsed = read_class(data, _LENIENT)
    assert len(parsed.constant_pool) > 0


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31))
def test_determinism_of_one_iteration(rng_seed):
    """Identical RNG seeds produce identical mutants."""
    first = _run_once(rng_seed)
    second = _run_once(rng_seed)
    assert first == second


def _run_once(rng_seed):
    rng = random.Random(rng_seed)
    mutant = _SEEDS[rng.randrange(len(_SEEDS))].clone()
    mutator = MUTATORS[rng.randrange(len(MUTATORS))]
    try:
        if not mutator(mutant, rng):
            return ("inapplicable", mutator.name)
        return ("bytes", compile_class_bytes(mutant))
    except Exception as exc:
        return ("failed", type(exc).__name__)
