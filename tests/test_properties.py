"""Property-based tests (hypothesis) on core data structures and invariants."""

import dataclasses
import random
import struct

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.classfile.access_flags import AccessFlags
from repro.classfile.attributes import (
    CodeAttribute,
    ConstantValueAttribute,
    ExceptionHandler,
    ExceptionsAttribute,
    RawAttribute,
    SourceFileAttribute,
)
from repro.classfile.constant_pool import ConstantPool, CpInfo, CpTag
from repro.classfile.descriptors import (
    parse_field_descriptor,
    parse_method_descriptor,
)
from repro.classfile.fields import FieldInfo
from repro.classfile.methods import MethodInfo
from repro.classfile.model import ClassFile
from repro.classfile.reader import ReaderOptions, read_class
from repro.classfile.writer import _clamp_s32, _clamp_s64, write_class
from repro.coverage.tracefile import Tracefile, merge
from repro.coverage.uniqueness import StBrUniqueness, StUniqueness, TrUniqueness

# ---------------------------------------------------------------------------
# Descriptor grammar
# ---------------------------------------------------------------------------

_base_type = st.sampled_from(list("BCDFIJSZ"))
_class_name = st.from_regex(r"[a-z][a-z0-9]{0,8}(/[A-Z][a-zA-Z0-9]{0,8}){1,3}",
                            fullmatch=True)
_object_type = _class_name.map(lambda name: f"L{name};")
_field_descriptor = st.builds(
    lambda dims, base: "[" * dims + base,
    st.integers(min_value=0, max_value=4),
    st.one_of(_base_type, _object_type))


@given(_field_descriptor)
def test_field_descriptor_roundtrip(descriptor):
    assert parse_field_descriptor(descriptor).descriptor() == descriptor


@given(st.lists(_field_descriptor, max_size=5),
       st.one_of(st.just("V"), _field_descriptor))
def test_method_descriptor_roundtrip(params, ret):
    descriptor = f"({''.join(params)}){ret}"
    parsed = parse_method_descriptor(descriptor)
    assert parsed.descriptor() == descriptor
    assert len(parsed.parameters) == len(params)


@given(_field_descriptor)
def test_java_name_conversion_roundtrip(descriptor):
    from repro.jimple.types import descriptor_to_java, java_to_descriptor

    assert java_to_descriptor(descriptor_to_java(descriptor)) == descriptor


# ---------------------------------------------------------------------------
# Constant pool
# ---------------------------------------------------------------------------

@given(st.lists(st.text(max_size=20), min_size=1, max_size=30))
def test_utf8_interning_idempotent(texts):
    pool = ConstantPool()
    indices = {text: pool.utf8(text) for text in texts}
    for text, index in indices.items():
        assert pool.utf8(text) == index
        assert pool.get_utf8(index) == text
    assert len(pool) == len(set(texts))


@given(st.lists(st.one_of(
    st.tuples(st.just("int"), st.integers(-2**31, 2**31 - 1)),
    st.tuples(st.just("long"), st.integers(-2**63, 2**63 - 1)),
    st.tuples(st.just("utf8"), st.text(max_size=10)),
), max_size=20))
def test_pool_slot_accounting(entries):
    """Slot count equals sum of entry widths, regardless of order."""
    pool = ConstantPool()
    expected = 0
    seen = set()
    for kind, value in entries:
        if (kind, value) in seen:
            continue
        seen.add((kind, value))
        if kind == "int":
            pool.integer(value)
            expected += 1
        elif kind == "long":
            pool.long(value)
            expected += 2
        else:
            pool.utf8(value)
            expected += 1
    assert len(pool) == expected


# ---------------------------------------------------------------------------
# Java integer wrapping
# ---------------------------------------------------------------------------

@given(st.integers())
def test_clamp_s32_range_and_congruence(value):
    clamped = _clamp_s32(value)
    assert -2**31 <= clamped < 2**31
    assert (clamped - value) % 2**32 == 0


@given(st.integers())
def test_clamp_s64_range_and_congruence(value):
    clamped = _clamp_s64(value)
    assert -2**63 <= clamped < 2**63
    assert (clamped - value) % 2**64 == 0


# ---------------------------------------------------------------------------
# Tracefile merge (⊕) algebra
# ---------------------------------------------------------------------------

_sites = st.dictionaries(st.text(min_size=1, max_size=4),
                         st.integers(min_value=1, max_value=5), max_size=8)
_branches = st.dictionaries(
    st.tuples(st.text(min_size=1, max_size=4), st.booleans()),
    st.integers(min_value=1, max_value=5), max_size=8)
_tracefiles = st.builds(Tracefile, statements=_sites, branches=_branches)


@given(_tracefiles, _tracefiles)
def test_merge_commutative_on_sets(a, b):
    ab, ba = merge(a, b), merge(b, a)
    assert ab.stmt_set == ba.stmt_set
    assert ab.br_set == ba.br_set
    assert ab.statements == ba.statements  # counts commute too


@given(_tracefiles, _tracefiles, _tracefiles)
def test_merge_associative(a, b, c):
    left = merge(merge(a, b), c)
    right = merge(a, merge(b, c))
    assert left.statements == right.statements
    assert left.branches == right.branches


@given(_tracefiles)
def test_merge_idempotent_on_sets(a):
    merged = merge(a, a)
    assert merged.stmt_set == a.stmt_set
    assert merged.stmt == a.stmt


@given(_tracefiles, _tracefiles)
def test_merge_monotone(a, b):
    merged = merge(a, b)
    assert merged.stmt >= max(a.stmt, b.stmt)
    assert merged.br >= max(a.br, b.br)


# ---------------------------------------------------------------------------
# Uniqueness criteria invariants
# ---------------------------------------------------------------------------

@given(st.lists(_tracefiles, max_size=20))
def test_criterion_hierarchy(traces):
    """Acceptance strictness: [st] rejects ⊇ [stbr] rejects ⊇ [tr] rejects.

    Equivalently: anything [stbr] accepts, [tr] accepts; anything [st]
    accepts, [stbr] accepts.
    """
    st_c, stbr_c, tr_c = StUniqueness(), StBrUniqueness(), TrUniqueness()
    for trace in traces:
        if st_c.is_unique(trace):
            assert stbr_c.is_unique(trace)
        if stbr_c.is_unique(trace):
            assert tr_c.is_unique(trace)
        st_c.check_and_accept(trace)
        stbr_c.check_and_accept(trace)
        tr_c.check_and_accept(trace)


@given(st.lists(_tracefiles, max_size=20))
def test_accepted_suite_pairwise_unique(traces):
    criterion = TrUniqueness()
    accepted = [t for t in traces if criterion.check_and_accept(t)]
    keys = [(t.stmt_set, t.br_set) for t in accepted]
    assert len(set(keys)) == len(keys)


@given(_tracefiles)
def test_duplicate_never_accepted_twice(trace):
    for criterion in (StUniqueness(), StBrUniqueness(), TrUniqueness()):
        assert criterion.check_and_accept(trace)
        assert not criterion.check_and_accept(trace)


# ---------------------------------------------------------------------------
# Bytecode codec
# ---------------------------------------------------------------------------

@given(st.lists(st.sampled_from([
    0x00, 0x01, 0x03, 0x04, 0x57, 0x59, 0xb1, 0x02, 0x05, 0x06, 0x08,
]), min_size=1, max_size=40))
def test_operand_free_codec_roundtrip(opcodes):
    from repro.bytecode import decode_code, encode_code

    code = bytes(opcodes)
    assert encode_code(decode_code(code)) == code


@given(st.integers(min_value=-128, max_value=127))
def test_bipush_value_roundtrip(value):
    from repro.bytecode import Op, decode_code, encode_code, Instruction

    encoded = encode_code([Instruction(0, Op.BIPUSH, {"value": value})])
    (decoded,) = decode_code(encoded)
    assert decoded.operands["value"] == value


def _label_offsets_by_decoding(asm, code):
    """How ``Assembler.build`` used to place labels, before the encoder
    reported its layout: decode the built bytes and pair each emitted
    instruction with the decoded one at the same position."""
    from repro.bytecode import decode_code

    decoded = decode_code(code)
    assert len(decoded) == len(asm.instructions)
    byte_offset = {emitted.offset: found.offset
                   for emitted, found in zip(asm.instructions, decoded)}
    return {name: byte_offset.get(position, len(code))
            for name, position in asm._labels.items()}


def _switch_trap_class(rng):
    from repro.corpus.templates import switch_shape, trap_shape
    from repro.jimple import ClassBuilder, MethodBuilder
    from repro.jimple.types import VOID

    method = MethodBuilder("work", VOID, [], ["public", "static"])
    for counter in range(rng.randint(1, 6)):
        shape = switch_shape if rng.random() < 0.5 else trap_shape
        shape(rng, method, counter)
    method.ret()
    method.label("end")  # a label past the last instruction
    builder = ClassBuilder("LabelOffsets")
    builder.default_init()
    builder.method(method.build())
    return builder.build()


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31),
       st.booleans(),
       st.lists(st.integers(min_value=0, max_value=10 ** 6), max_size=3))
def test_assembler_label_offsets_match_decoded_layout(rng_seed, from_corpus,
                                                      mutations):
    """Labels placed from the encoder's layout sit where decoding the
    built bytes puts them, on generated and mutated methods with
    switches and traps."""
    import random
    import struct

    from repro.classfile.constant_pool import ConstantPool
    from repro.core.mutators import MUTATORS
    from repro.corpus import CorpusConfig, generate_corpus
    from repro.jimple.to_classfile import JimpleCompileError, _MethodCompiler

    rng = random.Random(rng_seed)
    if from_corpus:
        (jclass,) = generate_corpus(CorpusConfig(count=1, seed=rng_seed))
    else:
        jclass = _switch_trap_class(rng)
    for choice in mutations:
        try:
            MUTATORS[choice % len(MUTATORS)](jclass, rng)
        except Exception:
            pass  # a crashed rewrite is a discarded iteration
    for method in jclass.methods:
        if method.body is None:
            continue
        compiler = _MethodCompiler(jclass, method, ConstantPool())
        try:
            code = compiler.compile().code
        except (JimpleCompileError, struct.error):
            continue  # a dump failure: no bytes to place labels in
        assert compiler.asm.label_offsets == \
            _label_offsets_by_decoding(compiler.asm, code)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=2 ** 31),
       st.booleans(),
       st.lists(st.integers(min_value=0, max_value=10 ** 6), max_size=4))
def test_compiled_bodies_reencode_to_their_bytes(rng_seed, from_corpus,
                                                 mutations):
    """``encode_code(decode_code(b)) == b`` for every method body the
    compiler emits, on generated classes and on their mutants."""
    from repro.bytecode import decode_code, encode_code
    from repro.core.mutators import MUTATORS
    from repro.corpus import CorpusConfig, generate_corpus
    from repro.jimple.to_classfile import JimpleCompileError, compile_class

    rng = random.Random(rng_seed)
    if from_corpus:
        (jclass,) = generate_corpus(CorpusConfig(count=1, seed=rng_seed))
    else:
        jclass = _switch_trap_class(rng)
    for choice in mutations:
        try:
            MUTATORS[choice % len(MUTATORS)](jclass, rng)
        except Exception:
            return  # a crashed rewrite is a discarded iteration
    try:
        classfile = compile_class(jclass)
    except JimpleCompileError:
        return  # a dump failure: no bytes
    for method in classfile.methods:
        if method.code is not None:
            code = method.code.code
            assert encode_code(decode_code(code)) == code


# ---------------------------------------------------------------------------
# MCMC invariants
# ---------------------------------------------------------------------------

@given(st.integers(min_value=2, max_value=200),
       st.floats(min_value=0.01, max_value=0.5))
def test_acceptance_probability_bounds(count, p):
    import random

    from repro.core.mcmc import McmcMutatorSelector
    from repro.core.mutators.base import Mutator

    def noop(jclass, rng):
        return True

    mutators = [Mutator(f"m{i}", "class", "x", noop) for i in range(count)]
    selector = McmcMutatorSelector(mutators, p=p, rng=random.Random(0))
    first, last = selector.ranked[0], selector.ranked[-1]
    up = selector.acceptance_probability(last, first)
    down = selector.acceptance_probability(first, last)
    assert up == 1.0
    assert 0.0 < down <= 1.0


# ---------------------------------------------------------------------------
# Classfile round trips: read(write(cf)) == cf and write(read(b)) == b
# ---------------------------------------------------------------------------

_ANY_VERSION = ReaderOptions(max_supported_major=0xFFFF, min_supported_major=0)
_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
_u2 = st.integers(min_value=0, max_value=0xFFFF)
_name = st.from_regex(r"[A-Za-z][A-Za-z0-9_/]{0,10}", fullmatch=True)


@st.composite
def _classfiles(draw):
    """A class whose pool mixes every tag the writer emits, with members
    and every attribute kind; every reference the reader checks is
    valid, and every attribute name is already interned."""
    pool = ConstantPool()
    this_class = pool.class_ref(draw(_name))
    super_class = draw(st.one_of(st.just(0), _name.map(pool.class_ref)))
    interfaces = draw(st.lists(_name.map(pool.class_ref), max_size=3))
    for kind in draw(st.lists(st.integers(min_value=0, max_value=9),
                              max_size=16)):
        if kind == 0:
            pool.utf8(draw(_text))
        elif kind == 1:
            pool.integer(draw(st.integers(-2 ** 31, 2 ** 31 - 1)))
        elif kind == 2:
            pool.float_(draw(st.floats(width=32, allow_nan=False)))
        elif kind == 3:
            pool.long(draw(st.integers(-2 ** 63, 2 ** 63 - 1)))
        elif kind == 4:
            pool.double(draw(st.floats(allow_nan=False)))
        elif kind == 5:
            pool.string(draw(_text))
        elif kind == 6:
            pool.method_ref(draw(_name), draw(_name), "()V")
        elif kind == 7:
            pool.interface_method_ref(draw(_name), draw(_name), "(I)J")
        elif kind == 8:
            pool.add(CpInfo(CpTag.METHOD_HANDLE,
                            (draw(st.integers(1, 9)), draw(_u2))))
            pool.add(CpInfo(CpTag.METHOD_TYPE, (pool.utf8("()V"),)))
        else:
            pool.add(CpInfo(CpTag.INVOKE_DYNAMIC,
                            (draw(_u2), pool.name_and_type("x", "()V"))))

    def attributes(in_code=False):
        chosen = []
        for kind in draw(st.lists(st.integers(0, 4), max_size=3)):
            if kind == 0 and not in_code:
                chosen.append(CodeAttribute(
                    draw(_u2), draw(_u2), draw(st.binary(min_size=1,
                                                         max_size=24)),
                    [ExceptionHandler(*draw(st.tuples(_u2, _u2, _u2, _u2)))
                     for _ in range(draw(st.integers(0, 2)))],
                    attributes(in_code=True)))
            elif kind == 1:
                chosen.append(ExceptionsAttribute(
                    draw(st.lists(_name.map(pool.class_ref), max_size=2))))
            elif kind == 2:
                chosen.append(ConstantValueAttribute(draw(_u2)))
            elif kind == 3:
                chosen.append(SourceFileAttribute(draw(_u2)))
            else:
                chosen.append(RawAttribute(
                    draw(st.sampled_from(["LineNumberTable", "Custom",
                                          "Deprecated"])),
                    draw(st.binary(max_size=12))))
        for attr in chosen:
            pool.utf8(attr.name)
        return chosen

    def members(kind):
        return [kind(AccessFlags(draw(_u2)), pool.utf8(draw(_name)),
                     pool.utf8(draw(st.sampled_from(["I", "()V", "[J"]))),
                     attributes())
                for _ in range(draw(st.integers(0, 3)))]

    fields = members(FieldInfo)
    methods = members(MethodInfo)
    return ClassFile(minor_version=draw(_u2), major_version=draw(_u2),
                     constant_pool=pool,
                     access_flags=AccessFlags(draw(_u2)),
                     this_class=this_class, super_class=super_class,
                     interfaces=interfaces, fields=fields, methods=methods,
                     attributes=attributes())


def _pool_state(pool):
    """A pool's slot count and entries, floats by bit pattern."""
    return len(pool), [
        (index, info.tag,
         struct.pack(">d", info.value) if isinstance(info.value, float)
         else info.value)
        for index, info in pool]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_classfiles())
def test_read_of_write_is_the_class(classfile):
    before = _pool_state(classfile.constant_pool)
    restored = read_class(write_class(classfile), _ANY_VERSION)
    assert _pool_state(classfile.constant_pool) == before
    assert _pool_state(restored.constant_pool) == before
    assert dataclasses.replace(restored, constant_pool=None) == \
        dataclasses.replace(classfile, constant_pool=None)


def _mutant_seeds():
    from repro.corpus import CorpusConfig, generate_corpus

    return generate_corpus(CorpusConfig(count=16, seed=7))


_MUTANT_SEEDS = _mutant_seeds()


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=len(_MUTANT_SEEDS) - 1),
       st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=1,
                max_size=4),
       st.integers(min_value=0, max_value=2 ** 31))
def test_write_of_read_is_the_bytes(seed_index, chain, rng_seed):
    """Mutant bytes, read and written again, are the same bytes."""
    from repro.core.mutators import MUTATORS
    from repro.jimple.to_classfile import compile_class_bytes

    rng = random.Random(rng_seed)
    mutant = _MUTANT_SEEDS[seed_index].clone()
    try:
        for pick in chain:
            MUTATORS[pick % len(MUTATORS)](mutant, rng)
        data = compile_class_bytes(mutant)
    except Exception:
        return  # a failed iteration, which the fuzzers count
    assert write_class(read_class(data, _ANY_VERSION)) == data
