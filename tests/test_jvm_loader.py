"""Unit tests for the loading phase's format checks, and for the parse,
decode and verification that every vendor running one classfile shares."""

import copy
import pickle
import random
import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.bytecode import instructions
from repro.bytecode.instructions import InstructionError
from repro.classfile.attributes import CodeAttribute
from repro.classfile.reader import ClassReader, parse_class, read_class
from repro.classfile.writer import write_class
from repro.cli import main
from repro.core import executor as executor_module
from repro.core.difftest import DifferentialHarness
from repro.core.executor import ProcessExecutor, SerialExecutor, make_executor
from repro.corpus.templates import switch_shape, trap_shape
from repro.coverage.probes import CoverageCollector
from repro.errors import (
    ClassFormatError,
    JavaError,
    UnsupportedClassVersionError,
)
from repro.jimple import ClassBuilder, MethodBuilder, compile_class
from repro.jimple.types import INT, JType, VOID
from repro.jvm import verifier as verifier_module
from repro.jvm.linker import Linker
from repro.jvm.loader import Loader
from repro.jvm.policy import JvmPolicy
from repro.jvm.verifier import VERIFIER_POLICY_FIELDS, MethodVerifier
from repro.jvm.vendors import all_jvms, make_gij, reference_jvm
from tests.test_vendor_golden import vendor_suite


def load(jclass, **policy_overrides):
    policy = JvmPolicy(**policy_overrides)
    return Loader(policy).load(write_class(compile_class(jclass)))


def simple_class(name="L1", modifiers=None):
    return ClassBuilder(name, modifiers=modifiers).default_init().build()


class TestClassFlags:
    def test_valid_class_loads(self):
        assert load(simple_class()).name == "L1"

    def test_final_abstract_rejected(self):
        jclass = simple_class(modifiers=["public", "final", "abstract",
                                         "super"])
        with pytest.raises(ClassFormatError, match="ACC_FINAL and"):
            load(jclass)

    def test_interface_without_abstract_rejected(self):
        jclass = ClassBuilder("I1", modifiers=["public", "interface"]).build()
        with pytest.raises(ClassFormatError, match="ACC_ABSTRACT"):
            load(jclass)

    def test_interface_without_abstract_ok_when_lenient(self):
        jclass = ClassBuilder("I1", modifiers=["public", "interface"]).build()
        load(jclass, interface_requires_abstract_flag=False)

    def test_final_interface_rejected(self):
        jclass = ClassBuilder(
            "I2", modifiers=["public", "interface", "abstract",
                             "final"]).build()
        with pytest.raises(ClassFormatError, match="ACC_FINAL"):
            load(jclass)

    def test_version_ceiling(self):
        jclass = simple_class()
        jclass.major_version = 53
        with pytest.raises(UnsupportedClassVersionError):
            load(jclass, max_class_version=52)
        load(jclass, max_class_version=53)


class TestFieldChecks:
    def test_duplicate_fields_rejected(self):
        builder = ClassBuilder("F1").default_init()
        builder.field("x", INT, ["public"])
        builder.field("x", INT, ["public"])
        with pytest.raises(ClassFormatError, match="Duplicate field"):
            load(builder.build())

    def test_duplicate_fields_accepted_by_lenient_vendor(self):
        builder = ClassBuilder("F1").default_init()
        builder.field("x", INT, ["public"])
        builder.field("x", INT, ["public"])
        load(builder.build(), reject_duplicate_fields=False)

    def test_same_name_different_type_allowed(self):
        builder = ClassBuilder("F2").default_init()
        builder.field("x", INT, ["public"])
        builder.field("x", JType("java.lang.String"), ["public"])
        load(builder.build())

    def test_conflicting_visibility_rejected(self):
        builder = ClassBuilder("F3").default_init()
        builder.field("x", INT, ["public", "private"])
        with pytest.raises(ClassFormatError, match="conflicting visibility"):
            load(builder.build())

    def test_final_volatile_rejected(self):
        builder = ClassBuilder("F4").default_init()
        builder.field("x", INT, ["public", "final", "volatile"])
        with pytest.raises(ClassFormatError, match="final"):
            load(builder.build())

    def test_interface_field_must_be_constant(self):
        builder = ClassBuilder("I3", modifiers=["public", "interface",
                                                "abstract"])
        builder.field("x", INT, ["public"])
        with pytest.raises(ClassFormatError, match="public static final"):
            load(builder.build())

    def test_interface_constant_field_ok(self):
        builder = ClassBuilder("I4", modifiers=["public", "interface",
                                                "abstract"])
        builder.field("X", INT, ["public", "static", "final"])
        load(builder.build())


class TestMethodChecks:
    def test_duplicate_methods_rejected(self):
        builder = ClassBuilder("M1")
        for _ in range(2):
            method = MethodBuilder("dup", modifiers=["public"])
            method.ret()
            builder.method(method.build())
        with pytest.raises(ClassFormatError, match="Duplicate method"):
            load(builder.build())

    def test_overload_is_not_duplicate(self):
        builder = ClassBuilder("M2")
        first = MethodBuilder("f", VOID, [], ["public"])
        first.ret()
        second = MethodBuilder("f", VOID, [INT], ["public"])
        second.ret()
        builder.method(first.build()).method(second.build())
        load(builder.build())

    def test_static_init_rejected(self):
        builder = ClassBuilder("M3")
        method = MethodBuilder("<init>", modifiers=["public", "static"])
        method.ret()
        builder.method(method.build())
        with pytest.raises(ClassFormatError, match="<init>"):
            load(builder.build())

    def test_static_init_accepted_by_gij_style_policy(self):
        builder = ClassBuilder("M3")
        method = MethodBuilder("<init>", modifiers=["public", "static"])
        method.ret()
        builder.method(method.build())
        load(builder.build(), init_method_strict=False)

    def test_init_with_return_type_rejected(self):
        builder = ClassBuilder("M4")
        method = MethodBuilder("<init>", JType("java.lang.Thread"),
                               modifiers=["public"])
        method.ret()  # a body, so only the descriptor is at fault
        builder.method(method.build())
        with pytest.raises(ClassFormatError, match="return void"):
            load(builder.build())

    def test_abstract_with_body_rejected(self):
        builder = ClassBuilder("M5")
        method = MethodBuilder("m", modifiers=["public", "abstract"])
        method.ret()
        builder.method(method.build())
        with pytest.raises(ClassFormatError, match="Code attribute"):
            load(builder.build())

    def test_concrete_without_code_at_loading_when_j9_style(self):
        builder = ClassBuilder("M6")
        method = MethodBuilder("m", modifiers=["public"])
        method.abstract_body()
        builder.method(method.build())
        with pytest.raises(ClassFormatError, match="Absent Code"):
            load(builder.build(), code_presence_checked_at_loading=True)
        # HotSpot style defers the check to linking: loading succeeds.
        load(builder.build(), code_presence_checked_at_loading=False)

    def test_nonstatic_clinit_ordinary_under_se8_reading(self):
        """Problem 1: a non-static, code-less <clinit> in a v51 class."""
        builder = ClassBuilder("M7").default_init()
        method = MethodBuilder("<clinit>", modifiers=["public", "abstract"])
        method.abstract_body()
        builder.method(method.build())
        # HotSpot reading: of no consequence -> loads.
        load(builder.build(), treat_nonstatic_clinit_as_ordinary=True)
        # J9 reading: it is the initializer and lacks Code -> format error.
        with pytest.raises(ClassFormatError, match="no Code attribute"):
            load(builder.build(), treat_nonstatic_clinit_as_ordinary=False)

    def test_interface_method_must_be_public(self):
        builder = ClassBuilder("I5", modifiers=["public", "interface",
                                                "abstract"])
        method = MethodBuilder("m", modifiers=["private"])
        method.ret()
        builder.method(method.build())
        with pytest.raises(ClassFormatError, match="public"):
            load(builder.build())

    def test_static_interface_method_version_gate(self):
        builder = ClassBuilder("I6", modifiers=["public", "interface",
                                                "abstract"])
        method = MethodBuilder("m", modifiers=["public", "static"])
        method.ret()
        builder.method(method.build())
        jclass = builder.build()
        jclass.major_version = 51
        with pytest.raises(ClassFormatError, match="abstract"):
            load(jclass)
        jclass52 = builder.build()
        jclass52.major_version = 52
        load(jclass52)


# ---------------------------------------------------------------------------
# One parse for all vendors
# ---------------------------------------------------------------------------

#: Vendor order of :func:`all_jvms`.
VENDORS = ("hotspot7", "hotspot8", "hotspot9", "j9", "gij")
UCVE = "UnsupportedClassVersionError"
CFE = "ClassFormatError"


def demo_bytes():
    """A major-51 class every vendor runs to completion."""
    builder = ClassBuilder("Demo")
    builder.default_init()
    builder.main_printing("Completed!")
    return write_class(compile_class(builder.build()))


def with_major(data, major):
    return data[:6] + major.to_bytes(2, "big") + data[8:]


def broken_pool(data):
    # The first constant-pool entry's tag becomes an unknown tag.
    return data[:10] + b"\xff" + data[11:]


#: name → (rewrite of the demo bytes, each vendor's error or None).
CRAFTED = {
    "valid": (lambda d: d, (None,) * 5),
    "bad magic": (lambda d: b"\xca\xfe\xd0\x0d" + d[4:], (CFE,) * 5),
    "truncated header": (lambda d: d[:7], (CFE,) * 5),
    "major 44": (lambda d: with_major(d, 44), (UCVE,) * 5),
    "major 50": (lambda d: with_major(d, 50), (None,) * 5),
    "major 51": (lambda d: with_major(d, 51), (None,) * 5),
    "major 52": (lambda d: with_major(d, 52),
                 (UCVE, None, None, None, UCVE)),
    "major 53": (lambda d: with_major(d, 53),
                 (UCVE, UCVE, None, UCVE, UCVE)),
    "major 54": (lambda d: with_major(d, 54), (UCVE,) * 5),
    "trailing bytes": (lambda d: d + b"\x00\x00\x00",
                       (CFE, CFE, CFE, CFE, None)),
    # Version range first, trailing bytes last, the body's error between.
    "trailing bytes, major 52": (lambda d: with_major(d, 52) + b"\x00",
                                 (UCVE, CFE, CFE, CFE, UCVE)),
    "broken pool, trailing bytes": (lambda d: broken_pool(d) + b"\x00",
                                    (CFE,) * 5),
    "broken pool, major 54": (lambda d: broken_pool(with_major(d, 54)),
                              (UCVE,) * 5),
    "broken pool, major 50": (lambda d: broken_pool(with_major(d, 50)),
                              (CFE,) * 5),
    "broken pool, major 52": (lambda d: broken_pool(with_major(d, 52)),
                              (UCVE, CFE, CFE, CFE, UCVE)),
}


def count_reads(monkeypatch):
    calls = []
    real = ClassReader.read

    def read(self, data):
        calls.append(data)
        return real(self, data)

    monkeypatch.setattr(ClassReader, "read", read)
    return calls


class TestSharedParse:
    """Every five-vendor path gives each vendor the outcome (phase,
    error class, message) that vendor's own parse gives."""

    @pytest.mark.parametrize("name", sorted(CRAFTED))
    def test_five_vendor_paths_match_each_vendor_alone(self, name,
                                                       monkeypatch):
        rewrite, errors = CRAFTED[name]
        data = rewrite(demo_bytes())
        jvms = all_jvms()
        alone = [jvm.run(data) for jvm in jvms]
        assert [o.jvm_name for o in alone] == list(VENDORS)
        assert tuple(o.error for o in alone) == errors
        (serial,) = SerialExecutor().run_differential(jvms, [(name, data)])
        assert serial.outcomes == alone
        assert DifferentialHarness(jvms).run_one(data, name).outcomes \
            == alone
        monkeypatch.setattr(executor_module, "_WORKER_JVMS", jvms)
        outcomes, timings = executor_module._process_worker_run(
            data, range(len(jvms)))
        assert outcomes == alone and len(timings) == len(jvms)

    def test_messages_follow_each_vendors_range(self):
        parsed = parse_class(broken_pool(with_major(demo_bytes(), 52)))
        messages = {jvm.name: jvm.run(parsed).message for jvm in all_jvms()}
        assert "max supported 51.0" in messages["hotspot7"]
        assert "Unknown constant tag 255" in messages["hotspot8"]
        assert messages["gij"] == messages["hotspot7"]
        parsed = parse_class(broken_pool(demo_bytes()) + b"\x00")
        assert "Unknown constant tag" in make_gij().run(parsed).message

    def test_one_read_per_classfile_per_five_vendor_run(self, monkeypatch):
        calls = count_reads(monkeypatch)
        suite = [(name, rewrite(demo_bytes()))
                 for name, (rewrite, _) in sorted(CRAFTED.items())]
        # "major 51" is the demo's own version: the same bytes as "valid".
        distinct = len({data for _, data in suite})
        engine = make_executor()
        engine.run_differential(all_jvms(), suite)
        assert len(calls) == distinct == len(suite) - 1
        # Every vendor's outcome is cached now: nothing is parsed.
        engine.run_differential(all_jvms(), suite)
        assert len(calls) == distinct
        SerialExecutor().run_differential(all_jvms(), suite)
        assert len(calls) == distinct + len(suite)
        DifferentialHarness(all_jvms()).run_one(suite[0][1])
        assert len(calls) == distinct + len(suite) + 1

    def test_repro_run_parses_once(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "Demo.class"
        path.write_bytes(demo_bytes() + b"\x00")
        calls = count_reads(monkeypatch)
        assert main(["run", str(path)]) == 1
        assert len(calls) == 1
        lines = capsys.readouterr().out
        assert "Extra bytes at the end of class file (1 left)" in lines

    def test_version_rejected_reference_run_records_no_reader_site(self):
        engine = SerialExecutor()
        outcome, trace = engine.run_reference_many(
            reference_jvm(), [with_major(demo_bytes(), 54)])[0]
        assert outcome.error == UCVE
        assert "loader.parse" in trace.statements
        assert not [site for site in trace.statements
                    if site.startswith("reader.")]
        ((_, loaded),) = engine.run_reference_many(reference_jvm(),
                                                   [demo_bytes()])
        assert any(site.startswith("reader.") for site in loaded.statements)

    def test_read_class_applies_its_options(self):
        data = with_major(demo_bytes(), 53) + b"\x00"
        with pytest.raises(UnsupportedClassVersionError):
            read_class(data)
        parsed = parse_class(data)
        assert (parsed.major, parsed.trailing, parsed.error) == (53, 1, None)


# ---------------------------------------------------------------------------
# One decode per Code attribute
# ---------------------------------------------------------------------------

def switch_trap_bytes():
    """A class whose helper holds switches and a trap, called from main."""
    rng = random.Random(3)
    helper = MethodBuilder("work", VOID, [], ["public", "static"])
    for counter in range(3):
        (switch_shape if counter % 2 == 0 else trap_shape)(
            rng, helper, counter)
    helper.ret()
    builder = ClassBuilder("Shapes")
    builder.default_init()
    builder.method(helper.build())
    builder.main_printing("done")
    return write_class(compile_class(builder.build()))


def code_attributes(classfile):
    return [method.code for method in classfile.methods
            if method.code is not None]


class TestSharedDecode:
    def test_one_decode_per_code_attribute_per_parse(self, monkeypatch):
        calls = []
        real = instructions.decode_code

        def decode_code(code):
            calls.append(code)
            return real(code)

        monkeypatch.setattr(instructions, "decode_code", decode_code)
        data = switch_trap_bytes()
        parsed = parse_class(data)
        outcomes = [jvm.run(parsed) for jvm in all_jvms()]
        assert all(outcome.ok for outcome in outcomes)
        codes = code_attributes(parsed.classfile)
        assert len(codes) == 3
        assert sorted(calls) == sorted(code.code for code in codes)
        calls.clear()
        SerialExecutor().run_differential(all_jvms(), [("Shapes", data)])
        assert len(calls) == 3

    def test_runs_leave_the_shared_decode_untouched(self):
        parsed = parse_class(switch_trap_bytes())
        for jvm in all_jvms():
            jvm.run(parsed)
        for code in code_attributes(parsed.classfile):
            assert list(code.decoded()) == instructions.decode_code(code.code)

    def test_decode_never_reaches_a_pickle(self):
        parsed = parse_class(switch_trap_bytes())
        for jvm in all_jvms():
            jvm.run(parsed)
        for code in code_attributes(parsed.classfile):
            fresh = CodeAttribute(code.max_stack, code.max_locals, code.code,
                                  code.exception_table, code.attributes)
            assert pickle.dumps(code) == pickle.dumps(fresh)
            assert "_decoded" not in vars(pickle.loads(pickle.dumps(code)))

    def test_replaced_code_is_decoded_again(self):
        code = CodeAttribute(1, 1, bytes([0x00, 0xB1]))
        assert [i.mnemonic for i in code.decoded()] == ["nop", "return"]
        code.code = bytes([0xB1])
        assert [i.mnemonic for i in code.decoded()] == ["return"]

    def test_bad_code_raises_each_time_from_one_decode(self, monkeypatch):
        calls = []
        real = instructions.decode_code
        monkeypatch.setattr(instructions, "decode_code",
                            lambda code: calls.append(code) or real(code))
        code = CodeAttribute(1, 1, bytes([0xFD]))
        for _ in range(3):
            with pytest.raises(InstructionError, match="unknown opcode"):
                code.decoded()
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# One verification per method per verifier configuration
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fixture_suite():
    """The 286 classfiles every vendor's golden runs are pinned on."""
    return vendor_suite()


def verdict(outcome):
    return outcome.phase, outcome.error, outcome.message, outcome.output


def count_verifications(monkeypatch):
    calls = []
    real = MethodVerifier.verify

    def verify(self):
        calls.append(self.where)
        return real(self)

    monkeypatch.setattr(MethodVerifier, "verify", verify)
    return calls


def trace_of(jvm, data):
    collector = CoverageCollector()
    with collector:
        jvm.run(data)
    trace = collector.tracefile()
    return trace.statements, trace.branches


class _NoLibrary:
    """A library the verifier must not consult."""

    def find(self, name):
        raise AssertionError(f"the verifier consulted the library: {name}")

    is_subclass_of = is_throwable = find


def verification_outcome(classfile, method, policy, library):
    try:
        MethodVerifier(classfile, method, method.code, policy,
                       library).verify()
    except JavaError as exc:
        return type(exc), exc.message
    return None


class TestSharedVerification:
    @pytest.mark.parametrize("engine", ["serial", "process"])
    def test_every_vendor_keeps_its_own_verdict(self, fixture_suite, engine):
        jvms = all_jvms()
        alone = [[verdict(jvm.run(data)) for jvm in jvms]
                 for _, data in fixture_suite]
        with (SerialExecutor() if engine == "serial"
              else ProcessExecutor(jobs=2)) as executor:
            results = executor.run_differential(jvms, fixture_suite)
        assert [[verdict(outcome) for outcome in result.outcomes]
                for result in results] == alone

    def test_the_hotspots_verify_each_method_once(self, monkeypatch,
                                                  tmp_path):
        calls = count_verifications(monkeypatch)
        data = switch_trap_bytes()
        parsed = parse_class(data)
        per_vendor = []
        for jvm in all_jvms():
            before = len(calls)
            assert jvm.run(parsed).ok
            per_vendor.append(len(calls) - before)
        # <init>, work and main: hotspot7 verifies them for all three
        # hotspots, lazy j9 only main, and gij (its own library) all.
        assert per_vendor == [3, 0, 0, 1, 3]
        path = tmp_path / "Shapes.class"
        path.write_bytes(data)
        monkeypatch.setattr(executor_module, "_WORKER_JVMS", all_jvms())
        for five_vendor_run in (
                lambda: SerialExecutor().run_differential(
                    all_jvms(), [("Shapes", data)]),
                lambda: DifferentialHarness(all_jvms()).run_one(data),
                lambda: executor_module._process_worker_run(data, range(5)),
                lambda: main(["run", str(path)])):
            calls.clear()
            five_vendor_run()
            assert len(calls) == 7
        # A run on bytes never consults a memo.
        calls.clear()
        for jvm in all_jvms():
            jvm.run(data)
        assert len(calls) == 13

    def test_a_hit_raises_a_copy_of_the_missed_error(self, fixture_suite,
                                                     monkeypatch):
        raised = []
        real = Linker.verify_method

        def verify_method(self, *args):
            try:
                real(self, *args)
            except JavaError as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(Linker, "verify_method", verify_method)
        hotspot8, hotspot9 = all_jvms()[1:3]
        for _, data in fixture_suite:
            parsed = parse_class(data)
            outcome = hotspot8.run(parsed)
            if raised:
                break
        calls = count_verifications(monkeypatch)
        assert verdict(hotspot9.run(parsed)) == verdict(outcome)
        assert not calls
        miss, hit = raised
        assert type(hit) is type(miss) and hit.message == miss.message
        assert vars(hit) == vars(miss)
        (stored,) = [error for error in parsed.verified.values() if error]
        assert len({id(miss), id(hit), id(stored)}) == 3

    def test_a_memo_hit_never_reaches_coverage(self, fixture_suite):
        jvms = all_jvms()
        for _, data in fixture_suite:
            shared = parse_class(data)
            for jvm in jvms[:3]:
                jvm.run(shared)
            for jvm in jvms:
                assert trace_of(jvm, shared) == \
                    trace_of(jvm, parse_class(data))

    def test_copies_and_pickles_drop_the_memo(self):
        parsed = parse_class(switch_trap_bytes())
        for jvm in all_jvms():
            jvm.run(parsed)
        assert parsed.verified
        for other in (copy.copy(parsed), copy.deepcopy(parsed),
                      pickle.loads(pickle.dumps(parsed))):
            assert other.verified == {}
        assert copy.copy(parsed).classfile is parsed.classfile

    def test_the_key_names_every_policy_field_the_verifier_reads(self):
        source = Path(verifier_module.__file__).read_text()
        read = set(re.findall(r"\bpolicy\.(\w+)", source))
        assert read == set(VERIFIER_POLICY_FIELDS)
        assert read <= {field.name for field in fields(JvmPolicy)}

    def test_the_hotspots_never_consult_their_library(self, fixture_suite):
        """Why the library may stay out of the hotspots' key: a library
        that raises when consulted changes none of their outcomes, while
        gij, whose key holds its library, does consult it."""
        hotspots, gij = all_jvms()[:3], make_gij()
        consulted = 0
        for _, data in fixture_suite:
            classfile = parse_class(data).classfile
            if classfile is None:
                continue
            for method in classfile.methods:
                if method.code is None:
                    continue
                for jvm in hotspots:
                    assert verification_outcome(
                        classfile, method, jvm.policy, _NoLibrary()) == \
                        verification_outcome(classfile, method, jvm.policy,
                                             jvm.linker.library)
                try:
                    verification_outcome(classfile, method, gij.policy,
                                         _NoLibrary())
                except AssertionError:
                    consulted += 1
        assert consulted
