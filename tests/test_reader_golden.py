"""Reader pin: every truncation and a fixed set of byte flips of a few classes.

The classfile reader runs once per mutant on the reference JVM, and its
``reader.*`` probes are coverage.  This fixture pins what it makes of
damaged bytes: a crafted class holding every constant-pool tag (Long and
Double holes, MethodHandle, MethodType and InvokeDynamic included) and a
few seed-1 mutants, each cut at every length and hit by a fixed set of
byte flips.  Every record is either the format error's class and exact
message, or a digest of the parsed pool, members, attributes and
trailing-byte count; both carry a digest of the reader's probe counts in
first-hit order.

Regenerate only for a change that means to move what the reader accepts,
its messages or its probes, and say so where the change is recorded::

    PYTHONPATH=src python tests/test_reader_golden.py > tests/data/golden_reader.json
"""

from __future__ import annotations

import hashlib
import json
import random
import struct
import sys
from pathlib import Path
from typing import Dict, List, Tuple

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
from repro.classfile.fields import FieldInfo
from repro.classfile.methods import MethodInfo
from repro.classfile.model import ClassFile
from repro.classfile.reader import parse_class
from repro.classfile.writer import write_class
from repro.core.fuzzing import randfuzz
from repro.corpus import CorpusConfig, generate_corpus
from repro.coverage.probes import CoverageCollector

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_reader.json"

#: Single-byte flips per class, then three-byte flips per class.
SINGLE_FLIPS = 96
TRIPLE_FLIPS = 32


def _digest(payload: object, width: int = 16) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:width]


def crafted_class() -> bytes:
    """A class whose pool holds every tag the reader knows."""
    pool = ConstantPool()
    this_class = pool.class_ref("golden/AllTags")
    super_class = pool.class_ref("java/lang/Object")
    runnable = pool.class_ref("java/lang/Runnable")
    pool.string("café 中")
    pool.integer(-7)
    pool.float_(1.5)
    pool.long(-(2 ** 40))
    pool.double(-0.0)
    pool.float_(float("nan"))
    field_ref = pool.field_ref("golden/AllTags", "count", "I")
    init_ref = pool.method_ref("java/lang/Object", "<init>", "()V")
    run_ref = pool.interface_method_ref("java/lang/Runnable", "run", "()V")
    pool.add(CpInfo(CpTag.METHOD_TYPE, (pool.utf8("()V"),)))
    pool.add(CpInfo(CpTag.METHOD_HANDLE, (5, run_ref)))
    pool.add(CpInfo(CpTag.INVOKE_DYNAMIC,
                    (0, pool.name_and_type("run", "()Ljava/lang/Runnable;"))))
    pool.double(2.5e300)
    exception = pool.class_ref("java/lang/Exception")
    code = (b"\x2a\xb7" + struct.pack(">H", init_ref)
            + b"\x2a\x03\xb5" + struct.pack(">H", field_ref) + b"\xb1")
    init = MethodInfo(
        AccessFlags.PUBLIC, pool.utf8("<init>"), pool.utf8("()V"),
        [CodeAttribute(2, 1, code,
                       [ExceptionHandler(0, 4, 9, exception)],
                       [RawAttribute("LineNumberTable", b"\x00\x01\x00\x00\x00\x07")]),
         ExceptionsAttribute([exception])])
    count = FieldInfo(AccessFlags.PRIVATE | AccessFlags.STATIC,
                      pool.utf8("count"), pool.utf8("I"),
                      [ConstantValueAttribute(pool.integer(3))])
    classfile = ClassFile(
        constant_pool=pool,
        access_flags=AccessFlags.PUBLIC | AccessFlags.SUPER,
        this_class=this_class, super_class=super_class,
        interfaces=[runnable], fields=[count], methods=[init],
        attributes=[SourceFileAttribute(pool.utf8("AllTags.java")),
                    RawAttribute("Custom", b"\x01\x02\x03")])
    return write_class(classfile)


def reader_suite() -> List[Tuple[str, bytes]]:
    """The pinned classes as ``(label, bytes)``: the crafted class, then
    the first three distinct seed-1 randfuzz mutants."""
    suite = [("crafted", crafted_class())]
    seeds = generate_corpus(CorpusConfig(count=8, seed=1))
    seen = set()
    for generated in randfuzz(seeds, iterations=12, seed=1).test_classes:
        if generated.data not in seen and len(suite) < 4:
            seen.add(generated.data)
            suite.append((generated.label, generated.data))
    return suite


def _value(value: object) -> object:
    if isinstance(value, float):
        return struct.pack(">d", value).hex()
    if isinstance(value, tuple):
        return list(value)
    return value


def _attribute(attr) -> list:
    if isinstance(attr, CodeAttribute):
        return ["Code", attr.name, attr.max_stack, attr.max_locals,
                attr.code.hex(),
                [[h.start_pc, h.end_pc, h.handler_pc, h.catch_type]
                 for h in attr.exception_table],
                [_attribute(nested) for nested in attr.attributes]]
    if isinstance(attr, ExceptionsAttribute):
        return ["Exceptions", attr.name, list(attr.exception_indices)]
    if isinstance(attr, ConstantValueAttribute):
        return ["ConstantValue", attr.name, attr.constant_index]
    if isinstance(attr, SourceFileAttribute):
        return ["SourceFile", attr.name, attr.sourcefile_index]
    return ["Raw", attr.name, attr.data.hex()]


def _member(member) -> list:
    return [int(member.access_flags), member.name_index,
            member.descriptor_index,
            [_attribute(attr) for attr in member.attributes]]


def parse_record(data: bytes) -> str:
    """What one parse of ``data`` gives, as one line."""
    collector = CoverageCollector()
    with collector:
        parsed = parse_class(data)
    probes = _digest(list(collector.tracefile().statements.items()), 12)
    if parsed.error is not None:
        return (f"{type(parsed.error).__name__}: {parsed.error.message} "
                f"| {probes}")
    classfile = parsed.classfile
    pool = classfile.constant_pool
    return "ok " + _digest([
        parsed.major, parsed.minor, len(pool),
        [[index, int(info.tag), _value(info.value)] for index, info in pool],
        int(classfile.access_flags), classfile.this_class,
        classfile.super_class, list(classfile.interfaces),
        [_member(f) for f in classfile.fields],
        [_member(m) for m in classfile.methods],
        [_attribute(a) for a in classfile.attributes],
        parsed.trailing]) + f" | {probes}"


def flipped(data: bytes, label: str) -> List[bytes]:
    """The fixed byte-flip variants of one class."""
    rng = random.Random(label)
    variants = []
    for flips in [1] * SINGLE_FLIPS + [3] * TRIPLE_FLIPS:
        damaged = bytearray(data)
        for _ in range(flips):
            damaged[rng.randrange(len(data))] ^= rng.randrange(1, 256)
        variants.append(bytes(damaged))
    return variants


def class_records(label: str, data: bytes) -> Dict[str, List[str]]:
    return {"truncated": [parse_record(data[:length])
                          for length in range(len(data) + 1)],
            "flipped": [parse_record(variant)
                        for variant in flipped(data, label)]}


def record() -> Dict[str, object]:
    """The fixture's content for the code as it stands."""
    suite = reader_suite()
    return {
        "suite": [[label, hashlib.sha256(data).hexdigest()[:16]]
                  for label, data in suite],
        "records": {label: class_records(label, data)
                    for label, data in suite},
    }


def test_reader_matches_golden_records():
    golden = json.loads(GOLDEN_PATH.read_text())
    suite = reader_suite()
    assert [[label, hashlib.sha256(data).hexdigest()[:16]]
            for label, data in suite] == golden["suite"], \
        "the suite itself changed: corpus, randfuzz or compiler output moved"
    for label, data in suite:
        actual = class_records(label, data)
        for kind in ("truncated", "flipped"):
            expected = golden["records"][label][kind]
            assert len(actual[kind]) == len(expected)
            for position, (got, want) in enumerate(zip(actual[kind],
                                                       expected)):
                assert got == want, (
                    f"{label} {kind} #{position}: {got!r} != golden {want!r}")


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
