"""Codec pin: every truncation and fixed byte flips of a few Code arrays.

Every Code array that a simulated JVM verifies or runs goes through
``decode_code``, and every method body the compiler emits goes through
``encode_with_layout``.  This fixture pins both on damaged bytes: a crafted
Code array holding every opcode at the bounds of its operands, every
``wide`` form and both switches at all four alignments; a second one whose
branches and switches sit at the bounds of their offsets; and the Code
arrays of the first three distinct seed-1 randfuzz mutants.  Each is cut
at every length and hit by a fixed set of byte flips, and a list of
crafted one-instruction forms (every byte after ``wide``, every unknown
opcode, broken switch headers) is decoded whole.  Every record is either
the decoder's exact ``InstructionError`` message, or a digest of the
decoded instructions (offsets, opcodes, operand names, values and their
order) followed by a digest of their re-encoding or the encoder's message.

Regenerate only for a change that means to move what the codec decodes,
encodes or reports, and say so where the change is recorded::

    PYTHONPATH=src python tests/test_codec_golden.py > tests/data/golden_codec.json
"""

from __future__ import annotations

import hashlib
import json
import random
import struct
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from repro.bytecode.instructions import (
    InstructionError,
    decode_code,
    encode_code,
)
from repro.bytecode.opcodes import OPCODES, Op
from repro.classfile.reader import parse_class
from repro.core.fuzzing import randfuzz
from repro.corpus import CorpusConfig, generate_corpus

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_codec.json"

#: Single-byte flips per Code array, then three-byte flips.
SINGLE_FLIPS = 64
TRIPLE_FLIPS = 16

#: Operand-kind name → its smallest and largest encodings.
_BOUNDS = {
    "s1": (b"\x80", b"\x7f"),
    "s2": (b"\x80\x00", b"\x7f\xff"),
    "atype": (b"\x00", b"\xff"),
    "local1": (b"\x00", b"\xff"),
    "cp1": (b"\x00", b"\xff"),
    "cp2": (b"\x00\x00", b"\xff\xff"),
    "iinc": (b"\x00\x80", b"\xff\x7f"),
    "invokeinterface": (b"\x00\x00", b"\xff\xff"),
    "invokedynamic": (b"\x00\x00", b"\xff\xff"),
    "multianewarray": (b"\x00\x00\x00", b"\xff\xff\xff"),
}

#: The opcodes ``wide`` modifies: the loads, stores and ret, then iinc.
_WIDE_LOCALS = (Op.ILOAD, Op.LLOAD, Op.FLOAD, Op.DLOAD, Op.ALOAD,
                Op.ISTORE, Op.LSTORE, Op.FSTORE, Op.DSTORE, Op.ASTORE,
                Op.RET)


def _digest(payload: object, width: int = 16) -> str:
    text = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:width]


def _switch(out: bytearray, op: Op, keys: List[int],
            deltas: Tuple[int, int]) -> None:
    """Append a switch at ``len(out)``: its default branches to ``deltas[0]``
    and its cases alternate between both deltas.  A tableswitch takes
    ``keys`` as ``[low, high]``, a lookupswitch as its match values."""
    out += bytes([op]) + b"\x00" * ((4 - (len(out) + 1) % 4) % 4)
    out += struct.pack(">i", deltas[0])
    if op is Op.TABLESWITCH:
        low, high = keys
        out += struct.pack(">ii", low, high)
        for case in range(high - low + 1):
            out += struct.pack(">i", deltas[case % 2])
    else:
        out += struct.pack(">i", len(keys))
        for case, match in enumerate(keys):
            out += struct.pack(">ii", match, deltas[case % 2])


def crafted_code() -> bytes:
    """Every opcode at its operand bounds, every ``wide`` form at both
    index bounds, and both switches at all four alignments.  Every branch
    goes to itself or to offset 0, so the array re-encodes."""
    out = bytearray()
    for code, info in OPCODES.items():
        if info.op in (Op.WIDE_PREFIX, Op.TABLESWITCH, Op.LOOKUPSWITCH):
            continue
        kinds = info.operands
        if kinds and kinds[0] in ("branch2", "branch4"):
            fmt = ">h" if kinds[0] == "branch2" else ">i"
            out += bytes([code]) + struct.pack(fmt, 0)
            out += bytes([code]) + struct.pack(fmt, -len(out))
            continue
        for bound in (0, 1):
            out += bytes([code])
            for kind in kinds:
                out += _BOUNDS[kind][bound]
    for op in _WIDE_LOCALS:
        for index in (0, 0xFFFF):
            out += bytes([Op.WIDE_PREFIX, op]) + struct.pack(">H", index)
    for index, const in ((0, -0x8000), (0xFFFF, 0x7FFF)):
        out += bytes([Op.WIDE_PREFIX, Op.IINC]) \
            + struct.pack(">Hh", index, const)
    for alignment in range(4):
        for op, keys in ((Op.TABLESWITCH, [-2 ** 31, -2 ** 31 + 2]),
                         (Op.TABLESWITCH, [2 ** 31 - 1, 2 ** 31 - 1]),
                         (Op.LOOKUPSWITCH, [-2 ** 31, 0, 2 ** 31 - 1]),
                         (Op.LOOKUPSWITCH, [])):
            while len(out) % 4 != alignment:
                out += bytes([Op.NOP])
            _switch(out, op, keys, (0, -len(out)))
    out += bytes([Op.RETURN])
    return bytes(out)


def bounds_code() -> bytes:
    """Branches and switches whose offsets sit at the bounds of their
    fields: each decodes, and none names an instruction to re-encode to."""
    out = bytearray()
    for op, fmt in ((Op.GOTO, ">h"), (Op.IFNULL, ">h"), (Op.JSR, ">h"),
                    (Op.GOTO_W, ">i"), (Op.JSR_W, ">i")):
        for delta in ((-0x8000, 0x7FFF) if fmt == ">h"
                      else (-2 ** 31, 2 ** 31 - 1)):
            out += bytes([op]) + struct.pack(fmt, delta)
    for alignment in range(4):
        while len(out) % 4 != alignment:
            out += bytes([Op.NOP])
        _switch(out, Op.TABLESWITCH, [0, 1], (-2 ** 31, 2 ** 31 - 1))
        _switch(out, Op.LOOKUPSWITCH, [5, 6], (2 ** 31 - 1, -2 ** 31))
    return bytes(out)


def crafted_forms() -> List[bytes]:
    """One-instruction forms, each decoded whole: ``wide`` before every
    byte, every unknown opcode, and broken switch headers."""
    forms = [bytes([Op.WIDE_PREFIX, modified]) + b"\xff\xfe\x00\x00"
             for modified in range(256)]
    forms += [bytes([code, 0, 0, 0]) for code in range(256)
              if code not in OPCODES]
    for header in ((0, 5, 4), (0, 0, 0xFFFF), (0, 0, 0xFFFE),
                   (0, -2 ** 31, 2 ** 31 - 1)):
        forms.append(bytes([Op.NOP, Op.NOP, Op.NOP, Op.TABLESWITCH])
                     + struct.pack(">iii", *header))
    for npairs in (-1, -2 ** 31, 2 ** 31 - 1, 1):
        forms.append(bytes([Op.LOOKUPSWITCH, 0, 0, 0])
                     + struct.pack(">ii", 0, npairs))
    return forms


def codec_suite() -> List[Tuple[str, bytes]]:
    """The pinned Code arrays as ``(label, bytes)``: the two crafted
    arrays, then every Code array of the first three distinct seed-1
    randfuzz mutants."""
    suite = [("crafted", crafted_code()), ("bounds", bounds_code())]
    seeds = generate_corpus(CorpusConfig(count=8, seed=1))
    seen = set()
    for generated in randfuzz(seeds, iterations=12, seed=1).test_classes:
        if generated.data in seen or len(seen) == 3:
            continue
        seen.add(generated.data)
        classfile = parse_class(generated.data).classfile
        for number, method in enumerate(classfile.methods):
            if method.code is not None:
                suite.append((f"{generated.label}.{number}",
                              method.code.code))
    return suite


def _operand(value: object) -> object:
    if isinstance(value, list):
        return [_operand(item) for item in value]
    if isinstance(value, tuple):
        return ["tuple"] + [_operand(item) for item in value]
    return [type(value).__name__, value]


def codec_record(code: bytes) -> str:
    """What one decode of ``code`` and one re-encode of it give, as one line."""
    try:
        instructions = decode_code(code)
    except InstructionError as exc:
        return f"E {exc}"
    decoded = _digest([[instruction.offset, int(instruction.op),
                        [[name, _operand(value)] for name, value
                         in instruction.operands.items()]]
                       for instruction in instructions])
    try:
        encoded = encode_code(instructions)
    except InstructionError as exc:
        return f"ok {decoded} | E {exc}"
    same = "=" if encoded == code else hashlib.sha256(encoded).hexdigest()[:16]
    return f"ok {decoded} | {same}"


def flipped(data: bytes, label: str) -> List[bytes]:
    """The fixed byte-flip variants of one Code array."""
    rng = random.Random(label)
    variants = []
    for flips in [1] * SINGLE_FLIPS + [3] * TRIPLE_FLIPS:
        damaged = bytearray(data)
        for _ in range(flips):
            damaged[rng.randrange(len(data))] ^= rng.randrange(1, 256)
        variants.append(bytes(damaged))
    return variants


def code_records(label: str, data: bytes) -> Dict[str, List[str]]:
    return {"truncated": [codec_record(data[:length])
                          for length in range(len(data) + 1)],
            "flipped": [codec_record(variant)
                        for variant in flipped(data, label)]}


def record() -> Dict[str, object]:
    """The fixture's content for the code as it stands."""
    suite = codec_suite()
    return {
        "suite": [[label, hashlib.sha256(data).hexdigest()[:16]]
                  for label, data in suite],
        "records": {label: code_records(label, data)
                    for label, data in suite},
        "forms": [codec_record(form) for form in crafted_forms()],
    }


def test_codec_matches_golden_records():
    golden = json.loads(GOLDEN_PATH.read_text())
    suite = codec_suite()
    assert [[label, hashlib.sha256(data).hexdigest()[:16]]
            for label, data in suite] == golden["suite"], \
        "the suite itself changed: corpus, randfuzz or compiler output moved"
    for label, data in suite:
        actual = code_records(label, data)
        for kind in ("truncated", "flipped"):
            expected = golden["records"][label][kind]
            assert len(actual[kind]) == len(expected)
            for position, (got, want) in enumerate(zip(actual[kind],
                                                       expected)):
                assert got == want, (
                    f"{label} {kind} #{position}: {got!r} != golden {want!r}")
    forms = crafted_forms()
    assert len(forms) == len(golden["forms"])
    for form, want in zip(forms, golden["forms"]):
        got = codec_record(form)
        assert got == want, f"form {form.hex()}: {got!r} != golden {want!r}"


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
