"""Golden-value tests for the interpreter's JVM arithmetic semantics.

Each case pins an opcode family to the value the JVM specification
mandates (JVMS §6.5): NaN ordering in the fcmp/dcmp pairs, two's-
complement negation wrap, narrowing-conversion truncation, float-to-
integral NaN/infinity saturation, and 64-bit bitwise/shift masking.
The policy-axis variants (`fcmpg_nan_result`, the lax branch of
`strict_narrowing_conversions`) are asserted alongside the spec
behaviour so a vendor-policy regression cannot pass silently.
"""

import math

import pytest

from repro.bytecode.opcodes import Op
from repro.classfile.reader import read_class
from repro.classfile.writer import write_class
from repro.jimple import ClassBuilder, MethodBuilder, compile_class
from repro.jimple.statements import AssignCmpStmt, AssignUnopStmt, ReturnStmt
from repro.jimple.types import DOUBLE, FLOAT, INT, JType, LONG
from repro.jvm.interpreter import _ARITH, Interpreter
from repro.jvm.policy import JvmPolicy
from repro.runtime.environment import build_environment

INT_MIN, INT_MAX = -0x80000000, 0x7FFFFFFF
LONG_MIN, LONG_MAX = -0x8000000000000000, 0x7FFFFFFFFFFFFFFF

NAN = float("nan")
INF = float("inf")


def _invoke(jclass, **policy_overrides):
    """Compile, reload, and run the static ``f`` method; return its value."""
    data = write_class(compile_class(jclass))
    classfile = read_class(data)
    interp = Interpreter(classfile, JvmPolicy(**policy_overrides),
                         build_environment(8))
    method = classfile.find_method("f")
    assert method is not None
    return interp.invoke_method(method, [])


def run_unop(op, value, src_type, dst_type, **policy_overrides):
    """``f() { $src = value; $dst = <op> $src; return $dst; }``"""
    builder = ClassBuilder("T")
    method = MethodBuilder("f", dst_type, [], ["public", "static"])
    method.local("$src", src_type)
    method.local("$dst", dst_type)
    method.const("$src", value, src_type)
    method.stmt(AssignUnopStmt("$dst", op, "$src"))
    method.stmt(ReturnStmt("$dst"))
    builder.method(method.build())
    return _invoke(builder.build(), **policy_overrides)


def run_cmp(op, left, right, operand_type, **policy_overrides):
    """``f() { $l = left; $r = right; $c = $l <op> $r; return $c; }``"""
    builder = ClassBuilder("T")
    method = MethodBuilder("f", INT, [], ["public", "static"])
    method.local("$l", operand_type)
    method.local("$r", operand_type)
    method.local("$c", INT)
    method.const("$l", left, operand_type)
    method.const("$r", right, operand_type)
    method.stmt(AssignCmpStmt("$c", "$l", op, "$r"))
    method.stmt(ReturnStmt("$c"))
    builder.method(method.build())
    return _invoke(builder.build(), **policy_overrides)


class TestFloatCompareNaN:
    """fcmpl/fcmpg/dcmpl/dcmpg: NaN pushes -1 (l) or +1 (g), JVMS §6.5."""

    @pytest.mark.parametrize("op, jtype, expected", [
        ("fcmpl", FLOAT, -1), ("fcmpg", FLOAT, 1),
        ("dcmpl", DOUBLE, -1), ("dcmpg", DOUBLE, 1),
    ])
    def test_nan_left(self, op, jtype, expected):
        assert run_cmp(op, NAN, 0.0, jtype) == expected

    @pytest.mark.parametrize("op, jtype, expected", [
        ("fcmpl", FLOAT, -1), ("fcmpg", FLOAT, 1),
        ("dcmpl", DOUBLE, -1), ("dcmpg", DOUBLE, 1),
    ])
    def test_nan_right(self, op, jtype, expected):
        assert run_cmp(op, 1.5, NAN, jtype) == expected

    @pytest.mark.parametrize("op, jtype", [
        ("fcmpl", FLOAT), ("fcmpg", FLOAT),
        ("dcmpl", DOUBLE), ("dcmpg", DOUBLE),
    ])
    def test_ordered_operands_agree(self, op, jtype):
        assert run_cmp(op, 1.0, 2.0, jtype) == -1
        assert run_cmp(op, 2.0, 1.0, jtype) == 1
        assert run_cmp(op, 3.5, 3.5, jtype) == 0

    def test_lcmp(self):
        assert run_cmp("lcmp", LONG_MIN, LONG_MAX, LONG) == -1
        assert run_cmp("lcmp", LONG_MAX, LONG_MIN, LONG) == 1
        assert run_cmp("lcmp", 7, 7, LONG) == 0

    def test_folded_vendor_axis(self):
        # gij's fcmpg_nan_result=0 folds both NaN results to zero.
        assert run_cmp("fcmpg", NAN, 0.0, FLOAT, fcmpg_nan_result=0) == 0
        assert run_cmp("fcmpl", NAN, 0.0, FLOAT, fcmpg_nan_result=0) == 0
        assert run_cmp("dcmpg", NAN, 0.0, DOUBLE, fcmpg_nan_result=0) == 0


class TestNegationWrap:
    """ineg/lneg: negating MIN_VALUE wraps back to MIN_VALUE."""

    @pytest.mark.parametrize("value, expected", [
        (5, -5), (-5, 5), (0, 0), (INT_MAX, -INT_MAX),
        (INT_MIN, INT_MIN),
    ])
    def test_ineg(self, value, expected):
        assert run_unop("ineg", value, INT, INT) == expected

    @pytest.mark.parametrize("value, expected", [
        (5, -5), (0, 0), (LONG_MAX, -LONG_MAX), (LONG_MIN, LONG_MIN),
    ])
    def test_lneg(self, value, expected):
        assert run_unop("lneg", value, LONG, LONG) == expected

    def test_fneg_dneg(self):
        assert run_unop("fneg", 2.5, FLOAT, FLOAT) == -2.5
        assert run_unop("dneg", -4.0, DOUBLE, DOUBLE) == 4.0


class TestNarrowingTruncation:
    """i2b/i2c/i2s truncate and sign-extend per JVMS §6.5."""

    @pytest.mark.parametrize("value, expected", [
        (300, 44), (128, -128), (-129, 127), (255, -1), (44, 44),
    ])
    def test_i2b(self, value, expected):
        assert run_unop("i2b", value, INT, INT) == expected

    @pytest.mark.parametrize("value, expected", [
        (-1, 65535), (65536, 0), (0x12345, 0x2345), (97, 97),
    ])
    def test_i2c(self, value, expected):
        assert run_unop("i2c", value, INT, INT) == expected

    @pytest.mark.parametrize("value, expected", [
        (0x8000, -0x8000), (65535, -1), (0x12345, 0x2345), (-42, -42),
    ])
    def test_i2s(self, value, expected):
        assert run_unop("i2s", value, INT, INT) == expected

    def test_lax_vendor_passthrough(self):
        # The lax axis only wraps to 32 bits — i2b(300) stays 300.
        lax = dict(strict_narrowing_conversions=False)
        assert run_unop("i2b", 300, INT, INT, **lax) == 300
        assert run_unop("i2c", -1, INT, INT, **lax) == -1
        assert run_unop("i2s", 65535, INT, INT, **lax) == 65535

    def test_i2l_l2i(self):
        assert run_unop("i2l", -7, INT, LONG) == -7
        assert run_unop("l2i", 0x1_0000_0001, LONG, INT) == 1
        assert run_unop("l2i", LONG_MIN, LONG, INT) == 0


class TestFloatToIntegral:
    """f2i/d2i/f2l/d2l: NaN is 0, infinities saturate, JVMS §6.5."""

    @pytest.mark.parametrize("op, src, dst", [
        ("f2i", FLOAT, INT), ("d2i", DOUBLE, INT),
        ("f2l", FLOAT, LONG), ("d2l", DOUBLE, LONG),
    ])
    def test_nan_is_zero(self, op, src, dst):
        assert run_unop(op, NAN, src, dst) == 0

    @pytest.mark.parametrize("op, src, expected", [
        ("f2i", FLOAT, INT_MAX), ("d2i", DOUBLE, INT_MAX),
        ("f2l", FLOAT, LONG_MAX), ("d2l", DOUBLE, LONG_MAX),
    ])
    def test_positive_infinity_saturates(self, op, src, expected):
        dst = INT if expected == INT_MAX else LONG
        assert run_unop(op, INF, src, dst) == expected

    @pytest.mark.parametrize("op, src, expected", [
        ("f2i", FLOAT, INT_MIN), ("d2i", DOUBLE, INT_MIN),
        ("f2l", FLOAT, LONG_MIN), ("d2l", DOUBLE, LONG_MIN),
    ])
    def test_negative_infinity_saturates(self, op, src, expected):
        dst = INT if expected == INT_MIN else LONG
        assert run_unop(op, -INF, src, dst) == expected

    def test_out_of_range_saturates(self):
        assert run_unop("f2i", 1e12, FLOAT, INT) == INT_MAX
        assert run_unop("d2i", -1e12, DOUBLE, INT) == INT_MIN

    def test_in_range_truncates_toward_zero(self):
        assert run_unop("f2i", 3.9, FLOAT, INT) == 3
        assert run_unop("d2i", -3.9, DOUBLE, INT) == -3
        assert run_unop("d2l", 2.5, DOUBLE, LONG) == 2

    def test_lax_vendor_nan_is_min(self):
        lax = dict(strict_narrowing_conversions=False)
        assert run_unop("f2i", NAN, FLOAT, INT, **lax) == INT_MIN
        assert run_unop("d2l", NAN, DOUBLE, LONG, **lax) == LONG_MIN


class TestLongBitwiseAndShifts:
    """LAND/LOR/LXOR/LSHL/LSHR/LUSHR golden values (shift mask & 63).

    The long bitwise family has no Jimple surface syntax, so the opcode
    lambdas are pinned directly.
    """

    def _arith(self, op, left, right):
        return _ARITH[op](left, right)

    def test_bitwise(self):
        assert self._arith(Op.LAND, 0x0FF0, 0x00FF) == 0x00F0
        assert self._arith(Op.LOR, 0x0FF0, 0x00FF) == 0x0FFF
        assert self._arith(Op.LXOR, 0x0FF0, 0x00FF) == 0x0F0F
        assert self._arith(Op.LAND, -1, LONG_MIN) == LONG_MIN

    def test_lshl_wraps_and_masks(self):
        assert self._arith(Op.LSHL, 1, 63) == LONG_MIN
        assert self._arith(Op.LSHL, 1, 64) == 1       # 64 & 63 == 0
        assert self._arith(Op.LSHL, 1, 65) == 2
        assert self._arith(Op.LSHL, 3, 2) == 12

    def test_lshr_is_arithmetic(self):
        assert self._arith(Op.LSHR, -8, 1) == -4
        assert self._arith(Op.LSHR, LONG_MIN, 63) == -1
        assert self._arith(Op.LSHR, 8, 64) == 8

    def test_lushr_is_logical(self):
        assert self._arith(Op.LUSHR, -1, 1) == LONG_MAX
        assert self._arith(Op.LUSHR, LONG_MIN, 63) == 1
        assert self._arith(Op.LUSHR, -8, 64) == -8    # 64 & 63 == 0

    def test_int_shifts_mask_31(self):
        assert self._arith(Op.ISHL, 1, 32) == 1
        assert self._arith(Op.ISHL, 1, 31) == INT_MIN
        assert self._arith(Op.IUSHR, -1, 1) == INT_MAX
        assert self._arith(Op.ISHR, INT_MIN, 31) == -1
