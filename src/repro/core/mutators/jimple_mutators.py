"""The six Jimple-file mutators (Table 2 row "Jimple file").

These rewrite the *statements* of a method body — inserting, deleting,
duplicating, replacing, or reordering program statements — which may
stochastically change the control flow and/or the syntactic structure of
the class (§2.2.1: exactly six of the 129 mutators operate at this level).

Beyond the paper's fixed 129, this module also defines the
**execution-targeted** mutators (``EXECUTION_MUTATORS``): opt-in
operators that steer mutants toward the execution-semantics policy axes
(`docs/policy-axes.md`) — injecting numeric edge values, nudging
comparison constants toward near-equality, adding narrowing
conversions, and permuting exception-handler order.  They are
kept out of ``MUTATORS`` so the registry stays at the paper's 129;
``--execution-mutators`` merges them into a fuzzing run's rotation.
"""

from __future__ import annotations

import dataclasses
import random
from typing import List, Optional, Tuple

from repro.core.mutators.base import Mutator, fresh_name
from repro.jimple.model import JClass, JLocal, JMethod
from repro.jimple.statements import (
    AssignBinopStmt,
    AssignCmpStmt,
    AssignConstStmt,
    AssignUnopStmt,
    Constant,
    LabelStmt,
    NopStmt,
    ReturnStmt,
)
from repro.jimple.types import INT


def _pick_body(jclass: JClass, rng: random.Random,
               min_statements: int = 1) -> Optional[JMethod]:
    candidates = [m for m in jclass.methods
                  if m.body is not None and len(m.body) >= min_statements]
    return rng.choice(candidates) if candidates else None


def _random_new_statement(method: JMethod, rng: random.Random):
    """A statement to insert; may reference fresh or existing locals."""
    roll = rng.randrange(4)
    if roll == 0:
        name = fresh_name(rng, "$ins")
        method.locals.append(JLocal(name, INT))
        return AssignConstStmt(name, Constant(rng.randint(0, 99), INT))
    if roll == 1 and method.locals:
        local = rng.choice(method.locals)
        return AssignBinopStmt(local.name, local.name, "+",
                               Constant(1, INT))
    if roll == 2:
        return ReturnStmt()   # an early (possibly ill-typed) return
    return NopStmt()


def _insert_statement(jclass: JClass, rng: random.Random) -> bool:
    method = _pick_body(jclass, rng)
    if method is None:
        return False
    stmt = _random_new_statement(method, rng)
    method.body.insert(rng.randrange(len(method.body) + 1), stmt)
    return True


def _delete_statement(jclass: JClass, rng: random.Random) -> bool:
    method = _pick_body(jclass, rng)
    if method is None:
        return False
    method.body.pop(rng.randrange(len(method.body)))
    return True


def _duplicate_statement(jclass: JClass, rng: random.Random) -> bool:
    method = _pick_body(jclass, rng)
    if method is None:
        return False
    index = rng.randrange(len(method.body))
    stmt = method.body[index]
    if isinstance(stmt, LabelStmt):
        return False  # duplicate labels never dump
    method.body.insert(index, stmt)   # statements are immutable
    return True


def _swap_statements(jclass: JClass, rng: random.Random) -> bool:
    """Swap two adjacent statements (Table 2's Jimple-file example)."""
    method = _pick_body(jclass, rng, min_statements=2)
    if method is None:
        return False
    index = rng.randrange(len(method.body) - 1)
    body = method.body
    body[index], body[index + 1] = body[index + 1], body[index]
    return True


def _replace_statement(jclass: JClass, rng: random.Random) -> bool:
    method = _pick_body(jclass, rng)
    if method is None:
        return False
    index = rng.randrange(len(method.body))
    if isinstance(method.body[index], LabelStmt):
        return False
    method.body[index] = _random_new_statement(method, rng)
    return True


def _move_statement(jclass: JClass, rng: random.Random) -> bool:
    method = _pick_body(jclass, rng, min_statements=2)
    if method is None:
        return False
    source = rng.randrange(len(method.body))
    stmt = method.body.pop(source)
    target = rng.randrange(len(method.body) + 1)
    method.body.insert(target, stmt)
    return source != target


# ---------------------------------------------------------------------------
# Execution-targeted mutators (opt-in; not part of the 129 registry)
# ---------------------------------------------------------------------------

#: Numeric edge values per Jimple type — the operands where JVM
#: execution semantics diverge (overflow wrap, narrowing truncation,
#: NaN ordering, shift masking).
_EDGE_VALUES = {
    "int": (-0x80000000, 0x7FFFFFFF, -1, 0, 1),
    "long": (-0x8000000000000000, 0x7FFFFFFFFFFFFFFF, -1, 0, 63, 64),
    "float": (float("nan"), float("inf"), float("-inf"), -0.0, 0.0),
    "double": (float("nan"), float("inf"), float("-inf"), -0.0, 0.0),
}


def _inject_edge_value(jclass: JClass, rng: random.Random) -> bool:
    """Replace one numeric constant with a semantics-edge value."""
    candidates = []
    for method in jclass.methods:
        for index, stmt in enumerate(method.body or []):
            if isinstance(stmt, AssignConstStmt) \
                    and stmt.constant.jtype.name in _EDGE_VALUES:
                candidates.append((method.body, index))
    if not candidates:
        return False
    body, index = rng.choice(candidates)
    stmt = body[index]
    values = _EDGE_VALUES[stmt.constant.jtype.name]
    body[index] = AssignConstStmt(
        stmt.local, Constant(rng.choice(values), stmt.constant.jtype))
    return True


def _nudge_comparison(jclass: JClass, rng: random.Random) -> bool:
    """Shift one comparison/binop constant by ±1 — toward near-equality.

    Values next to a comparison's boundary are where vendors' runtime
    semantics split; nudging constants walks mutants toward that boundary
    instead of re-rolling them blind.
    """
    candidates = []
    for method in jclass.methods:
        for index, stmt in enumerate(method.body or []):
            if isinstance(stmt, (AssignBinopStmt, AssignCmpStmt)):
                for attr in ("left", "right"):
                    operand = getattr(stmt, attr)
                    if isinstance(operand, Constant) \
                            and isinstance(operand.value, int):
                        candidates.append((method.body, index, attr, operand))
    if not candidates:
        return False
    body, index, attr, operand = rng.choice(candidates)
    body[index] = dataclasses.replace(body[index], **{attr: Constant(
        operand.value + rng.choice((-1, 1)), operand.jtype)})
    return True


def _insert_narrowing_cast(jclass: JClass, rng: random.Random) -> bool:
    """Route one int local through ``i2b``/``i2c``/``i2s``/``ineg``.

    Makes the narrowing-conversion and negation-overflow opcodes (and
    their ``strict_narrowing_conversions`` policy axis) reachable from
    the all-int seed corpus.
    """
    method = _pick_body(jclass, rng)
    if method is None:
        return False
    int_locals = [local.name for local in method.locals
                  if local.jtype.name in ("int", "boolean")]
    if not int_locals:
        return False
    name = rng.choice(int_locals)
    stmt = AssignUnopStmt(name, rng.choice(("i2b", "i2c", "i2s", "ineg")),
                          name)
    method.body.insert(rng.randrange(len(method.body) + 1), stmt)
    return True


def _permute_handlers(jclass: JClass, rng: random.Random) -> bool:
    """Swap two exception-table entries (handler scan order is an axis)."""
    candidates = [m for m in jclass.methods if len(m.traps) >= 2]
    if not candidates:
        return False
    traps = rng.choice(candidates).traps
    first, second = rng.sample(range(len(traps)), 2)
    traps[first], traps[second] = traps[second], traps[first]
    return True


MUTATORS: List[Mutator] = [
    Mutator("jimple.insert_statement", "jimple",
            "Insert one program statement", _insert_statement),
    Mutator("jimple.delete_statement", "jimple",
            "Delete one program statement", _delete_statement),
    Mutator("jimple.duplicate_statement", "jimple",
            "Duplicate one program statement", _duplicate_statement),
    Mutator("jimple.swap_statements", "jimple",
            "Swap two adjacent program statements", _swap_statements),
    Mutator("jimple.replace_statement", "jimple",
            "Replace one program statement with a new one",
            _replace_statement),
    Mutator("jimple.move_statement", "jimple",
            "Move one program statement to another position",
            _move_statement),
]

assert len(MUTATORS) == 6

#: The opt-in execution-targeted operators (see module docstring).
EXECUTION_MUTATORS: List[Mutator] = [
    Mutator("jimple.inject_edge_value", "execution",
            "Replace a numeric constant with an edge value "
            "(MIN_VALUE/-1/0/NaN)", _inject_edge_value),
    Mutator("jimple.nudge_comparison", "execution",
            "Nudge a comparison/binop constant toward near-equality",
            _nudge_comparison),
    Mutator("jimple.insert_narrowing_cast", "execution",
            "Route an int local through i2b/i2c/i2s/ineg",
            _insert_narrowing_cast),
    Mutator("jimple.permute_handlers", "execution",
            "Swap two exception-handler table entries",
            _permute_handlers),
]
