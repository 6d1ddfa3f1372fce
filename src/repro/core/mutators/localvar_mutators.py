"""Local-variable mutators (Table 2 row "Local variable"): insert, delete,
rename, or retype body locals.

Retyping a local while its uses stay put is the recipe behind the
paper's M1433982529 (Problem 2): the declared Jimple type drives opcode
selection, so the resulting bytecode contains genuinely unsafe
assignments that only deep verifiers catch.

Locals and statements are immutable (a clone shares them with its
origin), so a rewrite puts a new one at the same list position.
"""

from __future__ import annotations

import dataclasses
import random
from typing import List, Optional

from repro.core.mutators.base import Mutator, fresh_name
from repro.jimple.model import JClass, JLocal, JMethod
from repro.jimple.types import INT, JType, STRING


def _pick_bodied(jclass: JClass, rng: random.Random,
                 with_locals: bool = False) -> Optional[JMethod]:
    candidates = [m for m in jclass.methods if m.body is not None
                  and (m.locals or not with_locals)]
    return rng.choice(candidates) if candidates else None


def _insert_local(jtype: JType):
    def apply(jclass: JClass, rng: random.Random) -> bool:
        method = _pick_bodied(jclass, rng)
        if method is None:
            return False
        method.locals.append(JLocal(fresh_name(rng, "$loc"), jtype))
        return True
    return apply


def _insert_initialized(jclass: JClass, rng: random.Random) -> bool:
    from repro.jimple.statements import AssignConstStmt, Constant

    method = _pick_bodied(jclass, rng)
    if method is None:
        return False
    name = fresh_name(rng, "$ini")
    method.locals.append(JLocal(name, INT))
    method.body.insert(
        max(0, len(method.body) - 1),
        AssignConstStmt(name, Constant(rng.randint(0, 9), INT)))
    return True


def _delete_declaration(jclass: JClass, rng: random.Random) -> bool:
    """Delete one local declaration; remaining uses make the class
    undumpable (a failed iteration), mirroring Soot."""
    method = _pick_bodied(jclass, rng, with_locals=True)
    if method is None or not method.locals:
        return False
    method.locals.pop(rng.randrange(len(method.locals)))
    return True


def _delete_all_declarations(jclass: JClass, rng: random.Random) -> bool:
    method = _pick_bodied(jclass, rng, with_locals=True)
    if method is None or not method.locals:
        return False
    method.locals.clear()
    return True


def _retype(jtype: JType):
    def apply(jclass: JClass, rng: random.Random) -> bool:
        method = _pick_bodied(jclass, rng, with_locals=True)
        if method is None or not method.locals:
            return False
        index = rng.randrange(len(method.locals))
        local = method.locals[index]
        if local.jtype == jtype:
            return False
        method.locals[index] = JLocal(local.name, jtype)
        return True
    return apply


def _rename_consistently(jclass: JClass, rng: random.Random) -> bool:
    """Rename a local in both its declaration and every use."""
    method = _pick_bodied(jclass, rng, with_locals=True)
    if method is None or not method.locals:
        return False
    index = rng.randrange(len(method.locals))
    local = method.locals[index]
    old, new = local.name, fresh_name(rng, "$rn")
    method.locals[index] = JLocal(new, local.jtype)
    body = method.body or []
    for position, stmt in enumerate(body):
        body[position] = _rename_in_stmt(stmt, old, new)
    return True


def _rename_declaration_only(jclass: JClass, rng: random.Random) -> bool:
    """Rename only the declaration, leaving uses dangling."""
    method = _pick_bodied(jclass, rng, with_locals=True)
    if method is None or not method.locals:
        return False
    index = rng.randrange(len(method.locals))
    method.locals[index] = JLocal(fresh_name(rng, "$dangling"),
                                  method.locals[index].jtype)
    return True


def _duplicate_declaration(jclass: JClass, rng: random.Random) -> bool:
    method = _pick_bodied(jclass, rng, with_locals=True)
    if method is None or not method.locals:
        return False
    local = rng.choice(method.locals)
    method.locals.append(JLocal(local.name, local.jtype))
    return True


def _swap_types(jclass: JClass, rng: random.Random) -> bool:
    method = _pick_bodied(jclass, rng, with_locals=True)
    if method is None or len(method.locals) < 2:
        return False
    first, second = rng.sample(range(len(method.locals)), 2)
    local_a, local_b = method.locals[first], method.locals[second]
    method.locals[first] = JLocal(local_a.name, local_b.jtype)
    method.locals[second] = JLocal(local_b.name, local_a.jtype)
    return local_a.jtype != local_b.jtype


#: Statement fields that may name a local.
_LOCAL_FIELDS = ("local", "dst", "src", "base", "left", "right", "value")


def _rename_in_stmt(stmt, old: str, new: str):
    """``stmt`` with its local references renamed (best effort): a new
    statement, or ``stmt`` itself when it does not mention ``old``."""
    changes = {attr: new for attr in _LOCAL_FIELDS
               if getattr(stmt, attr, None) == old}
    invoke = getattr(stmt, "invoke", None)
    if invoke is not None and (invoke.base == old or old in invoke.args):
        changes["invoke"] = dataclasses.replace(
            invoke, base=new if invoke.base == old else invoke.base,
            args=tuple(new if arg == old else arg for arg in invoke.args))
    return dataclasses.replace(stmt, **changes) if changes else stmt


MUTATORS: List[Mutator] = [
    Mutator("localvar.insert_int", "localvar",
            "Insert an int local declaration", _insert_local(INT)),
    Mutator("localvar.insert_string", "localvar",
            "Insert a String local declaration", _insert_local(STRING)),
    Mutator("localvar.insert_object", "localvar",
            "Insert an Object local declaration",
            _insert_local(JType("java.lang.Object"))),
    Mutator("localvar.insert_initialized", "localvar",
            "Insert a local plus an initializing statement",
            _insert_initialized),
    Mutator("localvar.delete_declaration", "localvar",
            "Delete one local declaration (uses dangle)",
            _delete_declaration),
    Mutator("localvar.delete_all_declarations", "localvar",
            "Delete every local declaration", _delete_all_declarations),
    Mutator("localvar.retype_string", "localvar",
            "Change a local's type to java.lang.String (Table 2 example)",
            _retype(STRING)),
    Mutator("localvar.retype_int", "localvar",
            "Change a local's type to int", _retype(INT)),
    Mutator("localvar.retype_map", "localvar",
            "Change a local's type to java.util.Map",
            _retype(JType("java.util.Map"))),
    Mutator("localvar.retype_object", "localvar",
            "Change a local's type to java.lang.Object",
            _retype(JType("java.lang.Object"))),
    Mutator("localvar.retype_thread", "localvar",
            "Change a local's type to java.lang.Thread",
            _retype(JType("java.lang.Thread"))),
    Mutator("localvar.retype_long", "localvar",
            "Widen a local's type to long (slot-size effects)",
            _retype(JType("long"))),
    Mutator("localvar.rename_consistently", "localvar",
            "Rename a local everywhere", _rename_consistently),
    Mutator("localvar.rename_declaration_only", "localvar",
            "Rename only a local's declaration (uses dangle)",
            _rename_declaration_only),
    Mutator("localvar.duplicate_declaration", "localvar",
            "Duplicate a local declaration", _duplicate_declaration),
    Mutator("localvar.swap_types", "localvar",
            "Swap the types of two locals", _swap_types),
]

assert len(MUTATORS) == 16
