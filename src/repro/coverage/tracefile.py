"""Execution tracefiles: the coverage record of one run (§2.2.3).

A tracefile records which statement sites and branch outcomes of the
reference JVM a classfile hit, with frequencies.  The paper compares
tracefiles either by their summary *coverage statistics* (``tr.stmt`` and
``tr.br`` counts) or by their hit *sets* (criterion [tr], which uses the
merge operator ⊕).

Tracefiles are immutable once constructed, so the derived views the
acceptance hot path keeps asking for — the hit sets, the statistics
signature, and the interned-id sets used for cheap set algebra — are
computed once and cached on the instance rather than rebuilt on every
property access.

:class:`PackedTracefile` holds the same record as interned-id arrays.
It is the form the process backend keeps for coverage its reference
workers collected: the parent re-keys each worker's tracefile onto its
own interner (see :func:`repro.core.worker.decode_payload`).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple

from repro.coverage.interner import GLOBAL_INTERNER

#: Sentinel distinguishing "never computed" from any computed value.
_UNSET = object()


@dataclass(frozen=True)
class Tracefile:
    """One execution's coverage record.

    Attributes:
        statements: statement site → hit count.
        branches: (branch site, outcome) → hit count.

    Derived views (``stmt_set``, ``br_set``, ``signature``, ``stmt_ids``,
    ``br_ids``) are cached on first access via ``object.__setattr__`` —
    legal on a frozen dataclass and safe because the underlying dicts
    are never mutated after construction.
    """

    statements: Dict[str, int] = field(default_factory=dict)
    branches: Dict[Tuple[str, bool], int] = field(default_factory=dict)
    #: Accepted and dropped.  Packed tracefiles pickled while a third,
    #: comparison probe kind existed unpickle as
    #: ``Tracefile(statements, branches, comparisons)``.
    _legacy_comparisons: InitVar[Optional[Dict[str, int]]] = None

    def _cached(self, slot: str, compute):
        value = self.__dict__.get(slot, _UNSET)
        if value is _UNSET:
            value = compute()
            object.__setattr__(self, slot, value)
        return value

    @property
    def stmt(self) -> int:
        """The statement coverage statistic: distinct statements hit
        (the paper's ``tr.stmt``)."""
        return len(self.statements)

    @property
    def br(self) -> int:
        """The branch coverage statistic: distinct branch outcomes hit
        (the paper's ``tr.br``)."""
        return len(self.branches)

    @property
    def stmt_set(self) -> FrozenSet[str]:
        """The set of statement sites hit (cached)."""
        return self._cached("_stmt_set",
                            lambda: frozenset(self.statements))

    @property
    def br_set(self) -> FrozenSet[Tuple[str, bool]]:
        """The set of branch outcomes hit (cached)."""
        return self._cached("_br_set", lambda: frozenset(self.branches))

    @property
    def stmt_ids(self) -> FrozenSet[int]:
        """The statement hit set as process-local interned ids (cached).

        Same-process tracefiles share one interner, so these sets are
        directly comparable — the cheap currency of [tr] uniqueness and
        greedy coverage-growth checks.
        """
        return self._cached(
            "_stmt_ids",
            lambda: GLOBAL_INTERNER.statement_ids(self.statements))

    @property
    def br_ids(self) -> FrozenSet[int]:
        """The branch hit set as process-local interned ids (cached)."""
        return self._cached(
            "_br_ids", lambda: GLOBAL_INTERNER.branch_ids(self.branches))

    @property
    def signature(self) -> Tuple[int, int]:
        """The ``(stmt, br)`` coverage-statistics pair."""
        return len(self.statements), len(self.branches)

    def total_hits(self) -> int:
        """Total statement executions (frequency-weighted)."""
        return sum(self.statements.values())

    def __or__(self, other: "Tracefile") -> "Tracefile":
        """The ⊕ merge operator: union coverage of two runs."""
        return merge(self, other)

    # Interned ids are process-local, so the cached derived views must
    # not travel: pickle only the raw dicts and re-derive lazily in the
    # receiving process.
    def __getstate__(self):
        return {"statements": self.statements, "branches": self.branches}

    def __setstate__(self, state):
        # Pickles written while a third, comparison probe kind existed
        # also carry a "comparisons" dict; it is dropped.
        object.__setattr__(self, "statements", state["statements"])
        object.__setattr__(self, "branches", state["branches"])


class PackedTracefile(Tracefile):
    """A tracefile held as interned ``(id, count)`` arrays.

    The process backend's form of a reference worker's coverage: the
    parent re-keys each returned tracefile onto its interner's ids (see
    :func:`repro.core.worker.decode_payload`).  A cached trace then
    costs a few bytes per site, where a freshly unpickled dict owns a
    private copy of every site string.

    ``stmt_pairs``/``br_pairs`` are flat ``id, count, id, count, ...``
    sequences.  The string-keyed ``statements``/``branches`` dicts are
    materialised only on first access (a merge, an export) by reverse
    lookup through the interner's id mirrors.  Count-only views
    (``stmt``, ``br``, ``signature``) and the interned-id sets read the
    arrays directly.

    Materialisation preserves site order: pairs are packed in the
    source tracefile's first-hit order, so the lazily built dicts
    iterate exactly like the dicts a serial in-process run would have
    produced.
    """

    def __init__(self, stmt_pairs, br_pairs, interner=None) -> None:
        setattr_ = object.__setattr__
        setattr_(self, "_stmt_pairs", stmt_pairs)
        setattr_(self, "_br_pairs", br_pairs)
        setattr_(self, "_interner",
                 interner if interner is not None else GLOBAL_INTERNER)

    @property
    def statements(self) -> Dict[str, int]:
        return self._cached("_statements_dict", self._build_statements)

    @property
    def branches(self) -> Dict[Tuple[str, bool], int]:
        return self._cached("_branches_dict", self._build_branches)

    def _build_statements(self) -> Dict[str, int]:
        pairs = self._stmt_pairs
        sites = self._interner.resolve_statements(pairs[0::2])
        return dict(zip(sites, pairs[1::2]))

    def _build_branches(self) -> Dict[Tuple[str, bool], int]:
        pairs = self._br_pairs
        keys = self._interner.resolve_branches(pairs[0::2])
        return dict(zip(keys, pairs[1::2]))

    @property
    def stmt(self) -> int:
        return len(self._stmt_pairs) // 2

    @property
    def br(self) -> int:
        return len(self._br_pairs) // 2

    @property
    def signature(self) -> Tuple[int, int]:
        return len(self._stmt_pairs) // 2, len(self._br_pairs) // 2

    @property
    def stmt_ids(self) -> FrozenSet[int]:
        return self._cached(
            "_stmt_ids", lambda: frozenset(self._stmt_pairs[0::2]))

    @property
    def br_ids(self) -> FrozenSet[int]:
        return self._cached(
            "_br_ids", lambda: frozenset(self._br_pairs[0::2]))

    def total_hits(self) -> int:
        return sum(self._stmt_pairs[1::2])

    # The dataclass-generated __eq__ only matches exact classes; packed
    # and plain tracefiles with the same coverage must still compare
    # equal (Tracefile returns NotImplemented for a Packed operand, so
    # Python falls through to this reflected implementation).
    def __eq__(self, other):
        if isinstance(other, Tracefile):
            return (self.statements == other.statements
                    and self.branches == other.branches)
        return NotImplemented

    # A packed trace's id arrays are only meaningful next to its
    # interner, so pickling materialises and ships a plain Tracefile —
    # the same raw-dict wire form the base class uses.
    def __reduce__(self):
        return Tracefile, (self.statements, self.branches)


def merge(first: Tracefile, second: Tracefile) -> Tracefile:
    """Merge two tracefiles (the paper's ⊕ operator).

    The merged tracefile covers the union of both runs' statements and
    branches, with summed frequencies — exactly how ``lcov -a`` combines
    ``.info`` files.
    """
    statements = dict(first.statements)
    for site, count in second.statements.items():
        statements[site] = statements.get(site, 0) + count
    branches = dict(first.branches)
    for key, count in second.branches.items():
        branches[key] = branches.get(key, 0) + count
    return Tracefile(statements=statements, branches=branches)

