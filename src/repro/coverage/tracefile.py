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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Tuple

from repro.coverage.interner import GLOBAL_INTERNER

#: Sentinel distinguishing "never computed" from any computed value.
_UNSET = object()


@dataclass(frozen=True)
class Tracefile:
    """One execution's coverage record.

    Attributes:
        statements: statement site → hit count.
        branches: (branch site, outcome) → hit count.
        comparisons: comparison-progress site → hit count (cmplog-style
            ``--cmp-coverage`` sites; empty unless enabled).

    Derived views (``stmt_set``, ``br_set``, ``signature``, ``stmt_ids``,
    ``br_ids``, ``cmp_ids``) are cached on first access via
    ``object.__setattr__`` — legal on a frozen dataclass and safe because
    the underlying dicts are never mutated after construction.
    """

    statements: Dict[str, int] = field(default_factory=dict)
    branches: Dict[Tuple[str, bool], int] = field(default_factory=dict)
    comparisons: Dict[str, int] = field(default_factory=dict)

    @staticmethod
    def from_packed(stmt_pairs, br_pairs, cmp_pairs=None,
                    interner=None) -> "Tracefile":
        """Build a tracefile from packed ``(id, count)`` coverage arrays.

        The wire format of the process backend's persistent reference
        workers: ``stmt_pairs``/``br_pairs`` are flat
        ``id, count, id, count, ...`` sequences over ids minted in a
        shared site table (see :mod:`repro.coverage.shm`).  The
        string-keyed dicts are materialised **lazily** — acceptance
        never touches them, and the interned ``stmt_ids``/``br_ids``
        views come straight from the id columns with no string
        round-trip at all.
        """
        return PackedTracefile(stmt_pairs, br_pairs, cmp_pairs=cmp_pairs,
                               interner=interner)

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
    def cmp_set(self) -> FrozenSet[str]:
        """The set of comparison-progress sites hit (cached)."""
        return self._cached("_cmp_set",
                            lambda: frozenset(self.comparisons))

    @property
    def cmp_ids(self) -> FrozenSet[int]:
        """The comparison hit set as process-local interned ids (cached).

        Empty (the common case: ``--cmp-coverage`` off) without touching
        the interner, so set-based acceptance pays nothing for the third
        probe kind until it exists.
        """
        return self._cached(
            "_cmp_ids",
            lambda: (GLOBAL_INTERNER.comparison_ids(self.comparisons)
                     if self.comparisons else frozenset()))

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
        return {"statements": self.statements, "branches": self.branches,
                "comparisons": self.comparisons}

    def __setstate__(self, state):
        object.__setattr__(self, "statements", state["statements"])
        object.__setattr__(self, "branches", state["branches"])
        # Pickles from before the comparison probe kind carry two dicts.
        object.__setattr__(self, "comparisons",
                           state.get("comparisons", {}))


class PackedTracefile(Tracefile):
    """A tracefile decoded from the packed cross-process wire format.

    Holds the flat ``(id, count)`` arrays and materialises the
    string-keyed ``statements``/``branches`` dicts only on first access
    (a merge, an export) by reverse lookup
    through the interner's id mirrors.  Count-only views (``stmt``,
    ``br``, ``signature``) and the interned-id sets read the arrays
    directly.

    Materialisation preserves site order: workers pack pairs in probe
    first-hit order, so the lazily built dicts iterate exactly like the
    dicts a serial in-process run would have produced.
    """

    def __init__(self, stmt_pairs, br_pairs, cmp_pairs=None,
                 interner=None) -> None:
        setattr_ = object.__setattr__
        setattr_(self, "_stmt_pairs", stmt_pairs)
        setattr_(self, "_br_pairs", br_pairs)
        setattr_(self, "_cmp_pairs", cmp_pairs if cmp_pairs is not None
                 else ())
        setattr_(self, "_interner",
                 interner if interner is not None else GLOBAL_INTERNER)

    @property
    def statements(self) -> Dict[str, int]:
        return self._cached("_statements_dict", self._build_statements)

    @property
    def branches(self) -> Dict[Tuple[str, bool], int]:
        return self._cached("_branches_dict", self._build_branches)

    @property
    def comparisons(self) -> Dict[str, int]:
        return self._cached("_comparisons_dict", self._build_comparisons)

    def _build_statements(self) -> Dict[str, int]:
        pairs = self._stmt_pairs
        sites = self._interner.resolve_statements(pairs[0::2])
        return dict(zip(sites, pairs[1::2]))

    def _build_branches(self) -> Dict[Tuple[str, bool], int]:
        pairs = self._br_pairs
        keys = self._interner.resolve_branches(pairs[0::2])
        return dict(zip(keys, pairs[1::2]))

    def _build_comparisons(self) -> Dict[str, int]:
        pairs = self._cmp_pairs
        if not pairs:
            return {}
        sites = self._interner.resolve_comparisons(pairs[0::2])
        return dict(zip(sites, pairs[1::2]))

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

    @property
    def cmp_ids(self) -> FrozenSet[int]:
        return self._cached(
            "_cmp_ids", lambda: frozenset(self._cmp_pairs[0::2]))

    def total_hits(self) -> int:
        return sum(self._stmt_pairs[1::2])

    # The dataclass-generated __eq__ only matches exact classes; packed
    # and plain tracefiles with the same coverage must still compare
    # equal (Tracefile returns NotImplemented for a Packed operand, so
    # Python falls through to this reflected implementation).
    def __eq__(self, other):
        if isinstance(other, Tracefile):
            return (self.statements == other.statements
                    and self.branches == other.branches
                    and self.comparisons == other.comparisons)
        return NotImplemented

    # A packed trace's id arrays are only meaningful next to its
    # interner, so pickling materialises and ships a plain Tracefile —
    # the same raw-dict wire form the base class uses.
    def __reduce__(self):
        return Tracefile, (self.statements, self.branches,
                           self.comparisons)


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
    comparisons = dict(first.comparisons)
    for site, count in second.comparisons.items():
        comparisons[site] = comparisons.get(site, 0) + count
    return Tracefile(statements=statements, branches=branches,
                     comparisons=comparisons)

