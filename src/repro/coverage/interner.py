"""Interning of coverage sites to dense integer ids.

The uniqueness criteria and the greedy accumulated-coverage check spend
their time on set algebra over coverage sites.  Sites are strings
(``"verifier.op.iadd"``) and branch outcomes are ``(site, taken)``
tuples; hashing and comparing them repeatedly is the dominant constant
factor of every acceptance decision once tracefiles are cached.

A :class:`SiteInterner` maps each distinct statement site and branch
outcome to a small ``int`` exactly once, so the hot-path set operations
(`frozenset` union/difference/equality in ``TrUniqueness`` and
``greedyfuzz``) run over machine integers instead of strings.

Ids are **process-local by default**: two processes intern sites in
whatever order they first observe them, so interned sets must never
cross a process boundary.  :class:`~repro.coverage.tracefile.Tracefile`
enforces this by dropping its cached interned sets on pickling and
re-interning lazily on first use in the receiving process.

The one exception is an interner with a **shared backing**
(:meth:`SiteInterner.attach_shared`): id allocation is then delegated to
a :class:`~repro.coverage.shm.SharedSiteTable` in shared memory, and the
local dicts become a consume-only mirror of the table's append-only
entry stream.  Every process attached to the same table agrees on every
id, which is what lets the process backend's persistent reference
workers ship coverage as packed ``(id, count)`` arrays instead of
string dicts.  The lock-free read fast path is unchanged — mirrors, like
the table, only ever grow — and the serial backend never attaches a
table at all.
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet, Iterable, List, Tuple

#: Shared-table record kinds (also re-exported by ``repro.coverage.shm``):
#: statement sites, the two branch outcomes of a branch site, and
#: comparison-progress sites (``--cmp-coverage``).
KIND_STATEMENT = 0
KIND_BRANCH_FALSE = 1
KIND_BRANCH_TRUE = 2
KIND_COMPARISON = 3


class SharedTableFull(RuntimeError):
    """An append would overflow the fixed-capacity shared site table."""


class SiteInterner:
    """Thread-safe site → dense-int interning, one namespace per kind.

    Statement sites and branch outcomes get independent id spaces (both
    starting at 0) because they never meet in the same set.

    Besides the forward dicts, the interner keeps per-kind reverse
    mirrors (id → site, a plain list indexed by id) so packed coverage
    arrays can be materialised back into string-keyed dicts without a
    second table.
    """

    def __init__(self) -> None:
        self._statements: Dict[str, int] = {}
        self._branches: Dict[Tuple[str, bool], int] = {}
        self._comparisons: Dict[str, int] = {}
        self._statement_sites: List[str] = []
        self._branch_keys: List[Tuple[str, bool]] = []
        self._comparison_sites: List[str] = []
        self._lock = threading.Lock()
        # Shared backing (attach_shared): the table, plus consume
        # cursors over its entry stream.
        self._shared = None
        self._shared_entries = 0
        self._shared_offset = 0
        self._shared_stmt_seen = 0
        self._shared_br_seen = 0
        self._shared_cmp_seen = 0

    def __len__(self) -> int:
        with self._lock:
            return (len(self._statements) + len(self._branches)
                    + len(self._comparisons))

    def _namespace(self, kind: int) -> Tuple[Dict, List]:
        """The ``(forward table, reverse mirror)`` pair for a kind."""
        if kind == KIND_STATEMENT:
            return self._statements, self._statement_sites
        if kind == KIND_COMPARISON:
            return self._comparisons, self._comparison_sites
        return self._branches, self._branch_keys

    # -- interning ---------------------------------------------------------------

    def _intern_all(self, table: Dict, keys: Tuple,
                    kind: int) -> FrozenSet[int]:
        """Intern ``keys`` into ``table``, returning their id set.

        The optimistic path maps every key through the table in one C
        pass with no lock: entries are only ever *added* (never removed
        or re-valued), so any id a lock-free read observes is final.  A
        single missing key aborts that pass via ``KeyError``, and the
        whole membership-check/insert/lookup sequence retries under the
        lock — on free-threaded (no-GIL) interpreters a racing writer
        between an unlocked membership probe and the final lookup can
        otherwise be observed mid-insert.
        """
        try:
            return frozenset(map(table.__getitem__, keys))
        except KeyError:
            pass
        with self._lock:
            if self._shared is not None:
                self._insert_missing_shared(keys, kind)
            else:
                _, mirror = self._namespace(kind)
                for key in keys:
                    if key not in table:
                        table[key] = len(table)
                        mirror.append(key)
            return frozenset(map(table.__getitem__, keys))

    def _intern_one(self, table: Dict, key, kind: int) -> int:
        try:
            return table[key]
        except KeyError:
            pass
        with self._lock:
            if self._shared is not None:
                self._insert_missing_shared((key,), kind)
            elif key not in table:
                table[key] = len(table)
                _, mirror = self._namespace(kind)
                mirror.append(key)
            return table[key]

    def statement_ids(self, sites: Iterable[str]) -> FrozenSet[int]:
        """Intern every statement site, returning the id set."""
        return self._intern_all(self._statements, tuple(sites),
                                KIND_STATEMENT)

    def branch_ids(self, outcomes: Iterable[Tuple[str, bool]]
                   ) -> FrozenSet[int]:
        """Intern every branch outcome, returning the id set."""
        return self._intern_all(self._branches, tuple(outcomes),
                                KIND_BRANCH_FALSE)

    def comparison_ids(self, sites: Iterable[str]) -> FrozenSet[int]:
        """Intern every comparison site, returning the id set."""
        return self._intern_all(self._comparisons, tuple(sites),
                                KIND_COMPARISON)

    def statement_id(self, site: str) -> int:
        """Intern one statement site, returning its id."""
        return self._intern_one(self._statements, site, KIND_STATEMENT)

    def branch_id(self, outcome: Tuple[str, bool]) -> int:
        """Intern one branch outcome, returning its id."""
        return self._intern_one(self._branches, outcome,
                                KIND_BRANCH_FALSE)

    def comparison_id(self, site: str) -> int:
        """Intern one comparison site, returning its id."""
        return self._intern_one(self._comparisons, site, KIND_COMPARISON)

    # -- reverse lookup ----------------------------------------------------------

    def resolve_statements(self, ids: Iterable[int]) -> List[str]:
        """Map statement ids back to their sites (packed-trace decode).

        Unknown ids trigger one consume pass over the shared table —
        another process minted them — before failing for real.
        """
        ids = tuple(ids)
        try:
            return list(map(self._statement_sites.__getitem__, ids))
        except IndexError:
            pass
        with self._lock:
            self._refresh_locked()
            return list(map(self._statement_sites.__getitem__, ids))

    def resolve_branches(self, ids: Iterable[int]
                         ) -> List[Tuple[str, bool]]:
        """Map branch ids back to ``(site, taken)`` keys."""
        ids = tuple(ids)
        try:
            return list(map(self._branch_keys.__getitem__, ids))
        except IndexError:
            pass
        with self._lock:
            self._refresh_locked()
            return list(map(self._branch_keys.__getitem__, ids))

    def resolve_comparisons(self, ids: Iterable[int]) -> List[str]:
        """Map comparison ids back to their sites."""
        ids = tuple(ids)
        try:
            return list(map(self._comparison_sites.__getitem__, ids))
        except IndexError:
            pass
        with self._lock:
            self._refresh_locked()
            return list(map(self._comparison_sites.__getitem__, ids))

    # -- shared backing ----------------------------------------------------------

    @property
    def shared_table(self):
        """The attached :class:`SharedSiteTable`, or ``None``."""
        return self._shared

    def attach_shared(self, table) -> None:
        """Delegate id allocation to a shared site table.

        Any entries already in the table are consumed first (they must
        agree with ids this interner already assigned), then ids minted
        locally before the attach are *published* so every later
        attacher sees them — pre-attach ids keep their values, which is
        what keeps decision streams identical when an executor attaches
        a table mid-campaign.

        Re-attaching the same table is a no-op (forked workers inherit
        an already-attached interner); attaching a second, different
        table is an error until :meth:`detach_shared`.
        """
        with self._lock:
            if self._shared is table:
                return
            if self._shared is not None:
                raise RuntimeError(
                    "interner already has a shared site table attached")
            self._shared = table
            self._shared_entries = 0
            self._shared_offset = table.data_start
            self._shared_stmt_seen = 0
            self._shared_br_seen = 0
            self._shared_cmp_seen = 0
            with table.lock:
                self._consume_locked()
                for site in \
                        self._statement_sites[self._shared_stmt_seen:]:
                    table.append(KIND_STATEMENT, site)
                for site, taken in \
                        self._branch_keys[self._shared_br_seen:]:
                    table.append(KIND_BRANCH_TRUE if taken
                                 else KIND_BRANCH_FALSE, site)
                for site in \
                        self._comparison_sites[self._shared_cmp_seen:]:
                    table.append(KIND_COMPARISON, site)
                self._consume_locked()

    def detach_shared(self) -> None:
        """Drop the shared backing, keeping all local ids (idempotent)."""
        with self._lock:
            self._shared = None

    def verify_shared(self) -> Tuple[int, int]:
        """Check the local mirrors against the full shared table.

        Re-scans the table from entry 0 and confirms every entry maps
        to the same id locally — the checkpoint-resume validation that a
        rebuilt table is bit-identical to the interning history this
        process replayed.  Returns the per-kind entry counts.

        Raises:
            RuntimeError: no table attached, or an entry disagrees.
        """
        with self._lock:
            table = self._shared
            if table is None:
                raise RuntimeError("no shared site table attached")
            with table.lock:
                self._consume_locked()
                entries, _ = table.read_entries(0, table.data_start)
            stmt = br = cmp_seen = 0
            for kind, text in entries:
                if kind == KIND_STATEMENT:
                    if self._statement_sites[stmt] != text:
                        raise RuntimeError(
                            f"shared site table mismatch: statement id "
                            f"{stmt} is {text!r} in the table but "
                            f"{self._statement_sites[stmt]!r} locally")
                    stmt += 1
                elif kind == KIND_COMPARISON:
                    if self._comparison_sites[cmp_seen] != text:
                        raise RuntimeError(
                            f"shared site table mismatch: comparison id "
                            f"{cmp_seen} is {text!r} in the table but "
                            f"{self._comparison_sites[cmp_seen]!r} "
                            f"locally")
                    cmp_seen += 1
                else:
                    key = (text, kind == KIND_BRANCH_TRUE)
                    if self._branch_keys[br] != key:
                        raise RuntimeError(
                            f"shared site table mismatch: branch id "
                            f"{br} is {key!r} in the table but "
                            f"{self._branch_keys[br]!r} locally")
                    br += 1
            return stmt, br

    def _refresh_locked(self) -> None:
        """Consume any table entries other processes appended.

        Caller holds ``self._lock``; takes the table lock only when the
        cheap header read says there is something new.
        """
        table = self._shared
        if table is None or table.entry_count() == self._shared_entries:
            return
        with table.lock:
            self._consume_locked()

    def _consume_locked(self) -> None:
        """Adopt unseen table entries into the local mirror.

        Caller holds both ``self._lock`` and the table lock.  Entry
        order defines ids; an entry whose per-kind position the local
        state already assigned to a *different* key means the table and
        this process diverged, which is unrecoverable.
        """
        table = self._shared
        entries, offset = table.read_entries(self._shared_entries,
                                             self._shared_offset)
        for kind, text in entries:
            if kind == KIND_STATEMENT:
                self._adopt(self._statements, self._statement_sites,
                            text, self._shared_stmt_seen)
                self._shared_stmt_seen += 1
            elif kind == KIND_COMPARISON:
                self._adopt(self._comparisons, self._comparison_sites,
                            text, self._shared_cmp_seen)
                self._shared_cmp_seen += 1
            else:
                key = (text, kind == KIND_BRANCH_TRUE)
                self._adopt(self._branches, self._branch_keys, key,
                            self._shared_br_seen)
                self._shared_br_seen += 1
        self._shared_entries += len(entries)
        self._shared_offset = offset

    @staticmethod
    def _adopt(table: Dict, mirror: List, key, position: int) -> None:
        if position < len(mirror):
            if mirror[position] != key:
                raise RuntimeError(
                    f"shared site table entry {position} is {key!r} "
                    f"but this process interned {mirror[position]!r} "
                    f"at that id")
            return
        if key in table:
            raise RuntimeError(
                f"shared site table assigns id {position} to {key!r} "
                f"but this process interned it as id {table[key]}")
        table[key] = position
        mirror.append(key)

    def _insert_missing_shared(self, keys: Tuple, kind: int) -> None:
        """Mint ids for unknown keys through the shared table.

        Caller holds ``self._lock``.  Appends happen under the table
        lock after a consume pass, so a key another process interned in
        the meantime is adopted rather than duplicated; our own appends
        are adopted by the trailing consume.
        """
        table, _ = self._namespace(kind)
        if all(key in table for key in keys):
            return
        shared = self._shared
        with shared.lock:
            self._consume_locked()
            for key in keys:
                if key in table:
                    continue
                if kind in (KIND_STATEMENT, KIND_COMPARISON):
                    shared.append(kind, key)
                else:
                    shared.append(KIND_BRANCH_TRUE if key[1]
                                  else KIND_BRANCH_FALSE, key[0])
            self._consume_locked()


#: The process-global interner every :class:`Tracefile` shares.  All
#: tracefiles in one process agree on ids, so their interned sets are
#: directly comparable.
GLOBAL_INTERNER = SiteInterner()
