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

Ids are **process-local**: a process interns sites in whatever order it
first observes them, so interned sets must never cross a process
boundary.  Only the parent process of a run mints the ids its decisions
use.  :class:`~repro.coverage.tracefile.Tracefile` drops its cached
interned sets on pickling and re-interns lazily on first use in the
receiving process, and the process backend's reference workers return
plain tracefiles that the parent re-keys onto its own ids (see
:func:`repro.core.worker.decode_payload`).
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet, Iterable, List, Tuple


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
        self._statement_sites: List[str] = []
        self._branch_keys: List[Tuple[str, bool]] = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._statements) + len(self._branches)

    # -- interning ---------------------------------------------------------------

    def _intern_all(self, table: Dict, mirror: List,
                    keys: Tuple) -> List[int]:
        """Intern ``keys`` into ``table``, returning their ids in order.

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
            return list(map(table.__getitem__, keys))
        except KeyError:
            pass
        with self._lock:
            for key in keys:
                if key not in table:
                    table[key] = len(table)
                    mirror.append(key)
            return list(map(table.__getitem__, keys))

    def statement_id_list(self, sites: Iterable[str]) -> List[int]:
        """Intern every statement site, returning ids in input order."""
        return self._intern_all(self._statements, self._statement_sites,
                                tuple(sites))

    def branch_id_list(self, outcomes: Iterable[Tuple[str, bool]]
                       ) -> List[int]:
        """Intern every branch outcome, returning ids in input order."""
        return self._intern_all(self._branches, self._branch_keys,
                                tuple(outcomes))

    def statement_ids(self, sites: Iterable[str]) -> FrozenSet[int]:
        """Intern every statement site, returning the id set."""
        return frozenset(self.statement_id_list(sites))

    def branch_ids(self, outcomes: Iterable[Tuple[str, bool]]
                   ) -> FrozenSet[int]:
        """Intern every branch outcome, returning the id set."""
        return frozenset(self.branch_id_list(outcomes))

    def statement_id(self, site: str) -> int:
        """Intern one statement site, returning its id."""
        return self.statement_id_list((site,))[0]

    def branch_id(self, outcome: Tuple[str, bool]) -> int:
        """Intern one branch outcome, returning its id."""
        return self.branch_id_list((outcome,))[0]

    # -- reverse lookup ----------------------------------------------------------

    def resolve_statements(self, ids: Iterable[int]) -> List[str]:
        """Map statement ids back to their sites (packed-trace decode)."""
        return list(map(self._statement_sites.__getitem__, ids))

    def resolve_branches(self, ids: Iterable[int]
                         ) -> List[Tuple[str, bool]]:
        """Map branch ids back to ``(site, taken)`` keys."""
        return list(map(self._branch_keys.__getitem__, ids))


#: The process-global interner every :class:`Tracefile` shares.  All
#: tracefiles in one process agree on ids, so their interned sets are
#: directly comparable.
GLOBAL_INTERNER = SiteInterner()
