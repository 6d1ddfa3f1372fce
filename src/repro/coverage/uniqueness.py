"""The three coverage-uniqueness criteria of §2.2.3: [st], [stbr], [tr].

A candidate classfile is *representative* w.r.t. the current test suite
when its tracefile is distinguishable from every accepted classfile's
tracefile under the chosen criterion.  Each criterion maintains the index
it needs so acceptance checks stay O(1)/O(set-size) rather than O(suite).

Acceptance bookkeeping lives in the base class: every criterion counts
its accepted suite (``accepted_count``) and, when handed a telemetry
bundle, feeds the ``repro_uniqueness_checks_total{criterion,outcome}``
counter and the ``repro_unique_traces{criterion}`` gauge — the raw
material of the coverage-growth time series.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Set, Tuple

from repro.coverage.tracefile import Tracefile


class UniquenessCriterion:
    """Interface: decide whether a tracefile is unique w.r.t. the suite.

    Subclasses implement :meth:`is_unique` and :meth:`_record`; the
    public :meth:`accept`/:meth:`check_and_accept` wrappers keep the
    acceptance count and telemetry in one place.
    """

    #: Short name used in tables ("st", "stbr", "tr").
    name = "abstract"

    def __init__(self, telemetry=None) -> None:
        self.accepted_count = 0
        self.telemetry = telemetry
        if telemetry is not None:
            self._checks = telemetry.registry.counter(
                "repro_uniqueness_checks_total",
                "Uniqueness decisions by criterion and outcome.",
                ("criterion", "outcome"))
            self._unique = telemetry.registry.gauge(
                "repro_unique_traces",
                "Accepted coverage-unique traces (suite size).",
                ("criterion",)).labels(criterion=self.name)
        else:
            self._checks = self._unique = None

    def is_unique(self, trace: Tracefile) -> bool:
        """Whether ``trace`` is distinguishable from every accepted trace."""
        raise NotImplementedError

    def _record(self, trace: Tracefile) -> None:
        """Index ``trace`` as part of the accepted suite."""
        raise NotImplementedError

    def accept(self, trace: Tracefile) -> None:
        """Record ``trace`` as accepted into the suite."""
        self._record(trace)
        self.accepted_count += 1
        if self._unique is not None:
            self._unique.set(self.accepted_count)

    def check_and_accept(self, trace: Tracefile) -> bool:
        """Accept ``trace`` if unique; returns whether it was accepted."""
        unique = self.is_unique(trace)
        if unique:
            self.accept(trace)
        if self._checks is not None:
            self._checks.labels(
                criterion=self.name,
                outcome="accepted" if unique else "rejected").inc()
        return unique


class StUniqueness(UniquenessCriterion):
    """[st]: no accepted classfile has the same statement statistic."""

    name = "st"

    def __init__(self, telemetry=None) -> None:
        super().__init__(telemetry)
        self._seen: Set[int] = set()

    def is_unique(self, trace: Tracefile) -> bool:
        return trace.stmt not in self._seen

    def _record(self, trace: Tracefile) -> None:
        self._seen.add(trace.stmt)


class StBrUniqueness(UniquenessCriterion):
    """[stbr]: no accepted classfile has the same (stmt, br) pair."""

    name = "stbr"

    def __init__(self, telemetry=None) -> None:
        super().__init__(telemetry)
        self._seen: Set[Tuple[int, int]] = set()

    def is_unique(self, trace: Tracefile) -> bool:
        return trace.signature not in self._seen

    def _record(self, trace: Tracefile) -> None:
        self._seen.add(trace.signature)


class TrUniqueness(UniquenessCriterion):
    """[tr]: no accepted classfile has the same statement *and* branch sets.

    Per the paper, two tracefiles are indistinguishable when merging them
    (⊕) changes neither the statement nor the branch statistic — i.e. the
    hit sets coincide (execution order and frequencies are ignored).
    """

    name = "tr"

    def __init__(self, telemetry=None) -> None:
        super().__init__(telemetry)
        #: The single index: statistics pair → hit-set keys with that
        #: signature, so only same-signature candidates incur the set
        #: comparison (the "extra cost of merging tracefiles").  Keys are
        #: interned-id frozensets held in a per-bucket ``set``, so a
        #: same-signature membership test is one hash lookup over int
        #: sets instead of O(bucket) frozenset-of-string comparisons.
        self._by_signature: Dict[Tuple[int, int], Set[
            Tuple[FrozenSet[int], FrozenSet[int]]]] = {}

    def is_unique(self, trace: Tracefile) -> bool:
        candidates = self._by_signature.get(trace.signature)
        if candidates is None:
            return True
        return (trace.stmt_ids, trace.br_ids) not in candidates

    def _record(self, trace: Tracefile) -> None:
        key = (trace.stmt_ids, trace.br_ids)
        self._by_signature.setdefault(trace.signature, set()).add(key)


#: Criterion name → factory.
UNIQUENESS_CRITERIA = {
    "st": StUniqueness,
    "stbr": StBrUniqueness,
    "tr": TrUniqueness,
}


def make_criterion(name: str, telemetry=None) -> UniquenessCriterion:
    """Instantiate a criterion by table name (``st``/``stbr``/``tr``)."""
    try:
        factory = UNIQUENESS_CRITERIA[name]
    except KeyError:
        raise ValueError(f"unknown uniqueness criterion {name!r}") from None
    return factory(telemetry)
