"""Differential testing harness (§2.3).

Runs each classfile on the five JVM implementations of Table 3, encodes
the per-JVM outcomes into the 0–4 phase-code vector, and reports
discrepancies.  All JVM executions route through a pluggable
:class:`~repro.core.executor.Executor`, so the same harness runs serially
or on a process pool — with identical results.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.executor import Executor, SerialExecutor
from repro.jvm.machine import Jvm
from repro.jvm.outcome import DifferentialResult
from repro.jvm.vendors import all_jvms
from repro.observe.events import DISCREPANCY_FOUND


class DifferentialHarness:
    """Runs classfiles across a fixed set of JVMs.

    Attributes:
        jvms: the implementations under test, in report column order.
        executor: the default execution engine (an uncached
            :class:`SerialExecutor` unless one is supplied).
        telemetry: optional :class:`~repro.observe.telemetry.Telemetry`;
            when present every discrepancy increments
            ``repro_discrepancies_total`` and emits a
            ``discrepancy_found`` event.
    """

    def __init__(self, jvms: Optional[Sequence[Jvm]] = None,
                 executor: Optional[Executor] = None,
                 telemetry=None):
        self.jvms: List[Jvm] = list(jvms) if jvms is not None else all_jvms()
        self.executor: Executor = executor if executor is not None \
            else SerialExecutor()
        self.telemetry = telemetry
        if telemetry is not None:
            self._tested = telemetry.registry.counter(
                "repro_difftests_total",
                "Classfiles run through the differential harness.")
            self._discrepancies = telemetry.registry.counter(
                "repro_discrepancies_total",
                "Differential results with a non-constant code vector.")
            status = getattr(telemetry, "status", None)
            if status is not None:  # the --serve path
                status.update(jvms=self.jvm_names)
        else:
            self._tested = self._discrepancies = None

    @property
    def jvm_names(self) -> List[str]:
        return [jvm.name for jvm in self.jvms]

    def _observe(self, result: DifferentialResult) -> None:
        self._tested.inc()
        if not result.is_discrepancy:
            return
        self._discrepancies.inc()
        bus = self.telemetry.bus
        if bus.enabled:
            bus.emit(DISCREPANCY_FOUND, label=result.label,
                     codes=list(result.codes),
                     jvms=[o.jvm_name for o in result.outcomes])

    def run_one(self, data: bytes, label: str = "",
                executor: Optional[Executor] = None) -> DifferentialResult:
        """Execute one classfile on every JVM (one parse, in this
        process, whatever the engine)."""
        engine = executor if executor is not None else self.executor
        result = engine._run_classfile(self.jvms, label, data)
        if self._tested is not None:
            self._observe(result)
        return result

    def run_many(self, classfiles: Iterable[Tuple[str, bytes]],
                 executor: Optional[Executor] = None
                 ) -> List[DifferentialResult]:
        """Execute ``(label, bytes)`` pairs on every JVM.

        Results come back in input order regardless of the engine — a
        parallel executor joins its futures in submission order, so the
        returned sequence is bit-identical to a serial run.
        """
        engine = executor if executor is not None else self.executor
        results = engine.run_differential(self.jvms, classfiles)
        if self._tested is not None:
            for result in results:
                self._observe(result)
        return results

    # -- analysis helpers ---------------------------------------------------------

    @staticmethod
    def discrepancies(results: Sequence[DifferentialResult]
                      ) -> List[DifferentialResult]:
        """The results whose code vectors are non-constant."""
        return [result for result in results if result.is_discrepancy]

    @staticmethod
    def distinct_discrepancies(results: Sequence[DifferentialResult]
                               ) -> Dict[Tuple[Tuple[int, str], ...], int]:
        """Discrepancy categories: fine encoded vector → occurrence count.

        Two discrepancies are in one category when their fine-grained
        ``(phase, error class)`` encodings match (§2.3/§3.1.3).  The
        phase-only code vector conflates genuinely different bugs — e.g.
        a ``VerifyError`` and a ``ClassFormatError`` both raised at the
        linking phase collapse into one coarse category; use
        :meth:`coarse_discrepancies` for the paper's phase-only view.
        """
        categories: Dict[Tuple[Tuple[int, str], ...], int] = {}
        for result in results:
            if result.is_fine_discrepancy:
                key = result.fine_codes
                categories[key] = categories.get(key, 0) + 1
        return categories

    @staticmethod
    def coarse_discrepancies(results: Sequence[DifferentialResult]
                             ) -> Dict[Tuple[int, ...], int]:
        """Phase-only discrepancy categories: code vector → count.

        The paper's original §3.1.3 grouping.  Coarser than
        :meth:`distinct_discrepancies`: results that differ only in
        error class (same phases) are invisible here.
        """
        categories: Dict[Tuple[int, ...], int] = {}
        for result in results:
            if result.is_discrepancy:
                categories[result.codes] = categories.get(result.codes, 0) + 1
        return categories

    def phase_table(self, results: Sequence[DifferentialResult]
                    ) -> Dict[str, List[int]]:
        """Per-JVM phase counts (the paper's Table 7).

        Results may carry outcomes from JVMs outside this harness's
        configured list (e.g. results reloaded from a prior run with a
        different ``--jvms`` selection); those are counted under their
        own row rather than raising ``KeyError``.

        Returns:
            JVM name → ``[invoked, loading, linking, init, runtime]`` counts.
        """
        table = {name: [0, 0, 0, 0, 0] for name in self.jvm_names}
        for result in results:
            for outcome in result.outcomes:
                row = table.setdefault(outcome.jvm_name, [0, 0, 0, 0, 0])
                row[outcome.code] += 1
        return table
