"""Suite-level effectiveness metrics (§3.1.3): the rows of Table 6."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.difftest import DifferentialHarness
from repro.core.executor import Executor
from repro.jvm.outcome import DifferentialResult


@dataclass
class SuiteReport:
    """Differential-testing statistics for one classfile suite.

    Attributes:
        name: suite label (e.g. ``TestClasses_classfuzz[stbr]``).
        size: number of classfiles tested.
        all_invoked: classfiles every JVM invoked normally.
        all_rejected_same_stage: classfiles every JVM rejected in the
            same phase.
        discrepancies: classfiles with non-constant outcome vectors.
        distinct_discrepancies: number of distinct fine-grained
            ``(phase, error class)`` encodings among the discrepancies —
            the categories triage clusters on.
        fine_discrepancies: classfiles discrepant under the §2.3
            fine-grained (phase, error class) encoding — always at least
            ``discrepancies``, the delta being the phase-encoding's false
            negatives.
        categories: fine encoded vector → count, for discrepancy
            analysis (:meth:`DifferentialHarness.coarse_discrepancies`
            recovers the paper's phase-only grouping).
        results: the per-classfile differential results.
    """

    name: str
    size: int
    all_invoked: int
    all_rejected_same_stage: int
    discrepancies: int
    distinct_discrepancies: int
    fine_discrepancies: int = 0
    categories: Dict[Tuple[Tuple[int, str], ...], int] = \
        field(default_factory=dict)
    results: List[DifferentialResult] = field(default_factory=list)

    @property
    def diff(self) -> float:
        """``diff = |Discrepancies| / |Classes|`` (§3.1.3)."""
        if self.size == 0:
            return 0.0
        return self.discrepancies / self.size

    def row(self) -> Dict[str, object]:
        """A Table 6 row as a dict (for printing/serialisation)."""
        return {
            "suite": self.name,
            "classes": self.size,
            "all_invoked": self.all_invoked,
            "all_rejected_same_stage": self.all_rejected_same_stage,
            "discrepancies": self.discrepancies,
            "distinct_discrepancies": self.distinct_discrepancies,
            "fine": self.fine_discrepancies,
            "diff": f"{self.diff:.1%}",
        }


def evaluate_suite(name: str, classfiles: Sequence[Tuple[str, bytes]],
                   harness: Optional[DifferentialHarness] = None,
                   executor: Optional[Executor] = None) -> SuiteReport:
    """Run a suite through the harness and summarise it (a Table 6 row).

    ``executor`` overrides the harness's engine for this evaluation —
    e.g. a :class:`~repro.core.executor.ProcessExecutor` to fan the
    suite out over workers.
    """
    harness = harness or DifferentialHarness()
    results = harness.run_many(classfiles, executor=executor)
    categories = harness.distinct_discrepancies(results)
    return SuiteReport(
        name=name,
        size=len(results),
        all_invoked=sum(1 for r in results if r.all_invoked),
        all_rejected_same_stage=sum(
            1 for r in results if r.all_rejected_same_stage),
        discrepancies=sum(1 for r in results if r.is_discrepancy),
        distinct_discrepancies=len(categories),
        fine_discrepancies=sum(
            1 for r in results if r.is_fine_discrepancy),
        categories=categories,
        results=results,
    )


def format_table(reports: Sequence[SuiteReport]) -> str:
    """Render reports as an aligned text table."""
    headers = ["suite", "classes", "all_invoked", "all_rejected_same_stage",
               "discrepancies", "distinct_discrepancies", "fine", "diff"]
    rows = [[str(report.row()[h]) for h in headers] for report in reports]
    widths = [max(len(h), *(len(row[i]) for row in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)
