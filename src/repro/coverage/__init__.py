"""Coverage instrumentation of the reference JVM (GCOV/LCOV substitute)."""

from repro.coverage.interner import GLOBAL_INTERNER, SiteInterner
from repro.coverage.probes import CoverageCollector, active_collector, probe, branch
from repro.coverage.tracefile import Tracefile, merge
from repro.coverage.uniqueness import (
    UNIQUENESS_CRITERIA,
    StUniqueness,
    StBrUniqueness,
    TrUniqueness,
    UniquenessCriterion,
    make_criterion,
)

__all__ = [
    "CoverageCollector",
    "GLOBAL_INTERNER",
    "SiteInterner",
    "StBrUniqueness",
    "StUniqueness",
    "TrUniqueness",
    "Tracefile",
    "UNIQUENESS_CRITERIA",
    "UniquenessCriterion",
    "active_collector",
    "branch",
    "make_criterion",
    "merge",
    "probe",
]
