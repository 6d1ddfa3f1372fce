"""classfuzz core: mutators, MCMC mutator selection, fuzzing algorithms,
differential testing, discrepancy metrics, and test-case reduction."""

from repro.core.mutators import MUTATORS, Mutator, mutator_by_name
from repro.core.mcmc import McmcMutatorSelector, estimate_p_range, DEFAULT_P
from repro.core.fuzzing import (
    FuzzResult,
    classfuzz,
    greedyfuzz,
    randfuzz,
    uniquefuzz,
)
from repro.core.difftest import DifferentialHarness
from repro.core.executor import (
    Executor,
    ExecutorStats,
    OutcomeCache,
    ProcessExecutor,
    SerialExecutor,
    classfile_digest,
    make_executor,
)
from repro.core.metrics import SuiteReport, evaluate_suite
from repro.core.reducer import reduce_discrepancy

__all__ = [
    "DEFAULT_P",
    "DifferentialHarness",
    "Executor",
    "ExecutorStats",
    "FuzzResult",
    "MUTATORS",
    "McmcMutatorSelector",
    "Mutator",
    "OutcomeCache",
    "ProcessExecutor",
    "SerialExecutor",
    "SuiteReport",
    "classfile_digest",
    "classfuzz",
    "estimate_p_range",
    "evaluate_suite",
    "greedyfuzz",
    "make_executor",
    "mutator_by_name",
    "randfuzz",
    "reduce_discrepancy",
    "uniquefuzz",
]
