"""classfuzz: coverage-directed differential testing of JVM implementations.

A Python reproduction of Chen et al., PLDI 2016.  The package bundles:

* :mod:`repro.classfile` — a complete JVM classfile binary reader/writer;
* :mod:`repro.bytecode` — the JVM instruction set, codec, and assembler;
* :mod:`repro.jimple` — a Soot-like IR with a compiler and lifter;
* :mod:`repro.runtime` — a simulated platform library with per-JRE
  environments;
* :mod:`repro.jvm` — five simulated JVM implementations sharing one
  startup pipeline, parameterised by vendor policy;
* :mod:`repro.coverage` — statement/branch coverage of the reference JVM
  and the [st]/[stbr]/[tr] uniqueness criteria;
* :mod:`repro.corpus` — the synthetic JRE-library seed corpus;
* :mod:`repro.core` — classfuzz itself: 129 mutators, MCMC mutator
  selection, the fuzzing algorithms, the differential harness, and the
  hierarchical reducer.

Quickstart::

    from repro import (classfuzz, generate_corpus, CorpusConfig,
                       DifferentialHarness, evaluate_suite)

    seeds = generate_corpus(CorpusConfig(count=100))
    run = classfuzz(seeds, iterations=300, criterion="stbr", seed=0)
    report = evaluate_suite(
        "TestClasses", [(g.label, g.data) for g in run.test_classes])
    print(report.row())
"""

from repro.classfile import ClassFile, read_class, write_class
from repro.core import (
    DifferentialHarness,
    ExecutorStats,
    FuzzResult,
    MUTATORS,
    McmcMutatorSelector,
    Mutator,
    OutcomeCache,
    SerialExecutor,
    SuiteReport,
    classfuzz,
    evaluate_suite,
    greedyfuzz,
    make_executor,
    randfuzz,
    reduce_discrepancy,
    uniquefuzz,
)
from repro.corpus import CorpusConfig, generate_corpus
from repro.coverage import CoverageCollector, Tracefile, make_criterion
from repro.jimple import (
    ClassBuilder,
    JClass,
    JMethod,
    MethodBuilder,
    compile_class,
    lift_class,
    print_class,
)
from repro.jimple.to_classfile import compile_class_bytes
from repro.jvm import Jvm, Outcome, Phase, all_jvms, reference_jvm

__version__ = "1.0.0"

__all__ = [
    "ClassBuilder",
    "ClassFile",
    "CorpusConfig",
    "CoverageCollector",
    "DifferentialHarness",
    "FuzzResult",
    "JClass",
    "JMethod",
    "Jvm",
    "MUTATORS",
    "McmcMutatorSelector",
    "MethodBuilder",
    "Mutator",
    "Outcome",
    "Phase",
    "SuiteReport",
    "Tracefile",
    "all_jvms",
    "classfuzz",
    "compile_class",
    "compile_class_bytes",
    "evaluate_suite",
    "generate_corpus",
    "greedyfuzz",
    "lift_class",
    "make_criterion",
    "print_class",
    "randfuzz",
    "read_class",
    "reduce_discrepancy",
    "reference_jvm",
    "uniquefuzz",
    "write_class",
]
