"""End-to-end experiment orchestration and the paper-scale cost model.

The paper gives every algorithm the same *wall-clock* budget (three days).
Directed algorithms spend ~90 s per iteration collecting GCOV coverage of
the reference JVM, so in the same budget randfuzz executes ~22× more
iterations.  Our simulated pipeline runs five orders of magnitude faster,
so to reproduce Table 4's iteration/size relations we model each
algorithm's per-iteration cost explicitly and convert a simulated time
budget into an iteration budget.

Per-iteration costs are calibrated from Table 4 itself
(259,200 s / #iterations):

=================  ==========================
algorithm          seconds per iteration
=================  ==========================
classfuzz[stbr]    121.7
classfuzz[st]      123.0
classfuzz[tr]      131.5   (+ tracefile merging)
uniquefuzz         136.6
greedyfuzz         135.6
randfuzz           5.6     (no coverage run)
=================  ==========================
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.executor import (
    Executor,
    ExecutorStats,
    OutcomeCache,
    SerialExecutor,
)
from repro.core.fuzzing import (
    FuzzResult,
    classfuzz,
    greedyfuzz,
    randfuzz,
    uniquefuzz,
)
from repro.core.metrics import SuiteReport, evaluate_suite
from repro.core.difftest import DifferentialHarness
from repro.jimple.model import JClass
from repro.jvm.machine import Jvm
from repro.observe.tracing import NULL_SPAN

#: Paper wall-clock budget: three days, in seconds.
PAPER_BUDGET_SECONDS = 3 * 24 * 3600

#: Calibrated per-iteration costs (seconds), from Table 4.
ITERATION_COST = {
    "classfuzz[stbr]": PAPER_BUDGET_SECONDS / 2130,
    "classfuzz[st]": PAPER_BUDGET_SECONDS / 2108,
    "classfuzz[tr]": PAPER_BUDGET_SECONDS / 1971,
    "uniquefuzz": PAPER_BUDGET_SECONDS / 1898,
    "greedyfuzz": PAPER_BUDGET_SECONDS / 1911,
    "randfuzz": PAPER_BUDGET_SECONDS / 46318,
}


def iterations_for_budget(algorithm: str, budget_seconds: float) -> int:
    """How many iterations ``algorithm`` completes in ``budget_seconds``
    under the paper-scale cost model."""
    try:
        cost = ITERATION_COST[algorithm]
    except KeyError:
        raise ValueError(f"unknown algorithm {algorithm!r}") from None
    # The epsilon absorbs floating-point floor artifacts when the budget
    # is an exact multiple of the calibrated cost.
    return max(1, int(budget_seconds / cost + 1e-9))


@dataclass
class CampaignRun:
    """One algorithm's results within a campaign.

    Attributes:
        label: algorithm label as used in the paper's tables.
        fuzz: the raw fuzzing result.
        gen_report: Table 6 row for ``GenClasses``.
        test_report: Table 6 row for ``TestClasses``.
        modeled_seconds_per_generated: the cost model's average seconds
            per generated classfile (Table 4's row).
        modeled_seconds_per_test: likewise per accepted test classfile.
        fuzz_seconds: real wall-clock spent in this algorithm's fuzzing
            phase (all repetitions).
        evaluate_seconds: real wall-clock spent differential-testing the
            Gen/Test suites.
        executor_stats: the executor counters this run accumulated —
            runs, cache hits, batches, per-vendor latency (``None`` when
            no stats were collected).
        triage_clusters: the discrepancy clusters this run's TestClasses
            contributed to the campaign's triage engine (``None`` when
            no engine was supplied).
    """

    label: str
    fuzz: FuzzResult
    gen_report: Optional[SuiteReport] = None
    test_report: Optional[SuiteReport] = None
    fuzz_seconds: float = 0.0
    evaluate_seconds: float = 0.0
    executor_stats: Optional[ExecutorStats] = None
    triage_clusters: Optional[List] = None

    def _modeled_spent_seconds(self) -> float:
        """Total modeled seconds for this run's iterations.

        Labels outside the calibrated Table 4 cost model (extension
        algorithms, ad-hoc labels) fall back to the *measured* wall-clock
        of the fuzzing run, so the per-classfile averages stay meaningful
        instead of raising ``KeyError``.
        """
        cost = ITERATION_COST.get(self.label)
        if cost is not None:
            return cost * self.fuzz.iterations
        return self.fuzz.elapsed_seconds

    @property
    def modeled_seconds_per_generated(self) -> float:
        if not self.fuzz.gen_classes:
            return 0.0
        return self._modeled_spent_seconds() / len(self.fuzz.gen_classes)

    @property
    def modeled_seconds_per_test(self) -> float:
        if not self.fuzz.test_classes:
            return 0.0
        return self._modeled_spent_seconds() / len(self.fuzz.test_classes)

    def table4_row(self) -> Dict[str, object]:
        """The Table 4 row for this run."""
        return {
            "algorithm": self.label,
            "iterations": self.fuzz.iterations,
            "GenClasses": len(self.fuzz.gen_classes),
            "TestClasses": len(self.fuzz.test_classes),
            "succ": f"{self.fuzz.succ:.1%}",
            "sec_per_generated": f"{self.modeled_seconds_per_generated:.1f}",
            "sec_per_test": f"{self.modeled_seconds_per_test:.1f}",
        }


#: Algorithm label → runner taking (seeds, iterations, seed, **shared kw).
_RUNNERS: Dict[str, Callable[..., FuzzResult]] = {
    "classfuzz[stbr]": lambda seeds, iters, rng_seed, **kw: classfuzz(
        seeds, iters, criterion="stbr", seed=rng_seed, **kw),
    "classfuzz[st]": lambda seeds, iters, rng_seed, **kw: classfuzz(
        seeds, iters, criterion="st", seed=rng_seed, **kw),
    "classfuzz[tr]": lambda seeds, iters, rng_seed, **kw: classfuzz(
        seeds, iters, criterion="tr", seed=rng_seed, **kw),
    "uniquefuzz": lambda seeds, iters, rng_seed, **kw: uniquefuzz(
        seeds, iters, seed=rng_seed, **kw),
    "greedyfuzz": lambda seeds, iters, rng_seed, **kw: greedyfuzz(
        seeds, iters, seed=rng_seed, **kw),
    "randfuzz": lambda seeds, iters, rng_seed, **kw: randfuzz(
        seeds, iters, seed=rng_seed, **kw),
}

ALL_ALGORITHMS = tuple(_RUNNERS)


def safe_label(label: str) -> str:
    """An algorithm label as a filesystem-safe directory name.

    ``classfuzz[tr]`` → ``classfuzz-tr``; labels without criterion
    brackets pass through unchanged.  Checkpoint subdirectories, the
    ``--suites-out`` layout, and the service daemon's per-leg artifact
    directories all use this mapping, so a foreground campaign and a
    daemon-sharded one produce directly comparable trees.
    """
    return label.replace("[", "-").replace("]", "")


def run_algorithm(label: str, seeds: Sequence[JClass], iterations: int,
                  rng_seed: int, **kwargs) -> FuzzResult:
    """Run one campaign leg: the algorithm ``label`` for ``iterations``.

    This is the unit of work the service daemon shards campaigns into —
    exactly what :func:`run_campaign` runs per algorithm (repetition 0),
    so a leg executed in a worker subprocess with the same
    ``(seeds, iterations, rng_seed)`` produces a byte-identical suite.
    All fuzzing keywords (``executor``, ``telemetry``, ``batch``,
    ``schedule``, ``checkpoint_dir``, ``resume``, ...) pass through.

    Raises:
        ValueError: for a label outside :data:`ALL_ALGORITHMS`.
    """
    try:
        runner = _RUNNERS[label]
    except KeyError:
        raise ValueError(f"unknown algorithm {label!r}; expected one of "
                         f"{ALL_ALGORITHMS}") from None
    return runner(seeds, iterations, rng_seed, **kwargs)


def save_campaign_suites(runs: Sequence["CampaignRun"],
                         directory: Path) -> List[Path]:
    """Save every run's accepted suite under ``directory/<safe label>/``.

    The CLI's ``campaign --suites-out`` path.  Each algorithm's suite is
    written with :func:`repro.core.storage.save_suite`, so the per-leg
    ``manifest.json`` files are byte-comparable with the ones a service
    campaign job leaves under ``legs/<safe label>/suite/``.
    """
    from repro.core.storage import save_suite

    directory = Path(directory)
    return [save_suite(run.fuzz, directory / safe_label(run.label))
            for run in runs]


def _checkpoint_subdir(label: str, repetition: int) -> str:
    """A filesystem-safe checkpoint subdirectory for one campaign leg."""
    return f"{safe_label(label)}-r{repetition}"


def run_campaign(seeds: Sequence[JClass], budget_seconds: float,
                 algorithms: Sequence[str] = ALL_ALGORITHMS,
                 rng_seed: int = 0,
                 evaluate: bool = False,
                 harness: Optional[DifferentialHarness] = None,
                 repetitions: int = 1,
                 executor: Optional[Executor] = None,
                 reference: Optional[Jvm] = None,
                 telemetry=None, batch: int = 1,
                 schedule=None, checkpoint_dir=None,
                 checkpoint_every: int = 50,
                 resume: bool = False,
                 triage=None,
                 mutators=None) -> List[CampaignRun]:
    """Run the Table 4/6 experiment at a scaled budget.

    Args:
        seeds: the seed corpus.
        budget_seconds: simulated wall-clock budget (the paper uses
            :data:`PAPER_BUDGET_SECONDS`; a scaled-down budget keeps the
            iteration *ratios* while shrinking the run).
        algorithms: which algorithms to run.
        rng_seed: base RNG seed.
        evaluate: also differential-test Gen/Test suites (Table 6 rows).
        repetitions: run each algorithm this many times and keep the run
            with the largest test suite (the paper's §3.1.3 protocol).
        executor: one execution engine shared by every fuzzing run and
            (unless a custom ``harness`` brings its own) the differential
            evaluation.  Defaults to a cached serial engine, so every
            algorithm's seed-priming coverage runs and the Gen/Test suite
            overlap hit the content-addressed cache.
        reference: the coverage-instrumented reference JVM injected into
            all four algorithms (defaults to each run constructing
            :func:`~repro.jvm.vendors.reference_jvm`).
        telemetry: optional :class:`~repro.observe.telemetry.Telemetry`
            threaded into every fuzzing run, the executor instruments,
            and the differential harness; per-algorithm fuzz/evaluate
            phases run inside ``campaign.fuzz``/``campaign.evaluate``
            spans.
        batch: speculative batch size handed to every fuzzing run
            (``1`` = the serial Algorithm 1 loop; larger batches fan the
            reference coverage runs out across the executor's workers).
        schedule: seed-schedule name (or scheduler instance) handed to
            every fuzzing run (default: the paper's uniform pick).
        checkpoint_dir: when given, each ``(algorithm, repetition)`` leg
            checkpoints into its own subdirectory here every
            ``checkpoint_every`` iterations.
        checkpoint_every: iteration interval between checkpoints.
        resume: restore each leg's latest checkpoint and continue — legs
            that already completed return their checkpointed result
            immediately, so a killed campaign re-runs only the
            interrupted and unstarted legs.
        triage: optional :class:`~repro.triage.TriageEngine`; when
            evaluation is on, every algorithm's TestClasses results are
            fed into it, deduplicating discrepancies across the whole
            campaign into one cluster inventory (each run records the
            clusters its suite touched in ``triage_clusters``).
        mutators: mutator rotation handed to every fuzzing run
            (default: the paper's 129-operator registry; e.g.
            ``MUTATORS + EXECUTION_MUTATORS`` for execution-targeted
            campaigns).
    """
    executor = executor if executor is not None \
        else SerialExecutor(cache=OutcomeCache(), telemetry=telemetry)
    harness = harness or (
        DifferentialHarness(executor=executor, telemetry=telemetry)
        if evaluate else None)
    # Stats can accrue on two engines when a caller-supplied harness
    # brings its own; per-run deltas merge both.
    engines: List[Executor] = [executor]
    if harness is not None and harness.executor is not executor:
        engines.append(harness.executor)
    def _span(name: str):
        if telemetry is None:
            return NULL_SPAN
        return telemetry.span(name)

    # The live monitor (--serve) attaches a status tracker; campaigns
    # feed it the leg-level context individual fuzz runs can't know.
    status = getattr(telemetry, "status", None) if telemetry is not None \
        else None
    if status is not None:
        status.update(algorithms=list(algorithms),
                      budget_seconds=budget_seconds,
                      repetitions=max(1, repetitions),
                      evaluate=evaluate, batch=batch)

    runs: List[CampaignRun] = []
    for leg_index, label in enumerate(algorithms):
        iterations = iterations_for_budget(label, budget_seconds)
        if status is not None:
            status.update(current_algorithm=label,
                          leg=leg_index + 1, legs=len(algorithms),
                          leg_iterations=iterations, phase="fuzz")
        before = [engine.stats.snapshot() for engine in engines]
        fuzz_started = time.perf_counter()
        best: Optional[FuzzResult] = None
        with _span("campaign.fuzz"):
            for repetition in range(max(1, repetitions)):
                leg_dir = None
                if checkpoint_dir is not None:
                    leg_dir = Path(checkpoint_dir) / _checkpoint_subdir(
                        label, repetition)
                leg_kwargs = dict(executor=executor,
                                  reference=reference,
                                  telemetry=telemetry,
                                  batch=batch,
                                  schedule=schedule,
                                  checkpoint_dir=leg_dir,
                                  checkpoint_every=checkpoint_every,
                                  resume=resume)
                if mutators is not None:
                    leg_kwargs["mutators"] = mutators
                result = _RUNNERS[label](seeds, iterations,
                                         rng_seed + repetition,
                                         **leg_kwargs)
                if best is None or len(result.test_classes) > len(
                        best.test_classes):
                    best = result
        run = CampaignRun(label, best)
        run.fuzz_seconds = time.perf_counter() - fuzz_started
        if evaluate:
            evaluate_started = time.perf_counter()
            if status is not None:
                status.update(phase="evaluate")
            with _span("campaign.evaluate"):
                run.gen_report = evaluate_suite(
                    f"Gen_{label}",
                    [(g.label, g.data) for g in best.gen_classes], harness)
                run.test_report = evaluate_suite(
                    f"Test_{label}",
                    [(g.label, g.data) for g in best.test_classes], harness)
                if triage is not None:
                    data_by_label = {g.label: g.data
                                     for g in best.test_classes}
                    run.triage_clusters = triage.add_many(
                        run.test_report.results, data_by_label)
            run.evaluate_seconds = time.perf_counter() - evaluate_started
        run.executor_stats = ExecutorStats()
        for engine, earlier in zip(engines, before):
            run.executor_stats.add(engine.stats.since(earlier))
        runs.append(run)
    if status is not None:
        status.update(phase="done")
    return runs


def format_mutator_report(runs: Sequence[CampaignRun],
                          top: int = 10) -> str:
    """Render each run's mutator-selection report (the Table 5 view).

    One block per algorithm: the ``top`` mutators in rank order with
    their selection counts and the success rates that drive the MCMC
    ranking.  Runs whose fuzz result carries no report are skipped.
    """
    headers = ["mutator", "selected", "successes", "succ"]
    blocks: List[str] = []
    for run in runs:
        report = run.fuzz.mutator_report or []
        shown = report[:max(0, top)]
        rows = [[name, str(selected), str(successes), f"{rate:.1%}"]
                for name, selected, successes, rate in shown]
        widths = [max(len(h), *(len(r[i]) for r in rows)) if rows
                  else len(h) for i, h in enumerate(headers)]
        lines = [f"mutator report — {run.label} "
                 f"(top {len(shown)} of {len(report)})"]
        lines.append("  ".join(h.ljust(widths[i])
                               for i, h in enumerate(headers)))
        for row in rows:
            lines.append("  ".join(cell.ljust(widths[i])
                                   for i, cell in enumerate(row)))
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def format_table4(runs: Sequence[CampaignRun]) -> str:
    """Render campaign runs as the paper's Table 4."""
    headers = ["algorithm", "iterations", "GenClasses", "TestClasses",
               "succ", "sec_per_generated", "sec_per_test"]
    rows = [[str(run.table4_row()[h]) for h in headers] for run in runs]
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)
