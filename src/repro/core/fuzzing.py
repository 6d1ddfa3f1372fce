"""The fuzzing algorithms of §3.1.2: classfuzz and its three baselines.

All four share the same mutation loop (pick a seed, pick a mutator, apply,
dump to bytes) and differ only in mutator *selection* and mutant
*acceptance*:

================  ====================  =====================================
algorithm         mutator selection     acceptance
================  ====================  =====================================
``classfuzz``     MCMC (§2.2.2)         coverage uniqueness ([st]/[stbr]/[tr])
``uniquefuzz``    uniform               coverage uniqueness ([stbr])
``greedyfuzz``    uniform               accumulated-coverage growth
``randfuzz``      uniform               everything (no coverage run)
================  ====================  =====================================

Accepted representative classfiles are fed back into the seed pool
(Algorithm 1, lines 5 and 14).

Since this module was restructured around the **batched speculative
pipeline**, every algorithm runs in rounds of ``batch`` iterations:

1. *speculate* — draw ``batch`` mutator selections from the selector and
   apply them against the round's (frozen) seed pool (the only
   RNG-consuming stage, so it stays sequential);
2. *fan out* — compile and dump the round's mutant drafts in the fuzzing
   process (:meth:`~repro.core.executor.Executor.map_many` is an in-order
   loop on every engine, so each clone replays its origin's compile
   template), then run the resulting classfiles on the reference JVM in
   one :meth:`~repro.core.executor.Executor.run_reference_many` bulk
   call, which short-circuits per item through the content-addressed
   tracefile cache and parallelises the misses on the process backend
   (its **persistent workers** keep the reference JVM warm across rounds
   and pickle each run's tracefile back; the parent re-keys it onto its
   own interned ids, equal to the tracefile a serial run collects — see
   :mod:`repro.core.worker`);
3. *replay acceptance* — uniqueness checks, seed-pool feedback, MCMC
   ``record_success`` and telemetry fire sequentially in batch-index
   order.

The replay step makes results reproducible for a fixed ``(seed, batch)``
on every backend, and ``batch=1`` consumes the RNG in exactly the
original serial order, so its output is bit-identical to the historical
loop.  At ``batch>1`` the selector and seed pool are *boundedly stale*:
an accepted mutant only influences selections and mutations from the
next round on (the throughput/feedback-latency trade the pipeline makes
deliberately).

Two orthogonal corpus-subsystem hooks ride on the pipeline:

* **seed scheduling** — the engine keeps its seeds in a
  :class:`~repro.corpus.pool.SeedPool` whose pluggable
  :class:`~repro.corpus.schedule.SeedScheduler` decides which pool
  member each iteration mutates (default: the paper's uniform policy,
  byte-identical to the historical ``rng.choice``), and per-seed
  pick/acceptance/novelty statistics flow into
  :attr:`FuzzResult.seed_stats` and the v2 suite manifest;
* **checkpointing** — pass ``checkpoint_dir`` to snapshot the run's
  full deterministic state every ``checkpoint_every`` iterations (at
  round boundaries) via :mod:`repro.core.checkpoint`; ``resume=True``
  restores the latest snapshot so a killed run continues bit-equal to
  the uninterrupted one.
"""

from __future__ import annotations

import os
import random
import struct
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.classfile.writer import write_class
from repro.core.checkpoint import (
    Checkpointer,
    has_checkpoint,
    load_checkpoint,
    restore_run,
)
from repro.core.executor import Executor, OutcomeCache, SerialExecutor
from repro.core.mcmc import DEFAULT_P, McmcMutatorSelector, UniformMutatorSelector
from repro.core.shutdown import GracefulShutdown, shutdown_requested
from repro.core.mutators import MUTATORS, Mutator
from repro.corpus.pool import SeedEntry, SeedPool
from repro.corpus.schedule import SeedScheduler, make_scheduler
from repro.coverage.tracefile import Tracefile
from repro.coverage.uniqueness import make_criterion
from repro.jimple.builder import add_printing_main
from repro.jimple.model import JClass
from repro.jimple.to_classfile import JimpleCompileError, compile_class
from repro.jvm.machine import Jvm
from repro.jvm.vendors import reference_jvm
from repro.observe.events import ITERATION, MUTANT_ACCEPTED, MUTANT_DISCARDED

#: Default iteration interval between campaign checkpoints.
DEFAULT_CHECKPOINT_EVERY = 50

#: Discard categories recorded on :attr:`FuzzResult.discards`.
DISCARD_MUTATOR_ERROR = "mutator_error"    # the rewrite itself crashed
DISCARD_INAPPLICABLE = "inapplicable"      # mutator reported not applied
DISCARD_COMPILE_ERROR = "compile_error"    # Jimple → classfile dump failed
DISCARD_DUMP_ERROR = "dump_error"          # classfile serialization overflow


@dataclass
class GeneratedClass:
    """One classfile produced by a fuzzing run.

    Attributes:
        label: the mutant's class name.
        jclass: the Jimple form (source of truth for further mutation).
        data: the classfile bytes as run on the JVMs.
        mutator: name of the mutator that produced it (``None`` for seeds).
        tracefile: reference-JVM coverage, when collected.
        parent: label of the pool seed this mutant was mutated from
            (``None`` for corpus seeds) — the manifest's lineage edge.
    """

    label: str
    jclass: JClass
    data: bytes
    mutator: Optional[str] = None
    tracefile: Optional[Tracefile] = None
    parent: Optional[str] = None


@dataclass
class FuzzResult:
    """The artefacts and statistics of one fuzzing run (Table 4 row).

    Attributes:
        algorithm: ``classfuzz``/``uniquefuzz``/``greedyfuzz``/``randfuzz``.
        criterion: uniqueness criterion name, when applicable.
        iterations: mutation iterations executed.
        gen_classes: every classfile generated (``GenClasses``).
        test_classes: the accepted representative suite (``TestClasses``,
            seeds excluded per Algorithm 1 line 19).
        mutator_report: ``(name, selected, successes, rate)`` rows.
        elapsed_seconds: wall-clock duration of the run.
        batch: the speculative batch size the run used (1 = the serial
            Algorithm 1 loop).
        discards: failure category → iterations discarded for that reason
            (``mutator_error``/``inapplicable``/``compile_error``/
            ``dump_error``), so swallowed iterations stay visible:
            ``iterations == len(gen_classes) + sum(discards.values())``.
        scheduler: registry name of the seed schedule the run used.
        seed_stats: per-seed scheduling rows (label, origin, size, picks,
            accepted, novelty) for every pool member that was picked,
            credited, or fed back — the v2 manifest's ``seed_stats``.
    """

    algorithm: str
    criterion: Optional[str]
    iterations: int
    gen_classes: List[GeneratedClass] = field(default_factory=list)
    test_classes: List[GeneratedClass] = field(default_factory=list)
    mutator_report: List[Tuple[str, int, int, float]] = field(
        default_factory=list)
    elapsed_seconds: float = 0.0
    batch: int = 1
    discards: Dict[str, int] = field(default_factory=dict)
    scheduler: str = "uniform"
    seed_stats: List[Dict[str, object]] = field(default_factory=list)

    @property
    def succ(self) -> float:
        """``succ(X) = |TestClasses| / #iterations`` (§3.1.3)."""
        if self.iterations == 0:
            return 0.0
        return len(self.test_classes) / self.iterations

    @property
    def discarded(self) -> int:
        """Total iterations that produced no classfile, across categories."""
        return sum(self.discards.values())

    @property
    def seconds_per_generated(self) -> float:
        """Average wall-clock seconds per generated classfile."""
        if not self.gen_classes:
            return 0.0
        return self.elapsed_seconds / len(self.gen_classes)

    @property
    def seconds_per_test(self) -> float:
        """Average wall-clock seconds per accepted test classfile."""
        if not self.test_classes:
            return 0.0
        return self.elapsed_seconds / len(self.test_classes)

    @property
    def mutants_per_second(self) -> float:
        """Generated-classfile throughput (the pipeline's headline rate)."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return len(self.gen_classes) / self.elapsed_seconds


def supplement_main(jclass: JClass) -> None:
    """Add the §2.2.1 supplemented ``main`` when the mutant lacks one.

    The added method prints a message proving the class was loaded and its
    main method invoked.
    """
    for method in jclass.methods:
        if method.name == "main":
            return
    add_printing_main(jclass, f"{jclass.name} mutant executed")


def _dump_mutant(mutant: JClass
                 ) -> Tuple[Optional[str], Optional[bytes]]:
    """Compile and serialize one mutant: ``(None, bytes)`` on success,
    ``(discard category, None)`` on failure.

    A function of the draft alone, which the speculative pipeline maps
    over a round's drafts in the fuzzing process.  Only the dump failures
    Soot's writer exhibits — :class:`JimpleCompileError` from the compiler
    (an operand that does not fit its field included) and ``struct.error``
    overflows from the binary writer — are swallowed; anything else is a
    genuine compiler/writer bug and propagates.
    """
    try:
        compiled = compile_class(mutant)
    except JimpleCompileError:
        return DISCARD_COMPILE_ERROR, None
    try:
        return None, write_class(compiled)
    except struct.error:
        return DISCARD_DUMP_ERROR, None


class _FuzzObserver:
    """Per-run telemetry instruments; a no-op shell when disabled.

    The constructor pre-resolves every labeled instrument child, so the
    per-iteration cost with telemetry enabled is a handful of counter
    increments, and with telemetry disabled a single ``active`` check.
    """

    __slots__ = ("active", "telemetry", "algorithm", "_iterations",
                 "_generated", "_accepted", "_discarded",
                 "_iteration_seconds", "_pool_size", "_suite_size",
                 "_rounds", "_round_seconds", "_scheduled", "_novelty")

    def __init__(self, telemetry, algorithm: str):
        self.telemetry = telemetry
        self.algorithm = algorithm
        self.active = telemetry is not None
        if not self.active:
            return
        registry = telemetry.registry
        self._iterations = registry.counter(
            "repro_iterations_total",
            "Mutation iterations executed.", ("algorithm",)) \
            .labels(algorithm=algorithm)
        self._generated = registry.counter(
            "repro_mutants_generated_total",
            "Mutants successfully dumped to classfile bytes.",
            ("algorithm",)).labels(algorithm=algorithm)
        self._accepted = registry.counter(
            "repro_mutants_accepted_total",
            "Mutants accepted into the representative suite.",
            ("algorithm",)).labels(algorithm=algorithm)
        self._discarded = registry.counter(
            "repro_mutants_discarded_total",
            "Iterations that produced no classfile, by category.",
            ("algorithm", "category"))
        self._iteration_seconds = registry.histogram(
            "repro_iteration_seconds",
            "Wall-clock latency of one mutation iteration.",
            ("algorithm",)).labels(algorithm=algorithm)
        self._pool_size = registry.gauge(
            "repro_seed_pool_size", "Current mutation seed pool size.",
            ("algorithm",)).labels(algorithm=algorithm)
        self._suite_size = registry.gauge(
            "repro_test_suite_size",
            "Accepted representative suite size (TestClasses).",
            ("algorithm",)).labels(algorithm=algorithm)
        self._rounds = registry.counter(
            "repro_fuzz_rounds_total",
            "Speculative batch rounds executed.", ("algorithm",)) \
            .labels(algorithm=algorithm)
        self._round_seconds = registry.histogram(
            "repro_fuzz_round_seconds",
            "Wall-clock latency of one speculative batch round.",
            ("algorithm",)).labels(algorithm=algorithm)
        self._scheduled = registry.counter(
            "repro_seeds_scheduled_total",
            "Mutation seeds scheduled from the pool, by entry origin.",
            ("algorithm", "origin"))
        self._novelty = registry.counter(
            "repro_seed_novelty_total",
            "Interned coverage sites first opened by accepted mutants, "
            "credited back to the seeds they were mutated from.",
            ("algorithm",)).labels(algorithm=algorithm)

    def run_started(self, result: "FuzzResult", iterations: int) -> None:
        """Register the run with the status tracker, when one is attached.

        Only the ``--serve`` path attaches a tracker, so this is a
        single ``getattr`` per *run* (not per iteration) otherwise.
        """
        if not self.active:
            return
        tracker = getattr(self.telemetry, "status", None)
        if tracker is None:
            return
        tracker.begin_run(
            run_id=f"{result.algorithm}#{os.getpid()}",
            config={"algorithm": result.algorithm,
                    "criterion": result.criterion,
                    "iterations": iterations,
                    "batch": result.batch,
                    "scheduler": result.scheduler})

    def scheduled(self, entry: "SeedEntry") -> None:
        if not self.active:
            return
        self._scheduled.labels(algorithm=self.algorithm,
                               origin=entry.origin).inc()

    def credited(self, novelty: int) -> None:
        if not self.active or novelty <= 0:
            return
        self._novelty.inc(novelty)

    def discarded(self, category: str, mutator: Optional[str]) -> None:
        if not self.active:
            return
        self._discarded.labels(algorithm=self.algorithm,
                               category=category).inc()
        if self.telemetry.bus.enabled:
            self.telemetry.bus.emit(MUTANT_DISCARDED,
                                    algorithm=self.algorithm,
                                    category=category, mutator=mutator)

    def accepted(self, generated: GeneratedClass, tests: int) -> None:
        if not self.active:
            return
        self._accepted.inc()
        if self.telemetry.bus.enabled:
            self.telemetry.bus.emit(MUTANT_ACCEPTED,
                                    algorithm=self.algorithm,
                                    label=generated.label,
                                    mutator=generated.mutator,
                                    tests=tests)

    def iteration(self, index: int, mutator: Mutator,
                  generated: Optional[GeneratedClass], accepted: bool,
                  tests: int, pool: int, seconds: float,
                  round_index: int, seed: str) -> None:
        if not self.active:
            return
        self._iterations.inc()
        if generated is not None:
            self._generated.inc()
        self._iteration_seconds.observe(seconds)
        self._pool_size.set(pool)
        self._suite_size.set(tests)
        if self.telemetry.bus.enabled:
            self.telemetry.bus.emit(
                ITERATION, algorithm=self.algorithm, index=index,
                round=round_index, seed=seed, mutator=mutator.name,
                generated=generated is not None, accepted=accepted,
                tests=tests, pool=pool, seconds=seconds)

    def batch_round(self, seconds: float) -> None:
        if not self.active:
            return
        self._rounds.inc()
        self._round_seconds.observe(seconds)


#: The shared disabled observer (``telemetry=None`` path).
_NULL_OBSERVER = _FuzzObserver(None, "")


@dataclass
class _Draft:
    """One speculated mutation: the rewritten class plus its lineage.

    ``jclass`` is ``None`` when the rewrite crashed or reported itself
    inapplicable; the pick of the parent still happened.
    """

    jclass: Optional[JClass]
    parent_index: int
    parent_label: str


class _FuzzEngine:
    """Shared mutation machinery for all four algorithms."""

    def __init__(self, seeds: Sequence[JClass], rng: random.Random,
                 mutators: Sequence[Mutator],
                 reference: Optional[Jvm] = None,
                 executor: Optional[Executor] = None,
                 observer: _FuzzObserver = _NULL_OBSERVER,
                 scheduler: Optional[SeedScheduler] = None):
        self.rng = rng
        self.pool = SeedPool(seeds, scheduler=scheduler)
        self.mutators = list(mutators)
        self.reference = reference or reference_jvm()
        self.executor = executor if executor is not None \
            else SerialExecutor(cache=OutcomeCache())
        self.observer = observer
        self.discards: Dict[str, int] = {}
        self._name_counter = 0

    def _discard(self, category: str,
                 mutator: Optional[str] = None) -> None:
        self.discards[category] = self.discards.get(category, 0) + 1
        self.observer.discarded(category, mutator)

    def mutate_draft(self, mutator: Mutator) -> _Draft:
        """The RNG-consuming half of one iteration: schedule, clone, rewrite.

        The seed pool's scheduler picks which member to mutate (the
        default uniform policy consumes the RNG exactly like the
        historical ``rng.choice``).  Returns the mutated (not yet
        compiled) draft with its parent lineage; its ``jclass`` is
        ``None`` when the rewrite crashed or reported itself
        inapplicable — both discard categories are recorded here,
        sequentially, so their ordering is deterministic.
        """
        parent_index, entry = self.pool.pick(self.rng)
        self.observer.scheduled(entry)
        mutant = entry.jclass.clone()
        self._name_counter += 1
        mutant.name = f"M{1433900000 + self._name_counter}"
        try:
            applied = mutator(mutant, self.rng)
        except Exception:
            # Mutators are arbitrary rewrites over arbitrary mutants; a
            # crashing rewrite is a failed iteration, but a counted one.
            self._discard(DISCARD_MUTATOR_ERROR, mutator.name)
            return _Draft(None, parent_index, entry.label)
        if not applied:
            self._discard(DISCARD_INAPPLICABLE, mutator.name)
            return _Draft(None, parent_index, entry.label)
        supplement_main(mutant)
        return _Draft(mutant, parent_index, entry.label)

    def dump_drafts(self, drafts: List[Tuple[Mutator, _Draft]]
                    ) -> List[Optional[GeneratedClass]]:
        """Compile and dump one round of drafts, aligned with the input.

        The pure (RNG-free) half of the iterations: live drafts compile
        and dump in this process, in order, through the executor's
        :meth:`~repro.core.executor.Executor.map_many` on every engine,
        and compile/dump failures are recorded in batch-index order,
        keeping discard bookkeeping deterministic.
        """
        pending = [(position, mutator, draft)
                   for position, (mutator, draft) in enumerate(drafts)
                   if draft.jclass is not None]
        results: List[Optional[GeneratedClass]] = [None] * len(drafts)
        if not pending:
            return results
        dumped = self.executor.map_many(
            _dump_mutant, [draft.jclass for _, _, draft in pending])
        for (position, mutator, draft), (category, data) in zip(pending,
                                                                dumped):
            if data is None:
                self._discard(category, mutator.name)
            else:
                results[position] = GeneratedClass(
                    draft.jclass.name, draft.jclass, data, mutator.name,
                    parent=draft.parent_label)
        return results

    def mutate_once(self, mutator: Mutator) -> Optional[GeneratedClass]:
        """One full iteration body: mutate a pool member and dump it.

        Returns ``None`` when the mutation was inapplicable or the mutant
        could not be dumped to a classfile; each discarded iteration is
        counted under its failure category in :attr:`discards`.
        """
        draft = self.mutate_draft(mutator)
        if draft.jclass is None:
            return None
        category, data = _dump_mutant(draft.jclass)
        if data is None:
            self._discard(category, mutator.name)
            return None
        return GeneratedClass(draft.jclass.name, draft.jclass, data,
                              mutator.name, parent=draft.parent_label)

    def collect_coverage(self, batch: List[GeneratedClass]) -> None:
        """Fan the batch's reference-JVM coverage runs out in one bulk
        call, attaching each tracefile to its class (input order)."""
        if not batch:
            return
        results = self.executor.run_reference_many(
            self.reference, [generated.data for generated in batch])
        for generated, (_, trace) in zip(batch, results):
            generated.tracefile = trace

    def prime_pool(self) -> List[Tracefile]:
        """The reference trace of each compilable corpus seed, in order.

        Seeds the acceptance state with the seed corpus's own coverage so
        accepted mutants are unique w.r.t. the whole suite (TestClasses
        starts = Seeds, Algorithm 1 line 5).  Only the original-seed
        prefix of the pool is primed: on a fresh run that is the whole
        pool, and on a resumed run the accepted mutants' coverage is
        replayed separately from their checkpointed tracefiles.  Every
        seed compiles first; then one bulk reference call runs them all.
        """
        seeds = []
        for entry in self.pool.entries[:self.pool.seed_count]:
            try:
                data = write_class(compile_class(entry.jclass))
            except (JimpleCompileError, struct.error):
                continue
            entry.size = len(data)
            seeds.append(GeneratedClass(entry.label, entry.jclass, data))
        self.collect_coverage(seeds)
        return [seed.tracefile for seed in seeds]


# ---------------------------------------------------------------------------
# Acceptance policies (the per-algorithm accept step, replayed in order)
# ---------------------------------------------------------------------------

class _AcceptancePolicy:
    """Interface: the sequential accept decision of one algorithm.

    ``consider`` is only ever called during the deterministic replay
    phase, in batch-index order, so policies may keep mutable state
    without any synchronisation.
    """

    #: Whether mutants need a reference coverage run before replay.
    needs_coverage = True

    def prime(self, trace: Tracefile) -> None:
        """Absorb one seed-corpus trace (Algorithm 1 line 5)."""
        raise NotImplementedError

    def consider(self, generated: GeneratedClass) -> bool:
        """Whether ``generated`` joins TestClasses; updates state."""
        raise NotImplementedError


class _UniquenessAcceptance(_AcceptancePolicy):
    """classfuzz/uniquefuzz: coverage-uniqueness under a criterion."""

    def __init__(self, criterion) -> None:
        self.criterion = criterion

    def prime(self, trace: Tracefile) -> None:
        self.criterion.accept(trace)

    def consider(self, generated: GeneratedClass) -> bool:
        return self.criterion.check_and_accept(generated.tracefile)


class _GreedyAcceptance(_AcceptancePolicy):
    """greedyfuzz: accept only mutants growing accumulated coverage.

    Operates on interned-id sets, so the per-mutant subset checks are
    integer set operations.
    """

    def __init__(self) -> None:
        self.covered_statements: Set[int] = set()
        self.covered_branches: Set[int] = set()

    def prime(self, trace: Tracefile) -> None:
        self.covered_statements |= trace.stmt_ids
        self.covered_branches |= trace.br_ids

    def consider(self, generated: GeneratedClass) -> bool:
        trace = generated.tracefile
        if trace.stmt_ids <= self.covered_statements and \
                trace.br_ids <= self.covered_branches:
            return False
        self.covered_statements |= trace.stmt_ids
        self.covered_branches |= trace.br_ids
        return True


class _AcceptAllAcceptance(_AcceptancePolicy):
    """randfuzz: every dumped mutant is a test; no coverage runs."""

    needs_coverage = False

    def prime(self, trace: Tracefile) -> None:  # pragma: no cover
        pass

    def consider(self, generated: GeneratedClass) -> bool:
        return True


# ---------------------------------------------------------------------------
# The batched speculative driver
# ---------------------------------------------------------------------------

def _prepare_checkpoint(checkpoint_dir, checkpoint_every: int,
                        resume: bool, telemetry):
    """Resolve one run's ``(checkpointer, restored state)`` pair.

    ``resume=True`` with no checkpoint on disk is a fresh start (the
    normal first leg of a resumable campaign), and ``checkpoint_dir=None``
    disables checkpointing entirely.
    """
    if checkpoint_dir is None:
        if resume:
            raise ValueError("resume requires a checkpoint_dir")
        return None, None
    if not (resume and has_checkpoint(checkpoint_dir)):
        return Checkpointer(checkpoint_dir, checkpoint_every,
                            telemetry=telemetry), None
    state = load_checkpoint(checkpoint_dir)
    checkpointer = Checkpointer(
        checkpoint_dir, checkpoint_every, telemetry=telemetry,
        start_index=state["index"], journal=state.get("journal"))
    return checkpointer, state


def _run_pipeline(result: FuzzResult, engine: _FuzzEngine, selector,
                  policy: _AcceptancePolicy, observer: _FuzzObserver,
                  iterations: int, batch: int,
                  seed_feedback: bool = True,
                  checkpointer: Optional[Checkpointer] = None,
                  checkpoint_state=None) -> FuzzResult:
    """Run ``iterations`` through the speculate → fan-out → replay loop.

    Determinism contract: for a fixed ``(seeds, rng seed, batch)`` the
    result is identical on every executor backend, because the RNG is
    only consumed in the speculate and replay phases (both sequential)
    and the fan-out preserves input order.  At ``batch=1`` the RNG
    consumption order is exactly the historical serial loop's:
    select → mutate → run → accept, one iteration at a time.

    When ``checkpoint_state`` is given the run restores it and continues
    from the checkpointed round boundary: the RNG/selector/pool state is
    overwritten wholesale, while the acceptance criterion and the pool's
    novelty set — which hold process-local interned ids the checkpoint
    cannot carry — are rebuilt by re-priming the seed corpus and
    re-absorbing the restored suite's tracefiles (set unions, so the
    rebuild is order-independent and exact).
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    observer.run_started(result, iterations)
    start_index = start_round = 0
    start_elapsed = 0.0
    if checkpoint_state is not None:
        start_index, start_round, start_elapsed = restore_run(
            checkpoint_state, result, engine, selector)
    if policy.needs_coverage and start_index < iterations:
        for trace in engine.prime_pool():
            policy.prime(trace)
            engine.pool.absorb(trace)
        for generated in result.test_classes:
            if generated.tracefile is not None:
                policy.prime(generated.tracefile)
                engine.pool.absorb(generated.tracefile)
    started = time.perf_counter()
    index = start_index
    round_index = start_round
    while index < iterations:
        # Graceful SIGTERM: stop at a round boundary — the same points
        # checkpoints land on — with one final checkpoint, so a
        # daemon-managed leg never loses a round (see
        # :mod:`repro.core.shutdown`).
        if shutdown_requested():
            if checkpointer is not None:
                checkpointer.write(
                    result, engine, selector, index, round_index,
                    start_elapsed + time.perf_counter() - started)
            raise GracefulShutdown(index, checkpointer is not None)
        size = min(batch, iterations - index)
        round_started = time.perf_counter()
        # Speculate: the whole round selects and mutates against the
        # pool/ranking as of the previous round's replay.  Only this
        # stage consumes the RNG, so it stays sequential.
        mutators = selector.next_mutators(size)
        drafts = [(mutator, engine.mutate_draft(mutator))
                  for mutator in mutators]
        # Fan out the pure compile/dump stage, then the reference
        # coverage runs (bulk, cache-aware).
        items = list(zip(drafts, engine.dump_drafts(drafts)))
        if policy.needs_coverage:
            engine.collect_coverage(
                [generated for _, generated in items
                 if generated is not None])
        share = (time.perf_counter() - round_started) / size
        # Replay acceptance sequentially in batch-index order.
        for offset, ((mutator, draft), generated) in enumerate(items):
            accepted = False
            if generated is not None:
                result.gen_classes.append(generated)
                if policy.consider(generated):
                    accepted = True
                    result.test_classes.append(generated)
                    novelty = engine.pool.absorb(generated.tracefile) \
                        if generated.tracefile is not None else 0
                    engine.pool.credit(draft.parent_index, novelty)
                    observer.credited(novelty)
                    if seed_feedback:
                        engine.pool.add(generated.jclass,
                                        generated.label,
                                        size=len(generated.data))
                    selector.record_success(mutator)
                    observer.accepted(generated,
                                      len(result.test_classes))
            observer.iteration(
                index + offset, mutator, generated, accepted,
                len(result.test_classes), len(engine.pool), share,
                round_index, draft.parent_label)
        observer.batch_round(time.perf_counter() - round_started)
        index += size
        round_index += 1
        if checkpointer is not None and index < iterations:
            checkpointer.maybe_write(
                result, engine, selector, index, round_index,
                start_elapsed + time.perf_counter() - started)
    result.elapsed_seconds = start_elapsed \
        + (time.perf_counter() - started)
    result.mutator_report = selector.report()
    result.discards = dict(engine.discards)
    result.scheduler = engine.pool.scheduler.name
    result.seed_stats = engine.pool.stats_rows()
    if checkpointer is not None:
        checkpointer.write(result, engine, selector, iterations,
                           round_index, result.elapsed_seconds)
    return result


def classfuzz(seeds: Sequence[JClass], iterations: int,
              criterion: str = "stbr", seed: int = 0,
              p: float = DEFAULT_P,
              mutators: Sequence[Mutator] = MUTATORS,
              reference: Optional[Jvm] = None,
              seed_feedback: bool = True,
              executor: Optional[Executor] = None,
              telemetry=None, batch: int = 1,
              schedule=None, checkpoint_dir=None,
              checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
              resume: bool = False) -> FuzzResult:
    """Algorithm 1: coverage-directed generation with MCMC mutator selection.

    Args:
        seeds: the seeding classfiles (as Jimple classes).
        iterations: the iteration budget (stands in for the time budget).
        criterion: ``st``, ``stbr``, or ``tr``.
        seed: RNG seed.
        p: the geometric parameter (default 3/129).
        reference: the coverage-instrumented reference JVM (defaults to
            :func:`~repro.jvm.vendors.reference_jvm`).
        seed_feedback: whether accepted representative classfiles join the
            mutation pool (Algorithm 1, lines 5/14).  Disabling this is
            the §3.2 ablation of the "representative seeds breed
            representative mutants" assumption.
        executor: the execution engine for reference runs (defaults to a
            cached serial engine).
        telemetry: optional :class:`~repro.observe.Telemetry`; records
            per-iteration, per-round and per-pick metrics and emits
            ``iteration`` / ``mutant_accepted`` / ``mutant_discarded`` /
            ``mcmc_transition`` / ``checkpoint_written`` events.
        batch: speculative batch size (1 = the exact serial Algorithm 1
            loop; larger batches amortise reference runs across the
            executor's workers at the cost of intra-round staleness of
            the seed pool and MCMC chain).
        schedule: seed-schedule registry name or
            :class:`~repro.corpus.schedule.SeedScheduler` instance
            (default: the paper's uniform pick).
        checkpoint_dir: when given, snapshot the run's state here every
            ``checkpoint_every`` iterations (see
            :mod:`repro.core.checkpoint`).
        checkpoint_every: iteration interval between checkpoints.
        resume: restore ``checkpoint_dir``'s latest snapshot and continue
            from it (fresh start when none exists yet).
    """
    rng = random.Random(seed)
    observer = _FuzzObserver(telemetry, f"classfuzz[{criterion}]")
    engine = _FuzzEngine(seeds, rng, mutators, reference, executor,
                         observer, scheduler=make_scheduler(schedule))
    selector = McmcMutatorSelector(mutators, p=p, rng=rng,
                                   telemetry=telemetry,
                                   algorithm=observer.algorithm)
    result = FuzzResult("classfuzz", criterion, iterations, batch=batch,
                        scheduler=engine.pool.scheduler.name)
    checkpointer, state = _prepare_checkpoint(
        checkpoint_dir, checkpoint_every, resume, telemetry)
    return _run_pipeline(
        result, engine, selector,
        _UniquenessAcceptance(make_criterion(criterion,
                                             telemetry=telemetry)),
        observer, iterations, batch, seed_feedback=seed_feedback,
        checkpointer=checkpointer, checkpoint_state=state)


def uniquefuzz(seeds: Sequence[JClass], iterations: int, seed: int = 0,
               mutators: Sequence[Mutator] = MUTATORS,
               reference: Optional[Jvm] = None,
               executor: Optional[Executor] = None,
               telemetry=None, batch: int = 1,
               schedule=None, checkpoint_dir=None,
               checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
               resume: bool = False) -> FuzzResult:
    """classfuzz minus MCMC: uniform mutator selection, [stbr] uniqueness."""
    rng = random.Random(seed)
    observer = _FuzzObserver(telemetry, "uniquefuzz")
    engine = _FuzzEngine(seeds, rng, mutators, reference, executor,
                         observer, scheduler=make_scheduler(schedule))
    selector = UniformMutatorSelector(mutators, rng=rng)
    result = FuzzResult("uniquefuzz", "stbr", iterations, batch=batch,
                        scheduler=engine.pool.scheduler.name)
    checkpointer, state = _prepare_checkpoint(
        checkpoint_dir, checkpoint_every, resume, telemetry)
    return _run_pipeline(
        result, engine, selector,
        _UniquenessAcceptance(make_criterion("stbr", telemetry=telemetry)),
        observer, iterations, batch,
        checkpointer=checkpointer, checkpoint_state=state)


def greedyfuzz(seeds: Sequence[JClass], iterations: int, seed: int = 0,
               mutators: Sequence[Mutator] = MUTATORS,
               reference: Optional[Jvm] = None,
               executor: Optional[Executor] = None,
               telemetry=None, batch: int = 1,
               schedule=None, checkpoint_dir=None,
               checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
               resume: bool = False) -> FuzzResult:
    """Greedy baseline: accept only mutants growing accumulated coverage."""
    rng = random.Random(seed)
    observer = _FuzzObserver(telemetry, "greedyfuzz")
    engine = _FuzzEngine(seeds, rng, mutators, reference, executor,
                         observer, scheduler=make_scheduler(schedule))
    selector = UniformMutatorSelector(mutators, rng=rng)
    result = FuzzResult("greedyfuzz", None, iterations, batch=batch,
                        scheduler=engine.pool.scheduler.name)
    checkpointer, state = _prepare_checkpoint(
        checkpoint_dir, checkpoint_every, resume, telemetry)
    return _run_pipeline(result, engine, selector,
                         _GreedyAcceptance(),
                         observer, iterations, batch,
                         checkpointer=checkpointer,
                         checkpoint_state=state)


def randfuzz(seeds: Sequence[JClass], iterations: int, seed: int = 0,
             mutators: Sequence[Mutator] = MUTATORS,
             reference: Optional[Jvm] = None,
             executor: Optional[Executor] = None,
             telemetry=None, batch: int = 1,
             schedule=None, checkpoint_dir=None,
             checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
             resume: bool = False) -> FuzzResult:
    """Blind baseline: every dumped mutant is a test; no coverage runs.

    ``reference`` and ``executor`` are accepted for signature parity with
    the directed algorithms — callers (and :mod:`repro.core.campaign`)
    can inject one instrumented/stub JVM and one engine uniformly across
    all four — but randfuzz never executes the reference JVM.
    """
    rng = random.Random(seed)
    observer = _FuzzObserver(telemetry, "randfuzz")
    engine = _FuzzEngine(seeds, rng, mutators, reference, executor,
                         observer, scheduler=make_scheduler(schedule))
    selector = UniformMutatorSelector(mutators, rng=rng)
    result = FuzzResult("randfuzz", None, iterations, batch=batch,
                        scheduler=engine.pool.scheduler.name)
    checkpointer, state = _prepare_checkpoint(
        checkpoint_dir, checkpoint_every, resume, telemetry)
    return _run_pipeline(result, engine, selector,
                         _AcceptAllAcceptance(), observer, iterations,
                         batch, checkpointer=checkpointer,
                         checkpoint_state=state)
