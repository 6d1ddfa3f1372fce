"""The benchmark's workloads, each with the reason it exists.

Every workload is a closed loop in one process: it waits for each call's
result before starting the next, and its seed generates all of its
inputs (the seed corpus and every RNG the program draws from).  One
*call* is the unit the end-to-end throughput is measured on.

Predictions shared by all four workloads (each is a no-change case a
later change can be held to):

* none of them uses the thread backend, fork worker mode, the bitmap
  coverage index or ``--cmp-coverage``, so deleting any of those moves
  no metric on any workload;
* compile memoisation moves nothing on ``difftest-5vm``, which compiles
  nothing inside its timed window;
* a parse shared across the five vendors moves nothing on
  ``fuzz-serial``, which runs only the reference vendor;
* checkpoint work moves nothing outside ``service-leg``, the only
  workload that writes checkpoints.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import resource
import shutil
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

#: Iterations per fuzz call: the CLI's unit of one classfuzz run.
ITERATIONS = {"full": 1200, "tiny": 40}

#: Seed corpus size generated from the workload seed.
SEED_COUNT = {"full": 120, "tiny": 12}

#: Blind (randfuzz) draws whose distinct mutants form the difftest suite.
DIFFTEST_DRAWS = {"full": 1000, "tiny": 40}

#: Layers that do work in every classfuzz call, traced in the caller.
FUZZ_PIPELINE = ("mcmc.select", "mutators.mutate", "jimple.clone",
                 "jimple.compile", "jimple.compile_method",
                 "classfile.write", "corpus.prime", "coverage.accept",
                 "executor.map")

#: Layers of one JVM run (loader, linker, verifier, interpreter).
JVM_LAYERS = ("jvm.run", "classfile.read", "jvm.format_checks", "jvm.link",
              "jvm.verify", "jvm.interpret", "bytecode.decode")


@dataclass
class CallResult:
    """One timed call.

    Attributes:
        ops: operations attempted (fuzz iterations, or classfile x vendor
            runs for difftest).
        items: the throughput numerator (generated mutants, or classfiles
            with a complete five-vendor verdict).
        failed: operations that faulted (see :meth:`Workload.call`).
        wall_s: wall seconds of the call.
        cpu_s: CPU seconds of the call, worker processes included.
        digest: the decision (fuzz) or verdict (difftest) digest.
        discards: iterations that produced no classfile, by category.
        problems: failed output checks.
    """

    ops: int
    items: int
    failed: int
    wall_s: float
    cpu_s: float
    digest: str
    discards: Dict[str, int] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def fuzz_digest(iterations: int, generated: int, discards: Dict[str, int],
                accepted: Iterable[Tuple[str, bytes]]) -> str:
    """sha256 over the discard tallies and the accepted labels and bytes."""
    digest = hashlib.sha256(
        f"{iterations}:{generated}:{sorted(discards.items())}".encode())
    for label, data in accepted:
        digest.update(label.encode() + b"\0")
        digest.update(hashlib.sha256(data).digest())
    return digest.hexdigest()


def fuzz_problems(iterations: int, generated: int,
                  discards: Dict[str, int]) -> List[str]:
    discarded = sum(discards.values())
    if iterations != generated + discarded:
        return [f"iterations {iterations} != generated {generated} "
                f"+ discarded {discarded}"]
    return []


#: Discard categories that mean the program faulted: the mutator's
#: rewrite raised.  Compile and dump discards are mutants the Jimple
#: dumper cannot serialise, an expected outcome of mutation (section 3.2
#: of the paper), reported beside the result instead.
FAULT_DISCARDS = ("mutator_error",)


class Workload:
    """Interface: set up once, then time repeated identical calls."""

    name = "abstract"
    #: What the throughput counts.
    unit = "items"
    #: Span names the traced run must see fire (the layers that do the
    #: work here); a missing one fails the run.
    required_spans: Tuple[str, ...] = ()

    def __init__(self, seed: int, size: str, scratch: Path):
        self.seed = seed
        self.size = size
        self.scratch = scratch

    def setup(self) -> None:
        """Imports, corpus, JVMs and input suite: everything before the
        first timed call."""

    def call(self) -> CallResult:
        raise NotImplementedError

    def ops_per_call(self) -> int:
        return ITERATIONS[self.size]

    def finish(self) -> List[str]:
        """Checks that need the whole window; returns problems found."""
        return []

    def corpus(self):
        from repro.corpus import CorpusConfig, generate_corpus

        return generate_corpus(CorpusConfig(count=SEED_COUNT[self.size],
                                            seed=self.seed))


class FuzzSerial(Workload):
    """``classfuzz`` [stbr], cached serial engine, batch 1, exact index.

    Why: these are the ``repro fuzz`` defaults and the unit the roadmap
    measures (mutants/s of a serial run on a 120-seed corpus).  Work
    splits across mutate/clone, the Jimple->classfile compile, one
    instrumented reference run per mutant, and acceptance.

    Most work: the reference run (``jvm`` verify, ``classfile`` read,
    format checks, ``bytecode`` decode) and ``jimple.compile_method``.
    Little work: ``coverage`` acceptance, ``mcmc`` selection.  Bypassed:
    the five-vendor harness, executor pools, checkpoints and telemetry,
    so difftest, pool, checkpoint and observe changes are predicted to
    move nothing here, nor does a shared five-vendor parse.
    """

    name = "fuzz-serial"
    unit = "mutants"
    required_spans = FUZZ_PIPELINE + JVM_LAYERS + ("coverage.snapshot",
                                                   "executor.reference")
    batch = 1

    def setup(self) -> None:
        from repro.core import executor, fuzzing

        self.fuzzing = fuzzing
        self.executor_module = executor
        self.seeds = self.corpus()

    def make_executor(self):
        return self.executor_module.make_executor()

    def after_close(self) -> List[str]:
        return []

    def call(self) -> CallResult:
        iterations = ITERATIONS[self.size]
        cpu = time.process_time()
        children = _children_cpu_s()
        executor = self.make_executor()
        wall = time.perf_counter()
        try:
            result = self.fuzzing.classfuzz(
                self.seeds, iterations, criterion="stbr", seed=self.seed,
                executor=executor, batch=self.batch)
            wall = time.perf_counter() - wall
        finally:
            executor.close()
        cpu = time.process_time() - cpu + _children_cpu_s() - children
        generated = len(result.gen_classes)
        discards = dict(result.discards)
        return CallResult(
            ops=iterations, items=generated,
            failed=sum(discards.get(c, 0) for c in FAULT_DISCARDS),
            wall_s=wall, cpu_s=cpu,
            digest=fuzz_digest(iterations, generated, discards,
                               ((g.label, g.data)
                                for g in result.test_classes)),
            discards=discards,
            problems=fuzz_problems(iterations, generated, discards)
            + self.after_close())


class FuzzProcess2(FuzzSerial):
    """``fuzz-serial``'s loop at batch 8 on two persistent process workers.

    Why: the only workload where ``core.executor``'s pools,
    ``core.worker`` and ``coverage.shm`` do the work, so it carries the
    roadmap's bar for the process backend (persistent x2 against serial).
    It runs through ``make_executor(jobs=2, backend="process")``.

    Most work: the reference runs and compiles, now in worker processes;
    in this process, waiting on the pools and decoding packed coverage.
    Little work: everything the parent still does per mutant (mutate,
    clone, accept).  Predicted unchanged by checkpoint, observe and
    difftest work; by construction its decisions equal a serial run at
    batch 8 (checked by the benchmark's own tests).  After every call no
    ``repro_`` shared-memory segment and no worker process may remain.
    """

    name = "fuzz-process2"
    required_spans = FUZZ_PIPELINE + ("executor.wait",
                                      "executor.payload_decode")
    batch = 8

    def make_executor(self):
        return self.executor_module.make_executor(jobs=2, backend="process")

    def after_close(self) -> List[str]:
        problems = []
        pid = str(os.getpid())
        if os.path.isdir("/dev/shm"):
            leaked = [name for name in os.listdir("/dev/shm")
                      if name.startswith("repro_")
                      and name.split("_")[-2:-1] == [pid]]
            if leaked:
                problems.append(f"shared memory left behind: {leaked}")
        alive = multiprocessing.active_children()
        if alive:
            problems.append(f"worker processes still alive: {alive}")
        return problems


class ServiceLeg(Workload):
    """One fuzz leg exactly as ``repro serve`` runs it, in-process.

    Why: the service path adds durability and observability to the same
    pipeline: ``JobStore.submit`` + ``service.worker.run_leg`` with the
    spec defaults (a checkpoint every 50 iterations, telemetry with an
    events JSONL sink, the status publisher, JVM phase spans).  Seed,
    corpus and iterations match ``fuzz-serial``, so its decision digest
    must equal ``fuzz-serial``'s at the same seed; each run checks that.

    Most work: ``fuzz-serial``'s layers plus ``checkpoint.write``
    re-pickling the whole run at every checkpoint (the last snapshot is
    the largest, growing with run length), ``observe`` event emission
    and phase spans, and the final ``storage`` save.  The only workload
    where checkpoint, storage and observe changes are predicted to move
    anything.  The job root lives inside the benchmark's scratch
    directory in the checkout.
    """

    name = "service-leg"
    unit = "mutants"
    required_spans = FuzzSerial.required_spans + (
        "checkpoint.write", "storage.save", "observe.emit",
        "observe.phase_span")

    def setup(self) -> None:
        from repro.core.campaign import safe_label
        from repro.core.storage import load_suite
        from repro.service import worker
        from repro.service.jobs import JobStore

        self.worker = worker
        self.load_suite = load_suite
        self.store = JobStore(self.scratch / "service")
        self.spec = {"type": "fuzz", "algorithm": "classfuzz[stbr]",
                     "iterations": ITERATIONS[self.size],
                     "seed": self.seed, "seed_count": SEED_COUNT[self.size]}
        self.leg = safe_label(self.spec["algorithm"])
        self.digests: List[str] = []

    def call(self) -> CallResult:
        iterations = ITERATIONS[self.size]
        previous = signal.getsignal(signal.SIGTERM)
        cpu = time.process_time()
        wall = time.perf_counter()
        try:
            job = self.store.submit(self.spec)
            code = self.worker.run_leg(self.store.root, job.id, self.leg,
                                       0, 0)
            wall = time.perf_counter() - wall
            cpu = time.process_time() - cpu
        finally:
            # run_leg routes SIGTERM to the graceful-shutdown flag; give
            # the benchmark process its default back between calls.
            signal.signal(signal.SIGTERM, previous)
        leg_dir = self.store.leg_dir(job.id, self.leg)
        problems = [] if code == 0 else [f"run_leg exited {code}"]
        try:
            document = json.loads((leg_dir / "result.json").read_text())
            generated = document["generated"]
            discards = document["discards"]
            accepted = self.load_suite(leg_dir / "suite")
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"unreadable leg artifacts: {exc}")
            generated, discards, accepted = 0, {}, []
        shutil.rmtree(self.store.job_dir(job.id), ignore_errors=True)
        digest = fuzz_digest(iterations, generated, discards, accepted)
        self.digests.append(digest)
        failed = iterations if problems else sum(
            discards.get(c, 0) for c in FAULT_DISCARDS)
        return CallResult(
            ops=iterations, items=generated, failed=failed, wall_s=wall,
            cpu_s=cpu, digest=digest, discards=discards,
            problems=problems + fuzz_problems(iterations, generated,
                                              discards))

    def finish(self) -> List[str]:
        # The service path must not change decisions: a plain serial
        # classfuzz run at the same seed is the reference.
        reference = FuzzSerial(self.seed, self.size, self.scratch)
        reference.setup()
        expected = reference.call().digest
        if any(digest != expected for digest in self.digests):
            return [f"service-leg digest differs from fuzz-serial's "
                    f"({expected[:12]}) at seed {self.seed}"]
        return []


class Difftest5vm(Workload):
    """``evaluate_suite`` over distinct blind mutants on all five vendors.

    Why: the differential half of classfuzz, through the same path as
    ``repro difftest DIR`` (``make_executor()`` defaults: a cached serial
    engine).  Set-up draws blind (randfuzz) mutants from the seed corpus
    and keeps the distinct ones, without running any JVM.

    Most work: ``classfile`` read and ``jvm`` format checks, verify and
    link, under five vendor policies (each vendor parses the same bytes
    again, so a parse shared across vendors shows here).  Little work:
    ``core.difftest``'s own bookkeeping; coverage probes are inert and
    nothing is compiled, so compile memoisation, mutator, MCMC,
    acceptance, checkpoint and pool changes are predicted to move
    nothing here.
    """

    name = "difftest-5vm"
    unit = "classfiles"
    required_spans = JVM_LAYERS + ("difftest",)

    def setup(self) -> None:
        from repro.core import executor
        from repro.core.difftest import DifferentialHarness
        from repro.core.fuzzing import randfuzz
        from repro.core.metrics import evaluate_suite
        from repro.jvm.vendors import all_jvms

        self.executor_module = executor
        self.harness_class = DifferentialHarness
        self.evaluate_suite = evaluate_suite
        blind = randfuzz(self.corpus(), DIFFTEST_DRAWS[self.size],
                         seed=self.seed)
        seen = set()
        self.suite = []
        for generated in blind.gen_classes:
            key = hashlib.sha256(generated.data).digest()
            if key not in seen:
                seen.add(key)
                self.suite.append((generated.label, generated.data))
        self.jvms = all_jvms()

    def ops_per_call(self) -> int:
        return len(self.suite) * len(self.jvms)

    def call(self) -> CallResult:
        vendors = len(self.jvms)
        ops = self.ops_per_call()
        cpu = time.process_time()
        executor = self.executor_module.make_executor()
        wall = time.perf_counter()
        try:
            harness = self.harness_class(self.jvms, executor=executor)
            report = self.evaluate_suite("suite", self.suite, harness)
            wall = time.perf_counter() - wall
        finally:
            executor.close()
        cpu = time.process_time() - cpu
        digest = hashlib.sha256()
        complete = 0
        for result in report.results:
            complete += len(result.outcomes) == vendors
            digest.update(f"{result.label}:{result.fine_codes}\n".encode())
        problems = []
        if complete != len(self.suite):
            problems.append(f"{len(self.suite) - complete} classfiles "
                            f"without a complete {vendors}-vendor verdict")
        return CallResult(ops=ops, items=complete, failed=0, wall_s=wall,
                          cpu_s=cpu, digest=digest.hexdigest(),
                          problems=problems)


WORKLOADS: Dict[str, type] = {
    workload.name: workload
    for workload in (FuzzSerial, Difftest5vm, ServiceLeg, FuzzProcess2)
}
