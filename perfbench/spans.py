"""In-memory span tracing of the program's layers, from outside ``src/``.

A :class:`SpanTracer` patches the public entry points of each layer at
run time — module attributes and class methods, at the name the *caller*
looks up (``repro.core.fuzzing.compile_class``,
``repro.jvm.verifier.decode_code``, ...) — with thin wrappers that record
one span per call: layer name, start, end, parent span and request id.
Spans stay in memory; :meth:`SpanTracer.layer_metrics` folds them into
per-layer metrics once the traced window has ended.

Self time is a span's duration minus the time its direct children cover,
so self times are disjoint and their sum never exceeds the window; the
rest of the window is untraced glue (the *residual*).

Recording happens only on the thread that called :meth:`start` and only
in that process: worker processes forked while the wrappers are
installed run them as pass-throughs.
"""

from __future__ import annotations

import functools
import importlib
import os
import resource
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Vendors whose inclusive run time is reported as ``jvm.<vendor>.run_s``.
VENDORS = ("hotspot7", "hotspot8", "hotspot9", "j9", "gij")

# One span record: [name, start, end, parent index, request id, tag].
NAME, START, END, PARENT, REQUEST, TAG = range(6)


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Per-span self seconds: duration minus what direct children cover.

    ``spans`` are records in start order whose ``PARENT`` field indexes an
    earlier record (or is ``-1``).  Children of a span never overlap each
    other (calls on one thread nest), so subtracting their summed
    durations is exact.
    """
    selfs = [span[END] - span[START] for span in spans]
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            selfs[parent] -= span[END] - span[START]
    return selfs


class _Patch:
    """One wrapped attribute: ``owner.attr`` recorded as span ``name``."""

    __slots__ = ("owner", "attr", "name", "before", "after", "generator",
                 "original")

    def __init__(self, owner, attr: str, name: Optional[str],
                 before: Optional[Callable] = None,
                 after: Optional[Callable] = None,
                 generator: bool = False):
        self.owner = owner
        self.attr = attr
        self.name = name
        self.before = before
        self.after = after
        self.generator = generator
        self.original = None


class SpanTracer:
    """Records layer spans for one traced window of one process.

    Attributes:
        spans: the span records, in start order.
        missing: ``module:attribute`` targets that did not exist and were
            left unwrapped (a renamed entry point; the layer then shows
            as missing in :meth:`fired`).
        executors: every engine ``make_executor`` built while recording.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.missing: List[str] = []
        self.executors: List = []
        self.counters: Dict[str, float] = {}
        self.recording = False
        self.request: object = None
        self._iteration = 0
        self._stack: List[int] = []
        self._thread = 0
        self._patches: List[_Patch] = []
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.recording = False

    # -- recording ------------------------------------------------------------

    def start(self) -> None:
        self._thread = threading.get_ident()
        self.recording = True

    def stop(self) -> None:
        self.recording = False

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _live(self) -> bool:
        # Forked children stop recording in _forked.
        return self.recording and threading.get_ident() == self._thread

    def _open(self, name: str, tag=None) -> list:
        stack = self._stack
        record = [name, 0.0, 0.0, stack[-1] if stack else -1,
                  self.request, tag]
        stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, patch: _Patch, fn: Callable) -> Callable:
        tracer = self
        before, after, name = patch.before, patch.after, patch.name

        if patch.generator:
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                if not tracer._live():
                    yield from fn(*args, **kwargs)
                    return
                if before is not None:
                    before(tracer, args)
                record = tracer._open(name)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    tracer._close(record)
            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._live():
                return fn(*args, **kwargs)
            context = before(tracer, args) if before is not None else None
            if name is None:  # a hook without a span of its own
                result = fn(*args, **kwargs)
            else:
                record = tracer._open(
                    name(args) if callable(name) else name, context)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(record)
            if after is not None:
                after(tracer, args, result, context)
            return result
        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self, targets: Iterable[Tuple]) -> None:
        """Wrap every ``(dotted owner, attribute, span name, hooks...)``.

        Owners are modules (``repro.jvm.verifier``) or classes
        (``repro.jvm.machine:Jvm``).  A target that does not exist is
        recorded in :attr:`missing` instead of raising.
        """
        for target in targets:
            dotted, attr, name = target[:3]
            options = target[3] if len(target) > 3 else {}
            module_name, _, class_name = dotted.partition(":")
            try:
                owner = importlib.import_module(module_name)
                if class_name:
                    owner = getattr(owner, class_name)
            except (ImportError, AttributeError):
                self.missing.append(f"{dotted}.{attr}")
                continue
            # Class attributes come from the class's own namespace so an
            # inherited method is wrapped once, where it is defined.
            namespace = vars(owner)
            if attr not in namespace:
                self.missing.append(f"{dotted}.{attr}")
                continue
            patch = _Patch(owner, attr, name, **options)
            patch.original = namespace[attr]
            setattr(owner, attr, self._wrap(patch, patch.original))
            self._patches.append(patch)

    def uninstall(self) -> None:
        for patch in reversed(self._patches):
            setattr(patch.owner, patch.attr, patch.original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def fired(self) -> Dict[str, int]:
        """Span name → number of spans recorded."""
        counts: Dict[str, int] = {}
        for span in self.spans:
            counts[span[NAME]] = counts.get(span[NAME], 0) + 1
        return counts

    def layer_metrics(self, window_s: float, untraced_s: float
                      ) -> Dict[str, Tuple[float, str]]:
        """Fold the recorded spans into ``metric → (value, unit)``.

        ``window_s`` is the traced window's wall time and ``untraced_s``
        the median wall time of the same call without wrappers.
        """
        spans = self.spans
        selfs = self_times(spans)
        by_name: Dict[str, float] = {}
        counts = self.fired()
        vendor_s = dict.fromkeys(VENDORS, 0.0)
        prime_s = 0.0
        vendor_runs = 0
        under_difftest = [False] * len(spans)
        for index, span in enumerate(spans):
            name = span[NAME]
            by_name[name] = by_name.get(name, 0.0) + selfs[index]
            parent = span[PARENT]
            inside = parent >= 0 and (under_difftest[parent]
                                      or spans[parent][NAME] == "difftest")
            under_difftest[index] = inside
            if name == "jvm.run":
                vendor = span[TAG]
                if vendor in vendor_s:
                    vendor_s[vendor] += span[END] - span[START]
                if inside:
                    vendor_runs += 1
            elif name == "corpus.prime":
                prime_s += span[END] - span[START]

        def s(*names: str) -> float:
            return sum(by_name.get(name, 0.0) for name in names)

        def ratio(numerator: str, denominator: str) -> float:
            total = self.counters.get(denominator, 0)
            return self.counters.get(numerator, 0) / total if total else 0.0

        stats = [executor.stats for executor in self.executors]
        trace_hits = sum(st.trace_hits for st in stats)
        trace_lookups = trace_hits + sum(st.trace_misses for st in stats)
        self_sum = sum(selfs)
        metrics: Dict[str, Tuple[float, str]] = {
            "mcmc.select_s": (s("mcmc.select"), "s"),
            "mutators.mutate_s": (s("mutators.mutate"), "s"),
            "mutators.applied_ratio": (ratio("mutators.applied",
                                             "mutators.calls"), "ratio"),
            "jimple.clone_s": (s("jimple.clone"), "s"),
            "jimple.compile_s": (s("jimple.compile",
                                   "jimple.compile_method"), "s"),
            "jimple.methods_compiled": (
                counts.get("jimple.compile_method", 0), "count"),
            "classfile.write_s": (s("classfile.write"), "s"),
            "bytecode.decodes": (counts.get("bytecode.decode", 0), "count"),
            "bytecode.decode_s": (s("bytecode.decode"), "s"),
            "classfile.reads": (counts.get("classfile.read", 0), "count"),
            "classfile.read_s": (s("classfile.read"), "s"),
            "jvm.format_checks_s": (s("jvm.format_checks"), "s"),
            "jvm.link_s": (s("jvm.link"), "s"),
            "jvm.verify_s": (s("jvm.verify"), "s"),
            "jvm.methods_verified": (counts.get("jvm.verify", 0), "count"),
            "jvm.interpret_s": (s("jvm.interpret"), "s"),
            "jvm.run_s": (s("jvm.run"), "s"),
        }
        for vendor in VENDORS:
            metrics[f"jvm.{vendor}.run_s"] = (vendor_s[vendor], "s")
        metrics.update({
            "coverage.snapshot_s": (s("coverage.snapshot"), "s"),
            "coverage.sites_per_run": (ratio("coverage.sites",
                                             "coverage.traces"), "count"),
            "coverage.accept_s": (s("coverage.accept"), "s"),
            "coverage.accept_ratio": (ratio("coverage.accepted",
                                            "coverage.checks"), "ratio"),
            "executor.reference_s": (s("executor.reference"), "s"),
            "executor.trace_hit_ratio": (
                trace_hits / trace_lookups if trace_lookups else 0.0,
                "ratio"),
            "executor.cache_entries": (
                sum(len(executor.cache) for executor in self.executors
                    if executor.cache is not None), "count"),
            "executor.wait_s": (s("executor.wait"), "s"),
            "executor.map_s": (s("executor.map"), "s"),
            "executor.worker_busy_s": (
                self.counters.get("executor.worker_busy_s", 0.0), "s"),
            "executor.payload_decode_s": (s("executor.payload_decode"), "s"),
            "executor.warm_runs": (sum(st.warm_runs for st in stats),
                                   "count"),
            "executor.cold_runs": (sum(st.cold_runs for st in stats),
                                   "count"),
            "executor.worker_rss_mb": (children_peak_rss_mb(), "MB"),
            "difftest.self_s": (s("difftest"), "s"),
            "difftest.vendor_runs": (vendor_runs, "count"),
            "checkpoint.write_s": (s("checkpoint.write"), "s"),
            "checkpoint.writes": (counts.get("checkpoint.write", 0),
                                  "count"),
            "checkpoint.bytes": (self.counters.get("checkpoint.bytes", 0),
                                 "bytes"),
            "storage.save_s": (s("storage.save"), "s"),
            "observe.events": (counts.get("observe.emit", 0), "count"),
            "observe.emit_s": (s("observe.emit"), "s"),
            "observe.phase_span_s": (s("observe.phase_span"), "s"),
            "corpus.prime_s": (prime_s, "s"),
            "trace.window_s": (window_s, "s"),
            "trace.self_sum_s": (self_sum, "s"),
            "trace.residual_s": (window_s - self_sum, "s"),
            "trace.overhead_s": (window_s - untraced_s, "s"),
            "trace.spans": (len(spans), "count"),
            "trace.requests": (
                len({span[REQUEST] for span in spans} - {None}), "count"),
        })
        return metrics


def children_peak_rss_mb() -> float:
    """Peak RSS of the largest reaped child process (worker pools), MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# What gets wrapped: each layer's entry points, at the caller's lookup name
# ---------------------------------------------------------------------------

def _mark_iteration(tracer: SpanTracer, args) -> None:
    # Spans of one fuzz iteration share its index; at batch > 1 every span
    # of a round carries the index of the round's first iteration.
    tracer.request = tracer._iteration
    tracer._iteration += args[1]


def _mark_classfile(tracer: SpanTracer, args) -> None:
    tracer.request = args[2]


def _mark_prime(tracer: SpanTracer, args) -> None:
    tracer.request = "prime"


def _count_applied(tracer, args, result, context) -> None:
    tracer.count("mutators.calls")
    if result:
        tracer.count("mutators.applied")


def _count_accepted(tracer, args, result, context) -> None:
    tracer.count("coverage.checks")
    if result:
        tracer.count("coverage.accepted")


def _count_sites(tracer, args, result, context) -> None:
    tracer.count("coverage.traces")
    tracer.count("coverage.sites", sum(result.signature))


def _count_checkpoint_bytes(tracer, args, result, context) -> None:
    tracer.count("checkpoint.bytes", os.path.getsize(result))


def _capture_executor(tracer, args, result, context) -> None:
    tracer.executors.append(result)


def _vendor_of_run(tracer, args):
    return args[0].name


def _run_seconds(executor) -> float:
    return sum(executor.stats.vendor_seconds.values())


def _reference_batch_start(tracer, args):
    return _run_seconds(args[0])


def _reference_batch_done(tracer, args, result, context) -> None:
    # On pool engines every run a bulk call executes happens in a worker,
    # which times it and reports the seconds back into the stats.
    if args[0].kind != "serial":
        tracer.count("executor.worker_busy_s",
                     _run_seconds(args[0]) - context)


def _reference_span(args) -> str:
    # A pool engine's own time in a bulk reference call is dispatch and
    # waiting on its workers; the serial engine's is hashing, cache
    # lookups and bookkeeping around in-thread runs.
    return "executor.reference" if args[0].kind == "serial" \
        else "executor.wait"


#: (owner, attribute, span name or namer or None, hook options).
TARGETS: Tuple[Tuple, ...] = (
    # core.mcmc
    ("repro.core.mcmc:McmcMutatorSelector", "next_mutators", "mcmc.select",
     {"before": _mark_iteration}),
    ("repro.core.mcmc:McmcMutatorSelector", "record_success", "mcmc.select"),
    # core.mutators
    ("repro.core.mutators.base:Mutator", "__call__", "mutators.mutate",
     {"after": _count_applied}),
    # jimple
    ("repro.jimple.model:JClass", "clone", "jimple.clone"),
    ("repro.core.fuzzing", "compile_class", "jimple.compile"),
    ("repro.jimple.to_classfile", "compile_class", "jimple.compile"),
    ("repro.jimple.to_classfile", "compile_method", "jimple.compile_method"),
    # classfile
    ("repro.classfile.writer:ClassWriter", "write", "classfile.write"),
    ("repro.classfile.reader:ClassReader", "read", "classfile.read"),
    # bytecode: the defining module (the assembler imports it lazily from
    # there) plus every module that imported the name
    ("repro.bytecode.instructions", "decode_code", "bytecode.decode"),
    ("repro.jvm.verifier", "decode_code", "bytecode.decode"),
    ("repro.jvm.interpreter", "decode_code", "bytecode.decode"),
    ("repro.jimple.from_classfile", "decode_code", "bytecode.decode"),
    ("repro.jimple.remap", "decode_code", "bytecode.decode"),
    # jvm
    ("repro.jvm.machine:Jvm", "run", "jvm.run", {"before": _vendor_of_run}),
    ("repro.jvm.loader:Loader", "run_format_checks", "jvm.format_checks"),
    ("repro.jvm.linker:Linker", "resolve_hierarchy", "jvm.link"),
    ("repro.jvm.linker:Linker", "link", "jvm.link"),
    ("repro.jvm.linker:Linker", "verify_single_method", "jvm.link"),
    ("repro.jvm.verifier:MethodVerifier", "verify", "jvm.verify"),
    ("repro.jvm.interpreter:Interpreter", "invoke_method", "jvm.interpret"),
    # coverage
    ("repro.coverage.probes:CoverageCollector", "tracefile",
     "coverage.snapshot", {"after": _count_sites}),
    ("repro.coverage.uniqueness:UniquenessCriterion", "check_and_accept",
     "coverage.accept", {"after": _count_accepted}),
    # core.executor (+ core.worker / coverage.shm on the process backend)
    ("repro.core.executor", "make_executor", None,
     {"after": _capture_executor}),
    ("repro.service.worker", "make_executor", None,
     {"after": _capture_executor}),
    ("repro.core.executor:Executor", "run_reference", "executor.reference"),
    ("repro.core.executor:Executor", "run_reference_many", _reference_span,
     {"before": _reference_batch_start, "after": _reference_batch_done}),
    ("repro.core.executor:Executor", "map_many", "executor.map"),
    ("repro.core.executor:ThreadExecutor", "map_many", "executor.map"),
    ("repro.core.executor:ProcessExecutor", "map_many", "executor.map"),
    ("repro.core.executor:Executor", "_run_classfile", None,
     {"before": _mark_classfile}),
    ("repro.core.worker", "decode_payload", "executor.payload_decode"),
    # core.difftest
    ("repro.core.difftest:DifferentialHarness", "run_many", "difftest"),
    ("repro.core.difftest:DifferentialHarness", "run_one", "difftest"),
    # core.checkpoint, core.storage
    ("repro.core.checkpoint:Checkpointer", "write", "checkpoint.write",
     {"after": _count_checkpoint_bytes}),
    ("repro.core.storage", "save_suite", "storage.save"),
    # observe
    ("repro.observe.events:EventBus", "emit", "observe.emit"),
    ("repro.observe.telemetry:Telemetry", "jvm_phase_span",
     "observe.phase_span"),
    ("repro.observe.telemetry:_PhaseSpan", "__enter__",
     "observe.phase_span"),
    ("repro.observe.telemetry:_PhaseSpan", "__exit__", "observe.phase_span"),
    # corpus: seed priming inside the fuzz call (a generator)
    ("repro.core.fuzzing:_FuzzEngine", "prime_pool", "corpus.prime",
     {"before": _mark_prime, "generator": True}),
)
