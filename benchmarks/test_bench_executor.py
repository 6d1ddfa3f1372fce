"""Executor engines: parallel speedup and cache effectiveness.

The execution engine is the reproduction's stand-in for the paper's
cluster-side JVM invocation machinery.  Two properties are measured:

* the process backend beats the serial baseline on a multi-core machine
  (simulated JVM runs are pure-Python, so only worker processes escape
  the GIL) while staying bit-identical to it;
* the content-addressed outcome cache turns repeated evaluation of the
  same bytes into lookups.

Both benchmarks skip rather than fail when the host cannot support them
(single core, or a sandbox that forbids worker processes).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.executor import (
    OutcomeCache,
    ProcessExecutor,
    SerialExecutor,
)
from repro.jvm.vendors import all_jvms

#: Differential runs per measurement; ≥200 classfiles per the issue spec.
SUITE_SIZE = 200


@pytest.fixture(scope="module")
def executor_suite(seed_suite):
    """The first ``SUITE_SIZE`` seed classfiles as (label, bytes)."""
    return seed_suite[:SUITE_SIZE]


def _process_pool_or_skip(jobs):
    """A warmed process executor, or a skip when pools are unavailable."""
    from concurrent.futures.process import BrokenProcessPool

    engine = ProcessExecutor(jobs=jobs)
    try:
        engine.run_differential(all_jvms(), [("Warm", b"\xca\xfe")])
    except (BrokenProcessPool, OSError, PermissionError) as exc:
        engine.close()
        pytest.skip(f"process pool unavailable: {exc}")
    return engine


def test_bench_executor_parallel_speedup(executor_suite):
    cores = os.cpu_count() or 1
    if cores < 2:
        pytest.skip("parallel speedup needs >= 2 cores")
    jobs = min(cores, 8)
    jvms = all_jvms()

    serial = SerialExecutor()
    started = time.perf_counter()
    serial_results = serial.run_differential(jvms, executor_suite)
    serial_seconds = time.perf_counter() - started

    engine = _process_pool_or_skip(jobs)
    try:
        started = time.perf_counter()
        parallel_results = engine.run_differential(jvms, executor_suite)
        parallel_seconds = time.perf_counter() - started
    finally:
        engine.close()

    assert parallel_results == serial_results, \
        "parallel engine must be bit-identical to serial"

    speedup = serial_seconds / parallel_seconds
    print(f"\n=== Executor speedup ({jobs} process workers, "
          f"{len(executor_suite)} classfiles x {len(jvms)} JVMs) ===")
    print(f"serial:   {serial_seconds:.2f}s")
    print(f"parallel: {parallel_seconds:.2f}s  ({speedup:.2f}x)")

    # Pool overhead (pickling outcomes back) eats into small worker
    # counts; demand the issue's 2x only when enough workers exist.
    floor = 2.0 if jobs >= 3 else 1.2
    assert speedup >= floor, \
        f"expected >= {floor}x speedup with {jobs} workers, " \
        f"got {speedup:.2f}x"


def test_bench_executor_cache_hits(executor_suite, benchmark):
    jvms = all_jvms()
    engine = SerialExecutor(cache=OutcomeCache())
    cold = engine.run_differential(jvms, executor_suite)
    assert engine.stats.cache_misses == len(executor_suite) * len(jvms)

    def warm_pass():
        return engine.run_differential(jvms, executor_suite)

    warm = benchmark(warm_pass)
    assert warm == cold
    assert engine.stats.cache_hits >= len(executor_suite) * len(jvms)
    assert engine.stats.runs == len(executor_suite) * len(jvms), \
        "warm passes must not re-execute"

    hit_rate = engine.stats.cache_hits / (
        engine.stats.cache_hits + engine.stats.cache_misses)
    print(f"\n=== Outcome cache ({len(executor_suite)} classfiles x "
          f"{len(jvms)} JVMs) ===")
    print(f"hits: {engine.stats.cache_hits}  "
          f"misses: {engine.stats.cache_misses}  "
          f"hit rate: {hit_rate:.0%}")
