"""Run one workload in this process and print one JSON record.

``run.py`` starts this script once per benchmark run (plus a few
``--setup-only`` starts that measure set-up alone), so peak memory and
set-up time belong to one fresh process each.  The record is the last
line of standard output.

The timed window repeats identical calls until ``--seconds`` have
passed.  With ``--trace 1`` one more call follows with the layer
wrappers of :mod:`spans` installed; only spans of that call count.

Host speed.  On a shared host the CPU's speed for this process swings by
well over a third within seconds (other tenants on sibling hardware
threads), and CPU time swings with it.  :class:`HostSpeed` therefore
times a fixed pure-Python kernel, which no change to the program can
affect, in thread CPU time every 40 ms of process CPU time, and each call's CPU seconds are also
reported scaled to the kernel's reference speed, sample by sample.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from spans import TARGETS, SpanTracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _kernel() -> int:
    """About 0.3 ms of dict, list and integer work on a calm host."""
    table = {}
    for i in range(700):
        key = (i * 7919) % 401
        bucket = table.get(key)
        if bucket is None:
            table[key] = [i]
        else:
            bucket.append(i)
    return sum(sum(table[key]) for key in sorted(table))


class HostSpeed:
    """Samples the host's speed on a CPU-time interval timer.

    Samples are spaced evenly in this process's CPU time, so the mean of
    ``REFERENCE_S / sample`` over an interval is the share of a
    reference-speed CPU second each of its CPU seconds was worth.  The
    sampler's own time is tallied so callers can take it back out.
    """

    INTERVAL_S = 0.04
    #: The kernel's duration on a calm host (the scale of every result).
    REFERENCE_S = 0.0003

    def __init__(self) -> None:
        self.samples = []
        self.cpu_spent = 0.0
        self.wall_spent = 0.0

    def _sample(self, signum, frame) -> None:
        cpu = time.process_time()
        wall = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()  # collecting the program's heap is not host speed
        # The thread clock: while an interval timer is armed the process
        # CPU clock only advances in scheduler ticks.
        started = time.thread_time()
        _kernel()
        elapsed = time.thread_time() - started
        if collecting:
            gc.enable()
        if elapsed > 0:
            self.samples.append(elapsed)
        self.wall_spent += time.perf_counter() - wall
        self.cpu_spent += time.process_time() - cpu

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL_S,
                         self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def mark(self):
        return len(self.samples), self.cpu_spent, self.wall_spent

    def since(self, mark):
        """``(speed share, sampler CPU s, sampler wall s)`` after ``mark``."""
        samples = self.samples[mark[0]:]
        share = statistics.fmean(self.REFERENCE_S / sample
                                 for sample in samples) if samples else 1.0
        return share, self.cpu_spent - mark[1], self.wall_spent - mark[2]


def traced_call(workload, untraced_wall_s: float, record: dict) -> None:
    """One call under the layer wrappers; adds ``layers`` to ``record``."""
    tracer = SpanTracer()
    tracer.install(TARGETS)
    tracer.start()
    try:
        result = workload.call()
    finally:
        tracer.stop()
        tracer.uninstall()
    record["attempted"] += result.ops
    record["failed"] += result.failed
    record["problems"] += result.problems
    if result.digest != record["digest"]:
        record["problems"].append("the traced call's digest differs from "
                                  "the untraced calls'")
    fired = tracer.fired()
    silent = [name for name in workload.required_spans if name not in fired]
    if silent:
        record["problems"].append(
            f"layers that do work on {workload.name} never fired: {silent}"
            + (f" (unwrapped targets: {tracer.missing})"
               if tracer.missing else ""))
    layers = tracer.layer_metrics(result.wall_s, untraced_wall_s)
    if layers["trace.residual_s"][0] < -1e-6:
        record["problems"].append("self times exceed the traced window")
    record["layers"] = layers
    record["fired"] = fired
    record["unwrapped"] = tracer.missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    speed = HostSpeed()
    speed.start()
    try:
        record = measure(args, speed)
    finally:
        speed.stop()
    print(json.dumps(record))
    return 0


def measure(args, speed: HostSpeed) -> dict:
    workload = WORKLOADS[args.workload](args.seed, args.size, args.scratch)
    workload.setup()
    # Set-up ends at the first timed call: CPU seconds since the process
    # started (interpreter start-up, imports, corpus, JVMs, inputs).
    share, sampler_cpu, _ = speed.since((0, 0.0, 0.0))
    setup_cpu = time.process_time() - sampler_cpu
    record = {"setup_s": setup_cpu * share, "setup_cpu_s": setup_cpu,
              "attempted": 0, "failed": 0, "calls": [], "problems": [],
              "digest": None}
    if args.setup_only:
        return record

    started = time.perf_counter()
    while True:
        mark = speed.mark()
        try:
            result = workload.call()
        except Exception:
            # A call that aborts counts every operation it attempted as
            # failed, and ends the window.
            record["problems"].append(traceback.format_exc())
            record["attempted"] += workload.ops_per_call()
            record["failed"] += workload.ops_per_call()
            break
        share, sampler_cpu, sampler_wall = speed.since(mark)
        cpu = result.cpu_s - sampler_cpu
        record["attempted"] += result.ops
        record["failed"] += result.failed
        record["problems"] += result.problems
        record["calls"].append({"wall_s": result.wall_s - sampler_wall,
                                "cpu_s": cpu, "ref_cpu_s": cpu * share,
                                "speed": share, "items": result.items,
                                "discards": result.discards})
        if record["digest"] is None:
            record["digest"] = result.digest
        elif result.digest != record["digest"]:
            record["problems"].append(
                f"digest differs between calls at seed {args.seed}")
        if time.perf_counter() - started >= args.seconds:
            break
    speed.stop()
    if record["calls"]:
        record["problems"] += workload.finish()
        if args.trace:
            traced_call(workload, statistics.median(
                call["wall_s"] for call in record["calls"]), record)
    record["peak_rss_mb"] = peak_rss_mb()
    return record


if __name__ == "__main__":
    sys.exit(main())
