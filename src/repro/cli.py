"""Command-line interface: ``python -m repro <command>``.

Commands mirror the paper's workflow:

* ``corpus``   — generate the seed corpus as ``.class`` files;
* ``inspect``  — javap-style disassembly of a classfile;
* ``run``      — execute one classfile on one or all simulated JVMs;
* ``fuzz``     — run a fuzzing algorithm and save the accepted suite;
* ``difftest`` — differentially test a directory of classfiles;
* ``reduce``   — minimise a discrepancy-triggering classfile and render
  the bug-report text;
* ``campaign`` — the full Table 4 / Table 6 experiment at a scaled budget;
* ``distill``  — shrink a saved suite to a minimal subset covering the
  same interned statement/branch sites (greedy set cover);
* ``triage``   — cluster a suite's discrepancies into a deduplicated
  inventory, minimize representatives, and diff against a known-issue
  baseline so re-runs report only new clusters;
* ``observe``  — summarise, replay, or export a recorded telemetry log,
  and validate Prometheus metric dumps;
* ``monitor``  — serve a recorded events log through the live-monitor
  dashboard (replay mode);
* ``serve``    — the campaign orchestration daemon: durable job queue,
  supervised worker subprocesses, HTTP API + queue dashboard
  (:mod:`repro.service`);
* ``submit`` / ``jobs`` / ``cancel`` — talk to a running ``serve``
  daemon over HTTP.

``fuzz`` and ``campaign`` honour SIGTERM gracefully: the run stops at
the next round boundary, writes a final checkpoint (when running with
``--checkpoint-dir``), and exits with code 143 — distinct from Ctrl-C's
130 — so supervisors can requeue-and-resume instead of counting the
stop as a failure.

The JVM-running commands (``fuzz``, ``difftest``, ``campaign``) accept
``--events``/``--metrics-out``/``--progress`` to record structured
events and a metrics dump while they run, and ``--serve PORT`` to
expose the run live over HTTP (``/``, ``/metrics``, ``/status``,
``/events`` — see :mod:`repro.observe.server`).  ``fuzz`` and ``campaign``
also accept the corpus-subsystem flags: ``--seed-schedule`` picks the
seed-scheduling policy, ``--checkpoint-dir``/``--checkpoint-every``/
``--resume`` make runs crash-durable (a killed run resumed with
``--resume`` reproduces the uninterrupted run's suite exactly).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.classfile.disassembler import disassemble
from repro.classfile.reader import parse_class, read_class
from repro.classfile.writer import write_class
from repro.core.campaign import (
    ALL_ALGORITHMS,
    PAPER_BUDGET_SECONDS,
    format_mutator_report,
    format_table4,
    run_algorithm,
    run_campaign,
    save_campaign_suites,
)
from repro.core.shutdown import (
    GRACEFUL_EXIT_CODE,
    GracefulShutdown,
    install_sigterm_handler,
    reset_shutdown,
)
from repro.core.difftest import DifferentialHarness
from repro.core.executor import make_executor
from repro.core.metrics import evaluate_suite, format_table
from repro.core.reporting import report_discrepancy
from repro.corpus import CorpusConfig, generate_corpus
from repro.corpus.schedule import DEFAULT_SCHEDULE, SCHEDULERS
from repro.jimple.from_classfile import lift_class
from repro.jimple.printer import print_class
from repro.jimple.to_classfile import compile_class_bytes
from repro.jvm.vendors import all_jvms, jvms_by_name
from repro.observe import make_telemetry
from repro.observe.summary import (
    CORE_METRIC_FAMILIES,
    check_prometheus,
    load_events,
    parse_prometheus,
    replay_events,
    summarize_events,
    summarize_job,
    summarize_metrics,
    write_timeseries,
)


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _fraction(text: str) -> float:
    """argparse type for a fraction in [0, 1]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"must be in [0, 1], got {text}")
    return value


def _add_executor_options(command: argparse.ArgumentParser) -> None:
    """Execution-engine flags shared by the JVM-running commands."""
    command.add_argument("--jobs", type=_positive_int, default=1,
                         help="worker processes for JVM runs "
                              "(1 = serial)")
    command.add_argument("--stats", action="store_true",
                         help="print executor statistics (runs, cache "
                              "hits, per-vendor latency)")


def _add_telemetry_options(command: argparse.ArgumentParser) -> None:
    """Observability flags shared by the JVM-running commands."""
    command.add_argument("--events", type=Path, default=None,
                         metavar="PATH",
                         help="record structured events as JSONL")
    command.add_argument("--metrics-out", type=Path, default=None,
                         metavar="PATH",
                         help="write a Prometheus text metrics dump "
                              "when the run finishes")
    command.add_argument("--progress", action="store_true",
                         help="live progress lines on stderr")
    command.add_argument("--serve", type=int, default=None,
                         metavar="PORT",
                         help="serve the live monitor while the run is "
                              "active: /metrics, /status, /events (SSE) "
                              "and the HTML dashboard at / "
                              "(0 = ephemeral port)")
    command.add_argument("--serve-host", default="127.0.0.1",
                         metavar="HOST", dest="serve_host",
                         help="bind address for --serve "
                              "(default: 127.0.0.1)")


def _add_corpus_options(command: argparse.ArgumentParser) -> None:
    """Corpus-subsystem flags shared by ``fuzz`` and ``campaign``."""
    command.add_argument("--seed-schedule", dest="seed_schedule",
                         choices=sorted(SCHEDULERS),
                         default=DEFAULT_SCHEDULE,
                         help="seed-scheduling policy for mutation picks "
                              "(default: the paper's uniform policy)")
    command.add_argument("--checkpoint-dir", dest="checkpoint_dir",
                         type=Path, default=None, metavar="DIR",
                         help="periodically checkpoint the run's state "
                              "here so it can be resumed after a kill")
    command.add_argument("--checkpoint-every", dest="checkpoint_every",
                         type=_positive_int, default=50, metavar="N",
                         help="iterations between checkpoints "
                              "(default: 50)")
    command.add_argument("--resume", action="store_true",
                         help="resume from --checkpoint-dir's latest "
                              "checkpoint (fresh start when none exists)")
    command.add_argument("--exec-fraction", dest="exec_fraction",
                         type=_fraction, default=0.0, metavar="FRAC",
                         help="fraction of seed classes built from the "
                              "execution-phase templates (runtime-"
                              "divergent seeds; default: 0, the paper's "
                              "corpus)")
    command.add_argument("--execution-mutators", dest="execution_mutators",
                         action="store_true",
                         help="merge the execution-targeted mutators "
                              "(edge values, comparison nudges, narrowing "
                              "casts, handler permutation) into the "
                              "rotation alongside the 129-mutator "
                              "registry")


def _mutator_rotation(args):
    """The mutator rotation ``fuzz``/``campaign`` run: the registry plus
    the execution-targeted mutators when asked, or ``None`` for the
    default 129-mutator registry."""
    if args.execution_mutators:
        from repro.core.mutators import EXECUTION_MUTATORS, MUTATORS

        return list(MUTATORS) + list(EXECUTION_MUTATORS)
    return None


def _make_telemetry(args):
    """Build the run's telemetry bundle, or ``None`` when all observability
    flags are off (keeping the hot paths at their uninstrumented cost)."""
    if not (args.events or args.metrics_out or args.progress
            or getattr(args, "serve", None) is not None):
        return None
    return make_telemetry(events_path=args.events, progress=args.progress)


def _activate(telemetry):
    """Install ``telemetry`` as the ambient bundle for a ``with`` block
    (a no-op context when observability is off)."""
    return telemetry.activate() if telemetry is not None \
        else contextlib.nullcontext()


def _start_monitor(telemetry, args):
    """Start the embedded monitor server when ``--serve`` was given."""
    if telemetry is None or getattr(args, "serve", None) is None:
        return None
    from repro.observe.server import MonitorServer

    monitor = MonitorServer(telemetry, host=args.serve_host,
                            port=args.serve).start()
    print(f"monitor serving at {monitor.url} "
          "(/, /metrics, /status, /events)", file=sys.stderr)
    return monitor


def _finish_telemetry(telemetry, args, monitor=None) -> None:
    """Stop the monitor, write the metrics dump, and close the sinks."""
    if monitor is not None:
        monitor.stop()
    if telemetry is None:
        return
    if args.metrics_out:
        args.metrics_out.write_text(telemetry.render_prometheus(),
                                    encoding="utf-8")
        print(f"wrote metrics dump to {args.metrics_out}")
    if args.events:
        print(f"wrote event log to {args.events}")
    telemetry.close()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="classfuzz: coverage-directed differential JVM testing")
    sub = parser.add_subparsers(dest="command", required=True)

    corpus = sub.add_parser("corpus", help="generate the seed corpus")
    corpus.add_argument("--count", type=int, default=1216)
    corpus.add_argument("--seed", type=int, default=20160613)
    corpus.add_argument("--out", type=Path, default=Path("seeds"))

    inspect = sub.add_parser("inspect", help="javap-style disassembly")
    inspect.add_argument("classfile", type=Path)
    inspect.add_argument("--no-pool", action="store_true",
                         help="omit the constant pool")

    run = sub.add_parser("run", help="run a classfile on the JVMs")
    run.add_argument("classfile", type=Path)
    run.add_argument("--jvm", choices=[j.name for j in all_jvms()],
                     help="a single JVM (default: all five)")

    fuzz = sub.add_parser("fuzz", help="run a fuzzing algorithm")
    fuzz.add_argument("--algorithm",
                      choices=("classfuzz", "uniquefuzz", "greedyfuzz",
                               "randfuzz"), default="classfuzz")
    fuzz.add_argument("--criterion", choices=("st", "stbr", "tr"),
                      default="stbr")
    fuzz.add_argument("--iterations", type=_positive_int, default=500)
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--batch", type=_positive_int, default=1,
                      help="speculative batch size: reference coverage "
                           "runs fan out across the executor workers in "
                           "rounds of this many mutants, with acceptance "
                           "replayed deterministically (1 = serial loop)")
    fuzz.add_argument("--seed-count", type=_positive_int, default=200,
                      help="synthetic seed corpus size")
    fuzz.add_argument("--out", type=Path, default=None,
                      help="directory for accepted classfiles")
    fuzz.add_argument("--mutator-report", type=int, default=0,
                      metavar="N", dest="mutator_report",
                      help="print the top-N mutators by MCMC rank "
                           "(the Table 5 view)")
    _add_corpus_options(fuzz)
    _add_executor_options(fuzz)
    _add_telemetry_options(fuzz)

    difftest = sub.add_parser("difftest",
                              help="differentially test classfiles")
    difftest.add_argument("paths", nargs="+", type=Path,
                          help=".class files or directories")
    difftest.add_argument("--show", type=int, default=5,
                          help="discrepancies to print in full")
    _add_executor_options(difftest)
    _add_telemetry_options(difftest)

    reduce = sub.add_parser("reduce",
                            help="minimise a discrepancy trigger")
    reduce.add_argument("classfile", type=Path)

    campaign = sub.add_parser("campaign",
                              help="the Table 4/6 experiment")
    campaign.add_argument("--budget-scale", type=float, default=0.1,
                          help="fraction of the paper's 3-day budget")
    campaign.add_argument("--seed-count", type=_positive_int,
                          default=1216)
    campaign.add_argument("--seed", type=int, default=20160613)
    campaign.add_argument("--algorithms", nargs="*",
                          default=list(ALL_ALGORITHMS))
    campaign.add_argument("--batch", type=_positive_int, default=1,
                          help="speculative batch size for every fuzzing "
                               "run (1 = serial Algorithm 1 loop)")
    campaign.add_argument("--mutator-report", type=int, default=0,
                          metavar="N", dest="mutator_report",
                          help="print each algorithm's top-N mutators "
                               "(the Table 5 view)")
    campaign.add_argument("--triage-out", type=Path, default=None,
                          metavar="JSONL", dest="triage_out",
                          help="triage every algorithm's TestClasses "
                               "discrepancies into one deduplicated "
                               "cluster inventory written here")
    campaign.add_argument("--suites-out", type=Path, default=None,
                          metavar="DIR", dest="suites_out",
                          help="save every algorithm's accepted suite "
                               "under DIR/<algorithm>/ (byte-comparable "
                               "with a service campaign job's per-leg "
                               "suites)")
    _add_corpus_options(campaign)
    _add_executor_options(campaign)
    _add_telemetry_options(campaign)

    distill = sub.add_parser(
        "distill", help="shrink a saved suite, preserving its coverage")
    distill.add_argument("suite", type=Path,
                         help="a suite directory written by fuzz --out")
    distill.add_argument("--out", type=Path, default=None,
                         help="write the distilled suite (classfiles, "
                              "traces, manifest) to this directory")
    distill.add_argument("--bucket", default="tests",
                         choices=("tests", "gen"),
                         help="which suite bucket to distill")

    triage = sub.add_parser(
        "triage", help="cluster, minimize, and suppress discrepancies")
    triage.add_argument("action",
                        choices=("report", "minimize",
                                 "diff-against-baseline"),
                        help="report prints the cluster inventory; "
                             "minimize also reduces+attributes every "
                             "new cluster's representative; "
                             "diff-against-baseline exits 1 when "
                             "clusters outside --baseline appear")
    triage.add_argument("path", type=Path,
                        help="a suite directory (fuzz --out), a "
                             "directory of .class files, or one "
                             ".class file")
    triage.add_argument("--out", type=Path, default=None, metavar="JSONL",
                        help="append the cluster inventory to this "
                             "triage store (crash-durable JSONL)")
    triage.add_argument("--baseline", type=Path, default=None,
                        metavar="FILE",
                        help="known-issue list: a suppression JSON or "
                             "a prior run's triage JSONL — matching "
                             "clusters are reported as suppressed")
    triage.add_argument("--minimize", action="store_true",
                        help="report: also minimize each new cluster's "
                             "representative and blame policy fields")
    triage.add_argument("--coarse", action="store_true",
                        help="cluster on the phase-only code vector "
                             "(the paper's §3.1.3 grouping) instead of "
                             "the fine (phase, error) signature")
    triage.add_argument("--write-suppressions", type=Path, default=None,
                        metavar="FILE", dest="write_suppressions",
                        help="write a suppression JSON covering every "
                             "cluster this run saw")
    triage.add_argument("--resume", action="store_true",
                        help="resume an interrupted run from --out's "
                             "durable progress mark")
    _add_executor_options(triage)
    _add_telemetry_options(triage)

    observe = sub.add_parser(
        "observe", help="analyse recorded telemetry")
    observe.add_argument("action",
                         choices=("summary", "replay", "timeseries",
                                  "check"),
                         help="summary/replay/timeseries read a JSONL "
                              "event log; check validates a Prometheus "
                              "metrics dump")
    observe.add_argument("path", type=Path,
                         help="the events.jsonl (or metrics dump, for "
                              "check) to analyse")
    observe.add_argument("--out", type=Path, default=None,
                         help="timeseries: CSV output path "
                              "(default: stdout)")
    observe.add_argument("--type", dest="event_type", default=None,
                         help="replay: only this event type")
    observe.add_argument("--limit", type=int, default=None,
                         help="replay: stop after N lines")
    observe.add_argument("--require", nargs="*", default=None,
                         metavar="FAMILY",
                         help="check: metric families that must be "
                              "present (default: the core families)")
    observe.add_argument("--metrics", type=Path, default=None,
                         metavar="DUMP",
                         help="summary: read this Prometheus dump for the "
                              "JVM phase latency, executor batch and "
                              "worker blocks (a job directory reads each "
                              "leg's metrics.prom by default)")

    monitor = sub.add_parser(
        "monitor", help="serve a recorded events log through the live "
                        "monitor (replay mode)")
    monitor.add_argument("events", type=Path,
                         help="an events.jsonl recorded with --events")
    monitor.add_argument("--port", type=int, default=8377,
                         help="port to serve on (0 = ephemeral; "
                              "default: 8377)")
    monitor.add_argument("--host", default="127.0.0.1",
                         help="bind address (default: 127.0.0.1)")
    monitor.add_argument("--speed", type=float, default=0.0,
                         help="replay pacing: N replays at N x recorded "
                              "speed; 0 loads the whole log instantly "
                              "(default)")
    monitor.add_argument("--duration", type=float, default=None,
                         metavar="SECONDS",
                         help="keep serving this long after the replay, "
                              "then exit (default: until interrupted)")

    serve = sub.add_parser(
        "serve", help="run the campaign orchestration daemon: durable "
                      "job queue + HTTP API + queue dashboard")
    serve.add_argument("--state-root", type=Path,
                       default=Path("repro-service"), metavar="DIR",
                       help="durable queue + artifact root "
                            "(default: ./repro-service)")
    serve.add_argument("--port", type=int, default=8378,
                       help="API port (0 = ephemeral; default: 8378)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--max-attempts", type=int, default=3,
                       dest="max_attempts", metavar="N",
                       help="attempts per leg before the job fails "
                            "(default: 3)")
    serve.add_argument("--parallel-legs", type=int, default=1,
                       dest="parallel_legs", metavar="N",
                       help="worker subprocesses supervised at once "
                            "(default: 1)")

    submit = sub.add_parser(
        "submit", help="submit a job to a running service daemon")
    submit.add_argument("type", choices=("fuzz", "campaign", "difftest"),
                        help="job kind; campaigns are sharded into one "
                             "leg per algorithm")
    submit.add_argument("paths", nargs="*", type=Path,
                        help="difftest: classfiles or directories to "
                             "differential-test")
    submit.add_argument("--url", default="http://127.0.0.1:8378",
                        help="service base URL "
                             "(default: http://127.0.0.1:8378)")
    submit.add_argument("--spec", type=Path, default=None, metavar="JSON",
                        help="read the job spec from this JSON file "
                             "(flags below override its fields)")
    submit.add_argument("--algorithm", default=None,
                        help="fuzz: algorithm label, e.g. classfuzz[tr] "
                             "or randfuzz")
    submit.add_argument("--algorithms", nargs="*", default=None,
                        help="campaign: algorithm labels to shard into "
                             "legs (default: all)")
    submit.add_argument("--iterations", type=int, default=None,
                        help="fuzz: iteration count")
    submit.add_argument("--budget-scale", type=float, default=None,
                        dest="budget_scale",
                        help="campaign: fraction of the paper's 3-day "
                             "budget")
    submit.add_argument("--budget-seconds", type=float, default=None,
                        dest="budget_seconds",
                        help="campaign: explicit modeled budget "
                             "(overrides --budget-scale)")
    submit.add_argument("--seed", type=int, default=None,
                        help="base RNG seed")
    submit.add_argument("--seed-count", type=int, default=None,
                        dest="seed_count", help="seed corpus size")
    submit.add_argument("--batch", type=_positive_int, default=None,
                        help="speculative batch size")
    submit.add_argument("--seed-schedule", default=None,
                        dest="seed_schedule", choices=sorted(SCHEDULERS),
                        help="seed-scheduling policy")
    submit.add_argument("--exec-fraction", type=float, default=None,
                        dest="exec_fraction",
                        help="fraction of execution-phase seed templates "
                             "in the corpus")
    submit.add_argument("--execution-mutators", action="store_true",
                        default=None, dest="execution_mutators",
                        help="merge the execution-targeted mutators into "
                             "the rotation")
    submit.add_argument("--wait", action="store_true",
                        help="poll until the job finishes; exit 0 only "
                             "when it completes")
    submit.add_argument("--timeout", type=float, default=600.0,
                        help="--wait limit in seconds (default: 600)")

    jobs = sub.add_parser(
        "jobs", help="list a running service daemon's job queue")
    jobs.add_argument("--url", default="http://127.0.0.1:8378",
                      help="service base URL "
                           "(default: http://127.0.0.1:8378)")

    cancel = sub.add_parser(
        "cancel", help="cancel a queued or running service job")
    cancel.add_argument("job_id", help="the job id to cancel")
    cancel.add_argument("--url", default="http://127.0.0.1:8378",
                        help="service base URL "
                             "(default: http://127.0.0.1:8378)")
    return parser


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def _cmd_corpus(args) -> int:
    seeds = generate_corpus(CorpusConfig(count=args.count, seed=args.seed))
    args.out.mkdir(parents=True, exist_ok=True)
    written = 0
    for jclass in seeds:
        data = compile_class_bytes(jclass)
        (args.out / f"{jclass.name}.class").write_bytes(data)
        written += 1
    print(f"wrote {written} seed classfiles to {args.out}/")
    return 0


def _cmd_inspect(args) -> int:
    data = args.classfile.read_bytes()
    classfile = read_class(data)
    print(disassemble(classfile, data,
                      show_constant_pool=not args.no_pool))
    return 0


def _cmd_run(args) -> int:
    parsed = parse_class(args.classfile.read_bytes())
    jvms = [jvms_by_name()[args.jvm]] if args.jvm else all_jvms()
    worst = 0
    for jvm in jvms:
        outcome = jvm.run(parsed)
        worst = max(worst, outcome.code)
        print(outcome.brief())
        if outcome.message:
            print(f"    {outcome.message}")
        for line in outcome.output:
            print(f"    > {line}")
    return 0 if worst == 0 else 1


def _cmd_fuzz(args) -> int:
    if args.resume and args.checkpoint_dir is None:
        print("error: --resume requires --checkpoint-dir",
              file=sys.stderr)
        return 2
    reset_shutdown()
    install_sigterm_handler()
    seeds = generate_corpus(CorpusConfig(count=args.seed_count,
                                         seed=args.seed,
                                         exec_fraction=args.exec_fraction))
    mutators = _mutator_rotation(args)
    telemetry = _make_telemetry(args)
    monitor = _start_monitor(telemetry, args)
    executor = make_executor(jobs=args.jobs, telemetry=telemetry)
    label = f"classfuzz[{args.criterion}]" \
        if args.algorithm == "classfuzz" else args.algorithm
    kwargs = dict(executor=executor, telemetry=telemetry,
                  batch=args.batch, schedule=args.seed_schedule,
                  checkpoint_dir=args.checkpoint_dir,
                  checkpoint_every=args.checkpoint_every,
                  resume=args.resume)
    if mutators is not None:
        kwargs["mutators"] = mutators
    try:
        with _activate(telemetry):
            result = run_algorithm(label, seeds, args.iterations,
                                   args.seed, **kwargs)
    except GracefulShutdown as exc:
        print(f"SIGTERM honoured: {exc}; resume with --resume",
              file=sys.stderr)
        executor.close()
        _finish_telemetry(telemetry, args, monitor)
        return GRACEFUL_EXIT_CODE
    except KeyboardInterrupt:
        print(f"interrupted; latest checkpoint kept in "
              f"{args.checkpoint_dir} (resume with --resume)",
              file=sys.stderr)
        executor.close()
        _finish_telemetry(telemetry, args, monitor)
        return 130
    print(f"{result.algorithm}"
          + (f"[{result.criterion}]" if result.criterion else "")
          + f": {result.iterations} iterations, "
          f"{len(result.gen_classes)} generated, "
          f"{len(result.test_classes)} accepted "
          f"(succ {result.succ:.1%}) in {result.elapsed_seconds:.1f}s")
    if result.scheduler != "uniform":
        print(f"seed schedule: {result.scheduler} "
              f"({len(result.seed_stats)} active pool entries)")
    if result.discards:
        breakdown = ", ".join(f"{category}: {count}" for category, count
                              in sorted(result.discards.items()))
        print(f"discarded {result.discarded} iterations ({breakdown})")
    if args.mutator_report and result.mutator_report:
        print()
        headers = ["mutator", "selected", "successes", "succ"]
        rows = [[name, str(selected), str(successes), f"{rate:.1%}"]
                for name, selected, successes, rate
                in result.mutator_report[:args.mutator_report]]
        widths = [max(len(h), *(len(r[i]) for r in rows))
                  for i, h in enumerate(headers)]
        print("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
        for row in rows:
            print("  ".join(cell.ljust(widths[i])
                            for i, cell in enumerate(row)))
    if args.stats:
        print(executor.stats.format())
    if args.out:
        from repro.core.storage import save_suite

        manifest_path = save_suite(result, args.out)
        print(f"wrote {len(result.test_classes)} classfiles + traces + "
              f"{manifest_path.name} to {args.out}/")
    executor.close()
    _finish_telemetry(telemetry, args, monitor)
    return 0


def _collect_classfiles(paths: List[Path]) -> List[Path]:
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.glob("*.class")))
        else:
            files.append(path)
    return files


def _cmd_difftest(args) -> int:
    files = _collect_classfiles(args.paths)
    if not files:
        print("no classfiles found", file=sys.stderr)
        return 2
    telemetry = _make_telemetry(args)
    monitor = _start_monitor(telemetry, args)
    executor = make_executor(jobs=args.jobs, telemetry=telemetry)
    harness = DifferentialHarness(executor=executor, telemetry=telemetry)
    suite = [(path.stem, path.read_bytes()) for path in files]
    with _activate(telemetry):
        report = evaluate_suite("suite", suite, harness)
    print(format_table([report]))
    shown = 0
    for result in report.results:
        if result.is_discrepancy and shown < args.show:
            shown += 1
            print()
            print(result.summary())
    if args.stats:
        print()
        print("=== Executor stats ===")
        print(executor.stats.format())
    executor.close()
    _finish_telemetry(telemetry, args, monitor)
    return 0 if report.discrepancies == 0 else 1


def _cmd_reduce(args) -> int:
    data = args.classfile.read_bytes()
    jclass = lift_class(read_class(data))
    try:
        report = report_discrepancy(jclass)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.text)
    print()
    print(f"classification: {report.classification}")
    return 0


def _cmd_campaign(args) -> int:
    if args.resume and args.checkpoint_dir is None:
        print("error: --resume requires --checkpoint-dir",
              file=sys.stderr)
        return 2
    reset_shutdown()
    install_sigterm_handler()
    seeds = generate_corpus(CorpusConfig(count=args.seed_count,
                                         seed=args.seed,
                                         exec_fraction=args.exec_fraction))
    mutators = _mutator_rotation(args)
    budget = PAPER_BUDGET_SECONDS * args.budget_scale
    telemetry = _make_telemetry(args)
    monitor = _start_monitor(telemetry, args)
    executor = make_executor(jobs=args.jobs, telemetry=telemetry)
    triage_engine = None
    if args.triage_out is not None:
        from repro.triage import TriageEngine

        triage_engine = TriageEngine(telemetry=telemetry)
    corpus_kw = dict(schedule=args.seed_schedule,
                     checkpoint_dir=args.checkpoint_dir,
                     checkpoint_every=args.checkpoint_every,
                     resume=args.resume,
                     mutators=mutators)
    try:
        with _activate(telemetry):
            runs = run_campaign(seeds, budget,
                                algorithms=tuple(args.algorithms),
                                rng_seed=args.seed, evaluate=True,
                                executor=executor, telemetry=telemetry,
                                batch=args.batch, triage=triage_engine,
                                **corpus_kw)
    except GracefulShutdown as exc:
        print(f"SIGTERM honoured: {exc}; latest checkpoints kept under "
              f"{args.checkpoint_dir} (resume with --resume)",
              file=sys.stderr)
        executor.close()
        _finish_telemetry(telemetry, args, monitor)
        return GRACEFUL_EXIT_CODE
    except KeyboardInterrupt:
        print(f"interrupted; latest checkpoints kept under "
              f"{args.checkpoint_dir} (resume with --resume)",
              file=sys.stderr)
        executor.close()
        _finish_telemetry(telemetry, args, monitor)
        return 130
    print(f"=== Table 4 (budget = {budget:.0f} modeled seconds) ===")
    print(format_table4(runs))
    print()
    print("=== Table 6 ===")
    reports = []
    for run in runs:
        reports.append(run.gen_report)
        reports.append(run.test_report)
    print(format_table([r for r in reports if r is not None]))
    if args.mutator_report:
        print()
        print("=== Table 5 (mutator selection) ===")
        print(format_mutator_report(runs, top=args.mutator_report))
    if triage_engine is not None:
        from repro.triage import TriageStore

        with TriageStore(args.triage_out) as store:
            for cluster in triage_engine.clusters():
                store.append_cluster(cluster)
        print()
        print(f"triage: {len(triage_engine)} distinct clusters across "
              f"all TestClasses suites -> {args.triage_out}")
    if args.suites_out is not None:
        manifests = save_campaign_suites(runs, args.suites_out)
        print(f"wrote {len(manifests)} per-algorithm suites under "
              f"{args.suites_out}/")
    if args.stats:
        print()
        print("=== Executor stats ===")
        for run in runs:
            stats = run.executor_stats
            print(f"{run.label}: fuzz {run.fuzz_seconds:.2f}s, "
                  f"evaluate {run.evaluate_seconds:.2f}s, "
                  f"{stats.runs} runs, {stats.cache_hits} cache hits, "
                  f"{stats.trace_hits} trace hits")
        print()
        print(executor.stats.format())
    executor.close()
    _finish_telemetry(telemetry, args, monitor)
    return 0


def _load_suite_any(path: Path) -> List:
    """Load ``(label, bytes)`` pairs from any classfile source.

    Accepts a suite directory written by ``fuzz --out`` (detected by
    its ``manifest.json``), a plain directory of ``.class`` files, or a
    single ``.class`` file.
    """
    from repro.core.storage import load_suite

    if path.is_dir():
        if (path / "manifest.json").exists():
            return load_suite(path)
        return [(p.stem, p.read_bytes())
                for p in sorted(path.glob("*.class"))]
    if not path.exists():
        raise ValueError(f"no such file or directory: {path}")
    return [(path.stem, path.read_bytes())]


def _format_triage_line(cluster, minimized=None) -> str:
    status = "SUPPRESSED" if cluster.suppressed else "new"
    line = (f"{cluster.cluster_id}  {cluster.kind:<6} "
            f"count={cluster.count:<4} {status:<10} "
            f"rep={cluster.representative or '-'}  {cluster.describe()}")
    if minimized is not None:
        detail = (f"    minimized: {minimized.size_before} -> "
                  f"{minimized.size_after} bytes, "
                  f"{minimized.steps} deletions, "
                  f"{minimized.tests_run} retests")
        if minimized.blamed_fields:
            detail += f"; blamed: {', '.join(minimized.blamed_fields)}"
        if minimized.environmental:
            detail += "; environmental"
        if minimized.error:
            detail += f"; degraded ({minimized.error})"
        line += "\n" + detail
    return line


def _cmd_triage(args) -> int:
    from repro.triage import (
        TriageEngine,
        TriageStore,
        load_clusters,
        load_progress,
        load_suppressions,
        minimize_clusters,
        write_suppressions,
    )
    from repro.triage.cluster import COARSE, FINE

    if args.action == "diff-against-baseline" and args.baseline is None:
        print("error: diff-against-baseline requires --baseline",
              file=sys.stderr)
        return 2
    if args.resume and args.out is None:
        print("error: --resume requires --out", file=sys.stderr)
        return 2
    try:
        suite = _load_suite_any(args.path)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not suite:
        print("no classfiles found", file=sys.stderr)
        return 2
    suppressions = None
    if args.baseline is not None:
        try:
            suppressions = load_suppressions(args.baseline)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    telemetry = _make_telemetry(args)
    monitor = _start_monitor(telemetry, args)
    executor = make_executor(jobs=args.jobs, telemetry=telemetry)
    harness = DifferentialHarness(executor=executor, telemetry=telemetry)
    engine = TriageEngine(kind=COARSE if args.coarse else FINE,
                          suppressions=suppressions, telemetry=telemetry)
    store = TriageStore(args.out) if args.out is not None else None
    start = 0
    if args.resume and args.out.exists():
        restored = engine.restore(load_clusters(args.out))
        start = load_progress(args.out)
        print(f"resumed from {args.out}: {restored} clusters restored, "
              f"{start}/{len(suite)} classfiles already triaged")

    def triage_all() -> None:
        chunk_size = 32
        for begin in range(start, len(suite), chunk_size):
            chunk = suite[begin:begin + chunk_size]
            results = harness.run_many(chunk)
            touched = engine.add_many(results, dict(chunk))
            if store is not None:
                for cluster in touched:
                    store.append_cluster(cluster)
                store.append_progress(begin + len(chunk))

    try:
        with _activate(telemetry):
            triage_all()
    except KeyboardInterrupt:
        print(f"interrupted; durable progress kept in {args.out} "
              f"(resume with --resume)", file=sys.stderr)
        if store is not None:
            store.close()
        executor.close()
        _finish_telemetry(telemetry, args, monitor)
        return 130

    clusters = engine.clusters()
    new = engine.new_clusters()
    suppressed = engine.suppressed_clusters()
    minimized_by_id = {}
    if args.minimize or args.action == "minimize":
        data_by_id = {}
        by_label = dict(suite)
        for cluster in new:
            data = engine.representative_bytes(cluster.cluster_id)
            if data is None:  # restored cluster: bytes not retained
                data = by_label.get(cluster.representative)
            if data is not None:
                data_by_id[cluster.cluster_id] = data
        minimized = minimize_clusters(new, data_by_id,
                                      executor=executor,
                                      telemetry=telemetry)
        minimized_by_id = {m.cluster_id: m for m in minimized}
        if store is not None:
            for item in minimized:
                store.append_minimized(item.to_record())

    if args.action == "diff-against-baseline":
        print(f"triaged {len(suite)} classfiles: {len(clusters)} "
              f"clusters, {len(suppressed)} in baseline, "
              f"{len(new)} NEW")
        for cluster in new:
            print(_format_triage_line(
                cluster, minimized_by_id.get(cluster.cluster_id)))
        exit_code = 1 if new else 0
    else:
        print(f"triaged {len(suite)} classfiles: {len(clusters)} "
              f"clusters ({len(new)} new, {len(suppressed)} suppressed)")
        for cluster in clusters:
            print(_format_triage_line(
                cluster, minimized_by_id.get(cluster.cluster_id)))
        exit_code = 0
    if args.write_suppressions is not None:
        write_suppressions(args.write_suppressions, clusters)
        print(f"wrote {len(clusters)} suppressions to "
              f"{args.write_suppressions}")
    if store is not None:
        store.close()
        print(f"triage store: {args.out}")
    if args.stats:
        print()
        print("=== Executor stats ===")
        print(executor.stats.format())
    executor.close()
    _finish_telemetry(telemetry, args, monitor)
    return exit_code


def _cmd_distill(args) -> int:
    from repro.corpus.distill import distill_suite

    try:
        result = distill_suite(args.suite, out=args.out,
                               bucket=args.bucket)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(result.summary())
    if result.dropped:
        print(f"dropped (redundant coverage): "
              f"{', '.join(result.dropped)}")
    if args.out:
        print(f"wrote distilled suite to {args.out}/")
    return 0


def _cmd_observe(args) -> int:
    if args.action == "check":
        text = args.path.read_text(encoding="utf-8")
        required = args.require if args.require else CORE_METRIC_FAMILIES
        problems = check_prometheus(text, required)
        if problems:
            for problem in problems:
                print(f"FAIL: {problem}", file=sys.stderr)
            return 1
        print(f"OK: {len(required)} metric families present, "
              "dump parses cleanly")
        return 0
    job_record = None
    event_paths = [args.path]
    metric_paths = [args.metrics] if args.metrics is not None else []
    if args.path.is_dir():
        if (args.path / "job.json").exists():
            import json as _json

            job_record = _json.loads(
                (args.path / "job.json").read_text(encoding="utf-8"))
            event_paths = sorted(args.path.glob("legs/*/events.jsonl"))
            if not metric_paths:
                metric_paths = sorted(args.path.glob("legs/*/metrics.prom"))
        elif (args.path / "events.jsonl").exists():
            event_paths = [args.path / "events.jsonl"]
        else:
            print(f"error: {args.path} has neither job.json nor "
                  "events.jsonl", file=sys.stderr)
            return 2
    events = [event for path in event_paths
              for event in load_events(path)]
    if args.action == "summary":
        if job_record is not None:
            print(summarize_job(job_record))
            print()
        print(summarize_events(events))
        samples = {}
        for path in metric_paths:
            for name, rows in parse_prometheus(
                    path.read_text(encoding="utf-8")).items():
                samples.setdefault(name, []).extend(rows)
        block = summarize_metrics(samples)
        if block:
            print()
            print(block)
        return 0
    if args.action == "replay":
        print(replay_events(events, event_type=args.event_type,
                            limit=args.limit))
        return 0
    # timeseries
    out = args.out if args.out else Path(args.path).with_suffix(".csv")
    rows = write_timeseries(events, out)
    print(f"wrote {rows} iteration rows to {out}")
    return 0


def _cmd_monitor(args) -> int:
    import time

    from repro.observe import Telemetry, read_events
    from repro.observe.server import MonitorServer

    if not args.events.exists():
        print(f"error: no such events log: {args.events}",
              file=sys.stderr)
        return 2
    telemetry = Telemetry()
    monitor = MonitorServer(telemetry, host=args.host,
                            port=args.port).start()
    monitor.tracker.begin_run(
        run_id=f"replay:{args.events.name}",
        config={"source": str(args.events), "mode": "replay",
                "speed": args.speed})
    print(f"monitor serving {args.events} at {monitor.url} "
          "(replay mode)", file=sys.stderr)
    replayed = 0
    last_ts = None
    try:
        for event in read_events(args.events):
            if args.speed > 0 and last_ts is not None \
                    and event.ts > last_ts:
                time.sleep(min((event.ts - last_ts) / args.speed, 5.0))
            last_ts = event.ts
            telemetry.bus.dispatch(event)
            replayed += 1
        print(f"replayed {replayed} events; serving /status, /metrics, "
              "/events and / (ctrl-c to stop)", file=sys.stderr)
        if args.duration is not None:
            time.sleep(max(0.0, args.duration))
        else:  # pragma: no cover - interactive serving loop
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:
        pass
    monitor.stop()
    telemetry.close()
    print(f"served {replayed} replayed events", file=sys.stderr)
    return 0


def _cmd_serve(args) -> int:
    import signal
    import threading

    from repro.service.daemon import ServiceDaemon

    daemon = ServiceDaemon(args.state_root, host=args.host,
                           port=args.port,
                           max_attempts=args.max_attempts,
                           parallel_legs=args.parallel_legs).start()
    stop = threading.Event()
    try:
        signal.signal(signal.SIGTERM, lambda *_: stop.set())
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    print(f"service daemon at {daemon.url} "
          f"(state root: {daemon.store.root}; dashboard at /)",
          file=sys.stderr)
    try:
        while not stop.is_set():
            stop.wait(0.5)
    except KeyboardInterrupt:
        pass
    print("shutting down: terminating workers, requeueing running "
          "jobs...", file=sys.stderr)
    daemon.stop()
    return 0


def _build_submit_spec(args) -> dict:
    """Assemble the job spec from --spec JSON plus explicit flags."""
    import json

    spec = {}
    if args.spec is not None:
        spec = json.loads(args.spec.read_text(encoding="utf-8"))
    spec["type"] = args.type
    overrides = {
        "algorithm": args.algorithm,
        "algorithms": args.algorithms,
        "iterations": args.iterations,
        "budget_scale": args.budget_scale,
        "budget_seconds": args.budget_seconds,
        "seed": args.seed,
        "seed_count": args.seed_count,
        "batch": args.batch,
        "seed_schedule": args.seed_schedule,
        "exec_fraction": args.exec_fraction,
        "execution_mutators": args.execution_mutators,
    }
    spec.update({key: value for key, value in overrides.items()
                 if value is not None})
    if args.type == "difftest" and args.paths:
        spec["paths"] = [str(path) for path in args.paths]
    return spec


def _cmd_submit(args) -> int:
    from repro.service.client import ServiceClient, ServiceClientError

    client = ServiceClient(args.url)
    try:
        record = client.submit(_build_submit_spec(args))
        job_id = record["id"]
        legs = ", ".join(leg["label"] for leg in record["legs"])
        print(f"submitted {record['spec']['type']} job {job_id} "
              f"({len(record['legs'])} leg(s): {legs})")
        if not args.wait:
            return 0
        document = client.wait(job_id, timeout=args.timeout)
    except ServiceClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    job = document["job"]
    timings = document["timings"]
    print(f"job {job_id} {job['state']}: "
          f"queued {timings['queued_seconds']}s, "
          f"ran {timings['running_seconds']}s")
    return 0 if job["state"] == "done" else 1


def _cmd_jobs(args) -> int:
    from repro.service.client import ServiceClient, ServiceClientError

    try:
        document = ServiceClient(args.url).jobs()
    except ServiceClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    service = document["service"]
    print(f"service at {args.url}: queue depth "
          f"{service['queue_depth']}, state root "
          f"{service['state_root']}")
    if not document["jobs"]:
        print("no jobs submitted yet")
        return 0
    headers = ["job", "type", "state", "legs", "current"]
    rows = [[job["id"], job["type"], job["state"],
             f"{job['legs_done']}/{job['legs_total']}",
             job["current_leg"] or "-"]
            for job in document["jobs"]]
    widths = [max(len(h), *(len(r[i]) for r in rows))
              for i, h in enumerate(headers)]
    print("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    for row in rows:
        print("  ".join(cell.ljust(widths[i])
                        for i, cell in enumerate(row)))
    return 0


def _cmd_cancel(args) -> int:
    from repro.service.client import ServiceClient, ServiceClientError

    try:
        summary = ServiceClient(args.url).cancel(args.job_id)
    except ServiceClientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    state = summary["state"]
    if state == "cancelled":
        print(f"job {args.job_id} cancelled")
    elif state in ("done", "failed"):
        print(f"job {args.job_id} already {state}; nothing to cancel")
    else:
        print(f"job {args.job_id} cancellation requested "
              f"(currently {state})")
    return 0


_COMMANDS = {
    "corpus": _cmd_corpus,
    "inspect": _cmd_inspect,
    "run": _cmd_run,
    "fuzz": _cmd_fuzz,
    "difftest": _cmd_difftest,
    "reduce": _cmd_reduce,
    "campaign": _cmd_campaign,
    "distill": _cmd_distill,
    "triage": _cmd_triage,
    "observe": _cmd_observe,
    "monitor": _cmd_monitor,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "jobs": _cmd_jobs,
    "cancel": _cmd_cancel,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # The reader of stdout left (``repro ... | head``).  Point stdout
        # at devnull so the exit-time flush of what is still buffered
        # raises nothing either; exit 1 as Python does on EPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
