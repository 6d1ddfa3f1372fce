"""Offline analysis of recorded telemetry: summarise, replay, export.

This is the backend of the ``repro observe`` CLI command.  It consumes
the JSONL event logs written by :class:`~repro.observe.events.JsonlSink`
and the Prometheus text dumps written by
:meth:`~repro.observe.registry.MetricsRegistry.render_prometheus`:

* :func:`summarize_events` — the campaign post-mortem from the event
  log: per-algorithm acceptance rates (overall and per quartile, so
  coverage-growth stalls are visible), MCMC traffic, discrepancies;
* :func:`summarize_metrics` — the post-mortem blocks the metric dump
  holds: per-phase JVM latency, executor batches, worker warm/cold
  runs;
* :func:`replay_events` — a human-readable line-per-event replay;
* :func:`write_timeseries` — the coverage-growth / acceptance-rate
  time series as CSV, one row per recorded iteration;
* :func:`parse_prometheus` / :func:`check_prometheus` — validate a
  metrics dump and assert the core counter families exist (the CI
  smoke-job contract).
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.observe.events import (
    DISCREPANCY_FOUND,
    EVENT_TYPES,
    ITERATION,
    MCMC_TRANSITION,
    Event,
    read_events,
)

#: Metric families every instrumented campaign run must expose (the CI
#: contract checked by ``repro observe check``).
CORE_METRIC_FAMILIES = (
    "repro_iterations_total",
    "repro_mutants_accepted_total",
    "repro_jvm_runs_total",
    "repro_jvm_phase_seconds",
    "repro_executor_batches_total",
    "repro_cache_lookups_total",
)

#: The four JVM startup phases, in pipeline order.
STARTUP_PHASES = ("loading", "linking", "initialization", "execution")

#: Parsed Prometheus samples: ``{metric: [(labels, value)]}``.
Samples = Dict[str, List[Tuple[Dict[str, str], float]]]


def load_events(path: Union[str, Path]) -> List[Event]:
    """Read a JSONL event log fully into memory."""
    return list(read_events(path))


def _duration(start: Optional[float], end: Optional[float]) -> str:
    if start is None or end is None:
        return "-"
    return f"{max(0.0, end - start):.1f}s"


def summarize_job(record: Dict) -> str:
    """Render a service job's queue timings and per-leg outcomes.

    ``record`` is a ``job.json`` document from the service daemon's
    state root (``repro observe summary <job dir>`` reads it next to
    the legs' event logs).  Timings are the queue's view of the job:
    time spent ``queued`` (created to first start — requeues from
    daemon restarts don't reset it), ``running`` (first start to
    finish), and end-to-end.
    """
    lines = [f"=== Job {record.get('id', '?')} "
             f"({record.get('state', '?')}) ==="]
    spec = record.get("spec") or {}
    lines.append(f"type: {spec.get('type', '?')}")
    created = record.get("created")
    started = record.get("started")
    finished = record.get("finished")
    lines.append("queued   -> started : " + _duration(created, started))
    lines.append("started  -> finished: " + _duration(started, finished))
    lines.append("submitted-> finished: " + _duration(created, finished))
    if record.get("error"):
        lines.append(f"error: {record['error']}")
    legs = record.get("legs") or []
    if legs:
        rows = [[leg.get("label", "?"), str(leg.get("state", "?")),
                 str(leg.get("attempts", 0)),
                 _duration(leg.get("started"), leg.get("finished"))]
                for leg in legs]
        lines.append("")
        lines.extend(_render_rows(
            ["leg", "state", "attempts", "runtime"], rows))
    return "\n".join(lines)


def _render_rows(headers: Sequence[str],
                 rows: Sequence[Sequence[str]]) -> List[str]:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return lines


def summarize_events(events: Sequence[Event]) -> str:
    """Render the post-mortem summary of a recorded event log."""
    if not events:
        return "no events recorded"
    lines: List[str] = []
    span = max(e.ts for e in events) - min(e.ts for e in events)
    lines.append(f"{len(events)} events over {span:.2f}s wall-clock")
    lines.append("")

    # Event census.
    counts: Dict[str, int] = {}
    for event in events:
        counts[event.type] = counts.get(event.type, 0) + 1
    lines.append("=== Event counts ===")
    rows = [[name, str(counts[name])]
            for name in EVENT_TYPES if name in counts]
    rows.extend([name, str(count)] for name, count in sorted(counts.items())
                if name not in EVENT_TYPES)
    lines.extend(_render_rows(["event", "count"], rows))

    iteration_events = [e for e in events if e.type == ITERATION]
    if iteration_events:
        lines.append("")
        lines.append("=== Acceptance rate (per algorithm, by quartile) ===")
        by_algorithm: Dict[str, List[Event]] = {}
        for event in iteration_events:
            by_algorithm.setdefault(
                str(event.fields.get("algorithm", "?")), []).append(event)
        rows = []
        for algorithm in sorted(by_algorithm):
            run = by_algorithm[algorithm]
            accepted = sum(1 for e in run if e.fields.get("accepted"))
            quartiles = []
            for quarter in range(4):
                lo = quarter * len(run) // 4
                hi = (quarter + 1) * len(run) // 4
                window = run[lo:hi]
                hits = sum(1 for e in window if e.fields.get("accepted"))
                quartiles.append(f"{hits / len(window):.1%}"
                                 if window else "-")
            rows.append([algorithm, str(len(run)), str(accepted),
                         f"{accepted / len(run):.1%}"] + quartiles)
        lines.extend(_render_rows(
            ["algorithm", "iterations", "accepted", "rate",
             "q1", "q2", "q3", "q4"], rows))

    # One chain per algorithm (a campaign runs several classfuzz legs);
    # logs recorded before transitions carried ``algorithm`` show one.
    chains: Dict[Optional[str], List[Event]] = {}
    for event in events:
        if event.type == MCMC_TRANSITION:
            chains.setdefault(event.fields.get("algorithm"),
                              []).append(event)
    for algorithm, transitions in chains.items():
        lines.append("")
        lines.append(f"=== MCMC chain: {algorithm} ===" if algorithm
                     else "=== MCMC chain ===")
        targets: Dict[str, int] = {}
        proposals = 0
        for event in transitions:
            targets[str(event.fields.get("to", "?"))] = \
                targets.get(str(event.fields.get("to", "?")), 0) + 1
            proposals += int(event.fields.get("proposals", 1))
        lines.append(f"{len(transitions)} transitions, "
                     f"{proposals} proposals "
                     f"({proposals / len(transitions):.2f} per step)")
        top = sorted(targets.items(), key=lambda kv: -kv[1])[:5]
        lines.extend(_render_rows(
            ["mutator", "visits"],
            [[name, str(count)] for name, count in top]))

    discrepancies = [e for e in events if e.type == DISCREPANCY_FOUND]
    if discrepancies:
        lines.append("")
        lines.append(f"=== {len(discrepancies)} discrepancies ===")
        for event in discrepancies[:10]:
            lines.append(f"  {event.fields.get('label', '?')}: "
                         f"codes={event.fields.get('codes')}")
        if len(discrepancies) > 10:
            lines.append(f"  ... and {len(discrepancies) - 10} more")

    return "\n".join(lines)


def replay_events(events: Iterable[Event],
                  event_type: Optional[str] = None,
                  limit: Optional[int] = None) -> str:
    """One human-readable line per event, optionally filtered/truncated."""
    lines = []
    for event in events:
        if event_type is not None and event.type != event_type:
            continue
        payload = " ".join(f"{key}={event.fields[key]}"
                           for key in sorted(event.fields))
        lines.append(f"#{event.seq:<6d} {event.type:18s} {payload}")
        if limit is not None and len(lines) >= limit:
            lines.append("...")
            break
    return "\n".join(lines) if lines else "no matching events"


def write_timeseries(events: Sequence[Event],
                     path: Union[str, Path]) -> int:
    """Write the acceptance/coverage-growth time series as CSV.

    One row per ``iteration`` event:
    ``algorithm,iteration,accepted,accepted_total,acceptance_rate,
    tests,pool``.  Returns the number of data rows written.
    """
    header = ("algorithm,iteration,accepted,accepted_total,"
              "acceptance_rate,tests,pool")
    rows = [header]
    totals: Dict[str, Tuple[int, int]] = {}  # algorithm -> (seen, accepted)
    for event in events:
        if event.type != ITERATION:
            continue
        algorithm = str(event.fields.get("algorithm", "?"))
        seen, accepted_total = totals.get(algorithm, (0, 0))
        seen += 1
        accepted = 1 if event.fields.get("accepted") else 0
        accepted_total += accepted
        totals[algorithm] = (seen, accepted_total)
        rows.append(",".join([
            algorithm,
            str(event.fields.get("index", seen - 1)),
            str(accepted),
            str(accepted_total),
            f"{accepted_total / seen:.4f}",
            str(event.fields.get("tests", "")),
            str(event.fields.get("pool", "")),
        ]))
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")
    return len(rows) - 1


def summarize_metrics(samples: Samples) -> Optional[str]:
    """Render the post-mortem blocks a metrics dump holds.

    ``samples`` is a :func:`parse_prometheus` result; the samples of
    several dumps (one per service leg) may be concatenated per metric,
    since every block sums over its series.  Renders:

    * the JVM phase latency table from
      ``repro_jvm_phase_seconds{vendor,phase}``, summed over vendors —
      span count, total and mean are exact; p95 is the upper bound of
      the histogram bucket holding the 95th-percentile span;
    * the executor batches per engine, from
      ``repro_executor_batches_total`` and
      ``repro_executor_batch_seconds``;
    * the worker warm/cold run split, from
      ``repro_worker_runs_total{state}`` and
      ``repro_worker_recycles_total`` (process backend only).

    Returns ``None`` when the dump records none of them.
    """
    blocks = [block for block in (_phase_block(samples),
                                  _batch_block(samples),
                                  _worker_block(samples)) if block]
    return "\n\n".join(blocks) if blocks else None


def _sum_by(rows: Sequence[Tuple[Dict[str, str], float]],
            label: str) -> Dict[str, float]:
    totals: Dict[str, float] = {}
    for labels, value in rows:
        key = labels.get(label, "?")
        totals[key] = totals.get(key, 0.0) + value
    return totals


def _bucket_quantile(cumulative: Dict[float, float], count: float,
                     q: float) -> float:
    """The upper bound of the bucket holding the ``q`` quantile."""
    rank = min(count, int(q * count) + 1)
    for bound in sorted(cumulative):
        if cumulative[bound] >= rank:
            return bound
    return float("inf")


def _phase_block(samples: Samples) -> Optional[str]:
    family = "repro_jvm_phase_seconds"
    counts = _sum_by(samples.get(f"{family}_count", []), "phase")
    sums = _sum_by(samples.get(f"{family}_sum", []), "phase")
    buckets: Dict[str, Dict[float, float]] = {}
    for labels, value in samples.get(f"{family}_bucket", []):
        per_bound = buckets.setdefault(labels.get("phase", "?"), {})
        bound = float(labels.get("le", "+Inf"))
        per_bound[bound] = per_bound.get(bound, 0.0) + value
    ordered = [p for p in STARTUP_PHASES if counts.get(p)]
    ordered += sorted(p for p in counts
                      if counts[p] and p not in STARTUP_PHASES)
    if not ordered:
        return None
    rows = []
    for phase in ordered:
        count = counts[phase]
        total = sums.get(phase, 0.0)
        p95 = _bucket_quantile(buckets.get(phase, {}), count, 0.95)
        rows.append([phase, str(int(count)), f"{total:.3f}",
                     f"{total / count * 1000.0:.3f}",
                     f"{p95 * 1000.0:.3f}"])
    return "\n".join(["=== JVM phase latency ==="] + _render_rows(
        ["phase", "spans", "total_s", "mean_ms", "p95_ms"], rows))


def _batch_block(samples: Samples) -> Optional[str]:
    batches = _sum_by(samples.get("repro_executor_batches_total", []),
                      "engine")
    seconds = _sum_by(samples.get("repro_executor_batch_seconds_sum", []),
                      "engine")
    lines = [f"{engine}: {int(batches[engine])} batches, "
             f"{seconds.get(engine, 0.0):.2f}s total"
             for engine in sorted(batches) if batches[engine]]
    if not lines:
        return None
    return "\n".join(["=== Executor batches ==="] + lines)


def _worker_block(samples: Samples) -> Optional[str]:
    # A serial run's instruments declare the counters at zero.
    by_state = _sum_by(samples.get("repro_worker_runs_total", []), "state")
    total = sum(by_state.values())
    if not total:
        return None
    warm = by_state.get("warm", 0.0)
    cold = by_state.get("cold", 0.0)
    recycles = sum(value for _, value
                   in samples.get("repro_worker_recycles_total", []))
    return (f"=== Worker runs ===\n{int(warm)} warm / {int(cold)} cold "
            f"(warm rate {warm / total:.1%}), {int(recycles)} recycles")


# -- Prometheus dump validation ---------------------------------------------

# The value alternation must allow scientific notation with a signed
# exponent (e.g. ``8.9e-05``, common in seconds-valued sums) — a naive
# character class without ``-`` rejects those samples as malformed.
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?\s+"
    r"(?P<value>[-+]?(?:[0-9.]+(?:[eE][-+]?[0-9]+)?|[Nn]a[Nn]|[Ii]nf))$")
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str) -> Samples:
    """Parse a Prometheus text dump into ``{metric: [(labels, value)]}``.

    Raises ``ValueError`` on a malformed sample line, so the CI check
    fails loudly rather than silently accepting garbage.
    """
    samples: Samples = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"malformed sample at line {lineno}: {line!r}")
        labels = {}
        if match.group("labels"):
            labels = {name: value for name, value
                      in _LABEL_RE.findall(match.group("labels"))}
        try:
            value = float(match.group("value"))
        except ValueError:
            raise ValueError(
                f"malformed value at line {lineno}: {line!r}") from None
        samples.setdefault(match.group("name"), []).append((labels, value))
    return samples


def check_prometheus(text: str,
                     required: Sequence[str] = CORE_METRIC_FAMILIES
                     ) -> List[str]:
    """Validate a metrics dump; returns a list of problems (empty = OK).

    A histogram family ``f`` is matched by any of its ``f_bucket``/
    ``f_sum``/``f_count`` series.
    """
    try:
        samples = parse_prometheus(text)
    except ValueError as exc:
        return [str(exc)]
    problems = []
    for family in required:
        present = any(name == family or
                      name in (f"{family}_bucket", f"{family}_sum",
                               f"{family}_count")
                      for name in samples)
        if not present:
            problems.append(f"missing metric family: {family}")
    return problems
