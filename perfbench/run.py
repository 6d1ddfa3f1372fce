"""Benchmark entry point: one workload at one seed, measured and checked.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fuzz-serial --seed 1 --seconds 10 --trace 0

The workload runs in a fresh process (``measure.py``); with ``--trace 0``
two more processes repeat its set-up alone, so ``setup_s`` is a median of
three.  Human-readable lines come first; the last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics, or with ``--trace 1`` the
per-layer ones).  Exits non-zero without a result when the program's
source is not in the checkout or the workload process fails outright.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: Everything the runs leave behind, inside the checkout (git-ignored).
SCRATCH = ROOT / ".perfbench"

#: Set-up-only processes per untraced run, besides the run's own.
SETUP_REPEATS = 2

#: A run must end within this many seconds.
DEADLINE_S = 170.0


def source_fingerprint() -> str:
    """sha256 over the program's Python sources (paths and contents)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int, fingerprint: str) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"commit": commit, "source_sha256": fingerprint,
            "nproc": os.cpu_count(), "cpu_model": cpu_model,
            "python": platform.python_version(), "seed": seed}


def run_measure(args, scratch: Path, timeout: float,
                setup_only: bool = False) -> Optional[dict]:
    """Run ``measure.py`` in its own process group; its JSON record."""
    command = [sys.executable, str(HERE / "measure.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size, "--scratch", str(scratch)]
    if setup_only:
        command.append("--setup-only")
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        stdout, stderr = process.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        # The group holds the workload's own worker processes too.
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        print(f"error: {args.workload} did not finish within "
              f"{timeout:.0f}s", file=sys.stderr)
        return None
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        sys.stderr.write(stderr[-4000:])
        print(f"error: measure.py exited {process.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def check_digest(key: str, digest: Optional[str]) -> List[str]:
    """Compare with the digest an earlier run recorded for the same key."""
    if digest is None:
        return []
    path = SCRATCH / "digests.json"
    try:
        known = json.loads(path.read_text())
    except (OSError, ValueError):
        known = {}
    if known.get(key, digest) != digest:
        return [f"digest differs from an earlier run of the same code at "
                f"the same seed ({key})"]
    known[key] = digest
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few iterations, for the tests")
    args = parser.parse_args(argv)
    # The service's job records require a non-negative seed.
    args.seed %= 2 ** 32

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=SCRATCH))
    try:
        record = run_measure(args, scratch,
                             deadline - time.monotonic() - 20.0)
        if record is None or not record["calls"]:
            for problem in (record or {}).get("problems", []):
                sys.stderr.write(problem + "\n")
            return 1
        setups = [record["setup_s"]]
        if not args.trace:
            for _ in range(SETUP_REPEATS):
                remaining = deadline - time.monotonic()
                if remaining < 20.0:
                    break
                extra = run_measure(args, scratch, remaining - 5.0,
                                    setup_only=True)
                if extra is None:
                    return 1
                setups.append(extra["setup_s"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    fingerprint = source_fingerprint()
    problems = record["problems"] + check_digest(
        f"{args.workload}|{args.size}|{args.seed}|{fingerprint}",
        record["digest"])
    calls = record["calls"]
    unit = WORKLOADS[args.workload].unit
    if args.trace:
        metrics = {name: {"value": value, "unit": metric_unit}
                   for name, (value, metric_unit)
                   in sorted(record["layers"].items())}
    else:
        metrics = {
            "throughput": {
                "value": statistics.median(call["items"] / call["ref_cpu_s"]
                                           for call in calls),
                "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        }
    attempted = max(1, record["attempted"])
    failed = record["failed"] if record["attempted"] else 1
    wall_rate = statistics.median(call["items"] / call["wall_s"]
                                  for call in calls)
    discards = calls[0]["discards"]

    print(f"{args.workload} seed {args.seed}: {len(calls)} calls, "
          f"{attempted} operations attempted, {failed} failed")
    for label, key in (("reference-speed CPU", "ref_cpu_s"),
                       ("CPU", "cpu_s"), ("wall", "wall_s")):
        print(f"  {unit} per {label} second, per call: " + ", ".join(
            f"{call['items'] / call[key]:.1f}" for call in calls))
    print(f"  host speed share per call: "
          + ", ".join(f"{call['speed']:.3f}" for call in calls))
    print(f"  {unit} per wall second (median): {wall_rate:.1f}")
    print(f"  failed_share: {failed / attempted:.6f} ratio")
    if discards:
        print("  discards per call: " + ", ".join(
            f"{name} {count}" for name, count in sorted(discards.items())))
    print(f"  digest: {record['digest']}")
    if args.trace:
        print(f"  spans fired: {json.dumps(record['fired'], sort_keys=True)}")
        if record["unwrapped"]:
            print(f"  unwrapped targets: {record['unwrapped']}")
    for name, metric in metrics.items():
        print(f"  {name:28s} {metric['value']:>14.6f} {metric['unit']}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem.strip()}")
    result = {"workload": args.workload, "trace": args.trace,
              "size": args.size, "seconds": args.seconds,
              "provenance": provenance(args.seed, fingerprint),
              "calls": calls, "setups_s": setups, "metrics": metrics,
              "problems": problems}
    print(f"provenance: {json.dumps(result['provenance'])}")
    results = SCRATCH / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-"
               f"{time.strftime('%Y%m%dT%H%M%S')}.json").write_text(
        json.dumps(result, indent=1))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
