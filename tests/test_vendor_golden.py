"""Five-vendor pin: every vendor's verdict and probe counts on a fixed suite.

``golden_serial_fuzz.json`` pins the reference vendor's fuzzing decisions;
this pins all five vendors.  The suite is fixed and well-formed: 40 seeds
(``exec_fraction=0.4``, ``main_fraction=0.5``, so many classes run to the
execution phase) plus the distinct mutants of a 300-draw randfuzz run.
Each classfile runs on each vendor from its bytes under a
:class:`CoverageCollector`, and the run is pinned as a 16-hex digest of
its phase, error, message, output and full statement and branch probe
counts.

Regenerate only for a change that means to move verdicts or probe
counts, and say so where the change is recorded::

    PYTHONPATH=src python tests/test_vendor_golden.py > tests/data/golden_vendor_runs.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from repro.core.fuzzing import randfuzz
from repro.corpus import CorpusConfig, generate_corpus
from repro.coverage.probes import CoverageCollector
from repro.jimple.to_classfile import compile_class_bytes
from repro.jvm.vendors import all_jvms

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_vendor_runs.json"


def _digest(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def vendor_suite() -> List[Tuple[str, bytes]]:
    """The pinned suite as ``(label, classfile bytes)``, seeds first."""
    seeds = generate_corpus(CorpusConfig(count=40, seed=5, exec_fraction=0.4,
                                         main_fraction=0.5))
    suite = [(seed.name, compile_class_bytes(seed)) for seed in seeds]
    seen = {data for _, data in suite}
    for generated in randfuzz(seeds, iterations=300, seed=5).test_classes:
        if generated.data not in seen:
            seen.add(generated.data)
            suite.append((generated.label, generated.data))
    return suite


def run_digest(jvm, data: bytes) -> str:
    """One vendor run of ``data``: outcome and probe counts, digested."""
    collector = CoverageCollector()
    with collector:
        outcome = jvm.run(data)
    trace = collector.tracefile()
    return _digest([
        outcome.phase.name, outcome.error, outcome.message,
        list(outcome.output),
        sorted(trace.statements.items()),
        sorted([site, taken, count]
               for (site, taken), count in trace.branches.items()),
    ])


def record() -> Dict[str, object]:
    """The fixture's content for the code as it stands."""
    suite = vendor_suite()
    jvms = all_jvms()
    return {
        "suite": [[label, hashlib.sha256(data).hexdigest()[:16]]
                  for label, data in suite],
        "runs": {jvm.name: [run_digest(jvm, data) for _, data in suite]
                 for jvm in jvms},
    }


def test_every_vendor_matches_golden_runs():
    golden = json.loads(GOLDEN_PATH.read_text())
    suite = vendor_suite()
    assert [[label, hashlib.sha256(data).hexdigest()[:16]]
            for label, data in suite] == golden["suite"], \
        "the suite itself changed: corpus, randfuzz or compiler output moved"
    jvms = all_jvms()
    assert sorted(golden["runs"]) == sorted(jvm.name for jvm in jvms)
    for position, (label, data) in enumerate(suite):
        for jvm in jvms:
            expected = golden["runs"][jvm.name][position]
            actual = run_digest(jvm, data)
            assert actual == expected, (
                f"classfile {position} ({label}) on {jvm.name}: run digest "
                f"{actual} != golden {expected}")


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
