"""Discrepancy clustering with stable, content-derived cluster ids.

Two discrepancies are the *same bug candidate* when their fine-grained
``(jvm, phase, error class)`` signatures match (§2.3's fine encoding);
the coarse phase-only code vector is available as a fallback view for
the paper's original §3.1.3 grouping.  A cluster's id is a hash of its
signature alone — never of arrival order, timestamps, or backend — so
ids are byte-identical across serial/process executors and
across a checkpoint kill/resume of the producing campaign.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.executor import classfile_digest
from repro.jvm.outcome import DifferentialResult
from repro.observe.events import TRIAGE_CLUSTER

#: Signature kinds a cluster can be keyed on.
FINE = "fine"
COARSE = "coarse"

#: How many member labels a cluster retains (the rest are counted only).
MAX_LABELS = 25


def fine_signature(result: DifferentialResult
                   ) -> Tuple[Tuple[str, int, str], ...]:
    """The fine-grained signature: ``(jvm, phase, error)`` per JVM.

    Sorted by JVM name so the id is independent of harness column
    order (a reloaded run may list vendors differently).
    """
    return tuple(sorted((o.jvm_name, o.code, o.error or "")
                        for o in result.outcomes))


def coarse_signature(result: DifferentialResult
                     ) -> Tuple[Tuple[str, int, str], ...]:
    """The phase-only signature: ``(jvm, phase, "")`` per JVM."""
    return tuple(sorted((o.jvm_name, o.code, "")
                        for o in result.outcomes))


def cluster_id(signature: Sequence[Tuple[str, int, str]],
               kind: str = FINE) -> str:
    """A stable 13-character id derived only from the signature.

    ``C`` + the first 12 hex digits of the SHA-256 of the canonical
    JSON form.  Deterministic across processes, backends, and runs.
    """
    blob = json.dumps([kind, [list(entry) for entry in signature]],
                      sort_keys=True, separators=(",", ":"))
    return "C" + hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


@dataclass
class Cluster:
    """One deduplicated bug candidate.

    Attributes:
        cluster_id: stable content-derived id (see :func:`cluster_id`).
        kind: ``fine`` or ``coarse`` — which signature keyed it.
        signature: the ``(jvm, phase, error)`` tuples, sorted by JVM.
        count: how many results fell into this cluster.
        labels: member labels, capped at :data:`MAX_LABELS`.
        representative: label of the first member seen (the
            minimization candidate).
        representative_digest: SHA-256 of the representative's
            classfile bytes, when they were supplied.
        first_seen: 0-based index of the first member in feed order.
        suppressed: whether a suppression list matched this cluster.
    """

    cluster_id: str
    kind: str
    signature: Tuple[Tuple[str, int, str], ...]
    count: int = 0
    labels: List[str] = field(default_factory=list)
    representative: str = ""
    representative_digest: str = ""
    first_seen: int = 0
    suppressed: bool = False

    def describe(self) -> str:
        """One-line human summary of the signature."""
        parts = [f"{jvm}:{code}" + (f"/{error}" if error else "")
                 for jvm, code, error in self.signature]
        return " ".join(parts)

    def to_record(self) -> Dict[str, object]:
        """The JSONL store record for this cluster."""
        return {
            "type": "cluster",
            "id": self.cluster_id,
            "kind": self.kind,
            "signature": [list(entry) for entry in self.signature],
            "count": self.count,
            "labels": list(self.labels),
            "representative": self.representative,
            "representative_digest": self.representative_digest,
            "first_seen": self.first_seen,
            "suppressed": self.suppressed,
        }

    @classmethod
    def from_record(cls, record: Dict[str, object]) -> "Cluster":
        signature = tuple(tuple(entry) for entry in record["signature"])
        return cls(
            cluster_id=record["id"],
            kind=record.get("kind", FINE),
            signature=signature,
            count=int(record.get("count", 0)),
            labels=list(record.get("labels", [])),
            representative=record.get("representative", ""),
            representative_digest=record.get("representative_digest", ""),
            first_seen=int(record.get("first_seen", 0)),
            suppressed=bool(record.get("suppressed", False)),
        )


class TriageEngine:
    """Clusters differential results into a deduplicated inventory.

    Feed it results one at a time (:meth:`add`) or in bulk
    (:meth:`add_many`); it groups the discrepant ones by signature,
    keeps the first member of each cluster as the representative, and —
    when telemetry is attached — increments
    ``repro_triage_clusters_total`` and emits a ``triage_cluster``
    event the first time each cluster appears.

    Attributes:
        kind: the primary signature kind (``fine`` by default; the
            coarse phase-only vector is the fallback view, selected
            with ``kind="coarse"``).  Fine-only discrepancies — same
            phases, different error classes — are invisible to the
            coarse vector, so in coarse mode they still cluster under
            their fine signature rather than being dropped.
        suppressions: optional known-issue list; matching clusters are
            flagged ``suppressed`` and excluded from
            :meth:`new_clusters`.
    """

    def __init__(self, kind: str = FINE, suppressions=None,
                 telemetry=None, max_labels: int = MAX_LABELS):
        if kind not in (FINE, COARSE):
            raise ValueError(f"unknown signature kind {kind!r}")
        self.kind = kind
        self.suppressions = suppressions
        self.telemetry = telemetry
        self.max_labels = max_labels
        self._clusters: Dict[str, Cluster] = {}
        self._representatives: Dict[str, bytes] = {}
        self._seen = 0
        if telemetry is not None:
            self._counter = telemetry.registry.counter(
                "repro_triage_clusters_total",
                "Distinct discrepancy clusters discovered by triage.",
                ("kind",))
        else:
            self._counter = None

    def __len__(self) -> int:
        return len(self._clusters)

    def _signature_for(self, result: DifferentialResult):
        """Pick the signature (and its kind) for one discrepant result."""
        if self.kind == COARSE and result.is_discrepancy:
            return COARSE, coarse_signature(result)
        return FINE, fine_signature(result)

    def add(self, result: DifferentialResult,
            data: Optional[bytes] = None) -> Optional[Cluster]:
        """Feed one result; returns its cluster, or ``None`` if clean.

        ``data`` (the classfile bytes) is retained for the cluster's
        representative so minimization can run without reloading the
        suite.
        """
        if not result.is_fine_discrepancy:
            return None
        kind, signature = self._signature_for(result)
        cid = cluster_id(signature, kind)
        cluster = self._clusters.get(cid)
        if cluster is None:
            cluster = Cluster(
                cluster_id=cid, kind=kind, signature=signature,
                representative=result.label,
                representative_digest=(classfile_digest(data)
                                       if data is not None else ""),
                first_seen=self._seen,
                suppressed=(self.suppressions is not None
                            and cid in self.suppressions))
            self._clusters[cid] = cluster
            if data is not None:
                self._representatives[cid] = data
            if self._counter is not None:
                self._counter.labels(kind=kind).inc()
            if (self.telemetry is not None
                    and self.telemetry.bus.enabled):
                self.telemetry.bus.emit(
                    TRIAGE_CLUSTER, id=cid, kind=kind,
                    signature=[list(entry) for entry in signature],
                    representative=result.label,
                    suppressed=cluster.suppressed)
        cluster.count += 1
        if len(cluster.labels) < self.max_labels:
            cluster.labels.append(result.label)
        self._seen += 1
        return cluster

    def add_many(self, results: Iterable[DifferentialResult],
                 data_by_label: Optional[Dict[str, bytes]] = None
                 ) -> List[Cluster]:
        """Feed many results; returns the clusters touched, deduplicated."""
        touched: Dict[str, Cluster] = {}
        for result in results:
            data = None
            if data_by_label is not None:
                data = data_by_label.get(result.label)
            cluster = self.add(result, data)
            if cluster is not None:
                touched[cluster.cluster_id] = cluster
        return sorted(touched.values(), key=lambda c: c.first_seen)

    def representative_bytes(self, cid: str) -> Optional[bytes]:
        """The retained classfile bytes of a cluster's representative."""
        return self._representatives.get(cid)

    def clusters(self) -> List[Cluster]:
        """Every cluster, in first-seen order."""
        return sorted(self._clusters.values(), key=lambda c: c.first_seen)

    def new_clusters(self) -> List[Cluster]:
        """Clusters not matched by the suppression list."""
        return [c for c in self.clusters() if not c.suppressed]

    def suppressed_clusters(self) -> List[Cluster]:
        """Clusters the suppression list filtered out."""
        return [c for c in self.clusters() if c.suppressed]

    def restore(self, clusters: Iterable[Cluster]) -> int:
        """Seed the engine from a prior run's clusters (resume support).

        Restored clusters keep their counts, labels, and first-seen
        order; subsequent :meth:`add` calls extend them without
        re-announcing them as new.  Returns how many were restored.
        """
        restored = 0
        for cluster in clusters:
            if cluster.cluster_id in self._clusters:
                continue
            self._clusters[cluster.cluster_id] = cluster
            self._seen = max(self._seen,
                             cluster.first_seen + cluster.count)
            restored += 1
        return restored
