"""Tests for the discrepancy triage subsystem (cluster/minimize/suppress)."""

import json

import pytest

from repro.cli import main
from repro.core.executor import make_executor
from repro.jimple import ClassBuilder, MethodBuilder
from repro.jimple.to_classfile import compile_class_bytes
from repro.jvm.outcome import DifferentialResult, Outcome, Phase
from repro.triage import (
    Cluster,
    SuppressionList,
    TriageEngine,
    TriageStore,
    cluster_id,
    coarse_signature,
    fine_signature,
    load_clusters,
    load_minimized,
    load_progress,
    load_records,
    load_suppressions,
    minimize_cluster,
    write_suppressions,
)
from repro.triage.cluster import COARSE, FINE
from repro.triage.store import CRASH_AFTER_ENV, TriageStoreError
from repro.triage.suppress import Suppression


def result_of(*specs, label="t"):
    """Build a DifferentialResult from (jvm, phase, error) triples."""
    outcomes = [Outcome(Phase(code), error=error or None, jvm_name=jvm)
                for jvm, code, error in specs]
    return DifferentialResult(outcomes=outcomes, label=label)


def bulky_bytes():
    """A bulky discrepant class; the bug is one duplicate field pair."""
    from repro.jimple.types import INT, JType

    builder = ClassBuilder("Bulky")
    builder.default_init()
    builder.main_printing()
    builder.field("MAP", JType("java.util.Map"), ["protected"])
    builder.field("MAP", JType("java.util.Map"), ["protected"])
    builder.field("unrelated1", INT, ["public"])
    builder.field("unrelated2", INT, ["public"])
    for i in range(3):
        method = MethodBuilder(f"noise{i}", modifiers=["public"])
        method.ret()
        builder.method(method.build())
    return compile_class_bytes(builder.build())


def figure2_bytes():
    """The Figure 2 mutant: abstract code-less <clinit>."""
    builder = ClassBuilder("M1436188543")
    builder.default_init()
    builder.main_printing("Completed!")
    method = MethodBuilder("<clinit>", modifiers=["public", "abstract"])
    method.abstract_body()
    builder.method(method.build())
    return compile_class_bytes(builder.build())


def sub_unsafe_bytes():
    """Fine-only discrepancy: HotSpot 8 VerifyError vs HotSpot 9
    IllegalAccessError, both during linking."""
    builder = ClassBuilder("SubUnsafe", superclass="sun.misc.Unsafe")
    builder.default_init()
    builder.main_printing()
    return compile_class_bytes(builder.build())


def demo_bytes():
    builder = ClassBuilder("Demo")
    builder.default_init()
    builder.main_printing("Completed!")
    return compile_class_bytes(builder.build())


class TestSignatures:
    def test_fine_signature_sorted_by_jvm(self):
        forward = result_of(("a", 0, ""), ("b", 2, "VerifyError"))
        backward = result_of(("b", 2, "VerifyError"), ("a", 0, ""))
        assert fine_signature(forward) == fine_signature(backward)
        assert fine_signature(forward) == (
            ("a", 0, ""), ("b", 2, "VerifyError"))

    def test_coarse_signature_drops_errors(self):
        result = result_of(("a", 2, "VerifyError"),
                           ("b", 2, "ClassFormatError"))
        assert coarse_signature(result) == (("a", 2, ""), ("b", 2, ""))

    def test_cluster_id_shape_and_stability(self):
        signature = (("a", 0, ""), ("b", 2, "VerifyError"))
        cid = cluster_id(signature)
        assert cid.startswith("C") and len(cid) == 13
        assert cid == cluster_id(signature)
        assert cid == cluster_id(tuple(signature))

    def test_cluster_id_depends_on_kind_and_content(self):
        signature = (("a", 2, ""), ("b", 2, ""))
        assert cluster_id(signature, FINE) != cluster_id(signature, COARSE)
        other = (("a", 2, ""), ("b", 3, ""))
        assert cluster_id(signature) != cluster_id(other)


class TestEngine:
    def test_clean_result_ignored(self):
        engine = TriageEngine()
        clean = result_of(("a", 0, ""), ("b", 0, ""))
        assert engine.add(clean) is None
        assert len(engine) == 0

    def test_same_signature_same_cluster(self):
        engine = TriageEngine()
        first = engine.add(result_of(("a", 0, ""), ("b", 2, "VerifyError"),
                                     label="x"))
        second = engine.add(result_of(("a", 0, ""), ("b", 2, "VerifyError"),
                                      label="y"))
        assert first is second
        assert first.count == 2
        assert first.labels == ["x", "y"]
        assert first.representative == "x"

    def test_same_phase_different_errors_split(self):
        """The bug the coarse vector conflates: same phases, different
        error classes must land in different clusters."""
        engine = TriageEngine()
        a = engine.add(result_of(("a", 0, ""), ("b", 2, "VerifyError")))
        b = engine.add(result_of(("a", 0, ""), ("b", 2, "ClassFormatError")))
        assert a.cluster_id != b.cluster_id
        assert len(engine) == 2

    def test_step_budget_not_clustered_with_runtime_bugs(self):
        """A simulated hang (StepBudgetExceeded) and a real runtime error
        share phase codes but must never share a cluster."""
        engine = TriageEngine()
        hang = engine.add(result_of(
            ("a", 0, ""), ("b", 4, "StepBudgetExceeded")))
        crash = engine.add(result_of(
            ("a", 0, ""), ("b", 4, "ArithmeticException")))
        assert hang.cluster_id != crash.cluster_id

    def test_coarse_mode_groups_by_phase(self):
        engine = TriageEngine(kind=COARSE)
        a = engine.add(result_of(("a", 0, ""), ("b", 2, "VerifyError")))
        b = engine.add(result_of(("a", 0, ""), ("b", 2, "ClassFormatError")))
        assert a is b
        assert a.kind == COARSE

    def test_coarse_mode_keeps_fine_only_discrepancies(self):
        """Fine-only discrepancies are invisible to the coarse vector;
        coarse mode must not drop them."""
        engine = TriageEngine(kind=COARSE)
        cluster = engine.add(result_of(("a", 2, "VerifyError"),
                                       ("b", 2, "IllegalAccessError")))
        assert cluster is not None
        assert cluster.kind == FINE

    def test_label_cap(self):
        engine = TriageEngine(max_labels=3)
        for i in range(10):
            engine.add(result_of(("a", 0, ""), ("b", 2, "VerifyError"),
                                 label=f"m{i}"))
        (cluster,) = engine.clusters()
        assert cluster.count == 10
        assert cluster.labels == ["m0", "m1", "m2"]

    def test_representative_bytes_retained(self):
        engine = TriageEngine()
        cluster = engine.add(result_of(("a", 0, ""), ("b", 2, "E")),
                             data=b"\x01\x02")
        assert engine.representative_bytes(cluster.cluster_id) == b"\x01\x02"
        assert cluster.representative_digest

    def test_suppressions_flag_known_clusters(self):
        signature = (("a", 0, ""), ("b", 2, "VerifyError"))
        known = SuppressionList([Suppression(cluster_id(signature))])
        engine = TriageEngine(suppressions=known)
        engine.add(result_of(*signature))
        engine.add(result_of(("a", 0, ""), ("b", 2, "ClassFormatError")))
        assert len(engine.suppressed_clusters()) == 1
        assert len(engine.new_clusters()) == 1

    def test_restore_extends_without_reannouncing(self):
        first = TriageEngine()
        cluster = first.add(result_of(("a", 0, ""), ("b", 2, "E"),
                                      label="orig"))
        second = TriageEngine()
        assert second.restore(first.clusters()) == 1
        assert second.restore(first.clusters()) == 0  # idempotent
        extended = second.add(result_of(("a", 0, ""), ("b", 2, "E"),
                                        label="more"))
        assert extended.cluster_id == cluster.cluster_id
        assert extended.count == 2
        assert extended.representative == "orig"


class TestEngineTelemetry:
    def test_counter_and_event_once_per_cluster(self, tmp_path):
        from repro.observe import make_telemetry

        events = tmp_path / "events.jsonl"
        telemetry = make_telemetry(events_path=events)
        engine = TriageEngine(telemetry=telemetry)
        with telemetry.activate():
            for _ in range(3):
                engine.add(result_of(("a", 0, ""), ("b", 2, "E")))
            engine.add(result_of(("a", 0, ""), ("b", 2, "F")))
        dump = telemetry.render_prometheus()
        telemetry.close()
        assert 'repro_triage_clusters_total{kind="fine"} 2' in dump
        lines = [json.loads(line)
                 for line in events.read_text().splitlines()]
        emitted = [e for e in lines if e["type"] == "triage_cluster"]
        assert len(emitted) == 2
        assert {e["id"] for e in emitted} == \
            {c.cluster_id for c in engine.clusters()}


class TestStore:
    def _cluster(self, error="VerifyError", count=1):
        signature = (("a", 0, ""), ("b", 2, error))
        return Cluster(cluster_id=cluster_id(signature), kind=FINE,
                       signature=signature, count=count)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "triage.jsonl"
        with TriageStore(path) as store:
            store.append_cluster(self._cluster(count=1))
            store.append_progress(32)
            store.append_cluster(self._cluster(count=5))
            store.append_minimized({"id": "Cx", "blamed": ["f"]})
            store.append_progress(64)
        records = load_records(path)
        assert records[0] == {"type": "meta", "version": 1}
        clusters = load_clusters(path)
        assert len(clusters) == 1  # last record per id wins
        assert clusters[0].count == 5
        assert load_progress(path) == 64
        assert load_minimized(path)["Cx"]["blamed"] == ["f"]

    def test_truncated_tail_tolerated(self, tmp_path):
        path = tmp_path / "triage.jsonl"
        with TriageStore(path) as store:
            store.append_cluster(self._cluster())
        with path.open("a") as handle:
            handle.write('{"type": "cluster", "id": "Cdead')  # the crash
        assert len(load_clusters(path)) == 1

    def test_corrupt_middle_raises(self, tmp_path):
        path = tmp_path / "triage.jsonl"
        with TriageStore(path) as store:
            store.append_cluster(self._cluster())
        text = path.read_text()
        path.write_text('not json\n' + text)
        with pytest.raises(TriageStoreError, match="unparseable"):
            load_records(path)

    def test_wrong_version_raises(self, tmp_path):
        path = tmp_path / "triage.jsonl"
        path.write_text('{"type": "meta", "version": 99}\n')
        with pytest.raises(TriageStoreError, match="version"):
            load_records(path)

    def test_missing_file_defaults(self, tmp_path):
        assert load_progress(tmp_path / "absent.jsonl") == 0
        assert TriageStore(tmp_path / "absent.jsonl") \
            .existing_cluster_ids() == []

    def test_crash_hook_raises_after_nth_flush(self, tmp_path,
                                               monkeypatch):
        monkeypatch.setenv(CRASH_AFTER_ENV, "2")
        store = TriageStore(tmp_path / "triage.jsonl")
        store.append_progress(1)
        with pytest.raises(KeyboardInterrupt):
            store.append_progress(2)


class TestSuppressions:
    def test_json_round_trip(self, tmp_path):
        engine = TriageEngine()
        engine.add(result_of(("a", 0, ""), ("b", 2, "VerifyError")))
        engine.add(result_of(("a", 0, ""), ("b", 2, "ClassFormatError")))
        path = tmp_path / "known.json"
        write_suppressions(path, engine.clusters())
        loaded = load_suppressions(path)
        assert len(loaded) == 2
        for cluster in engine.clusters():
            assert cluster.cluster_id in loaded

    def test_triage_store_as_baseline(self, tmp_path):
        engine = TriageEngine()
        cluster = engine.add(result_of(("a", 0, ""), ("b", 2, "E")))
        path = tmp_path / "triage.jsonl"
        with TriageStore(path) as store:
            store.append_cluster(cluster)
        loaded = load_suppressions(path)
        assert cluster.cluster_id in loaded
        assert "baseline cluster" in loaded.get(cluster.cluster_id).reason

    def test_store_without_clusters_is_empty_baseline(self, tmp_path):
        path = tmp_path / "triage.jsonl"
        with TriageStore(path) as store:
            store.append_progress(1)
        assert len(load_suppressions(path)) == 0

    def test_unrecognized_format_rejected(self, tmp_path):
        path = tmp_path / "what.json"
        path.write_text('{"unrelated": true}\n')
        with pytest.raises(ValueError):
            load_suppressions(path)


class TestMinimize:
    def _cluster_for(self, harness, data, label):
        engine = TriageEngine()
        result = harness.run_one(data, label)
        return engine.add(result, data)

    def test_bulky_blames_duplicate_fields(self, harness):
        data = bulky_bytes()
        cluster = self._cluster_for(harness, data, "Bulky")
        minimized = minimize_cluster(cluster, data)
        assert minimized.error == ""
        assert minimized.size_after < minimized.size_before
        assert minimized.codes == (2, 2, 2, 1, 0)
        assert "reject_duplicate_fields" in minimized.blamed_fields

    def test_record_shape(self, harness):
        data = figure2_bytes()
        cluster = self._cluster_for(harness, data, "M1436188543")
        minimized = minimize_cluster(cluster, data)
        record = minimized.to_record()
        assert record["type"] == "minimized"
        assert record["id"] == cluster.cluster_id
        assert record["size_after"] <= record["size_before"]
        from repro.triage.store import decode_classfile

        assert decode_classfile(record["classfile"])[:4] == \
            b"\xca\xfe\xba\xbe"

    def test_unreducible_degrades_gracefully(self, harness):
        """Unliftable bytes keep the original classfile and record why."""
        data = b"\xca\xfe\xba\xbe" + b"\x00" * 32
        signature = (("a", 1, "ClassFormatError"), ("b", 0, ""))
        cluster = Cluster(cluster_id=cluster_id(signature), kind=FINE,
                          signature=signature, representative="junk")
        minimized = minimize_cluster(cluster, data)
        assert minimized.error
        assert minimized.classfile == data


class TestBackendDeterminism:
    def test_cluster_ids_identical_across_backends(self):
        """The acceptance criterion: triaging the same suite through
        serial and process executors yields byte-identical cluster ids,
        counts, and representatives."""
        from repro.core.difftest import DifferentialHarness

        suite = [("Bulky", bulky_bytes()),
                 ("M1436188543", figure2_bytes()),
                 ("SubUnsafe", sub_unsafe_bytes()),
                 ("Demo", demo_bytes())]
        inventories = []
        for jobs in (1, 2):
            executor = make_executor(jobs=jobs)
            harness = DifferentialHarness(executor=executor)
            engine = TriageEngine()
            engine.add_many(harness.run_many(suite), dict(suite))
            inventories.append(
                [(c.cluster_id, c.count, c.representative, c.first_seen)
                 for c in engine.clusters()])
            executor.close()
        assert inventories[0] == inventories[1]
        assert len(inventories[0]) == 3  # Demo is clean


class TestTriageCommand:
    @pytest.fixture
    def suite_dir(self, tmp_path):
        suite = tmp_path / "suite"
        suite.mkdir()
        (suite / "Bulky.class").write_bytes(bulky_bytes())
        (suite / "M1436188543.class").write_bytes(figure2_bytes())
        (suite / "Demo.class").write_bytes(demo_bytes())
        return suite

    def test_report_lists_clusters(self, suite_dir, capsys):
        assert main(["triage", "report", str(suite_dir)]) == 0
        output = capsys.readouterr().out
        assert "2 clusters (2 new, 0 suppressed)" in output
        assert "rep=Bulky" in output

    def test_minimize_writes_blamed_fields(self, suite_dir, tmp_path,
                                           capsys):
        out = tmp_path / "triage.jsonl"
        assert main(["triage", "minimize", str(suite_dir),
                     "--out", str(out)]) == 0
        output = capsys.readouterr().out
        assert "blamed: " in output
        minimized = load_minimized(out)
        assert len(minimized) == 2
        blamed = {name for record in minimized.values()
                  for name in record["blamed"]}
        assert "reject_duplicate_fields" in blamed

    def test_diff_against_baseline(self, suite_dir, tmp_path, capsys):
        baseline = tmp_path / "baseline.jsonl"
        assert main(["triage", "report", str(suite_dir),
                     "--out", str(baseline)]) == 0
        capsys.readouterr()
        assert main(["triage", "diff-against-baseline", str(suite_dir),
                     "--baseline", str(baseline)]) == 0
        assert "0 NEW" in capsys.readouterr().out
        # A discrepancy outside the baseline flips the exit code.
        (suite_dir / "SubUnsafe.class").write_bytes(sub_unsafe_bytes())
        assert main(["triage", "diff-against-baseline", str(suite_dir),
                     "--baseline", str(baseline)]) == 1
        output = capsys.readouterr().out
        assert "1 NEW" in output
        assert "rep=SubUnsafe" in output

    def test_write_suppressions_round_trip(self, suite_dir, tmp_path,
                                           capsys):
        known = tmp_path / "known.json"
        assert main(["triage", "report", str(suite_dir),
                     "--write-suppressions", str(known)]) == 0
        capsys.readouterr()
        assert main(["triage", "report", str(suite_dir),
                     "--baseline", str(known)]) == 0
        assert "(0 new, 2 suppressed)" in capsys.readouterr().out

    def test_kill_resume_reproduces_inventory(self, suite_dir, tmp_path,
                                              capsys, monkeypatch):
        """A killed run resumed from the durable store ends with the
        same inventory as an uninterrupted run."""
        uninterrupted = tmp_path / "full.jsonl"
        assert main(["triage", "report", str(suite_dir),
                     "--out", str(uninterrupted)]) == 0
        resumed = tmp_path / "resumed.jsonl"
        monkeypatch.setenv(CRASH_AFTER_ENV, "1")
        # Chunks of 32 > 3 classfiles, so force a flush per chunk by
        # interrupting on the very first progress record.
        assert main(["triage", "report", str(suite_dir),
                     "--out", str(resumed)]) == 130
        monkeypatch.delenv(CRASH_AFTER_ENV)
        capsys.readouterr()
        assert main(["triage", "report", str(suite_dir),
                     "--out", str(resumed), "--resume"]) == 0
        assert "resumed from" in capsys.readouterr().out

        def inventory(path):
            return [(c.cluster_id, c.count, c.representative)
                    for c in load_clusters(path)]

        assert inventory(resumed) == inventory(uninterrupted)

    def test_coarse_flag(self, suite_dir, capsys):
        assert main(["triage", "report", str(suite_dir),
                     "--coarse"]) == 0
        assert "coarse" in capsys.readouterr().out

    def test_diff_requires_baseline(self, suite_dir, capsys):
        assert main(["triage", "diff-against-baseline",
                     str(suite_dir)]) == 2

    def test_resume_requires_out(self, suite_dir):
        assert main(["triage", "report", str(suite_dir),
                     "--resume"]) == 2

    def test_missing_path_is_an_error(self, tmp_path):
        assert main(["triage", "report",
                     str(tmp_path / "absent")]) == 2

    def test_single_classfile_input(self, tmp_path, capsys):
        target = tmp_path / "Bulky.class"
        target.write_bytes(bulky_bytes())
        assert main(["triage", "report", str(target)]) == 0
        assert "1 clusters (1 new" in capsys.readouterr().out
