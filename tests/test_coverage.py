"""Unit tests for tracefiles, the ⊕ merge, and the uniqueness criteria."""

import pickle
from array import array

import pytest

from repro.coverage import (
    CoverageCollector,
    Tracefile,
    active_collector,
    branch,
    make_criterion,
    merge,
    probe,
)
from repro.coverage.interner import SiteInterner
from repro.coverage.tracefile import PackedTracefile
from repro.coverage.uniqueness import (
    StBrUniqueness,
    StUniqueness,
    TrUniqueness,
)


def trace(statements, branches=()):
    return Tracefile(statements={s: 1 for s in statements},
                     branches={b: 1 for b in branches})


class TestCollector:
    def test_probe_noop_without_collector(self):
        assert active_collector() is None
        probe("x")  # must not raise

    def test_branch_returns_condition(self):
        assert branch("site", True) is True
        assert branch("site", False) is False

    def test_collection(self):
        collector = CoverageCollector()
        with collector:
            probe("a")
            probe("a")
            probe("b")
            branch("c", True)
            branch("c", False)
        result = collector.tracefile()
        assert result.stmt == 2
        assert result.br == 2
        assert result.statements["a"] == 2

    def test_counts_keep_first_hit_order(self):
        collector = CoverageCollector()
        with collector:
            for site in ("b", "a", "b", "c", "a", "b"):
                probe(site)
            assert branch("y", 0) == 0
            assert branch("x", "yes") == "yes"
            branch("y", False)
            branch("x", True)
            branch("y", 1)
        result = collector.tracefile()
        assert list(result.statements.items()) == [("b", 3), ("a", 2),
                                                   ("c", 1)]
        assert list(result.branches.items()) == [
            (("y", False), 2), (("x", True), 2), (("y", True), 1)]

    def test_hits_outside_the_collector_are_dropped(self):
        first = CoverageCollector()
        with first:
            probe("in")
        probe("out")
        branch("out", True)
        second = CoverageCollector()
        with second:
            probe("again")
        assert first.tracefile().statements == {"in": 1}
        assert second.tracefile().statements == {"again": 1}
        assert second.tracefile().branches == {}

    def test_probes_write_the_collector_dicts(self):
        from repro.coverage import probes

        assert not hasattr(CoverageCollector, "hit_statement")
        assert not hasattr(CoverageCollector, "hit_branch")
        collector = CoverageCollector()
        with collector:
            assert probes._STATEMENTS is collector._statements
            assert probes._BRANCHES is collector._branches
        assert probes._STATEMENTS is None and probes._BRANCHES is None

    def test_opcode_sites_built_once_per_opcode(self):
        from repro.bytecode.opcodes import OPCODES
        from repro.jvm import interpreter, verifier

        for op, info in OPCODES.items():
            assert verifier._OP_SITES[op] == f"verifier.op.{info.mnemonic}"
            assert interpreter._OP_SITES[op] == f"interp.op.{info.mnemonic}"

    def test_nested_collectors_rejected(self):
        with CoverageCollector():
            with pytest.raises(RuntimeError):
                CoverageCollector().__enter__()
        assert active_collector() is None

    def test_collector_cleared_after_exit(self):
        with CoverageCollector():
            pass
        assert active_collector() is None


class TestTracefile:
    def test_statistics(self):
        t = trace(["a", "b"], [("c", True)])
        assert t.signature == (2, 1)

    def test_merge_unions_sites(self):
        merged = merge(trace(["a"]), trace(["b"]))
        assert merged.stmt == 2

    def test_merge_sums_frequencies(self):
        merged = merge(trace(["a"]), trace(["a"]))
        assert merged.statements["a"] == 2
        assert merged.stmt == 1

    def test_merge_operator_alias(self):
        assert (trace(["a"]) | trace(["b"])).stmt == 2

    def test_equal_counts_different_sets_detected_by_merge(self):
        """The [tr]-vs-[stbr] distinction: same statistics, different sets."""
        first = trace(["a", "b"])
        second = trace(["a", "c"])
        assert first.signature == second.signature
        assert (first | second).stmt > first.stmt


LEGACY_STATEMENTS = {"a": 2, "b": 1}
LEGACY_BRANCHES = {("x", True): 1}
LEGACY_COMPARISONS = {"interp.cmp.i64#sign": 1}


class _LegacyPackedTrace:
    """Pickles the way a packed tracefile did while a comparison probe
    kind existed: ``Tracefile(statements, branches, comparisons)``."""

    def __reduce__(self):
        return Tracefile, (LEGACY_STATEMENTS, LEGACY_BRANCHES,
                           LEGACY_COMPARISONS)


class TestLegacyPickles:
    """Journal frames written while a comparison probe kind existed."""

    def check(self, data):
        restored = pickle.loads(data)
        assert type(restored) is Tracefile
        assert restored == Tracefile(statements=LEGACY_STATEMENTS,
                                     branches=LEGACY_BRANCHES)
        assert restored.signature == (2, 1)

    def test_state_with_comparisons_unpickles(self, monkeypatch):
        monkeypatch.setattr(Tracefile, "__getstate__", lambda self: {
            "statements": self.statements, "branches": self.branches,
            "comparisons": LEGACY_COMPARISONS})
        data = pickle.dumps(Tracefile(statements=LEGACY_STATEMENTS,
                                      branches=LEGACY_BRANCHES))
        monkeypatch.undo()
        self.check(data)

    def test_packed_reduce_with_comparisons_unpickles(self):
        self.check(pickle.dumps(_LegacyPackedTrace()))


class TestPackedTracefile:
    def make_packed(self, interner):
        sids = [interner.statement_id(s) for s in ("s.a", "s.b")]
        bid = interner.branch_id(("b.x", True))
        stmt = array("I", [sids[0], 4, sids[1], 1])
        br = array("I", [bid, 2])
        return PackedTracefile(stmt, br, interner=interner)

    def test_lazy_dict_materialisation(self):
        tr = self.make_packed(SiteInterner())
        # Count-only views never build the dicts.
        assert tr.signature == (2, 1)
        assert tr.total_hits() == 5
        assert "_statements_dict" not in tr.__dict__
        assert tr.statements == {"s.a": 4, "s.b": 1}
        assert tr.branches == {("b.x", True): 2}
        assert "_statements_dict" in tr.__dict__

    def test_materialised_dicts_preserve_pack_order(self):
        interner = SiteInterner()
        sites = [f"s.{i}" for i in (3, 1, 2)]  # first-hit order, unsorted
        pairs = array("I")
        for site in sites:
            pairs.extend([interner.statement_id(site), 1])
        tr = PackedTracefile(pairs, array("I"), interner=interner)
        assert list(tr.statements) == sites

    def test_id_views_skip_string_roundtrip(self):
        interner = SiteInterner()
        tr = self.make_packed(interner)
        assert tr.stmt_ids == frozenset(
            {interner.statement_id("s.a"), interner.statement_id("s.b")})
        assert tr.br_ids == frozenset({interner.branch_id(("b.x", True))})
        assert "_statements_dict" not in tr.__dict__

    def test_equality_with_plain_tracefile_both_directions(self):
        tr = self.make_packed(SiteInterner())
        plain = Tracefile(statements={"s.a": 4, "s.b": 1},
                          branches={("b.x", True): 2})
        assert tr == plain
        assert plain == tr
        assert tr != Tracefile(statements={"s.a": 4})

    def test_pickle_ships_plain_tracefile(self):
        tr = self.make_packed(SiteInterner())
        clone = pickle.loads(pickle.dumps(tr))
        assert type(clone) is Tracefile
        assert clone == tr


class TestDecodePayload:
    def test_worker_trace_decodes_equal_in_site_order(self, demo_bytes):
        from repro.core.worker import decode_payload
        from repro.jvm.vendors import reference_jvm

        collector = CoverageCollector()
        with collector:
            reference_jvm().run(demo_bytes)
        # What a persistent worker's result pickle delivers.
        shipped = pickle.loads(pickle.dumps(collector.tracefile()))
        packed = decode_payload(shipped)
        assert isinstance(packed, PackedTracefile)
        assert packed == shipped
        assert shipped == packed
        assert list(packed.statements) == list(shipped.statements)
        assert list(packed.branches) == list(shipped.branches)
        assert packed.signature == shipped.signature
        assert packed.total_hits() == shipped.total_hits()
        assert packed.stmt_ids == shipped.stmt_ids
        assert packed.br_ids == shipped.br_ids


class TestUniquenessCriteria:
    def test_st_by_count_only(self):
        criterion = StUniqueness()
        assert criterion.check_and_accept(trace(["a", "b"]))
        # Different sites, same count -> NOT unique under [st].
        assert not criterion.check_and_accept(trace(["c", "d"]))
        assert criterion.check_and_accept(trace(["a"]))

    def test_stbr_by_count_pair(self):
        criterion = StBrUniqueness()
        assert criterion.check_and_accept(trace(["a"], [("x", True)]))
        # Same stmt count, different branch count -> unique.
        assert criterion.check_and_accept(
            trace(["a"], [("x", True), ("x", False)]))
        # Same pair -> rejected even with different sites.
        assert not criterion.check_and_accept(trace(["b"], [("y", True)]))

    def test_tr_by_sets(self):
        criterion = TrUniqueness()
        assert criterion.check_and_accept(trace(["a", "b"]))
        # Same counts, different set -> unique under [tr].
        assert criterion.check_and_accept(trace(["a", "c"]))
        # Exact same set -> rejected.
        assert not criterion.check_and_accept(trace(["a", "b"]))

    def test_tr_considers_branch_sets(self):
        criterion = TrUniqueness()
        assert criterion.check_and_accept(trace(["a"], [("x", True)]))
        assert criterion.check_and_accept(trace(["a"], [("x", False)]))

    def test_tr_accepts_everything_stbr_accepts(self):
        """[tr] is strictly weaker as a rejection filter than [stbr]."""
        traces = [trace(["a"]), trace(["a", "b"]),
                  trace(["c"], [("x", True)]), trace(["a", "c"])]
        stbr, tr = StBrUniqueness(), TrUniqueness()
        for t in traces:
            if stbr.is_unique(t):
                assert tr.is_unique(t)
            stbr.check_and_accept(t)
            tr.check_and_accept(t)

    def test_factory(self):
        assert isinstance(make_criterion("st"), StUniqueness)
        assert isinstance(make_criterion("stbr"), StBrUniqueness)
        assert isinstance(make_criterion("tr"), TrUniqueness)
        with pytest.raises(ValueError):
            make_criterion("nope")


class TestEndToEndCoverage:
    def test_reference_run_produces_coverage(self, demo_bytes):
        from repro.jvm.vendors import reference_jvm

        collector = CoverageCollector()
        with collector:
            reference_jvm().run(demo_bytes)
        result = collector.tracefile()
        assert result.stmt > 30
        assert result.br > 20
        assert any(site.startswith("verifier.op.") for site in
                   result.statements)
        assert any(site.startswith("interp.op.") for site in
                   result.statements)

    def test_uninstrumented_run_records_nothing(self, demo_bytes):
        from repro.jvm.vendors import make_j9

        collector = CoverageCollector()
        make_j9().run(demo_bytes)   # outside the collector context
        assert collector.tracefile().stmt == 0

    def test_different_classes_different_traces(self, demo_bytes):
        from repro.jimple import ClassBuilder
        from repro.jimple.to_classfile import compile_class_bytes
        from repro.jvm.vendors import reference_jvm

        bad = ClassBuilder("Bad", superclass="com.example.Missing")
        bad.main_printing()
        bad_bytes = compile_class_bytes(bad.build())
        jvm = reference_jvm()
        traces = []
        for data in (demo_bytes, bad_bytes):
            collector = CoverageCollector()
            with collector:
                jvm.run(data)
            traces.append(collector.tracefile())
        assert traces[0].stmt_set != traces[1].stmt_set
