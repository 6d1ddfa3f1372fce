"""Tests for the shared-memory coverage transport layers.

Three layers are pinned here, bottom up:

1. :class:`~repro.coverage.shm.SharedSiteTable` — the append-only
   cross-process site table whose entry order defines ids, plus its
   /dev/shm lifecycle (create → destroy leaves nothing behind);
2. :class:`~repro.coverage.interner.SiteInterner` with a shared backing —
   attach/publish/adopt semantics, cross-interner id agreement, and the
   ``verify_shared`` consistency check checkpoint resume relies on;
3. the packed payload + :class:`~repro.coverage.tracefile.PackedTracefile`
   — encode/decode round trips and the laziness contract (string dicts
   materialise only on demand, and always to the exact serial dicts).
"""

import pickle
from array import array
from multiprocessing import shared_memory

import pytest

from repro.coverage.interner import SharedTableFull, SiteInterner
from repro.coverage.shm import (
    KIND_BRANCH_TRUE,
    KIND_STATEMENT,
    SharedSiteTable,
    TraceSlotRing,
    decode_payload,
    encode_payload,
)
from repro.coverage.tracefile import PackedTracefile, Tracefile


@pytest.fixture
def table():
    table = SharedSiteTable(capacity=4096)
    yield table
    table.destroy()


def segment_gone(name):
    """Whether the shared-memory segment was unlinked."""
    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return True
    seg.close()
    return False


class TestSharedSiteTable:
    def test_append_read_roundtrip(self, table):
        with table.lock:
            table.append(KIND_STATEMENT, "verifier.op.iadd")
            table.append(KIND_BRANCH_TRUE, "interp.branch.ifeq")
        assert table.entry_count() == 2
        with table.lock:
            entries, _ = table.read_entries(0, table.data_start)
        assert entries == [(KIND_STATEMENT, "verifier.op.iadd"),
                           (KIND_BRANCH_TRUE, "interp.branch.ifeq")]

    def test_incremental_read_uses_cursor(self, table):
        with table.lock:
            table.append(KIND_STATEMENT, "a")
            first, offset = table.read_entries(0, table.data_start)
            table.append(KIND_STATEMENT, "b")
            second, _ = table.read_entries(1, offset)
        assert [text for _, text in first] == ["a"]
        assert [text for _, text in second] == ["b"]

    def test_overflow_raises_shared_table_full(self):
        tiny = SharedSiteTable(capacity=48)
        try:
            with tiny.lock:
                with pytest.raises(SharedTableFull):
                    for i in range(100):
                        tiny.append(KIND_STATEMENT, f"site.{i:04d}")
        finally:
            tiny.destroy()

    def test_destroy_unlinks_segment(self):
        table = SharedSiteTable(capacity=1024)
        name = table.name
        assert not segment_gone(name)
        table.destroy()
        assert segment_gone(name)
        table.destroy()  # idempotent

    def test_segment_name_greppable(self, table):
        assert table.name.startswith("repro_")


class TestSharedInterner:
    def test_attach_publishes_local_ids(self, table):
        interner = SiteInterner()
        sid = interner.statement_id("pre.attach")
        bid = interner.branch_id(("pre.branch", True))
        interner.attach_shared(table)
        assert table.entry_count() == 2
        # Pre-attach ids keep their values.
        assert interner.statement_id("pre.attach") == sid
        assert interner.branch_id(("pre.branch", True)) == bid

    def test_two_interners_agree_on_ids(self, table):
        first, second = SiteInterner(), SiteInterner()
        first.attach_shared(table)
        second.attach_shared(table)
        fid = first.statement_id("site.a")
        # second never saw "site.a"; interning consumes the table first.
        assert second.statement_id("site.a") == fid
        sid = second.branch_id(("site.b", False))
        assert first.branch_id(("site.b", False)) == sid

    def test_resolve_crosses_interner_boundary(self, table):
        minter, resolver = SiteInterner(), SiteInterner()
        minter.attach_shared(table)
        resolver.attach_shared(table)
        ids = [minter.statement_id(f"site.{i}") for i in range(5)]
        assert resolver.resolve_statements(ids) == \
            [f"site.{i}" for i in range(5)]

    def test_verify_shared_counts(self, table):
        interner = SiteInterner()
        interner.attach_shared(table)
        interner.statement_ids(["a", "b", "c"])
        interner.branch_ids([("x", True), ("x", False)])
        assert interner.verify_shared() == (3, 2)

    def test_divergent_history_rejected(self, table):
        # An interner whose pre-attach history contradicts the table's
        # entry order cannot attach: id 0 is already someone else.
        owner = SiteInterner()
        owner.attach_shared(table)
        owner.statement_id("theirs")
        diverged = SiteInterner()
        diverged.statement_id("mine")
        with pytest.raises(RuntimeError, match="shared site table"):
            diverged.attach_shared(table)

    def test_reattach_same_table_is_noop(self, table):
        interner = SiteInterner()
        interner.attach_shared(table)
        interner.attach_shared(table)
        assert interner.shared_table is table

    def test_second_table_rejected_until_detach(self, table):
        interner = SiteInterner()
        interner.attach_shared(table)
        other = SharedSiteTable(capacity=1024)
        try:
            with pytest.raises(RuntimeError, match="already"):
                interner.attach_shared(other)
            interner.detach_shared()
            interner.attach_shared(other)
        finally:
            interner.detach_shared()
            other.destroy()

    def test_detach_keeps_ids(self, table):
        interner = SiteInterner()
        interner.attach_shared(table)
        sid = interner.statement_id("sticky")
        interner.detach_shared()
        assert interner.shared_table is None
        assert interner.statement_id("sticky") == sid
        with pytest.raises(RuntimeError, match="no shared"):
            interner.verify_shared()


class TestTraceSlotRing:
    def test_write_read_roundtrip(self):
        ring = TraceSlotRing(slot_count=4, slot_size=64)
        try:
            ring.write(2, b"payload-two")
            ring.write(3, b"payload-three")
            assert ring.read(2, 11) == b"payload-two"
            assert ring.read(3, 13) == b"payload-three"
        finally:
            ring.destroy()

    def test_destroy_unlinks_segment(self):
        ring = TraceSlotRing(slot_count=2, slot_size=32)
        name = ring.name
        ring.destroy()
        assert segment_gone(name)
        ring.destroy()  # idempotent


class TestPackedPayload:
    def test_roundtrip_exact_mode(self):
        stmt = array("I", [0, 3, 2, 1])
        br = array("I", [1, 7])
        out_stmt, out_br, out_cmp = decode_payload(encode_payload(stmt, br))
        assert out_stmt == stmt
        assert out_br == br
        assert len(out_cmp) == 0

    def test_roundtrip_comparison_pairs(self):
        stmt = array("I", [0, 3])
        cmp_pairs = array("I", [1, 2, 4, 1])
        out_stmt, _, out_cmp = decode_payload(
            encode_payload(stmt, array("I"), cmp_pairs))
        assert out_stmt == stmt
        assert out_cmp == cmp_pairs

    def test_empty_payload(self):
        out_stmt, out_br, out_cmp = decode_payload(
            encode_payload(array("I"), array("I")))
        assert len(out_stmt) == len(out_br) == len(out_cmp) == 0


class TestPackedTracefile:
    def make_packed(self, interner):
        sids = [interner.statement_id(s) for s in ("s.a", "s.b")]
        bid = interner.branch_id(("b.x", True))
        stmt = array("I", [sids[0], 4, sids[1], 1])
        br = array("I", [bid, 2])
        return Tracefile.from_packed(stmt, br, interner=interner)

    def test_lazy_dict_materialisation(self):
        tr = self.make_packed(SiteInterner())
        assert isinstance(tr, PackedTracefile)
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
        tr = Tracefile.from_packed(pairs, array("I"), interner=interner)
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
