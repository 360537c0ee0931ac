"""Unit tests for the testkit: reference models, invariant layer, traces,
and the differential oracle's flip-exemption logic."""

import pytest

from repro.dram import FlipEvent
from repro.ext4 import Credentials, Ext4Fs, ROOT
from repro.ext4.consts import ROOT_INO
from repro.host.blockdev import BlockDevice
from repro.serve.resilience import DurabilityLedger
from repro.testkit import (
    DifferentialOracle,
    DisturbanceAccumulator,
    InvariantViolation,
    ShadowL2p,
    ShadowStore,
    Trace,
    check_dram,
    check_fs,
    check_ftl,
    flip_affected_lbas,
    generate_trace,
)
from repro.testkit.oracle import NSID, build_stack_for
from repro.testkit.trace import Op, payload_for

from tests.conftest import FRAGILE, build_stack

ALICE = Credentials(uid=1000, gid=1000)


class TestShadowModels:
    def test_shadow_l2p_mirrors_mapping_semantics(self):
        shadow = ShadowL2p(16)
        assert shadow.lookup(3) is None
        shadow.update(3, 40)
        shadow.update(5, 41)
        assert shadow.lookup(3) == 40
        assert shadow.mapped_lbas() == [3, 5]
        shadow.clear(3)
        shadow.clear(3)  # double-clear is a no-op, like trim
        assert shadow.lookup(3) is None
        with pytest.raises(ValueError):
            shadow.update(16, 0)

    def test_shadow_store_read_write_trim(self):
        store = ShadowStore(8, page_bytes=16)
        assert store.read(0) is None
        store.write(0, b"\xaa" * 16)
        assert store.read(0) == b"\xaa" * 16
        store.trim(0)
        assert store.read(0) is None
        with pytest.raises(ValueError):
            store.write(1, b"short")

    def test_accumulator_open_row_collapse(self):
        acc = DisturbanceAccumulator()
        assert acc.access(0, 5)
        assert not acc.access(0, 5)  # row-buffer hit
        assert acc.access(0, 6)
        assert acc.access(1, 5)  # other bank has its own buffer
        assert acc.access(0, 5)  # bank 0's buffer now holds row 6
        assert acc.total == 4
        assert acc.counts[(0, 5)] == 2

    def test_accumulator_run_and_bulk(self):
        acc = DisturbanceAccumulator()
        activated = acc.access_run([(0, 1), (0, 1), (0, 2), (0, 1)])
        assert activated == 3
        acc.bulk(0, 9, 100)
        assert acc.total == 103
        assert (0, 9) in acc.touched_rows()
        with pytest.raises(ValueError):
            acc.bulk(0, 9, -1)


class TestFtlInvariants:
    def test_healthy_stack_passes(self):
        controller, dram, ftl = build_stack()
        controller.create_namespace(1, 0, 192)
        for lba in range(0, 64):
            controller.write(1, lba, bytes([lba]) * ftl.page_bytes)
        for lba in range(0, 16):
            controller.trim(1, lba)
        ftl.check()
        dram.check()

    def test_lost_live_page_detected(self):
        _c, _d, ftl = build_stack()
        ftl.write(7, b"\x07" * ftl.page_bytes)
        ftl.l2p.clear(7)  # mapping gone, reverse entry left behind
        with pytest.raises(InvariantViolation, match="live page was lost"):
            ftl.check()

    def test_valid_count_drift_detected(self):
        _c, _d, ftl = build_stack()
        ftl.write(3, b"\x03" * ftl.page_bytes)
        ftl.valid_count[0] += 1
        with pytest.raises(InvariantViolation, match="valid_count"):
            ftl.check()

    def test_reverse_map_disagreement_detected(self):
        _c, _d, ftl = build_stack()
        ftl.write(3, b"\x03" * ftl.page_bytes)
        ppa = ftl.l2p.lookup(3)
        ftl.reverse[ppa] = 4
        with pytest.raises(InvariantViolation):
            ftl.check()

    def test_exempt_lbas_forgive_corrupted_entries(self):
        _c, _d, ftl = build_stack()
        ftl.write(3, b"\x03" * ftl.page_bytes)
        ftl.l2p.update(3, ftl.l2p.lookup(3) + 1)  # "flipped" entry
        with pytest.raises(InvariantViolation):
            ftl.check()
        ftl.check(exempt_lbas=[3])


class TestDramInvariants:
    def test_tampered_counts_detected(self):
        _c, dram, _f = build_stack()
        dram.banks[0].acts[5] = -1
        with pytest.raises(InvariantViolation, match="negative"):
            dram.check()

    def test_unrecorded_flip_detected(self):
        _c, dram, _f = build_stack()
        dram.flips.append(
            FlipEvent(
                bank=0, row=1, byte_offset=0, bit=0, flips_to=1,
                old_byte=0, new_byte=1, time=0.0, in_check_region=False,
            )
        )
        with pytest.raises(InvariantViolation, match="flips counter"):
            dram.check()

    def test_mislabelled_check_region_detected(self):
        _c, dram, _f = build_stack()
        dram.flips.append(
            FlipEvent(
                bank=0, row=1, byte_offset=0, bit=0, flips_to=1,
                old_byte=0, new_byte=1, time=0.0, in_check_region=True,
            )
        )
        dram.metrics.counter("flips").add()
        with pytest.raises(InvariantViolation, match="in_check_region"):
            dram.check()

    def test_inspect_is_side_effect_free(self):
        _c, dram, ftl = build_stack()
        ftl.write(0, b"\xab" * ftl.page_bytes)
        before = dram.metrics.snapshot()
        raw = dram.inspect(ftl.l2p.entry_address(0), 4)
        assert len(raw) == 4
        assert dram.metrics.snapshot() == before


class TestFsInvariants:
    def make_fs(self):
        controller, dram, ftl = build_stack(num_lbas=1024)
        controller.create_namespace(1, 0, 1024)
        device = BlockDevice(controller, 1)
        fs = Ext4Fs.mkfs(device)
        fs.mkdir("/home", ROOT, mode=0o777)
        fs.create("/home/a.txt", ALICE)
        fs.write("/home/a.txt", b"hello world" * 100, ALICE)
        return fs

    def test_healthy_fs_passes(self):
        fs = self.make_fs()
        assert fs.check() == {}

    def test_double_claimed_block_detected(self):
        fs = self.make_fs()
        fs.create("/b.txt", ALICE, addressing="indirect")
        fs.write("/b.txt", b"x" * fs.block_bytes, ALICE)
        block_a = fs.file_layout("/home/a.txt", ROOT).data_blocks[0]
        ino_b = fs._resolve("/b.txt", ROOT)
        inode_b = fs._read_inode(ino_b)
        inode_b.block[0] = block_a  # steal another file's block
        fs._write_inode(ino_b, inode_b)
        with pytest.raises(InvariantViolation, match="claimed by both"):
            fs.check()

    @staticmethod
    def redirect(fs, block, ppa, record_flip):
        """Point the L2P entry behind filesystem ``block`` at ``ppa``,
        recording the DRAM flip that did it only when asked."""
        lba = fs.device.namespace.translate(block)
        ftl = fs.device.controller.ftl
        ftl.l2p.update(lba, ppa)
        if record_flip:
            dram = ftl.memory.dram
            coords = dram.mapping.locate(ftl.l2p.entry_address(lba) + 3)
            dram.flips.append(
                FlipEvent(
                    time=0.0, bank=coords.bank, row=coords.row,
                    byte_offset=coords.column, bit=7, flips_to=1,
                    old_byte=0, new_byte=0x80,
                )
            )

    def redirect_block_map(self, fs, target, record_flip):
        """Redirect /big's indirect block off the flash array (reads return
        erased 0xFF pointers) or onto /twin's (valid pointers to blocks
        /twin owns)."""
        layouts = {}
        for path in ("/big", "/twin"):
            fs.create(path, ALICE, addressing="indirect")
            fs.write(path, b"x" * (14 * fs.block_bytes), ALICE)
            layouts[path] = fs.file_layout(path, ROOT).indirect_block
        ftl = fs.device.controller.ftl
        ppa = {
            path: ftl.l2p.lookup(fs.device.namespace.translate(block))
            for path, block in layouts.items()
        }
        target_ppa = ppa["/twin"] if target == "in-array" else ppa["/big"] | 1 << 31
        self.redirect(fs, layouts["/big"], target_ppa, record_flip)

    @pytest.mark.parametrize("target", ["off-array", "in-array"])
    def test_block_map_read_through_a_flip_is_attack_redirected(self, target):
        fs = self.make_fs()
        self.redirect_block_map(fs, target, record_flip=True)
        assert fs.check() == {"/big": "attack_redirected"}

    @pytest.mark.parametrize(
        "target, message",
        [("off-array", "corrupt block map"), ("in-array", "claimed by both")],
    )
    def test_same_redirect_without_a_flip_is_a_violation(self, target, message):
        fs = self.make_fs()
        self.redirect_block_map(fs, target, record_flip=False)
        with pytest.raises(InvariantViolation, match=message):
            fs.check()

    @pytest.mark.parametrize("record_flip", [True, False])
    def test_damage_written_through_a_past_redirect(self, record_flip):
        # The root's inode-table block is redirected onto a file's data
        # page; an inode update read-modify-writes it, so the foreign bytes
        # persist under a fresh, correct entry.  Only a recorded flip
        # excuses the broken root afterwards.
        fs = self.make_fs()
        ino = fs._resolve("/home/a.txt", ROOT)
        inode = fs._read_inode(ino)
        table_block = fs._inode_location(ROOT_INO)[0]
        data_lba = fs.device.namespace.translate(
            fs.file_layout("/home/a.txt", ROOT).data_blocks[0]
        )
        ftl = fs.device.controller.ftl
        self.redirect(fs, table_block, ftl.l2p.lookup(data_lba), record_flip)
        fs._write_inode(ino, inode)
        assert not ftl.flip_redirected_lbas()
        if record_flip:
            assert fs.check() == {"/": "attack_redirected"}
        else:
            with pytest.raises(InvariantViolation, match=r"\(/\) unreadable"):
                fs.check()

    def test_unallocated_block_detected(self):
        fs = self.make_fs()
        block = fs.file_layout("/home/a.txt", ROOT).data_blocks[0]
        fs.block_alloc.free(block - fs.sb.data_start)
        with pytest.raises(InvariantViolation, match="bitmap says is free"):
            fs.check()


class TestFlipAttribution:
    @staticmethod
    def hammered_stack():
        """1024 entries span 4 DRAM rows, so a double-sided hammer on the
        table region flips entries attributable to specific LBAs.  Every
        third LBA is acked with its own payload, recorded in a ledger."""
        trace = Trace(seed=11, num_lbas=1024, layout="linear", profile="fragile")
        controller, dram, ftl = build_stack_for(trace)
        ledger = DurabilityLedger()
        for lba in range(0, 1024, 3):
            data = payload_for(lba, 0x11, ftl.page_bytes)
            controller.write(NSID, lba, data)
            ledger.record_write(lba, data)
        controller.read_burst(NSID, list(range(0, 1024, 64)), repeats=4000)
        return dram, ftl, ledger

    def test_l2p_flip_maps_back_to_lba(self):
        dram, ftl, _ledger = self.hammered_stack()
        assert dram.flips, "fragile profile did not flip under hammering"
        affected = flip_affected_lbas(ftl)
        assert affected, "no flip landed in the L2P table region"
        for lba in affected:
            assert 0 <= lba < ftl.num_lbas
        # The invariant layer attributes those LBAs itself.
        ftl.check()

    def test_in_array_redirect_audits_as_hammer_redirected(self):
        _dram, ftl, ledger = self.hammered_stack()
        # A recorded flip points an acked LBA's entry at another LBA's
        # valid page: the attack's information leak, not a lost write.
        in_array = [
            lba
            for lba in flip_affected_lbas(ftl)
            if lba in ledger.history
            and ftl.reverse.get(ftl.l2p.peek(lba)) not in (None, lba)
        ]
        assert in_array, "no flip redirected an acked LBA onto a valid page"
        audit = ledger.audit(ftl)
        assert audit["lost"] == 0
        assert audit["hammer_redirected"] >= len(in_array)

    def test_unattributed_in_array_redirect_stays_a_loss(self):
        _c, _d, ftl = build_stack()
        ledger = DurabilityLedger()
        for lba in (3, 4):
            data = payload_for(lba, 0x33, ftl.page_bytes)
            ftl.write(lba, data)
            ledger.record_write(lba, data)
        # Hand-edited onto LBA 4's page: no flip event to blame.
        ftl.l2p.update(3, ftl.l2p.lookup(4))
        audit = ledger.audit(ftl)
        assert (audit["lost"], audit["hammer_redirected"]) == (1, 0)
        with pytest.raises(InvariantViolation, match="LBA 3"):
            ftl.check()

    def test_hashed_layout_attribution_roundtrips(self):
        _c, _d, ftl = build_stack(num_lbas=1024, layout="hashed")
        for lba in (0, 1, 511, 1023):
            slot = ftl.l2p.slot_of(lba)
            assert ftl.l2p.lba_of_slot(slot) == lba


class TestTraces:
    def test_json_roundtrip(self):
        trace = generate_trace(seed=5, num_ops=40)
        again = Trace.from_json(trace.to_json())
        assert again.to_json() == trace.to_json()
        assert [op.to_dict() for op in again.ops] == [
            op.to_dict() for op in trace.ops
        ]

    def test_generation_is_deterministic(self):
        a = generate_trace(seed=9, num_ops=100)
        b = generate_trace(seed=9, num_ops=100)
        assert a.to_json() == b.to_json()
        c = generate_trace(seed=10, num_ops=100)
        assert c.to_json() != a.to_json()

    def test_subset_preserves_recipe(self):
        trace = generate_trace(seed=5, num_ops=10, layout="hashed")
        sub = trace.subset([0, 3, 7])
        assert len(sub) == 3
        assert sub.layout == "hashed"
        assert sub.ops[1].to_dict() == trace.ops[3].to_dict()

    def test_payload_tags_lba(self):
        a = payload_for(5, 0x20, 64)
        b = payload_for(6, 0x20, 64)
        assert len(a) == 64
        assert a != b  # the LBA tag differentiates identical fills

    def test_op_validation(self):
        with pytest.raises(ValueError):
            Op(kind="nonsense", lbas=[1])
        with pytest.raises(ValueError):
            Op(kind="write", lbas=[1, 2], fills=[0])


class TestOracle:
    def test_clean_trace_has_no_divergences(self):
        trace = generate_trace(seed=3, num_ops=80)
        for mode in ("scalar", "batch"):
            oracle = DifferentialOracle(trace, mode=mode, check_every=20)
            assert oracle.run() == []

    def test_oracle_rejects_unknown_mode(self):
        trace = generate_trace(seed=3, num_ops=5)
        with pytest.raises(ValueError):
            DifferentialOracle(trace, mode="warp")

    def test_misdirected_read_is_reported(self):
        trace = Trace(
            seed=1,
            ops=[
                Op(kind="write", lbas=[10], fills=[0x41]),
                Op(kind="write", lbas=[11], fills=[0x42]),
                Op(kind="read", lbas=[10]),
            ],
        )

        def sabotaged(t):
            controller, dram, ftl = build_stack_for(t)
            # Cross-wire LBA 10's entry to LBA 11's page after the fact.
            original = ftl.read

            def misdirect(lba):
                if lba == 10:
                    ftl.l2p.update(10, ftl.l2p.lookup(11))
                return original(lba)

            ftl.read = misdirect
            return controller, dram, ftl

        oracle = DifferentialOracle(trace, stack_factory=sabotaged)
        found = oracle.run()
        assert any(d.kind in ("read-payload", "invariant") for d in found)
