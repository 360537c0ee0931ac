"""Tests for the DRAM module: access path, disturbance, mitigations, and
the exact-vs-batch hammering equivalence (design decision D4)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram import (
    DramAddress,
    DramGeometry,
    DramModule,
    GenerationProfile,
    Para,
    TargetRowRefresh,
    VulnerabilityModel,
)
from repro.dram.bank import CLOSED_PAGE
from repro.dram.mapping import SequentialMapping, XorBankMapping
from repro.errors import ConfigError, DramAddressError, EccUncorrectableError
from repro.sim import SimClock

GEOMETRY = DramGeometry.small(rows_per_bank=64, row_bytes=1024)

# A deliberately fragile test profile: every row is vulnerable and the
# weakest cells flip after only ~64 hammer accesses per window.
FRAGILE = GenerationProfile(
    name="test-fragile",
    year=2021,
    ddr_type="TEST",
    min_rate_kps=1.0,
    row_vulnerable_fraction=1.0,
    mean_weak_cells=4.0,
    threshold_spread=0.2,
)

# A profile no realistic rate can flip, to test the safe side.
GRANITE = GenerationProfile(
    name="test-granite",
    year=2021,
    ddr_type="TEST",
    min_rate_kps=1e9,
    row_vulnerable_fraction=1.0,
)


def make_module(profile=FRAGILE, seed=11, **kwargs):
    clock = SimClock()
    vuln = VulnerabilityModel(profile, GEOMETRY, seed=seed)
    return DramModule(GEOMETRY, vuln, clock, **kwargs)


def fill_row(dram, bank, row, value=0x00):
    addr = dram.mapping.address_of(DramAddress(bank, row, 0))
    dram.write(addr, bytes([value]) * GEOMETRY.row_bytes)


def row_addr(dram, bank, row, column=0):
    return dram.mapping.address_of(DramAddress(bank, row, column))


class TestAccessPath:
    def test_write_read_roundtrip(self):
        dram = make_module()
        dram.write(1234, b"payload")
        assert dram.read(1234, 7) == b"payload"

    def test_unwritten_reads_zero(self):
        dram = make_module()
        assert dram.read(0, 8) == b"\x00" * 8

    def test_span_across_rows(self):
        dram = make_module()
        boundary = GEOMETRY.row_bytes - 4
        dram.write(boundary, b"ABCDEFGH")
        assert dram.read(boundary, 8) == b"ABCDEFGH"

    def test_out_of_range_rejected(self):
        dram = make_module()
        with pytest.raises(DramAddressError):
            dram.read(GEOMETRY.capacity_bytes - 4, 8)

    def test_reads_counted(self):
        dram = make_module()
        dram.read(0, 4)
        dram.read(8, 4)
        assert dram.metrics.counter("reads").value == 2

    def test_open_row_hits_do_not_activate(self):
        dram = make_module()
        for _ in range(5):
            dram.read(0, 4)  # same row every time
        assert dram.metrics.counter("activations").value == 1

    def test_alternating_rows_activate(self):
        dram = make_module(profile=GRANITE)
        a = row_addr(dram, 0, 10)
        b = row_addr(dram, 0, 12)
        for _ in range(5):
            dram.read(a, 4)
            dram.read(b, 4)
        assert dram.metrics.counter("activations").value == 10

    def test_closed_page_always_activates(self):
        dram = make_module(profile=GRANITE, row_policy=CLOSED_PAGE)
        for _ in range(5):
            dram.read(0, 4)  # same row every time
        assert dram.metrics.counter("activations").value == 5
        assert dram.metrics.counter("row_buffer_hits").value == 0


def _span(draw_addr, draw_length):
    """A span clipped into the module: ``(addr, length)``."""
    addr = min(draw_addr, GEOMETRY.capacity_bytes)
    return addr, min(draw_length, GEOMETRY.capacity_bytes - addr)


#: Spans that start anywhere, just before a row boundary, or end on the
#: module's last byte; up to three rows long, and sometimes empty.
_ROW = GEOMETRY.row_bytes
_SPANS = st.one_of(
    st.tuples(st.integers(0, GEOMETRY.capacity_bytes), st.integers(0, 3 * _ROW)),
    st.tuples(
        st.integers(1, GEOMETRY.capacity_bytes // _ROW).map(lambda r: r * _ROW),
        st.integers(0, 16),
        st.integers(0, 3 * _ROW),
    ).map(lambda t: (t[0] - t[1], t[2])),
    st.integers(0, 3 * _ROW).map(lambda n: (GEOMETRY.capacity_bytes - n, n)),
).map(lambda t: _span(*t))


class TestScalarSpans:
    """``read``/``write`` over arbitrary spans against a byte-array shadow
    and an open-row model of the counters."""

    @pytest.mark.parametrize("mapping", [SequentialMapping, XorBankMapping])
    @given(
        ops=st.lists(
            st.tuples(st.booleans(), _SPANS, st.integers(0, 255)), max_size=12
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_shadow_and_counters(self, mapping, ops):
        dram = make_module(profile=GRANITE, mapping=mapping(GEOMETRY))
        shadow = bytearray(GEOMETRY.capacity_bytes)
        open_rows = {}
        expected = {"reads": 0, "writes": 0, "activations": 0, "row_buffer_hits": 0}
        for is_write, (addr, length), fill in ops:
            rows = []
            for a in range(addr, addr + length):
                coords = dram.mapping.locate(a)
                if not rows or rows[-1] != (coords.bank, coords.row):
                    rows.append((coords.bank, coords.row))
            for bank, row in rows:
                if open_rows.get(bank) == row:
                    expected["row_buffer_hits"] += 1
                else:
                    open_rows[bank] = row
                    expected["activations"] += 1
            if is_write:
                payload = bytes([(fill + i) & 0xFF for i in range(length)])
                dram.write(addr, payload)
                shadow[addr : addr + length] = payload
                expected["writes"] += 1
            else:
                assert dram.read(addr, length) == bytes(shadow[addr : addr + length])
                expected["reads"] += 1
            assert dram.inspect(addr, length) == bytes(shadow[addr : addr + length])
        assert {name: dram.metrics.counter(name).value for name in expected} == expected

    @pytest.mark.parametrize(
        "addr, length",
        [
            (-1, 4),
            (0, -1),
            (GEOMETRY.capacity_bytes - 3, 4),
            (GEOMETRY.capacity_bytes, 1),
        ],
    )
    def test_out_of_range_spans_raise(self, addr, length):
        dram = make_module(profile=GRANITE)
        with pytest.raises(DramAddressError):
            dram.read(addr, length)
        with pytest.raises(DramAddressError):
            dram.inspect(addr, length)
        if length >= 0:
            with pytest.raises(DramAddressError):
                dram.write(addr, b"\x01" * length)
        assert dram.metrics.counter("activations").value == 0

    def test_empty_span_at_the_end_is_valid(self):
        dram = make_module(profile=GRANITE)
        assert dram.read(GEOMETRY.capacity_bytes, 0) == b""
        assert dram.metrics.counter("activations").value == 0


class TestAccessBatch:
    def test_bulk_counts_land_in_the_window(self):
        dram = make_module(profile=GRANITE)
        dram.access_batch([(0, 3, 1000), (0, 3, 24), (1, 5, 7)])
        assert dram.banks[0].acts == {3: 1024}
        assert dram.banks[1].acts == {5: 7}
        assert dram.metrics.counter("activations").value == 1031

    def test_negative_count_rejected(self):
        dram = make_module()
        with pytest.raises(ConfigError):
            dram.access_batch([(0, 3, -1)])

    def test_out_of_range_row_rejected(self):
        dram = make_module()
        with pytest.raises(DramAddressError):
            dram.access_batch([(0, GEOMETRY.rows_per_bank, 1)])
        with pytest.raises(DramAddressError):
            dram.activate_burst([(0, GEOMETRY.rows_per_bank)])


class TestExactPathFlips:
    def test_double_sided_hammer_flips_victim(self):
        dram = make_module()
        fill_row(dram, 0, 9, 0x00)  # victim
        a = row_addr(dram, 0, 8)
        b = row_addr(dram, 0, 10)
        rate = 10_000.0  # 10x the fragile profile's minimal rate
        for _ in range(640):  # one full window at this rate
            dram.read(a, 4)
            dram.clock.advance(1 / rate)
            dram.read(b, 4)
            dram.clock.advance(1 / rate)
        victim_flips = [f for f in dram.flips if f.row == 9 and f.bank == 0]
        assert victim_flips, "double-sided hammering should flip the victim"

    def test_below_rate_never_flips(self):
        """At a rate below the profile minimum, the refresh window rolls
        before disturbance reaches any threshold."""
        dram = make_module()
        fill_row(dram, 0, 9, 0x00)
        a = row_addr(dram, 0, 8)
        b = row_addr(dram, 0, 10)
        rate = 400.0  # under the 1 K/s minimum
        for _ in range(2000):
            dram.read(a, 4)
            dram.clock.advance(1 / rate)
            dram.read(b, 4)
            dram.clock.advance(1 / rate)
        assert dram.flips == []

    def test_invulnerable_profile_never_flips(self):
        dram = make_module(profile=GRANITE)
        fill_row(dram, 0, 9, 0x00)
        a = row_addr(dram, 0, 8)
        b = row_addr(dram, 0, 10)
        for _ in range(5000):
            dram.read(a, 4)
            dram.read(b, 4)
        assert dram.flips == []

    def test_write_to_victim_restores_content(self):
        dram = make_module()
        fill_row(dram, 0, 9, 0x00)
        a = row_addr(dram, 0, 8)
        b = row_addr(dram, 0, 10)
        rate = 10_000.0
        for _ in range(640):
            dram.read(a, 4)
            dram.clock.advance(1 / rate)
            dram.read(b, 4)
            dram.clock.advance(1 / rate)
        assert dram.flips
        fill_row(dram, 0, 9, 0x00)
        victim_base = row_addr(dram, 0, 9)
        assert dram.read(victim_base, GEOMETRY.row_bytes) == b"\x00" * GEOMETRY.row_bytes


class TestBatchHammer:
    def test_flips_occur_at_rate(self):
        dram = make_module()
        fill_row(dram, 0, 9, 0x00)
        result = dram.hammer([(0, 8), (0, 10)], total_accesses=20_000, access_rate=10_000)
        assert result.flip_count > 0
        assert result.windows > 1
        # Allow sub-window rounding from flooring per-window access budgets.
        assert result.duration == pytest.approx(2.0, rel=1e-2)

    def test_no_flips_below_rate(self):
        dram = make_module()
        fill_row(dram, 0, 9, 0x00)
        result = dram.hammer([(0, 8), (0, 10)], total_accesses=2_000, access_rate=400)
        assert result.flip_count == 0

    def test_clock_advances(self):
        dram = make_module(profile=GRANITE)
        dram.hammer([(0, 8), (0, 10)], total_accesses=1000, access_rate=1000)
        assert dram.clock.now == pytest.approx(1.0, rel=1e-2)

    def test_empty_pattern_rejected(self):
        dram = make_module()
        with pytest.raises(ConfigError):
            dram.hammer([], 100, 100)

    def test_consecutive_duplicates_rejected(self):
        dram = make_module()
        with pytest.raises(ConfigError):
            dram.hammer([(0, 8), (0, 8)], 100, 100)

    def test_wrapping_duplicate_rejected(self):
        dram = make_module()
        with pytest.raises(ConfigError):
            dram.hammer([(0, 8), (0, 10), (0, 8)], 100, 100)

    def test_single_row_open_page_rejected(self):
        dram = make_module()
        with pytest.raises(ConfigError):
            dram.hammer([(0, 8)], 100, 100)

    def test_one_location_closed_page_flips(self):
        dram = make_module(row_policy=CLOSED_PAGE)
        fill_row(dram, 0, 9, 0x00)
        # Single-sided one-location hammering needs (2+synergy)/2 = 2.5x
        # the double-sided rate.
        result = dram.hammer([(0, 8)], total_accesses=60_000, access_rate=30_000)
        victim_rows = {f.row for f in result.flips}
        assert 9 in victim_rows or 7 in victim_rows

    def test_invalid_rows_rejected(self):
        dram = make_module()
        with pytest.raises(DramAddressError):
            dram.hammer([(0, 999), (0, 1)], 100, 100)
        with pytest.raises(DramAddressError):
            dram.hammer([(99, 1), (0, 1)], 100, 100)

    def test_zero_rate_rejected(self):
        dram = make_module()
        with pytest.raises(ConfigError):
            dram.hammer([(0, 8), (0, 10)], 100, 0)


class TestExactBatchEquivalence:
    """Design decision D4: the two execution paths agree."""

    def test_same_flips_deterministic(self):
        pattern = [(0, 8), (0, 10)]
        rate = 10_000.0
        accesses = 3200

        exact = make_module(seed=21)
        fill_row(exact, 0, 9, 0x00)
        start = exact.clock.now
        for i in range(accesses):
            bank, row = pattern[i % 2]
            exact.read(row_addr(exact, bank, row), 4)
            exact.clock.advance(1 / rate)

        batch = make_module(seed=21)
        fill_row(batch, 0, 9, 0x00)
        batch.hammer(pattern, total_accesses=accesses, access_rate=rate)

        def flip_keys(module):
            return sorted(
                (f.bank, f.row, f.byte_offset, f.bit) for f in module.flips
            )

        assert flip_keys(exact) == flip_keys(batch)
        assert flip_keys(exact), "equivalence test should actually flip"

    def test_same_activation_totals(self):
        pattern = [(0, 8), (0, 10)]
        rate, accesses = 5_000.0, 1000

        exact = make_module(seed=5, profile=GRANITE)
        for i in range(accesses):
            bank, row = pattern[i % 2]
            exact.read(row_addr(exact, bank, row), 4)
            exact.clock.advance(1 / rate)

        batch = make_module(seed=5, profile=GRANITE)
        batch.hammer(pattern, total_accesses=accesses, access_rate=rate)

        assert (
            exact.metrics.counter("activations").value
            == batch.metrics.counter("activations").value
        )


class TestMitigations:
    def test_trr_blocks_double_sided(self):
        trr = TargetRowRefresh(tracker_capacity=4, refresh_threshold=16)
        dram = make_module(trr=trr)
        fill_row(dram, 0, 9, 0x00)
        result = dram.hammer([(0, 8), (0, 10)], total_accesses=50_000, access_rate=10_000)
        assert result.flip_count == 0
        assert result.trr_capped

    def test_many_sided_evades_trr(self):
        trr = TargetRowRefresh(tracker_capacity=2, refresh_threshold=16)
        dram = make_module(trr=trr)
        for row in (5, 7, 9, 11, 13):
            fill_row(dram, 0, row, 0x00)
        pattern = [(0, 4), (0, 6), (0, 8), (0, 10), (0, 12), (0, 14)]
        result = dram.hammer(pattern, total_accesses=400_000, access_rate=70_000)
        assert result.flip_count > 0

    def test_trr_exact_path(self):
        trr = TargetRowRefresh(tracker_capacity=4, refresh_threshold=16)
        dram = make_module(trr=trr)
        fill_row(dram, 0, 9, 0x00)
        a = row_addr(dram, 0, 8)
        b = row_addr(dram, 0, 10)
        rate = 10_000.0
        for _ in range(2000):
            dram.read(a, 4)
            dram.clock.advance(1 / rate)
            dram.read(b, 4)
            dram.clock.advance(1 / rate)
        assert dram.flips == []
        assert trr.refreshes_issued > 0

    def test_para_blocks_hammering_batch(self):
        # The FRAGILE profile flips after only ~64 accesses, so PARA needs a
        # proportionally higher probability than its real-world ~1e-3.
        para = Para(probability=0.05, seed=3)
        dram = make_module(para=para)
        fill_row(dram, 0, 9, 0x00)
        result = dram.hammer([(0, 8), (0, 10)], total_accesses=100_000, access_rate=10_000)
        assert result.flip_count == 0
        assert result.para_refreshes > 0

    def test_para_exact_path(self):
        # p chosen so surviving the 64-access threshold run is ~0.7^64.
        para = Para(probability=0.3, seed=3)
        dram = make_module(para=para)
        fill_row(dram, 0, 9, 0x00)
        a = row_addr(dram, 0, 8)
        b = row_addr(dram, 0, 10)
        rate = 10_000.0
        for _ in range(3000):
            dram.read(a, 4)
            dram.clock.advance(1 / rate)
            dram.read(b, 4)
            dram.clock.advance(1 / rate)
        assert dram.flips == []

    def test_faster_refresh_blocks_marginal_rate(self):
        """Halving the refresh interval halves per-window disturbance, so a
        rate that barely flips at 64 ms no longer flips at 32 ms."""
        slow = make_module(seed=31)
        fill_row(slow, 0, 9, 0x00)
        marginal = slow.hammer([(0, 8), (0, 10)], total_accesses=12_800, access_rate=1_600)
        assert marginal.flip_count > 0

        fast = make_module(seed=31, refresh_interval=0.032)
        fill_row(fast, 0, 9, 0x00)
        result = fast.hammer([(0, 8), (0, 10)], total_accesses=12_800, access_rate=1_600)
        assert result.flip_count == 0


class TestEcc:
    def test_single_flip_corrected_on_read(self):
        dram = make_module(ecc=True, seed=41)
        fill_row(dram, 0, 9, 0x00)
        dram.hammer([(0, 8), (0, 10)], total_accesses=20_000, access_rate=10_000)
        data_flips = [
            f for f in dram.flips if f.row == 9 and f.byte_offset < GEOMETRY.row_bytes
        ]
        if not data_flips:
            pytest.skip("seed produced no victim data flips")
        # Check each 8-byte word with exactly one flipped bit reads back clean.
        by_word = {}
        for flip in data_flips:
            by_word.setdefault(flip.byte_offset // 8, []).append(flip)
        single = [w for w, flips in by_word.items() if len(flips) == 1]
        if not single:
            pytest.skip("no singly-flipped word")
        word = single[0]
        addr = row_addr(dram, 0, 9, word * 8)
        assert dram.read(addr, 8) == b"\x00" * 8
        assert dram.metrics.counter("ecc_corrected").value > 0

    def test_double_flip_same_word_uncorrectable(self):
        dram = make_module(ecc=True, seed=1)
        fill_row(dram, 0, 9, 0x00)
        # Force two flips into one word directly via the bank.
        bank = dram.banks[0]
        bank.flip_bit(9, 0, 0, flips_to=1)
        bank.flip_bit(9, 0, 1, flips_to=1)
        with pytest.raises(EccUncorrectableError):
            dram.read(row_addr(dram, 0, 9), 8)

    def test_single_flip_in_a_read_word_corrected_once(self):
        dram = make_module(ecc=True, profile=GRANITE)
        payload = bytes(range(1, 33))
        base = row_addr(dram, 0, 9, 64)
        dram.write(base, payload)
        dram.banks[0].flip_bit(9, 64 + 8 + 3, 2, flips_to=((payload[11] >> 2) & 1) ^ 1)
        # A flip in a word the read does not cover is not seen.
        assert dram.read(base, 8) == payload[:8]
        assert dram.metrics.counter("ecc_corrected").value == 0
        # The read covers the flipped word: corrected, counted once.
        assert dram.read(base + 4, 12) == payload[4:16]
        assert dram.metrics.counter("ecc_corrected").value == 1
        # DRAM keeps the flip; every read that covers it corrects it again.
        assert dram.inspect(base + 11, 1) != payload[11:12]
        assert dram.read(base, 32) == payload
        assert dram.metrics.counter("ecc_corrected").value == 2

    def test_check_bit_flip_corrected_once(self):
        dram = make_module(ecc=True, profile=GRANITE)
        base = row_addr(dram, 0, 9)
        dram.write(base, b"\xa5" * 16)
        check = dram.banks[0].check_bytes(9)
        dram.banks[0].flip_bit(9, GEOMETRY.row_bytes + 1, 0, flips_to=(int(check[1]) & 1) ^ 1)
        assert dram.read(base, 16) == b"\xa5" * 16
        assert dram.metrics.counter("ecc_corrected").value == 1

    def test_uncorrectable_word_raises_after_earlier_corrections(self):
        dram = make_module(ecc=True, profile=GRANITE)
        base = row_addr(dram, 0, 9)
        dram.write(base, b"\x00" * 16)
        bank = dram.banks[0]
        bank.flip_bit(9, 1, 5, flips_to=1)  # word 0: one flip
        bank.flip_bit(9, 8, 0, flips_to=1)  # word 1: two flips
        bank.flip_bit(9, 12, 7, flips_to=1)
        with pytest.raises(EccUncorrectableError):
            dram.read(base, 16)
        assert dram.metrics.counter("ecc_corrected").value == 1

    def test_clean_roundtrip_with_ecc(self):
        dram = make_module(ecc=True)
        dram.write(64, b"ecc-protected-payload-123")
        assert dram.read(64, 25) == b"ecc-protected-payload-123"


class TestObservability:
    def test_flipped_addresses_map_back(self):
        dram = make_module()
        fill_row(dram, 0, 9, 0x00)
        result = dram.hammer([(0, 8), (0, 10)], total_accesses=20_000, access_rate=10_000)
        assert result.flips
        for addr, flip in zip(dram.flipped_addresses(result.flips), result.flips):
            coords = dram.mapping.locate(addr)
            assert coords.bank == flip.bank
            assert coords.row == flip.row
            assert coords.column == flip.byte_offset

    def test_flips_since(self):
        dram = make_module()
        fill_row(dram, 0, 9, 0x00)
        dram.hammer([(0, 8), (0, 10)], total_accesses=20_000, access_rate=10_000)
        mark = len(dram.flips)
        assert dram.flips_since(mark) == []
