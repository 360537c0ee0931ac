"""Tests for bank storage, epochs and victim bookkeeping."""

import numpy as np
import pytest

from repro.dram import DramGeometry
from repro.dram.bank import Bank
from repro.errors import DramAddressError

GEOMETRY = DramGeometry.small(rows_per_bank=64, row_bytes=1024)


@pytest.fixture
def bank():
    return Bank(0, GEOMETRY)


class TestStorage:
    def test_unwritten_reads_zero(self, bank):
        assert bank.read(5, 0, 16).tolist() == [0] * 16

    def test_write_read_roundtrip(self, bank):
        data = np.arange(32, dtype=np.uint8)
        bank.write(3, 100, data)
        assert bank.read(3, 100, 32).tolist() == list(range(32))

    def test_read_returns_copy(self, bank):
        bank.write(3, 0, np.array([7], dtype=np.uint8))
        copy = bank.read(3, 0, 1)
        copy[0] = 99
        assert bank.read(3, 0, 1)[0] == 7

    def test_lazy_allocation(self, bank):
        assert not bank.is_allocated(3)
        bank.write(3, 0, np.array([1], dtype=np.uint8))
        assert bank.is_allocated(3)
        assert not bank.is_allocated(4)

    def test_read_overflow_rejected(self, bank):
        with pytest.raises(DramAddressError):
            bank.read(0, 1020, 8)

    def test_write_overflow_rejected(self, bank):
        with pytest.raises(DramAddressError):
            bank.write(0, 1020, np.zeros(8, dtype=np.uint8))


class TestEpochs:
    def test_roll_clears_counts(self, bank):
        bank.acts[7] = 1
        assert bank.roll_epoch(1) is True
        assert bank.acts == {}

    def test_same_epoch_is_noop(self, bank):
        bank.roll_epoch(1)
        bank.acts[7] = 1
        assert bank.roll_epoch(1) is False
        assert bank.acts == {7: 1}

    def test_roll_clears_baselines(self, bank):
        bank.acts[7] = 1
        bank.refresh_victim(8)
        bank.roll_epoch(1)
        assert bank.victim_side_counts(8) == (0, 0)


class TestVictimAccounting:
    def test_side_counts_from_neighbours(self, bank):
        bank.acts.update({7: 10, 9: 4})
        assert bank.victim_side_counts(8) == (10, 4)

    def test_refresh_resets_baseline(self, bank):
        bank.acts.update({7: 10, 9: 4})
        bank.refresh_victim(8)
        assert bank.victim_side_counts(8) == (0, 0)
        bank.acts[7] += 3
        assert bank.victim_side_counts(8) == (3, 0)

    def test_edge_rows_have_one_side(self, bank):
        bank.acts[1] = 5
        assert bank.victim_side_counts(0) == (0, 5)


class TestFlips:
    def test_flip_ignored_in_unallocated_row(self, bank):
        assert bank.flip_bit(5, 0, 0, flips_to=1) is None

    def test_flip_to_one(self, bank):
        bank.write(5, 0, np.array([0], dtype=np.uint8))
        change = bank.flip_bit(5, 0, 3, flips_to=1)
        assert change == (0, 8)
        assert bank.read(5, 0, 1)[0] == 8

    def test_flip_to_zero(self, bank):
        bank.write(5, 0, np.array([0xFF], dtype=np.uint8))
        change = bank.flip_bit(5, 0, 0, flips_to=0)
        assert change == (0xFF, 0xFE)

    def test_flip_noop_when_already_in_state(self, bank):
        bank.write(5, 0, np.array([8], dtype=np.uint8))
        assert bank.flip_bit(5, 0, 3, flips_to=1) is None

    def test_flip_is_self_limiting(self, bank):
        bank.write(5, 0, np.array([0], dtype=np.uint8))
        assert bank.flip_bit(5, 0, 3, flips_to=1) is not None
        assert bank.flip_bit(5, 0, 3, flips_to=1) is None

    def test_check_region_flip_requires_ecc(self, bank):
        # byte_offset beyond row_bytes addresses the check region.
        assert bank.flip_bit(5, GEOMETRY.row_bytes, 0, flips_to=1) is None

    def test_check_region_flip_with_ecc(self):
        bank = Bank(0, GEOMETRY, ecc_enabled=True)
        check = bank.check_bytes(5, allocate=True)
        check[0] = 0
        change = bank.flip_bit(5, GEOMETRY.row_bytes, 2, flips_to=1)
        assert change == (0, 4)
