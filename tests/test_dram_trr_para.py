"""Tests for the TRR and PARA mitigations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram import (
    DramGeometry,
    DramModule,
    GenerationProfile,
    Para,
    TargetRowRefresh,
    VulnerabilityModel,
)
from repro.sim import SimClock


class TestTrrTracking:
    def test_trigger_at_threshold(self):
        trr = TargetRowRefresh(tracker_capacity=4, refresh_threshold=3)
        assert trr.on_activation(0, 10) == []
        assert trr.on_activation(0, 10) == []
        assert trr.on_activation(0, 10) == [9, 11]
        assert trr.refreshes_issued == 1

    def test_count_resets_after_trigger(self):
        trr = TargetRowRefresh(tracker_capacity=4, refresh_threshold=2)
        trr.on_activation(0, 10)
        assert trr.on_activation(0, 10) == [9, 11]
        assert trr.on_activation(0, 10) == []  # count restarted

    def test_banks_tracked_independently(self):
        trr = TargetRowRefresh(tracker_capacity=1, refresh_threshold=100)
        trr.on_activation(0, 10)
        trr.on_activation(1, 20)
        # Bank 1's tracker did not evict bank 0's entry.
        assert trr.on_activation(0, 10) == []
        trr2 = TargetRowRefresh(tracker_capacity=1, refresh_threshold=2)
        trr2.on_activation(0, 10)
        trr2.on_activation(1, 20)
        assert trr2.on_activation(0, 10) == [9, 11]

    def test_window_clears_tracker(self):
        trr = TargetRowRefresh(tracker_capacity=4, refresh_threshold=2)
        trr.on_activation(0, 10)
        trr.on_window(0)
        assert trr.on_activation(0, 10) == []

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            TargetRowRefresh(tracker_capacity=0)
        with pytest.raises(ValueError):
            TargetRowRefresh(refresh_threshold=0)


class TestTrrEvasion:
    def test_many_sided_thrashes_sampler(self):
        """TRRespass-style: more aggressors than tracker entries means no
        count ever reaches the threshold."""
        trr = TargetRowRefresh(tracker_capacity=2, refresh_threshold=3)
        rows = [10, 20, 30, 40]
        refreshes = []
        for _ in range(50):
            for row in rows:
                refreshes.extend(trr.on_activation(0, row))
        assert refreshes == []
        assert trr.evaded_by(len(rows))

    def test_within_capacity_not_evaded(self):
        trr = TargetRowRefresh(tracker_capacity=4)
        assert not trr.evaded_by(2)
        assert not trr.evaded_by(4)
        assert trr.evaded_by(5)


class TestTrrEdgeCases:
    """Boundary behavior of the bounded sampler: capacity 0 is rejected,
    capacity >= distinct rows tracks everything, eviction picks the
    coldest entry, and windows clear exactly one bank."""

    def test_tracker_capacity_zero_rejected_with_message(self):
        with pytest.raises(ValueError) as excinfo:
            TargetRowRefresh(tracker_capacity=0)
        assert "at least 1" in str(excinfo.value)
        with pytest.raises(ValueError):
            TargetRowRefresh(tracker_capacity=-1)

    def test_capacity_at_least_distinct_rows_never_evicts(self):
        # 4 distinct rows, capacity 4: every count accumulates to the
        # threshold and every row eventually triggers.
        trr = TargetRowRefresh(tracker_capacity=4, refresh_threshold=10)
        rows = [10, 20, 30, 40]
        refreshes = []
        for _ in range(10):
            for row in rows:
                refreshes.extend(trr.on_activation(0, row))
        assert refreshes == [9, 11, 19, 21, 29, 31, 39, 41]
        assert trr.refreshes_issued == 4

    def test_eviction_removes_the_coldest_entry(self):
        trr = TargetRowRefresh(tracker_capacity=2, refresh_threshold=100)
        trr.on_activation(0, 10)
        trr.on_activation(0, 10)  # row 10 is hot (count 2)
        trr.on_activation(0, 20)  # row 20 is cold (count 1)
        trr.on_activation(0, 30)  # evicts 20, not 10
        assert trr.on_activation(0, 10) == []  # still tracked: count now 3
        trr_check = TargetRowRefresh(tracker_capacity=2, refresh_threshold=4)
        for _ in range(2):
            trr_check.on_activation(0, 10)
        trr_check.on_activation(0, 20)
        trr_check.on_activation(0, 30)  # evicts cold row 20
        # Row 10 survived the eviction with its count intact.
        assert trr_check.on_activation(0, 10) == []
        assert trr_check.on_activation(0, 10) == [9, 11]

    def test_on_window_clears_only_the_given_bank(self):
        trr = TargetRowRefresh(tracker_capacity=4, refresh_threshold=2)
        trr.on_activation(0, 10)
        trr.on_activation(1, 20)
        trr.on_window(0)
        # Bank 0 restarted from zero; bank 1 kept its count.
        assert trr.on_activation(0, 10) == []
        assert trr.on_activation(1, 20) == [19, 21]

    def test_on_window_for_untracked_bank_is_a_noop(self):
        trr = TargetRowRefresh(tracker_capacity=4, refresh_threshold=2)
        trr.on_window(3)  # never activated: must not raise
        trr.on_activation(0, 10)
        assert trr.on_activation(0, 10) == [9, 11]

    def test_count_survives_refresh_trigger_reset(self):
        # After triggering, the row's count restarts at zero but the row
        # stays tracked (no eviction slot is freed).
        trr = TargetRowRefresh(tracker_capacity=1, refresh_threshold=2)
        trr.on_activation(0, 10)
        assert trr.on_activation(0, 10) == [9, 11]
        assert trr.on_activation(0, 10) == []
        assert trr.on_activation(0, 10) == [9, 11]
        assert trr.refreshes_issued == 2

    def test_evaded_by_exact_boundary(self):
        trr = TargetRowRefresh(tracker_capacity=4)
        assert not trr.evaded_by(0)
        assert not trr.evaded_by(4)  # == capacity: every row fits
        assert trr.evaded_by(5)  # capacity + 1: thrashing begins
        single = TargetRowRefresh(tracker_capacity=1)
        assert not single.evaded_by(1)
        assert single.evaded_by(2)

    def test_refreshes_issued_accumulates_across_banks(self):
        trr = TargetRowRefresh(tracker_capacity=4, refresh_threshold=2)
        for bank in range(3):
            trr.on_activation(bank, 10)
            trr.on_activation(bank, 10)
        assert trr.refreshes_issued == 3


class TestPara:
    def test_probability_validated(self):
        with pytest.raises(ValueError):
            Para(probability=0)
        with pytest.raises(ValueError):
            Para(probability=1)

    def test_refresh_rate_close_to_p(self):
        para = Para(probability=0.05, seed=1)
        triggers = sum(bool(para.on_activation(0, 10)) for _ in range(20_000))
        assert 0.04 < triggers / 20_000 < 0.06
        assert para.refreshes_issued == triggers

    def test_refresh_targets_neighbours(self):
        para = Para(probability=0.999, seed=1)
        assert para.on_activation(0, 10) == [9, 11]

    def test_survival_probability(self):
        para = Para(probability=0.001, seed=1)
        assert para.survival_probability(0) == 1.0
        assert para.survival_probability(100_000) < 1e-40

    def test_expected_refreshes(self):
        para = Para(probability=0.01, seed=1)
        assert para.expected_refreshes(0, 1000) == pytest.approx(10.0)

    def test_draw_refresh_count_statistics(self):
        para = Para(probability=0.01, seed=2)
        draws = [para.draw_refresh_count(10_000) for _ in range(200)]
        mean = sum(draws) / len(draws)
        assert 80 < mean < 120  # expected 100

    def test_draw_refresh_count_zero_accesses(self):
        assert Para(seed=1).draw_refresh_count(0) == 0


# -- cap-or-evade vs exact replay -------------------------------------------

ROWS = 64
ROW_BYTES = 256

# Every row vulnerable; the weakest cells flip at ~160 disturbance units.
FRAGILE = GenerationProfile(
    name="test-fragile",
    year=2021,
    ddr_type="TEST",
    min_rate_kps=1.0,
    row_vulnerable_fraction=1.0,
    mean_weak_cells=4.0,
    threshold_spread=0.2,
)


def _fresh_module(capacity, threshold, seed):
    geometry = DramGeometry.small(rows_per_bank=ROWS, row_bytes=ROW_BYTES)
    vulnerability = VulnerabilityModel(FRAGILE, geometry, seed=seed)
    trr = TargetRowRefresh(tracker_capacity=capacity, refresh_threshold=threshold)
    dram = DramModule(geometry, vulnerability, SimClock(), trr=trr)
    # Bank storage is written directly, so the fill activates nothing.
    for bank in dram.banks:
        for row in range(ROWS):
            bank.write(row, 0, np.full(ROW_BYTES, 0xFF if row % 2 else 0x00, np.uint8))
    return dram


def cap_or_evade_vs_exact(histogram, capacity, threshold, seed):
    """Flipped cells of one ``(bank, row, count)`` histogram under the
    default TRR tracker: ``access_batch`` (cap-or-evade) against
    ``activate_burst`` fed the same histogram in round-robin order, each
    on a fresh module.  Returns ``(cap_or_evade, exact)`` cell sets."""
    remaining = [[bank, row, n] for bank, row, n in histogram]
    order = []
    while remaining:
        for entry in remaining:
            order.append((entry[0], entry[1]))
            entry[2] -= 1
        remaining = [entry for entry in remaining if entry[2]]

    def cells(flips):
        return {(f.bank, f.row, f.byte_offset, f.bit) for f in flips}

    batch = _fresh_module(capacity, threshold, seed)
    assert not batch.trr.exact_batch_replay  # the cap-or-evade path
    exact = _fresh_module(capacity, threshold, seed)
    return (
        cells(batch.access_batch(histogram)),
        cells(exact.activate_burst(order)),
    )


@st.composite
def trr_histograms(draw):
    banks = draw(st.integers(1, 2))
    keys = draw(
        st.lists(
            st.tuples(st.integers(0, banks - 1), st.integers(1, ROWS - 2)),
            min_size=2,
            max_size=10,
            unique=True,
        )
    )
    counts = draw(st.lists(st.integers(1, 400), min_size=len(keys), max_size=len(keys)))
    return [(bank, row, n) for (bank, row), n in zip(keys, counts)]


class TestCapOrEvadeVsExactReplay:
    """The histogram path models the default tracker (``counter_lru``,
    per-bank, radius 1) by cap-or-evade.  Exact replay's mid-window
    refreshes only lower a victim's disturbance below what the
    approximation assumes, so it may flip fewer cells but never a cell the
    approximation misses.  The measured disagreement rate is recorded in
    EXPERIMENTS.md."""

    @settings(max_examples=80, deadline=None)
    @given(
        histogram=trr_histograms(),
        capacity=st.integers(1, 8),
        threshold=st.integers(8, 128),
        seed=st.integers(0, 50),
    )
    def test_exact_flips_are_a_subset(self, histogram, capacity, threshold, seed):
        approx, exact = cap_or_evade_vs_exact(histogram, capacity, threshold, seed)
        assert exact <= approx
