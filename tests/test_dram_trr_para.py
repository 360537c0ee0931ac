"""Tests for the TRR and PARA mitigations."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.dram import (
    SAMPLING_POLICIES,
    DramAddress,
    DramGeometry,
    DramModule,
    GenerationProfile,
    Para,
    TargetRowRefresh,
    VulnerabilityModel,
)
from repro.sim import SimClock
from repro.trace import Tracer


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


# -- periodic extrapolation vs one ACT at a time ----------------------------


@st.composite
def replay_modules(draw):
    """Keyword arguments for :func:`_replay_module`: every sampler policy,
    per-bank and shared trackers, radius 1-2, threshold 2-64, the
    Half-Double shell on or off, ECC on or off, 0x00/0xff planted rows."""
    return {
        "policy": draw(st.sampled_from(SAMPLING_POLICIES)),
        "per_bank": draw(st.booleans()),
        "radius": draw(st.integers(1, 2)),
        "threshold": draw(st.integers(2, 64)),
        "capacity": draw(st.integers(1, 6)),
        "weight2": draw(st.sampled_from((0.0, 0.3))),
        "ecc": draw(st.booleans()),
        "plant": draw(st.sampled_from((b"\x00", b"\xff", None))),
        "seed": draw(st.integers(0, 50)),
    }


def _replay_module(policy, per_bank, radius, threshold, capacity, weight2, ecc,
                   plant, seed, traced=False):
    """A two-bank module with every row planted through accounted writes
    (``plant`` None alternates 0x00/0xff by row), then moved into a fresh
    refresh window, so the sampler starts from the writes' stale state."""
    geometry = DramGeometry.small(rows_per_bank=ROWS, row_bytes=ROW_BYTES)
    vulnerability = VulnerabilityModel(
        FRAGILE, geometry, seed=seed, neighbor2_weight=weight2, include_check_bits=ecc
    )
    trr = TargetRowRefresh(
        tracker_capacity=capacity,
        refresh_threshold=threshold,
        sampling_policy=policy,
        per_bank=per_bank,
        neighbor_radius=radius,
        seed=seed,
    )
    clock = SimClock()
    dram = DramModule(geometry, vulnerability, clock, trr=trr, ecc=ecc)
    for bank in range(2):
        for row in range(ROWS):
            pattern = plant if plant is not None else (b"\xff" if row % 2 else b"\x00")
            address = dram.mapping.address_of(DramAddress(bank, row, 0))
            dram.write(address, pattern * ROW_BYTES)
    clock.advance(dram.refresh_interval)
    if traced:
        dram.tracer = Tracer(clock)
    return dram


def _replay_state(dram):
    """Everything an activation stream can change, dict key order included
    (trace ``seq`` numbers and the per-call ``dram.activate`` events are
    left out: a stream fed one ACT per call emits one per ACT)."""
    trr = dram.trr
    events = None
    if dram.tracer is not None:
        events = [
            {k: v for k, v in event.items() if k != "seq"}
            for event in dram.tracer.events
            if event["name"] != "dram.activate"
        ]
    return (
        dram.flips,
        [(list(b.acts.items()), list(b.victim_baseline.items())) for b in dram.banks],
        [bytes(row) for b in dram.banks for row in b.data_rows.values()],
        [(key, list(table.items())) for key, table in trr._trackers.items()],
        trr.refreshes_issued,
        trr.draws,
        trr._rng.getstate(),
        dram.metrics.counter("activations").value,
        events,
    )


def _one_act_at_a_time(dram, order):
    for entry in order:
        dram.activate_burst([entry])


@st.composite
def periodic_streams(draw):
    unit = draw(
        st.lists(
            st.tuples(st.integers(0, 1), st.integers(1, ROWS - 2)), min_size=1, max_size=8
        )
    )
    repeats = draw(st.integers(1, 300))
    tail = draw(st.integers(0, len(unit) - 1))
    return unit * repeats + unit[:tail]


class TestPeriodicReplayEquivalence:
    """Periodic streams replay exactly until the sampler's state repeats
    and skip the repeating stretches in closed form.  The reference is
    the same stream fed one ACT per ``activate_burst`` call: a one-ACT
    burst has no period, so it runs every ACT through the per-ACT step."""

    @settings(max_examples=120, deadline=None)
    @given(config=replay_modules(), order=periodic_streams(), traced=st.booleans())
    def test_periodic_burst_matches_one_act_at_a_time(self, config, order, traced):
        fast = _replay_module(traced=traced, **config)
        fast.activate_burst(order)
        reference = _replay_module(traced=traced, **config)
        _one_act_at_a_time(reference, order)
        assert _replay_state(fast) == _replay_state(reference)

    @settings(max_examples=80, deadline=None)
    @given(
        config=replay_modules(),
        histogram=trr_histograms(),
        traced=st.booleans(),
    )
    def test_multi_phase_histogram_matches_one_act_at_a_time(
        self, config, histogram, traced
    ):
        """``access_batch`` replays an order-sensitive sampler's histogram
        as one phase per count level."""
        fast = _replay_module(traced=traced, **config)
        assume(fast.trr.exact_batch_replay)
        fast.access_batch(histogram)
        remaining = [[bank, row, n] for bank, row, n in histogram]
        order = []
        while remaining:
            for entry in remaining:
                order.append((entry[0], entry[1]))
                entry[2] -= 1
            remaining = [entry for entry in remaining if entry[2]]
        reference = _replay_module(traced=traced, **config)
        _one_act_at_a_time(reference, order)
        assert _replay_state(fast) == _replay_state(reference)

    def test_half_double_victim_flips_inside_a_skippable_stream(self):
        """Row 12 sits two rows from both aggressors: a radius-1 sampler
        refreshes rows 11 and 13 but never 12, which gains disturbance
        only through the distance-2 shell and flips part-way through."""
        config = dict(
            policy="counter_lru", per_bank=True, radius=1, threshold=24, capacity=4,
            weight2=0.3, ecc=False, plant=b"\x00", seed=2,
        )
        order = [(0, 10), (0, 14)] * 1500
        fast = _replay_module(**config)
        fast.activate_burst(order)
        reference = _replay_module(**config)
        _one_act_at_a_time(reference, order)
        assert any(flip.row == 12 for flip in reference.flips)
        assert _replay_state(fast) == _replay_state(reference)

    def test_para_burst_matches_one_act_at_a_time(self):
        def run(burst):
            geometry = DramGeometry.small(rows_per_bank=ROWS, row_bytes=ROW_BYTES)
            dram = DramModule(
                geometry,
                VulnerabilityModel(FRAGILE, geometry, seed=4),
                SimClock(),
                para=Para(probability=0.01, seed=4),
            )
            for row in range(ROWS):
                dram.banks[0].write(row, 0, np.zeros(ROW_BYTES, np.uint8))
            order = [(0, 10), (0, 12)] * 400
            if burst:
                dram.activate_burst(order)
            else:
                _one_act_at_a_time(dram, order)
            return dram.flips, dram.para.refreshes_issued, dram.banks[0].victim_baseline

        assert run(True) == run(False)

    def test_probe_skips_most_of_a_512_cycle_stream(self):
        """The fast path must not die silently: a U-TRR onset probe (three
        aggressors, 512 cycles) against ``counter_lru`` runs only a small
        share of its ACTs through the per-ACT step."""
        dram = _replay_module(
            policy="counter_lru", per_bank=True, radius=1, threshold=24, capacity=2,
            weight2=0.0, ecc=False, plant=b"\x00", seed=1,
        )
        calls = []
        per_act = dram._act

        def counting_act(bank, bank_idx, row):
            calls.append(row)
            per_act(bank, bank_idx, row)

        dram._act = counting_act
        activations = dram.metrics.counter("activations")
        planted = activations.value
        order = [(0, 8), (0, 12), (0, 16)] * 512
        dram.activate_burst(order)
        assert activations.value - planted == len(order)
        assert len(calls) < len(order) // 4
