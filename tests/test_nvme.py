"""Tests for the NVMe interface layer."""

import pytest

from repro.errors import ConfigError, NvmeNamespaceError
from repro.nvme import (
    DeviceTimingModel,
    IopsRateLimiter,
    Namespace,
    NvmeCommand,
    NvmeCompletion,
    Opcode,
    QueuePair,
    StatusCode,
)

from tests.conftest import build_stack


class TestNamespace:
    def test_translate(self):
        ns = Namespace(nsid=1, start_lba=100, num_lbas=50)
        assert ns.translate(0) == 100
        assert ns.translate(49) == 149

    def test_translate_out_of_range(self):
        ns = Namespace(nsid=1, start_lba=100, num_lbas=50)
        with pytest.raises(NvmeNamespaceError):
            ns.translate(50)
        with pytest.raises(NvmeNamespaceError):
            ns.translate(-1)

    def test_contains_device_lba(self):
        ns = Namespace(nsid=1, start_lba=100, num_lbas=50)
        assert ns.contains_device_lba(100)
        assert ns.contains_device_lba(149)
        assert not ns.contains_device_lba(150)

    def test_overlap_detection(self):
        a = Namespace(1, 0, 100)
        b = Namespace(2, 50, 100)
        c = Namespace(3, 100, 100)
        assert a.overlaps(b)
        assert not a.overlaps(c)

    def test_invalid_namespace(self):
        with pytest.raises(NvmeNamespaceError):
            Namespace(nsid=0, start_lba=0, num_lbas=1)
        with pytest.raises(NvmeNamespaceError):
            Namespace(nsid=1, start_lba=0, num_lbas=0)


class TestCommands:
    def test_write_needs_payload(self):
        with pytest.raises(ValueError):
            NvmeCommand(Opcode.WRITE, nsid=1, lba=0)

    def test_command_ids_unique(self):
        a = NvmeCommand(Opcode.READ, nsid=1)
        b = NvmeCommand(Opcode.READ, nsid=1)
        assert a.command_id != b.command_id

    def test_completion_ok(self):
        assert NvmeCompletion(1, StatusCode.SUCCESS).ok
        assert not NvmeCompletion(1, StatusCode.INTERNAL_ERROR).ok


class TestQueuePair:
    def test_fifo_order(self):
        qp = QueuePair(qid=1)
        a = NvmeCommand(Opcode.READ, nsid=1, lba=1)
        b = NvmeCommand(Opcode.READ, nsid=1, lba=2)
        qp.submit(a)
        qp.submit(b)
        assert qp.next_command() is a
        assert qp.next_command() is b
        assert qp.next_command() is None

    def test_depth_enforced(self):
        qp = QueuePair(qid=1, depth=1)
        qp.submit(NvmeCommand(Opcode.READ, nsid=1))
        with pytest.raises(Exception):
            qp.submit(NvmeCommand(Opcode.READ, nsid=1))

    def test_poll_drains_completions(self):
        qp = QueuePair(qid=1)
        qp.post(NvmeCompletion(1, StatusCode.SUCCESS))
        qp.post(NvmeCompletion(2, StatusCode.SUCCESS))
        assert [c.command_id for c in qp.poll(1)] == [1]
        assert [c.command_id for c in qp.poll()] == [2]


class TestController:
    def test_create_namespace_and_rw(self):
        controller, _, _ = build_stack()
        controller.create_namespace(1, start_lba=0, num_lbas=64)
        controller.write(1, 3, b"\xab" * 512)
        assert controller.read(1, 3) == b"\xab" * 512

    def test_namespaces_partition_device(self):
        controller, _, ftl = build_stack()
        controller.create_namespace(1, 0, 96)
        controller.create_namespace(2, 96, 96)
        controller.write(1, 0, b"\x01" * 512)
        controller.write(2, 0, b"\x02" * 512)
        # Same ns-relative LBA, different device LBAs.
        assert controller.read(1, 0) != controller.read(2, 0)
        assert ftl.read(0).data == b"\x01" * 512
        assert ftl.read(96).data == b"\x02" * 512

    def test_device_without_free_blocks_answers_capacity_exceeded(self):
        controller, _, ftl = build_stack()
        controller.create_namespace(1, 0, 64)
        controller.write(1, 0, b"\x01" * 512)
        # No free block and nothing for GC to reclaim.
        ftl.free_blocks.clear()
        ftl._sealed.clear()
        completion = controller.submit(
            NvmeCommand(Opcode.WRITE, 1, 1, data=b"\x02" * 512)
        )
        assert completion.status is StatusCode.CAPACITY_EXCEEDED
        burst = controller.write_burst(1, [2, 3], b"\x03" * 512)
        assert burst.failed == [0, 1]
        assert controller.metrics.counter("errors").value == 3
        assert controller.read(1, 0) == b"\x01" * 512

    def test_duplicate_nsid_rejected(self):
        controller, _, _ = build_stack()
        controller.create_namespace(1, 0, 32)
        with pytest.raises(NvmeNamespaceError):
            controller.create_namespace(1, 64, 32)

    def test_overlapping_namespaces_rejected(self):
        controller, _, _ = build_stack()
        controller.create_namespace(1, 0, 64)
        with pytest.raises(NvmeNamespaceError):
            controller.create_namespace(2, 32, 64)

    def test_namespace_past_capacity_rejected(self):
        controller, _, ftl = build_stack()
        with pytest.raises(NvmeNamespaceError):
            controller.create_namespace(1, 0, ftl.num_lbas + 1)

    def test_unknown_namespace_completion(self):
        controller, _, _ = build_stack()
        completion = controller.submit(NvmeCommand(Opcode.READ, nsid=9, lba=0))
        assert completion.status is StatusCode.INVALID_NAMESPACE

    def test_lba_out_of_range_completion(self):
        controller, _, _ = build_stack()
        controller.create_namespace(1, 0, 16)
        completion = controller.submit(NvmeCommand(Opcode.READ, nsid=1, lba=16))
        assert completion.status is StatusCode.LBA_OUT_OF_RANGE

    def test_trim_then_read_zeros(self):
        controller, _, _ = build_stack()
        controller.create_namespace(1, 0, 64)
        controller.write(1, 5, b"\xee" * 512)
        controller.trim(1, 5)
        assert controller.read(1, 5) == b"\x00" * 512

    def test_flush_succeeds(self):
        controller, _, _ = build_stack()
        controller.create_namespace(1, 0, 64)
        completion = controller.submit(NvmeCommand(Opcode.FLUSH, nsid=1))
        assert completion.ok

    def test_commands_advance_clock(self):
        controller, _, _ = build_stack()
        controller.create_namespace(1, 0, 64)
        before = controller.clock.now
        controller.read(1, 0)
        assert controller.clock.now > before

    def test_unmapped_read_faster_than_mapped(self):
        """The paper's fast path: trimmed/unmapped reads skip flash."""
        controller, _, _ = build_stack()
        controller.create_namespace(1, 0, 64)
        controller.write(1, 0, b"\x01" * 512)
        unmapped = controller.submit(NvmeCommand(Opcode.READ, nsid=1, lba=1))
        mapped = controller.submit(NvmeCommand(Opcode.READ, nsid=1, lba=0))
        assert unmapped.latency < mapped.latency

    def test_process_queue_pair(self):
        controller, _, _ = build_stack()
        controller.create_namespace(1, 0, 64)
        qp = QueuePair(qid=1)
        controller.write(1, 0, b"\x07" * 512)
        qp.submit(NvmeCommand(Opcode.READ, nsid=1, lba=0))
        qp.submit(NvmeCommand(Opcode.READ, nsid=1, lba=1))
        assert controller.process(qp) == 2
        completions = qp.poll()
        assert completions[0].data == b"\x07" * 512
        assert all(c.ok for c in completions)


class TestTimingModel:
    def test_peak_iops(self):
        timing = DeviceTimingModel(base_command_time=4e-7)
        assert timing.peak_iops == pytest.approx(2.5e6)

    def test_io_cost_asymmetry(self):
        controller, _, _ = build_stack()
        assert controller.io_cost(mapped=False) < controller.io_cost(mapped=True)


class TestRateLimiter:
    def test_validation(self):
        with pytest.raises(ConfigError):
            IopsRateLimiter(0)
        with pytest.raises(ConfigError):
            IopsRateLimiter(100, burst=0)

    def test_burst_then_throttle(self):
        limiter = IopsRateLimiter(max_iops=10, burst=2)
        assert limiter.delay_for(0.0) == 0.0
        assert limiter.delay_for(0.0) == 0.0
        assert limiter.delay_for(0.0) > 0.0

    def test_sustained_rate_capped(self):
        limiter = IopsRateLimiter(max_iops=1000, burst=1)
        now = 0.0
        for _ in range(100):
            now += limiter.delay_for(now)
        assert now >= 99 / 1000

    def test_tokens_refill(self):
        limiter = IopsRateLimiter(max_iops=10, burst=1)
        assert limiter.delay_for(0.0) == 0.0
        assert limiter.delay_for(10.0) == 0.0  # refilled long ago

    def test_effective_rate(self):
        limiter = IopsRateLimiter(max_iops=500)
        assert limiter.effective_rate(10_000) == 500
        assert limiter.effective_rate(100) == 100

    def test_limited_controller_slows_commands(self):
        limiter = IopsRateLimiter(max_iops=100, burst=1)
        controller, _, _ = build_stack(rate_limiter=limiter)
        controller.create_namespace(1, 0, 64)
        began = controller.clock.now
        for _ in range(50):
            controller.read(1, 1)
        elapsed = controller.clock.now - began
        assert elapsed >= 49 / 100  # cannot beat 100 IOPS sustained

    def test_same_timestamp_borrowers_queue_behind_debt(self):
        """Repeated over-draws at one timestamp must stack their delays.

        Regression: anchoring each borrow on ``now`` instead of the
        bucket's outstanding debt re-issued the same small delay to every
        same-timestamp caller, so k callers sustained k * max_iops."""
        limiter = IopsRateLimiter(max_iops=100, burst=1)
        assert limiter.delay_for(0.0) == 0.0  # the burst token
        delays = [limiter.delay_for(0.0) for _ in range(5)]
        assert delays == sorted(delays)
        for i, delay in enumerate(delays):
            assert delay == pytest.approx((i + 1) / 100)

    def test_debt_drains_while_waiting(self):
        limiter = IopsRateLimiter(max_iops=100, burst=1)
        limiter.delay_for(0.0)
        delay = limiter.delay_for(0.0)  # in debt until 0.01
        assert delay == pytest.approx(0.01)
        # Once the debt has elapsed, a command at the ready time pays
        # for itself only — no residue from the cleared debt.
        assert limiter.delay_for(delay + 0.01) == pytest.approx(0.0, abs=1e-9)

    def test_fractional_tokens_carry_over(self):
        """A refill may land between whole tokens; the fraction must be
        kept, not truncated, or slow limiters overcharge."""
        limiter = IopsRateLimiter(max_iops=3, burst=1)
        assert limiter.delay_for(0.0) == 0.0
        # 0.1s at 3 IOPS refills 0.3 tokens; the command borrows the
        # remaining 0.7 and waits 0.7/3 s — not a full 1/3 s.
        assert limiter.delay_for(0.1) == pytest.approx(0.7 / 3)

    def test_sustained_rate_capped_under_same_timestamp_bursts(self):
        limiter = IopsRateLimiter(max_iops=1000, burst=1)
        # 10 bursts of 10 commands, each burst issued at one timestamp.
        now = 0.0
        total_wait = 0.0
        for _ in range(10):
            waits = [limiter.delay_for(now) for _ in range(10)]
            total_wait = max(total_wait, now + max(waits))
            now += 0.001  # bursts arrive far faster than the cap drains
        # 100 commands through a 1000 IOPS cap need >= ~99ms of clock.
        assert total_wait >= 99 / 1000
