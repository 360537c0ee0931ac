"""The golden-trace scenario: one seeded double-sided hammer, traced.

The scenario drives the full vertical — namespace setup, host writes
(FTL allocation + flash programs), a mapped and an unmapped read, a
trim, then a double-sided read burst over two LBAs whose L2P entries
live in DRAM rows 0 and 2 of one bank (the FRAGILE profile flips their
shared victim row within a refresh window), and finally one more scalar
read after the hammer so the epoch rollover emits a refresh event.

Everything is a pure function of :data:`GOLDEN_SEED` and the simulated
clock, so the emitted JSONL is byte-identical run to run — the committed
fixture under ``tests/golden/`` pins it, and CI regenerates and ``cmp``s
it on every push.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.sim import SimClock
from repro.trace.tracer import Tracer

#: Seed of the committed fixture.  Changing it (or anything the scenario
#: touches) invalidates ``tests/golden/double_sided_hammer.trace.jsonl``.
GOLDEN_SEED = 7
GOLDEN_NSID = 1
GOLDEN_NUM_LBAS = 1024
GOLDEN_REPEATS = 120_000


def _lbas_for_rows(controller, dram, rows: Sequence[int], bank: int = 0) -> List[int]:
    """One LBA per requested DRAM row: the first whose L2P entry lands
    there (pure address arithmetic, no accounting perturbed)."""
    ftl = controller.ftl
    out: List[int] = []
    for target in rows:
        for lba in range(8, ftl.num_lbas):
            coords = dram.mapping.locate(ftl.l2p.entry_address(lba))
            if coords.bank == bank and coords.row == target:
                out.append(lba)
                break
        else:
            raise RuntimeError(
                "no LBA maps to bank %d row %d in this layout" % (bank, target)
            )
    return out


def run_golden_scenario(tracer_path=None, max_events: int = 200_000) -> Tracer:
    """Run the scenario; returns the (closed) tracer.

    With ``tracer_path=None`` the events stay in memory
    (``tracer.events`` / ``tracer.to_jsonl()``); a path streams them to
    that JSONL file instead.
    """
    from repro.testkit.fixtures import FRAGILE, build_stack

    clock = SimClock()
    tracer = Tracer(clock, path=tracer_path, max_events=max_events)
    controller, dram, ftl = build_stack(
        profile=FRAGILE,
        seed=GOLDEN_SEED,
        num_lbas=GOLDEN_NUM_LBAS,
        clock=clock,
        tracer=tracer,
    )
    controller.create_namespace(GOLDEN_NSID, 0, GOLDEN_NUM_LBAS)
    page = ftl.page_bytes

    # Host writes: FTL allocation, flash programs, L2P update traffic.
    for lba in range(4):
        controller.write(GOLDEN_NSID, lba, bytes([lba + 1]) * page)
    # A mapped read (flash), an unmapped read (DRAM-only fast path).
    controller.read(GOLDEN_NSID, 0)
    controller.read(GOLDEN_NSID, 64)
    # A trim, so the deallocate path is in the fixture too.
    controller.trim(GOLDEN_NSID, 3)

    # Double-sided hammer: two unmapped LBAs whose L2P entries sit in
    # rows 0 and 2 of bank 0 — row 1 is the doubly disturbed victim.
    aggressors = _lbas_for_rows(controller, dram, (0, 2))
    controller.read_burst(GOLDEN_NSID, aggressors, repeats=GOLDEN_REPEATS)

    # One post-hammer scalar read: rolls the refresh epoch on the exact
    # path, emitting dram.refresh.
    controller.read(GOLDEN_NSID, 1)

    tracer.close(metrics=controller.stack_metrics())
    return tracer


def emit_golden(path: str) -> int:
    """Stream the golden trace to ``path``; returns events written."""
    tracer = run_golden_scenario(tracer_path=path)
    return tracer.emitted


#: Source text of the golden payload program: the same double-sided
#: pattern as the classic scenario, expressed in the DSL with
#: placeholders resolved against the live layout.
PAYLOAD_GOLDEN_SOURCE = """\
# golden payload: double-sided hammer through the stack
name golden_double_sided
target stack

label hammer
loop %d {
    read @agg_left
    read @agg_right
}
""" % GOLDEN_REPEATS


def run_payload_golden_scenario(tracer_path=None, max_events: int = 200_000):
    """The payload-DSL twin of :func:`run_golden_scenario`.

    Runs the full parse -> resolve -> compile -> execute pipeline on the
    same seeded FRAGILE stack, with ``payload.*`` events ON, so the
    committed fixture pins the executor's trace surface as well as the
    physics.  Pure function of :data:`GOLDEN_SEED`.
    """
    from repro.host.blockdev import BlockDevice
    from repro.host.vm import AccessMode, Vm
    from repro.payload import (
        compile_program,
        execute_payload,
        parse_program,
        resolve_program,
    )
    from repro.testkit.fixtures import FRAGILE, build_stack

    clock = SimClock()
    tracer = Tracer(clock, path=tracer_path, max_events=max_events)
    controller, dram, ftl = build_stack(
        profile=FRAGILE,
        seed=GOLDEN_SEED,
        num_lbas=GOLDEN_NUM_LBAS,
        clock=clock,
        tracer=tracer,
    )
    controller.create_namespace(GOLDEN_NSID, 0, GOLDEN_NUM_LBAS)
    page = ftl.page_bytes
    for lba in range(4):
        controller.write(GOLDEN_NSID, lba, bytes([lba + 1]) * page)
    controller.read(GOLDEN_NSID, 0)

    aggressors = _lbas_for_rows(controller, dram, (0, 2))
    vm = Vm(
        "attacker", BlockDevice(controller, GOLDEN_NSID), AccessMode.RAW
    )
    program = parse_program(PAYLOAD_GOLDEN_SOURCE)
    resolved = resolve_program(
        program, {"agg_left": aggressors[0], "agg_right": aggressors[1]}
    )
    compiled = compile_program(resolved)
    execute_payload(compiled, vm=vm, trace_payload=True)

    controller.read(GOLDEN_NSID, 1)
    tracer.close(metrics=controller.stack_metrics())
    return tracer


def emit_payload_golden(path: str) -> int:
    """Stream the payload golden trace to ``path``; returns events written."""
    tracer = run_payload_golden_scenario(tracer_path=path)
    return tracer.emitted


#: The TRR configuration the golden U-TRR inference run reverse-engineers
#: (small capacity keeps the onset scan — and the fixture — short).
UTRR_GOLDEN_TRR = {
    "tracker_capacity": 2,
    "refresh_threshold": 24,
    "sampling_policy": "first_k_per_window",
    "per_bank": True,
}


def run_utrr_golden_scenario(tracer_path=None, max_events: int = 200_000):
    """The U-TRR golden: a full inference run against a known sampler.

    Runs the probe battery (:class:`repro.utrr.UtrrPipeline`) against a
    FRAGILE target guarded by :data:`UTRR_GOLDEN_TRR`, tracing every
    ``utrr.*`` stage/probe/report event plus the underlying ``dram.*``
    activity.  Pure function of :data:`GOLDEN_SEED`; returns
    ``(tracer, report)``.
    """
    from repro.utrr import UtrrPipeline, build_utrr_target

    clock = SimClock()
    tracer = Tracer(clock, path=tracer_path, max_events=max_events)
    dram = build_utrr_target(
        UTRR_GOLDEN_TRR, seed=GOLDEN_SEED, clock=clock, tracer=tracer
    )
    report = UtrrPipeline(dram, tracer=tracer).infer()
    tracer.close(metrics=dram.metrics.snapshot())
    return tracer, report


def emit_utrr_golden(path: str) -> int:
    """Stream the U-TRR golden trace to ``path``; returns events written."""
    tracer, _report = run_utrr_golden_scenario(tracer_path=path)
    return tracer.emitted
