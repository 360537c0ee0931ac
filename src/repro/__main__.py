"""Command-line front end: ``python -m repro <command>``.

Commands:

* ``demo``         — run the end-to-end cloud attack and print the outcome.
* ``mitigations``  — grade every §5 defense against the same attack.
* ``probability``  — the §4.3 analysis (analytic + Monte Carlo).
* ``serve``        — run a multi-tenant serving scenario through the
  deterministic QoS scheduler.
* ``sweep``        — run a declarative parameter sweep from a JSON spec.
* ``sweep-diff``   — compare two sweep result files canonically.
* ``fuzz``         — differential fuzz campaign / reproducer replay.
* ``faults``       — power-cut-mid-GC + recovery demo under fault injection.
* ``payload``      — compile / explain / run / diff / fuzz declarative
  attack-payload programs (the DSL under :mod:`repro.payload`).
* ``trace``        — summarize / validate / diff / export a structured trace.
* ``utrr``         — infer a TRR sampler's configuration from flips alone
  (U-TRR), optionally demoing the synthesized ``sync_refresh`` bypass.
* ``table1``       — re-measure Table 1's minimal flip rates.
* ``info``         — describe the default testbed.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import (
    AttackConfig,
    FtlRowhammerAttack,
    TABLE1_PROFILES,
    build_cloud_testbed,
    cumulative_success_probability,
    monte_carlo_success_rate,
    paper_example_parameters,
    single_cycle_success_probability,
)
from repro.units import format_duration, format_rate, format_size


def _check_testbed(testbed) -> int:
    """Run the invariant layer over a testbed; returns 0 if every layer
    holds (flip-corrupted L2P entries are exempted — they are the attack
    working, not a simulator bug)."""
    from repro.testkit.invariants import (
        InvariantViolation,
        check_dram,
        check_ftl,
        check_fs,
        flip_affected_lbas,
    )

    failures = 0
    checks = [
        ("dram", lambda: check_dram(testbed.dram)),
        (
            "ftl",
            lambda: check_ftl(
                testbed.ftl, exempt_lbas=flip_affected_lbas(testbed.ftl)
            ),
        ),
        ("ext4", lambda: check_fs(testbed.victim_fs)),
    ]
    for layer, run in checks:
        try:
            run()
        except InvariantViolation as violation:
            failures += 1
            print("check %-5s FAIL: %s" % (layer, violation))
        else:
            print("check %-5s ok" % layer)
    return 0 if failures == 0 else 3


def cmd_demo(args: argparse.Namespace) -> int:
    testbed = build_cloud_testbed(seed=args.seed, trace_path=args.trace)
    attack = FtlRowhammerAttack(
        testbed,
        AttackConfig(
            max_cycles=args.cycles,
            spray_files=args.spray_files,
            hammer_seconds=args.hammer_seconds,
        ),
    )
    result = attack.run()
    if testbed.tracer is not None:
        testbed.tracer.close(metrics=testbed.controller.stack_metrics())
        print("trace:             %d event(s) (%d dropped) -> %s"
              % (testbed.tracer.emitted, testbed.tracer.dropped, args.trace))
    print("cycles run:        %d" % len(result.cycles))
    print("ground-truth flips: %d" % testbed.flips_observed())
    print("scan hits:         %d" % result.total_hits)
    print("simulated time:    %s" % format_duration(result.duration))
    if result.success:
        print("RESULT: leak — the unprivileged tenant read foreign data")
        for leak in result.leaks:
            print("  %s (%s): %r..." % (leak.source_path, leak.category, leak.data[:24]))
        if args.check:
            return _check_testbed(testbed)
        return 0
    print("RESULT: no leak this run (probabilistic; raise --cycles)")
    if args.check:
        status = _check_testbed(testbed)
        if status:
            return status
    return 1


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.faults import FaultPlan
    from repro.testkit.fuzzer import replay_trace, run_campaign
    from repro.testkit.trace import Trace

    plan = FaultPlan.load(args.fault_plan) if args.fault_plan else None
    crash_rate = args.crash_rate
    if crash_rate is None:
        crash_rate = 0.03 if args.crash else 0.0

    if args.replay:
        with open(args.replay, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
        if "ops" in raw:
            trace = Trace.from_json(json.dumps(raw))
        elif raw.get("shrunk_reproducer"):
            # A full campaign report: replay its shrunk reproducer under
            # the fault plan the campaign recorded (unless overridden).
            trace = Trace.from_json(json.dumps(raw["shrunk_reproducer"]))
            if plan is None and raw.get("fault_plan"):
                plan = FaultPlan.from_dict(raw["fault_plan"])
        else:
            print("replay file is neither a trace nor a campaign report "
                  "with a shrunk reproducer: %s" % args.replay)
            return 2
        failed = False
        for mode in args.modes:
            found = replay_trace(
                trace,
                mode=mode,
                check_every=args.check_every or 1,
                fault_plan=plan,
            )
            print(
                "%-6s replay of %d op(s): %s"
                % (mode, len(trace), "ok" if not found else "%d divergence(s)" % len(found))
            )
            for divergence in found:
                print("  %s" % divergence)
            failed = failed or bool(found)
        return 1 if failed else 0

    report = run_campaign(
        seed=args.seed,
        num_ops=args.ops,
        num_lbas=args.lbas,
        layout=args.layout,
        profile=args.profile,
        modes=tuple(args.modes),
        check_every=args.check_every,
        crash_rate=crash_rate,
        write_buffer_pages=args.write_buffer,
        spare_blocks=args.spare_blocks,
        fault_plan=plan,
        trace_path_prefix=args.trace,
    )
    if args.trace:
        print("traces: %s" % ", ".join(
            "%s.%s.jsonl" % (args.trace, mode) for mode in args.modes))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
            handle.write("\n")
    if report.shrunk is not None and args.repro_out:
        with open(args.repro_out, "w", encoding="utf-8") as handle:
            handle.write(report.shrunk.to_json())
            handle.write("\n")
        print("shrunk reproducer written to %s" % args.repro_out)
    if args.json:
        print(report.to_json())
    else:
        print(report.summary())
    return 0 if report.ok else 1


def cmd_faults(args: argparse.Namespace) -> int:
    """Power-loss-mid-GC walkthrough: a scheduled fault cuts power right
    before the first victim erase (after GC has relocated the live pages),
    the device recovers from the OOB scan, and every acknowledged write is
    audited against what recovery rebuilt — while probabilistic read
    errors exercise the host retry path throughout."""
    from repro.errors import NvmeError, PowerLossInterrupt
    from repro.faults import FaultEvent, FaultPlan
    from repro.host.blockdev import BlockDevice
    from repro.testkit.fixtures import build_stack
    from repro.testkit.invariants import InvariantViolation
    from repro.testkit.trace import payload_for

    plan = FaultPlan(
        seed=args.seed,
        read_error_rate=args.read_error_rate,
        events=(FaultEvent(op="erase", index=0, kind="power_loss"),),
    )
    controller, dram, ftl = build_stack(
        seed=args.seed,
        write_buffer_pages=args.write_buffer,
        spare_blocks=args.spare_blocks,
        fault_plan=plan,
    )
    controller.create_namespace(1, 0, ftl.num_lbas)
    bdev = BlockDevice(controller, 1)

    print("fault plan: power cut before erase #0 (mid-GC), read errors "
          "at %.1f%%" % (plan.read_error_rate * 100))

    # -- act 1: write until the scheduled power cut lands ----------------
    history = {}  # lba -> [every acknowledged payload, oldest first]
    cut_at = None
    for round_index in range(8):
        for lba in range(ftl.num_lbas):
            data = payload_for(lba, (round_index * 31 + lba) % 251, ftl.page_bytes)
            try:
                bdev.write_block(lba, data)
            except PowerLossInterrupt:
                cut_at = (round_index, lba)
                break
            history.setdefault(lba, []).append(data)
        if cut_at is not None:
            break
    if cut_at is None:
        print("workload finished without tripping the scheduled power cut")
        return 2
    print("power cut mid-GC while writing LBA %d (round %d); %d write(s) "
          "acknowledged before the cut" % (cut_at[1], cut_at[0],
                                           sum(map(len, history.values()))))

    # -- act 2: crash, then recover from the OOB scan --------------------
    controller.crash()
    report = controller.recover()
    print("recovery: scanned %d pages -> %d live / %d stale; "
          "%d free, %d sealed, %d retired, %d spare block(s)%s"
          % (report.scanned_pages, report.live_pages, report.stale_pages,
             report.free_blocks, report.sealed_blocks, report.retired_blocks,
             report.spare_blocks,
             " [READ-ONLY]" if report.read_only else ""))

    # -- act 3: audit every acknowledged write ---------------------------
    survived = rolled_back = dropped = 0
    lost = []
    read_failures = 0
    for lba in sorted(history):
        data = None
        for _attempt in range(2):  # the host already retries internally
            try:
                data = bdev.read_block(lba)
                break
            except NvmeError:
                read_failures += 1
        generations = history[lba]
        if data is None:
            lost.append(lba)
        elif data == generations[-1]:
            survived += 1
        elif data in generations:
            rolled_back += 1  # an older acknowledged (flushed) generation
        elif data == b"\x00" * ftl.page_bytes:
            dropped += 1  # buffered, never flushed: reads as deallocated
        else:
            lost.append(lba)
    print("audit: %d/%d latest generation, %d rolled back to an older "
          "flushed generation, %d un-flushed buffered write(s) dropped"
          % (survived, len(history), rolled_back, dropped))
    if read_failures:
        print("  (%d read(s) failed even after host retries)" % read_failures)
    print("host retries spent on injected read errors: %d" % bdev.retries)
    injector = ftl.flash.injector
    if injector is not None:
        stats = injector.stats()
        print("faults injected: %s" % ", ".join(
            "%s=%d" % (kind, stats[kind]) for kind in sorted(stats) if kind != "total"
        ))

    # -- act 4: the invariant layer over the recovered stack -------------
    status = 0
    for layer, check in (("ftl", ftl.check), ("dram", dram.check)):
        try:
            check()
        except InvariantViolation as violation:
            status = 3
            print("check %-4s FAIL: %s" % (layer, violation))
        else:
            print("check %-4s ok" % layer)
    if lost:
        print("FAIL: %d acknowledged write(s) lost: %s" % (len(lost), lost[:16]))
        return 3
    print("no acknowledged flushed write was lost across the power cut")
    return status


def cmd_trace(args: argparse.Namespace) -> int:
    """Summarize, validate, diff, or export one structured JSONL trace."""
    from repro.trace import (
        conservation_errors,
        diff_summaries,
        emit_golden,
        emit_payload_golden,
        emit_utrr_golden,
        format_summary,
        load_trace,
        summarize,
        validate_events,
        write_chrome,
    )

    if args.emit_golden:
        count = emit_golden(args.emit_golden)
        print("golden trace: %d event(s) -> %s" % (count, args.emit_golden))
    if args.emit_payload_golden:
        count = emit_payload_golden(args.emit_payload_golden)
        print("payload golden trace: %d event(s) -> %s"
              % (count, args.emit_payload_golden))
    if args.emit_utrr_golden:
        count = emit_utrr_golden(args.emit_utrr_golden)
        print("utrr golden trace: %d event(s) -> %s"
              % (count, args.emit_utrr_golden))
    if args.file is None:
        if args.emit_golden or args.emit_payload_golden or args.emit_utrr_golden:
            return 0
        print("trace: need a trace file (or --emit-golden / "
              "--emit-payload-golden / --emit-utrr-golden PATH)")
        return 2
    events = load_trace(args.file)
    summary = summarize(events)

    status = 0
    if args.validate:
        problems = validate_events(events)
        for index, problem in problems:
            print("event %s: %s" % ("?" if index is None else index, problem))
        broken = conservation_errors(summary)
        for problem in broken:
            print("conservation: %s" % problem)
        if problems or broken:
            status = 1
        else:
            print("schema: %d event(s) ok; conservation holds" % summary["events"])

    if args.chrome:
        write_chrome(events, args.chrome)
        print("chrome trace -> %s (open in chrome://tracing or Perfetto)"
              % args.chrome)

    if args.diff:
        other = summarize(load_trace(args.diff))
        differences = diff_summaries(summary, other)
        if not differences:
            print("traces are equivalent (%d vs %d event(s))"
                  % (summary["events"], other["events"]))
        for line in differences:
            print(line)
        return 1 if differences else status

    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    elif not args.validate or status == 0:
        print(format_summary(summary))
    return status


#: The sync_refresh demo payload: the same double-sided loop either raw
#: (suppressed by TRR) or preceded by the inferred-sampler prelude.
_UTRR_DEMO_SOURCE = """\
name sync_demo
target dram

label hammer
sync_refresh
loop 256 {
    act @bank @left_row
    act @bank @right_row
}
"""


def cmd_utrr(args: argparse.Namespace) -> int:
    """Run the U-TRR inference pipeline against a configured sampler."""
    from repro.utrr import build_utrr_target, run_utrr

    trr_config = {
        "tracker_capacity": args.capacity,
        "refresh_threshold": args.threshold,
        "sampling_policy": args.policy,
        "per_bank": args.per_bank,
        "seed": args.seed,
    }
    report = run_utrr(
        trr_config,
        seed=args.seed,
        max_capacity=args.max_capacity,
        cycles=args.cycles,
        trace_path=args.trace,
    )
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
    recovered = report.matches(trr_config)
    if args.json:
        print(report.to_json(), end="")
    else:
        print("actual sampler:   capacity=%d policy=%s per_bank=%s"
              % (args.capacity, args.policy, args.per_bank))
        print("inferred sampler: capacity=%s policy=%s per_bank=%s"
              % (report.tracker_capacity, report.sampling_policy,
                 report.per_bank))
        print("probes=%d activations=%d flips_observed=%d"
              % (report.probes, report.activations, report.flips_observed))
        print("recovered: %s" % ("yes" if recovered else "NO"))

    if args.demo:
        from repro.dram.address import DramAddress
        from repro.payload import (
            compile_program,
            execute_payload,
            parse_program,
            resolve_program,
        )

        naive_src = _UTRR_DEMO_SOURCE.replace("sync_refresh\n", "").replace(
            "name sync_demo", "name naive"
        )
        bindings = {"bank": 0, "left_row": 99, "right_row": 101}

        def run_payload(source, sync_report=None):
            flips = 0
            for pattern in (b"\x00", b"\xff"):
                target = build_utrr_target(trr_config, seed=args.seed)
                addr = target.mapping.address_of(DramAddress(0, 100, 0))
                target.write(addr, pattern * target.geometry.row_bytes)
                program = resolve_program(
                    parse_program(source), bindings, sync_report=sync_report
                )
                flips += execute_payload(
                    compile_program(program), dram=target
                ).flip_count
            return flips

        naive_flips = run_payload(naive_src)
        sync_flips = run_payload(_UTRR_DEMO_SOURCE, sync_report=report)
        print("naive double-sided flips: %d" % naive_flips)
        print("refresh-synchronized flips: %d" % sync_flips)
        if naive_flips == 0 and sync_flips > 0:
            print("sync_refresh bypassed the inferred sampler")

    return 0 if recovered else 1


def _load_payload_program(path: str):
    """Load a payload program from DSL text or its JSON form (sniffed)."""
    import os

    from repro.payload import Program, parse_program

    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if text.lstrip().startswith("{"):
        return Program.from_json(text)
    default_name = os.path.splitext(os.path.basename(path))[0]
    return parse_program(text, default_name=default_name)


def _parse_bindings(pairs) -> dict:
    from repro.errors import ConfigError

    bindings = {}
    for pair in pairs or ():
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise ConfigError("--bind expects NAME=VALUE, got %r" % pair)
        try:
            bindings[name] = int(value)
        except ValueError:
            raise ConfigError("--bind %s: %r is not an integer" % (name, value))
    return bindings


def _payload_source(args):
    """The program named on the command line: a file or a --template."""
    from repro.errors import ConfigError
    from repro.payload import TEMPLATES, build_template

    if args.file is not None and args.template is not None:
        raise ConfigError("give a program file or --template, not both")
    if args.file is not None:
        return _load_payload_program(args.file)
    if args.template is not None:
        if args.template not in TEMPLATES:
            raise ConfigError(
                "unknown template %r (have: %s)"
                % (args.template, ", ".join(sorted(TEMPLATES)))
            )
        return build_template(
            args.template, pairs=args.pairs, repeats=args.repeats
        )
    raise ConfigError("payload: need a program file or --template KIND")


def cmd_payload_compile(args: argparse.Namespace) -> int:
    """Parse -> resolve -> compile; print the stream, never execute."""
    from repro.errors import ConfigError
    from repro.payload import PayloadError, compile_program, resolve_program

    try:
        program = _payload_source(args)
        bindings = _parse_bindings(args.bind)
        if bindings or program.placeholders():
            program = resolve_program(program, bindings)
        compiled = compile_program(program)
    except (PayloadError, ConfigError) as error:
        print("payload compile: %s" % error)
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(program.to_json())
            handle.write("\n")
    if args.bin:
        with open(args.bin, "wb") as handle:
            handle.write(compiled.to_bytes())
    print("payload %r (target=%s): %d instruction(s), %d byte(s)"
          % (compiled.name, compiled.target,
             len(compiled.instructions), len(compiled.to_bytes())))
    print("static totals: reads=%d acts=%d pres=%d refreshes=%d wait=%.9gs"
          % (compiled.total_reads, compiled.total_acts, compiled.total_pres,
             compiled.total_refreshes, compiled.total_wait_seconds))
    for line in compiled.disassemble().splitlines():
        print("  %s" % line)
    return 0


def cmd_payload_explain(args: argparse.Namespace) -> int:
    """Show a program's canonical text, placeholders, and compiled form."""
    from repro.errors import ConfigError
    from repro.payload import (
        PayloadError,
        compile_program,
        format_program,
        resolve_program,
    )

    try:
        program = _payload_source(args)
    except (PayloadError, ConfigError) as error:
        print("payload explain: %s" % error)
        return 2
    print(format_program(program), end="")
    placeholders = program.placeholders()
    if placeholders:
        print()
        print("placeholders: %s" % ", ".join("@" + p for p in placeholders))
        print("  (bind with --bind NAME=VALUE, or let 'payload run' resolve "
              "them by live L2P recon)")
    bindings = _parse_bindings(args.bind)
    try:
        resolved = resolve_program(program, bindings) if placeholders else program
        compiled = compile_program(resolved)
    except (PayloadError, ConfigError) as error:
        print()
        print("not compilable as-is: %s" % error)
        return 0
    print()
    print("compiles to %d instruction(s); static reads=%d acts=%d"
          % (len(compiled.instructions), compiled.total_reads,
             compiled.total_acts))
    for line in compiled.disassemble().splitlines():
        print("  %s" % line)
    return 0


def cmd_payload_run(args: argparse.Namespace) -> int:
    """Compile and execute one program on a fresh cloud testbed.

    ``stack`` programs run on the attacker VM; placeholders resolve by
    live L2P recon (overridable with --bind).  Byte-deterministic for a
    fixed seed: two runs print identical output and identical traces.
    """
    from repro.errors import ConfigError
    from repro.payload import PayloadError, run_payload

    try:
        program = _payload_source(args)
        testbed = build_cloud_testbed(seed=args.seed, trace_path=args.trace)
        _compiled, result = run_payload(
            program, testbed, _parse_bindings(args.bind), args.pairs
        )
    except (PayloadError, ConfigError) as error:
        print("payload run: %s" % error)
        return 2
    if testbed.tracer is not None:
        testbed.tracer.close(metrics=testbed.controller.stack_metrics())
    if args.json:
        print(
            json.dumps(
                {
                    "program": result.program,
                    "target": result.target,
                    "reads": result.reads,
                    "acts": result.acts,
                    "bursts": result.bursts,
                    "interpreted": result.interpreted,
                    "duration": result.duration,
                    "flips": [
                        {"bank": flip.bank, "row": flip.row,
                         "byte": flip.byte_offset, "bit": flip.bit,
                         "to": flip.flips_to}
                        for flip in result.flips
                    ],
                    "flip_count": result.flip_count,
                    "seed": args.seed,
                },
                sort_keys=True,
                indent=2,
            )
        )
        return 0
    print("payload %r (target=%s, seed=%d)"
          % (result.program, result.target, args.seed))
    print("  reads=%d acts=%d bursts=%d interpreted=%d"
          % (result.reads, result.acts, result.bursts, result.interpreted))
    print("  simulated time: %s" % format_duration(result.duration))
    print("  bit flips: %d" % result.flip_count)
    for flip in result.flips[:8]:
        print("    bank %d row %d byte %d bit %d -> %d"
              % (flip.bank, flip.row, flip.byte_offset, flip.bit,
                 flip.flips_to))
    if result.flip_count > 8:
        print("    ... %d more" % (result.flip_count - 8))
    if args.trace:
        print("  trace -> %s" % args.trace)
    return 0


def cmd_payload_diff(args: argparse.Namespace) -> int:
    """The DSL-vs-hand-coded equivalence gate (CI runs this).

    For every pattern shape, execute the hand-coded :class:`HammerPlan`
    on one fresh traced testbed and its compiled-DSL twin
    (:func:`program_from_plan`) on another, then require byte-identical
    flips, clocks, and trace files.  Exit 1 on any divergence.
    """
    import os
    import tempfile

    from repro.attack.hammer import (
        double_sided_plan,
        many_sided_plan,
        one_location_plan,
        single_sided_plan,
    )
    from repro.attack.profile import DeviceProfile
    from repro.attack.recon import find_cross_partition_triples
    from repro.payload import compile_program, execute_payload, program_from_plan

    def fresh(trace_path):
        testbed = build_cloud_testbed(seed=args.seed, trace_path=trace_path)
        profile = DeviceProfile.from_device(testbed.controller)
        triples = [
            t
            for t in find_cross_partition_triples(
                profile, testbed.attacker_ns, testbed.victim_ns
            )
            if t.left_lbas and t.right_lbas
        ]
        if len(triples) < 2:
            raise RuntimeError(
                "recon found %d usable triple(s); need 2" % len(triples)
            )
        return testbed, triples

    def plan_for(shape, testbed, triples):
        ns = testbed.attacker_ns
        if shape == "double_sided":
            return double_sided_plan(triples[0], ns)
        if shape == "single_sided":
            return single_sided_plan(triples[0], ns)
        if shape == "many_sided":
            return many_sided_plan(triples[: max(2, args.pairs)], ns)
        return one_location_plan(triples[0].aggressor_pair[0], ns)

    def finish(testbed):
        testbed.tracer.close(metrics=testbed.controller.stack_metrics())

    failures = 0
    for shape in ("double_sided", "single_sided", "many_sided", "one_location"):
        with tempfile.TemporaryDirectory() as tmp:
            hand_path = os.path.join(tmp, "hand.jsonl")
            dsl_path = os.path.join(tmp, "dsl.jsonl")

            hand_tb, hand_triples = fresh(hand_path)
            plan = plan_for(shape, hand_tb, hand_triples)
            plan.execute(hand_tb.attacker_vm, args.ios)
            finish(hand_tb)
            hand_flips = tuple(hand_tb.dram.flips)
            hand_clock = hand_tb.dram.clock.now

            dsl_tb, dsl_triples = fresh(dsl_path)
            twin = program_from_plan(plan_for(shape, dsl_tb, dsl_triples),
                                     args.ios)
            compiled = compile_program(twin)
            execute_payload(compiled, vm=dsl_tb.attacker_vm,
                            trace_payload=False)
            finish(dsl_tb)
            dsl_flips = tuple(dsl_tb.dram.flips)
            dsl_clock = dsl_tb.dram.clock.now

            with open(hand_path, "rb") as handle:
                hand_bytes = handle.read()
            with open(dsl_path, "rb") as handle:
                dsl_bytes = handle.read()

        problems = []
        if hand_flips != dsl_flips:
            problems.append("flips differ (%d vs %d)"
                            % (len(hand_flips), len(dsl_flips)))
        if hand_clock != dsl_clock:
            problems.append("clock differs (%.9g vs %.9g)"
                            % (hand_clock, dsl_clock))
        if hand_bytes != dsl_bytes:
            problems.append("trace bytes differ (%d vs %d byte(s))"
                            % (len(hand_bytes), len(dsl_bytes)))
        if problems:
            failures += 1
            print("%-14s DIVERGED: %s" % (shape, "; ".join(problems)))
        else:
            print("%-14s equivalent: %d flip(s), %d trace byte(s) identical"
                  % (shape, len(hand_flips), len(hand_bytes)))
    if failures:
        print("payload diff: %d shape(s) diverged" % failures)
        return 1
    print("payload diff: 4/4 shapes byte-identical (hand-coded == compiled DSL)")
    return 0


def cmd_payload_fuzz(args: argparse.Namespace) -> int:
    """Grammar-based payload fuzz campaign (mutation + ddmin shrink)."""
    from repro.testkit.payload_fuzz import run_payload_campaign

    report = run_payload_campaign(
        seed=args.seed,
        num_programs=args.programs,
        mutations_per_program=args.mutations,
        target=args.target,
        profile=args.profile,
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
            handle.write("\n")
    if args.repro_out and report.shrunk is not None:
        with open(args.repro_out, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(report.shrunk, sort_keys=True, indent=2))
            handle.write("\n")
        print("shrunk payload reproducer written to %s" % args.repro_out)
    if args.json:
        print(report.to_json())
    else:
        print(report.summary())
    return 0 if report.ok else 1


def cmd_mitigations(args: argparse.Namespace) -> int:
    from repro.mitigations import evaluate_all_mitigations

    rows = evaluate_all_mitigations(
        seed=args.seed,
        attack_config=AttackConfig(
            max_cycles=args.cycles, spray_files=args.spray_files, hammer_seconds=60
        ),
        workers=args.workers,
    )
    if args.json:
        print(json.dumps([row.to_dict() for row in rows], sort_keys=True, indent=2))
        return 0
    print("%-34s %6s %5s %7s %8s" % ("mitigation", "flips", "hits", "p-text", "verdict"))
    for row in rows:
        print(
            "%-34s %6d %5d %7d %8s"
            % (
                row.name,
                row.flips,
                row.hits,
                row.plaintext_leaks,
                "HOLDS" if row.mitigated else "LEAKS",
            )
        )
    return 0


def cmd_probability(args: argparse.Namespace) -> int:
    from repro.attack.probability import monte_carlo_study

    params = paper_example_parameters()
    analytic = single_cycle_success_probability(params)
    if args.workers > 0:
        simulated = monte_carlo_study(
            params, trials=args.trials, seed=args.seed, workers=args.workers
        )
    else:
        simulated = monte_carlo_success_rate(params, trials=args.trials, seed=args.seed)
    cumulative = cumulative_success_probability(analytic, 10)
    if args.json:
        print(
            json.dumps(
                {
                    "analytic": analytic,
                    "monte_carlo": simulated,
                    "trials": args.trials,
                    "seed": args.seed,
                    "cumulative_10_cycles": cumulative,
                },
                sort_keys=True,
                indent=2,
            )
        )
        return 0
    print("single-cycle success (analytic):    %.4f" % analytic)
    print("single-cycle success (monte-carlo): %.4f" % simulated)
    print("cumulative after 10 cycles:         %.4f" % cumulative)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run one multi-tenant serving scenario and report per-tenant QoS."""
    from repro.serve import ServeScenario, run_scenario

    scenario = ServeScenario.load(args.scenario)
    if args.inject:
        from repro.faults import FaultPlan

        scenario.faults = FaultPlan.load(args.inject)
    report = run_scenario(scenario, trace_path=args.trace)
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(report.exposition())
    if args.json:
        sys.stdout.write(report.to_json() + "\n")
        return 0
    print(
        "scenario %r: %d tenants, %d commands in %s simulated"
        % (
            report.scenario,
            len(report.tenants),
            sum(t["commands"] for t in report.tenants),
            format_duration(report.duration),
        )
    )
    print(
        "%-12s %-15s %8s %10s %10s %10s %10s %5s %5s"
        % ("tenant", "kind", "cmds", "iops", "p50", "p95", "p99", "bp", "thr")
    )
    for tenant in report.tenants:
        print(
            "%-12s %-15s %8d %10s %10s %10s %10s %5d %5d"
            % (
                tenant["name"],
                tenant["kind"],
                tenant["commands"],
                format_rate(tenant["iops"]),
                format_duration(tenant["p50"]),
                format_duration(tenant["p95"]),
                format_duration(tenant["p99"]),
                tenant["backpressure"],
                tenant["throttled"],
            )
        )
    if report.attacker is not None:
        verdict = "BELOW" if report.attacker["below_threshold"] else "ABOVE"
        print(
            "attacker activation rate %s — %s hammer threshold %s; %d flips"
            % (
                format_rate(report.attacker["activation_rate"]),
                verdict,
                format_rate(report.attacker["hammer_threshold"]),
                report.flips,
            )
        )
    res = report.resilience
    redirected = res["durability"]["hammer_redirected"]
    if redirected:
        print(
            "durability audit: %d acked LBA(s) redirected off the flash "
            "array by flips (counted apart from lost writes)" % redirected
        )
    if (
        res["retries"] or res["timeouts"] or res["hedges"]
        or res["power_cuts"] or res["parked_writes"] or res["dropped_ops"]
    ):
        print(
            "resilience: %d retries, %d timeouts, %d hedges (%d won), "
            "%d power cuts (%s gap), %d/%d acked writes lost"
            % (
                res["retries"],
                res["timeouts"],
                res["hedges"],
                res["hedge_wins"],
                res["power_cuts"],
                format_duration(res["availability_gap_s"]),
                res["durability"]["lost"],
                res["durability"]["acked_writes"],
            )
        )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.engine import EngineConfig, SweepEngine, SweepSpec

    spec = SweepSpec.load(args.spec)
    store_path = args.out
    if store_path is None:
        base = args.spec[:-5] if args.spec.endswith(".json") else args.spec
        store_path = base + ".results.jsonl"
    engine = SweepEngine(
        spec,
        store_path=store_path,
        config=EngineConfig(
            workers=args.workers,
            timeout=args.timeout,
            retries=args.retries,
            trace_dir=args.trace_dir,
            columnar=args.columnar,
            check=args.check,
        ),
        fresh=args.fresh,
    )
    report = engine.run()
    if args.summary:
        with open(args.summary, "w", encoding="utf-8") as handle:
            handle.write(report.summary_json())
    if args.json:
        sys.stdout.write(report.summary_json())
        return 0 if report.ok else 1
    totals = report.summary["totals"]
    print("sweep %r (%s): %d trials — %d ok, %d failed, %d resumed from %s"
          % (spec.name, spec.kind, totals["trials"], totals["ok"],
             totals["failed"], report.skipped, store_path))
    if report.degraded_to_serial:
        print("note: worker pool unavailable; degraded to serial execution")
    for point in report.summary["points"]:
        label = ", ".join("%s=%r" % kv for kv in sorted(point["params"].items()))
        print("  point %d (%s): %d trials" % (point["point_index"], label or "-",
                                              point["trials"]))
        for name, stats in point["metrics"].items():
            print("    %-24s mean=%.6g min=%.6g max=%.6g"
                  % (name, stats["mean"], stats["min"], stats["max"]))
    for trial_id in report.failed_trials:
        print("  FAILED trial %s" % trial_id)
    return 0 if report.ok else 1


def cmd_sweep_diff(args: argparse.Namespace) -> int:
    """Canonically compare two sweep result files (the differential gate
    CI runs between serial and columnar executions)."""
    from repro.engine import diff_result_files

    diffs = diff_result_files(args.file_a, args.file_b)
    if not diffs:
        print("sweep results identical: %s == %s (canonical form, "
              "elapsed excluded)" % (args.file_a, args.file_b))
        return 0
    for line in diffs:
        print(line)
    print("%d difference(s) between %s and %s"
          % (len(diffs), args.file_a, args.file_b))
    return 1


def cmd_table1(args: argparse.Namespace) -> int:
    # Deferred import: the measurement helper lives with the benchmarks.
    from repro.dram import DramGeometry, DramModule, VulnerabilityModel
    from repro.dram.address import DramAddress
    from repro.sim import SimClock

    geometry = DramGeometry.small(rows_per_bank=256, row_bytes=1024)

    def flips_at(profile, rate):
        clock = SimClock()
        dram = DramModule(
            geometry, VulnerabilityModel(profile, geometry, seed=args.seed), clock
        )
        for row in range(0, 64):
            dram.write(dram.mapping.address_of(DramAddress(0, row, 0)), b"\x00" * 1024)
        for victim in range(1, 63, 2):
            result = dram.hammer(
                [(0, victim - 1), (0, victim + 1)],
                total_accesses=int(rate * dram.refresh_interval * 4),
                access_rate=rate,
            )
            if result.flip_count:
                return True
        return False

    print("%-18s %12s %12s" % ("profile", "paper", "measured"))
    for name, profile in TABLE1_PROFILES.items():
        low, high = profile.min_rate_per_sec * 0.2, profile.min_rate_per_sec * 8
        if not flips_at(profile, high):
            print("%-18s %12s %12s" % (name, format_rate(profile.min_rate_per_sec), "-"))
            continue
        while (high - low) / high > 0.02:
            mid = (low + high) / 2
            if flips_at(profile, mid):
                high = mid
            else:
                low = mid
        print(
            "%-18s %12s %12s"
            % (name, format_rate(profile.min_rate_per_sec), format_rate(high))
        )
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    testbed = build_cloud_testbed(seed=args.seed)
    geometry = testbed.dram.geometry
    print("SSD capacity:      %s (%d logical pages)"
          % (format_size(testbed.ftl.num_lbas * testbed.ftl.page_bytes), testbed.ftl.num_lbas))
    print("L2P table:         %s in DRAM" % format_size(testbed.ftl.l2p.table_bytes))
    print("DRAM geometry:     %d banks x %d rows x %s"
          % (geometry.total_banks, geometry.rows_per_bank, format_size(geometry.row_bytes)))
    print("DRAM profile:      %s (flips at %s)"
          % (testbed.dram.vulnerability.profile.name,
             format_rate(testbed.dram.vulnerability.profile.min_rate_per_sec)))
    print("victim namespace:  %d blocks (ext4, secrets planted)"
          % testbed.victim_ns.num_lbas)
    print("attacker namespace:%d blocks (raw access)" % testbed.attacker_ns.num_lbas)
    print("amplification:     x%d hammers per I/O"
          % testbed.controller.timing.hammer_amplification)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Rowhammering Storage Devices' (HotStorage '21)",
    )
    parser.add_argument("--seed", type=int, default=7, help="deterministic seed")
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run the end-to-end cloud attack")
    demo.add_argument("--cycles", type=int, default=10)
    demo.add_argument("--spray-files", type=int, default=64)
    demo.add_argument("--hammer-seconds", type=float, default=120.0)
    demo.add_argument("--check", action="store_true",
                      help="run the invariant layer over the final stack "
                           "state (exit 3 on violation)")
    demo.add_argument("--trace", default=None, metavar="TRACE_JSONL",
                      help="stream a structured cross-layer trace here "
                           "(inspect with 'python -m repro trace')")
    demo.set_defaults(func=cmd_demo)

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzz campaign (real stack vs reference models)",
    )
    fuzz.add_argument("--ops", type=int, default=500,
                      help="operations per generated trace")
    fuzz.add_argument("--lbas", type=int, default=192,
                      help="logical space size (192 keeps flash tight so GC "
                           "fires; larger spans more DRAM rows)")
    fuzz.add_argument("--layout", choices=["linear", "hashed"], default="linear")
    fuzz.add_argument("--profile", choices=["granite", "fragile"],
                      default="granite",
                      help="granite never flips (exact agreement); fragile "
                           "flips eagerly (agreement modulo flips)")
    fuzz.add_argument("--modes", nargs="+", choices=["scalar", "batch"],
                      default=["scalar", "batch"],
                      help="replay modes to run and cross-compare")
    fuzz.add_argument("--check-every", type=int, default=50,
                      help="full invariant checkpoint period in ops")
    fuzz.add_argument("--out", default=None,
                      help="write the campaign report JSON here")
    fuzz.add_argument("--repro-out", default=None,
                      help="write the shrunk reproducer trace here on "
                           "divergence")
    fuzz.add_argument("--replay", default=None, metavar="TRACE_JSON",
                      help="replay a saved reproducer instead of generating")
    fuzz.add_argument("--json", action="store_true",
                      help="print the full report as JSON")
    fuzz.add_argument("--crash", action="store_true",
                      help="mix power-cycle ops into the trace (shorthand "
                           "for --crash-rate 0.03)")
    fuzz.add_argument("--crash-rate", type=float, default=None,
                      help="per-op probability of a crash op in the trace")
    fuzz.add_argument("--write-buffer", type=int, default=0, metavar="PAGES",
                      help="DRAM write-buffer pages (0 = write-through)")
    fuzz.add_argument("--spare-blocks", type=int, default=0,
                      help="spare blocks backing grown-bad retirement")
    fuzz.add_argument("--fault-plan", default=None, metavar="PLAN_JSON",
                      help="FaultPlan JSON to inject NAND faults from")
    fuzz.add_argument("--trace", default=None, metavar="PREFIX",
                      help="stream one structured trace per replay mode to "
                           "PREFIX.<mode>.jsonl (report stays byte-identical)")
    fuzz.set_defaults(func=cmd_fuzz)

    faults = sub.add_parser(
        "faults",
        help="power-cut-mid-GC + recovery walkthrough under fault injection",
    )
    faults.add_argument("--write-buffer", type=int, default=4, metavar="PAGES",
                        help="DRAM write-buffer pages (0 = write-through)")
    faults.add_argument("--spare-blocks", type=int, default=2,
                        help="spare blocks backing grown-bad retirement")
    faults.add_argument("--read-error-rate", type=float, default=0.02,
                        help="probability a page read fails (exercises the "
                             "host retry path)")
    faults.set_defaults(func=cmd_faults)

    mitigations = sub.add_parser("mitigations", help="grade the §5 defenses")
    mitigations.add_argument("--cycles", type=int, default=6)
    mitigations.add_argument("--spray-files", type=int, default=64)
    mitigations.add_argument("--workers", type=int, default=0,
                             help="worker processes (0 = serial)")
    mitigations.add_argument("--json", action="store_true",
                             help="machine-readable output")
    mitigations.set_defaults(func=cmd_mitigations)

    probability = sub.add_parser("probability", help="the §4.3 analysis")
    probability.add_argument("--trials", type=int, default=500_000)
    probability.add_argument("--workers", type=int, default=0,
                             help="shard the Monte Carlo over N workers")
    probability.add_argument("--json", action="store_true",
                             help="machine-readable output")
    probability.set_defaults(func=cmd_probability)

    sweep = sub.add_parser(
        "sweep", help="run a declarative parameter sweep from a JSON spec"
    )
    sweep.add_argument("spec", help="path to the SweepSpec JSON file")
    sweep.add_argument("--workers", type=int, default=0,
                       help="worker processes (0 = serial in-process)")
    sweep.add_argument("--out", default=None,
                       help="JSONL checkpoint/result path "
                            "(default: <spec>.results.jsonl)")
    sweep.add_argument("--summary", default=None,
                       help="also write the aggregated summary JSON here")
    sweep.add_argument("--timeout", type=float, default=None,
                       help="per-trial timeout in seconds (pool mode)")
    sweep.add_argument("--retries", type=int, default=0,
                       help="retries per failed/timed-out trial")
    sweep.add_argument("--fresh", action="store_true",
                       help="ignore an existing checkpoint and restart")
    sweep.add_argument("--json", action="store_true",
                       help="print the aggregated summary as JSON")
    sweep.add_argument("--columnar", action="store_true",
                       help="batch compatible trials through the columnar "
                            "executor (records identical to serial)")
    sweep.add_argument("--check", action="store_true",
                       help="replay every executed trial through the scalar "
                            "path and fail on any result mismatch")
    sweep.add_argument("--trace-dir", default=None, metavar="DIR",
                       help="per-trial structured traces land here "
                            "(trace-capable kinds; summary stays identical)")
    sweep.set_defaults(func=cmd_sweep)

    sweep_diff = sub.add_parser(
        "sweep-diff",
        help="compare two sweep result files canonically (elapsed excluded)",
    )
    sweep_diff.add_argument("file_a", help="first result JSONL file")
    sweep_diff.add_argument("file_b", help="second result JSONL file")
    sweep_diff.set_defaults(func=cmd_sweep_diff)

    payload = sub.add_parser(
        "payload",
        help="compile / explain / run / diff / fuzz declarative attack "
             "payload programs",
    )
    payload_sub = payload.add_subparsers(dest="payload_command", required=True)

    def _program_source_args(sub_parser):
        sub_parser.add_argument("file", nargs="?", default=None,
                                help="payload program: DSL text or its JSON "
                                     "form (sniffed)")
        sub_parser.add_argument("--template", default=None, metavar="KIND",
                                help="use a built-in pattern template instead "
                                     "of a file (double_sided, single_sided, "
                                     "many_sided, one_location)")
        sub_parser.add_argument("--pairs", type=int, default=2,
                                help="aggressor pairs for the many_sided "
                                     "template")
        sub_parser.add_argument("--repeats", type=int, default=120_000,
                                help="loop count for template programs")
        sub_parser.add_argument("--bind", action="append", metavar="NAME=LBA",
                                help="bind a @placeholder (repeatable)")

    payload_compile = payload_sub.add_parser(
        "compile", help="parse + resolve + compile; print the encoded stream"
    )
    _program_source_args(payload_compile)
    payload_compile.add_argument("--out", default=None, metavar="PROGRAM_JSON",
                                 help="write the resolved program JSON here")
    payload_compile.add_argument("--bin", default=None, metavar="STREAM_BIN",
                                 help="write the encoded 64-bit command "
                                      "stream here")
    payload_compile.set_defaults(func=cmd_payload_compile)

    payload_explain = payload_sub.add_parser(
        "explain", help="show canonical text, placeholders, compiled form"
    )
    _program_source_args(payload_explain)
    payload_explain.set_defaults(func=cmd_payload_explain)

    payload_run = payload_sub.add_parser(
        "run",
        help="execute a program on a fresh cloud testbed (placeholders "
             "resolve by live L2P recon)",
    )
    _program_source_args(payload_run)
    payload_run.add_argument("--trace", default=None, metavar="TRACE_JSONL",
                             help="stream a structured trace of the run here")
    payload_run.add_argument("--json", action="store_true",
                             help="machine-readable output")
    payload_run.set_defaults(func=cmd_payload_run)

    payload_diff = payload_sub.add_parser(
        "diff",
        help="equivalence gate: hand-coded plans vs compiled DSL twins "
             "must match byte-for-byte (exit 1 on divergence)",
    )
    payload_diff.add_argument("--ios", type=int, default=240_000,
                              help="I/O budget per pattern")
    payload_diff.add_argument("--pairs", type=int, default=2,
                              help="aggressor pairs for the many-sided shape")
    payload_diff.set_defaults(func=cmd_payload_diff)

    payload_fuzz = payload_sub.add_parser(
        "fuzz", help="grammar-based payload fuzz campaign with ddmin shrink"
    )
    payload_fuzz.add_argument("--programs", type=int, default=20,
                              help="base programs to generate")
    payload_fuzz.add_argument("--mutations", type=int, default=2,
                              help="mutants per base program")
    payload_fuzz.add_argument("--target", choices=["stack", "dram"],
                              default="stack")
    payload_fuzz.add_argument("--profile", choices=["granite", "fragile"],
                              default="fragile")
    payload_fuzz.add_argument("--out", default=None,
                              help="write the campaign report JSON here")
    payload_fuzz.add_argument("--repro-out", default=None,
                              help="write the shrunk reproducer program JSON "
                                   "here on failure")
    payload_fuzz.add_argument("--json", action="store_true",
                              help="print the full report as JSON")
    payload_fuzz.set_defaults(func=cmd_payload_fuzz)

    trace = sub.add_parser(
        "trace",
        help="summarize / validate / diff / export a structured JSONL trace",
    )
    trace.add_argument("file", nargs="?", default=None,
                       help="trace JSONL file (from --trace / --trace-dir)")
    trace.add_argument("--json", action="store_true",
                       help="print the summary as JSON instead of text")
    trace.add_argument("--validate", action="store_true",
                       help="schema-check every event and verify activation "
                            "conservation (exit 1 on any problem)")
    trace.add_argument("--diff", default=None, metavar="OTHER_JSONL",
                       help="compare against another trace (exit 1 if they "
                            "differ)")
    trace.add_argument("--chrome", default=None, metavar="OUT_JSON",
                       help="export Chrome trace_event JSON for "
                            "chrome://tracing / Perfetto")
    trace.add_argument("--emit-golden", default=None, metavar="OUT_JSONL",
                       help="regenerate the golden double-sided-hammer "
                            "fixture trace to OUT_JSONL")
    trace.add_argument("--emit-payload-golden", default=None,
                       metavar="OUT_JSONL",
                       help="regenerate the golden compiled-payload fixture "
                            "trace to OUT_JSONL")
    trace.add_argument("--emit-utrr-golden", default=None,
                       metavar="OUT_JSONL",
                       help="regenerate the golden U-TRR inference fixture "
                            "trace to OUT_JSONL")
    trace.set_defaults(func=cmd_trace)

    utrr = sub.add_parser(
        "utrr",
        help="reverse-engineer a TRR sampler configuration from bitflips "
             "(U-TRR-style probe battery)",
    )
    utrr.add_argument("--capacity", type=int, default=4,
                      help="tracker capacity of the simulated sampler "
                           "(default 4)")
    utrr.add_argument("--threshold", type=int, default=24,
                      help="refresh threshold of the simulated sampler "
                           "(default 24)")
    utrr.add_argument("--policy", default="counter_lru",
                      choices=["counter_lru", "random_sample",
                               "first_k_per_window"],
                      help="sampling policy of the simulated sampler")
    scope = utrr.add_mutually_exclusive_group()
    scope.add_argument("--per-bank", dest="per_bank", action="store_true",
                       default=True,
                       help="per-bank trackers (default)")
    scope.add_argument("--shared", dest="per_bank", action="store_false",
                       help="one tracker shared across banks")
    utrr.add_argument("--seed", type=int, default=0,
                      help="vulnerability-model / sampler seed (default 0)")
    utrr.add_argument("--max-capacity", type=int, default=12,
                      help="largest tracker capacity the onset scan probes "
                           "(default 12)")
    utrr.add_argument("--cycles", type=int, default=512,
                      help="hammer cycles per probe (default 512)")
    utrr.add_argument("--report", default=None, metavar="OUT_JSON",
                      help="write the canonical inference report JSON here")
    utrr.add_argument("--trace", default=None, metavar="TRACE_JSONL",
                      help="stream a structured trace of the probes here")
    utrr.add_argument("--json", action="store_true",
                      help="print the report as JSON instead of text")
    utrr.add_argument("--demo", action="store_true",
                      help="after inference, run the naive vs "
                           "refresh-synchronized payload comparison")
    utrr.set_defaults(func=cmd_utrr)

    serve = sub.add_parser(
        "serve",
        help="run a multi-tenant serving scenario (JSON) through the "
             "deterministic QoS scheduler",
    )
    serve.add_argument("scenario", help="path to a ServeScenario JSON file")
    serve.add_argument("--trace", default=None, metavar="TRACE_JSONL",
                       help="stream a structured trace of the run here")
    serve.add_argument("--metrics-out", default=None, metavar="PROM_TXT",
                       help="write the Prometheus metrics exposition here")
    serve.add_argument("--json", action="store_true",
                       help="print the full report as JSON instead of text")
    serve.add_argument("--inject", default=None, metavar="FAULTPLAN_JSON",
                       help="inject a FaultPlan JSON into the run, replacing "
                            "any 'faults' section in the scenario")
    serve.set_defaults(func=cmd_serve)

    table1 = sub.add_parser("table1", help="re-measure Table 1")
    table1.set_defaults(func=cmd_table1)

    info = sub.add_parser("info", help="describe the default testbed")
    info.set_defaults(func=cmd_info)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
