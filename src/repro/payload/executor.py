"""Stage 4: run a compiled payload against the simulator.

Two targets:

* ``stack`` — the instruction stream drives a RAW-access
  :class:`~repro.host.vm.Vm`; every ``read`` is an NVMe command whose L2P
  lookup activates DRAM rows, exactly the paper's attack channel.
* ``dram`` — the stream drives a :class:`~repro.dram.module.DramModule`
  directly with activations; the clock only moves on ``wait``/``refresh``
  steps (the caller owns time, as :meth:`DramModule.access_batch`
  specifies).

**The coalescing rule is the heart of the equivalence guarantee.**  A
loop whose body is nothing but ``read`` steps executes as ONE
``vm.hammer_reads(lbas, repeats=count)`` burst — the *identical* call a
hand-coded :class:`~repro.attack.hammer.HammerPlan` makes — so the
compiled twin of a hand-coded plan reproduces its flips, clock, metrics,
and trace JSONL byte-for-byte.  Likewise an all-``act`` loop collapses
into one activation histogram for :meth:`DramModule.access_batch`.
Anything that cannot coalesce is interpreted step by step under an
explicit budget, so a mis-structured program fails fast with advice
instead of grinding through millions of scalar commands.

``payload.*`` trace events are **opt-in** (``trace_payload``): with the
flag off the executor adds zero events of its own, which is what lets the
differential harness ``cmp`` compiled-vs-hand-coded traces byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.dram.module import FlipEvent
from repro.payload.compiler import CompiledPayload, Instr, OpCode, compile_program
from repro.payload.program import PayloadError, Program
from repro.payload.resolver import recon_bindings, resolve_program

#: Interpreted-step ceiling: beyond this the program is structured wrong
#: (its hot loop failed to coalesce) and scalar execution would take
#: effectively forever at paper-scale counts.
DEFAULT_INTERPRET_BUDGET = 100_000


class ExecutionError(PayloadError):
    """A payload that cannot run (wrong target plumbing, budget blown)."""


@dataclass
class ExecutionResult:
    """What one payload run did to the device."""

    program: str
    target: str
    #: Read commands actually issued (stack target).
    reads: int = 0
    #: Row activations actually applied (dram target).
    acts: int = 0
    #: Coalesced bursts/batches issued.
    bursts: int = 0
    #: Interpreted (non-coalesced) instructions executed.
    interpreted: int = 0
    #: Simulated seconds the run took.
    duration: float = 0.0
    #: Flip events newly caused by this run, in time order.
    flips: List[FlipEvent] = field(default_factory=list)

    @property
    def flip_count(self) -> int:
        return len(self.flips)


class _Budget:
    __slots__ = ("remaining",)

    def __init__(self, limit: int) -> None:
        self.remaining = limit

    def spend(self, amount: int = 1) -> None:
        self.remaining -= amount
        if self.remaining < 0:
            raise ExecutionError(
                "interpreted-step budget exhausted — the hot loop is not "
                "coalescing into a burst; make the innermost loop body "
                "all-'read' (stack) or all-'act' (dram) steps, or raise "
                "interpret_budget if scalar execution is intended"
            )


def execute_payload(
    compiled: CompiledPayload,
    vm=None,
    dram=None,
    trace_payload: bool = True,
    interpret_budget: int = DEFAULT_INTERPRET_BUDGET,
) -> ExecutionResult:
    """Run a :class:`CompiledPayload`; returns an :class:`ExecutionResult`.

    ``stack`` programs need ``vm`` (a RAW-access tenant); ``dram``
    programs need ``dram``.  ``trace_payload=False`` suppresses every
    ``payload.*`` event so the run's trace is indistinguishable from the
    equivalent hand-coded one.
    """
    if compiled.target == "stack":
        if vm is None:
            raise ExecutionError(
                "'stack' payloads need vm= (a RAW-access tenant); got None"
            )
        module = vm.blockdev.controller.ftl.memory.dram
    elif compiled.target == "dram":
        if dram is None:
            raise ExecutionError("'dram' payloads need dram=; got None")
        module = dram
    else:
        raise ExecutionError("unknown target %r" % compiled.target)

    clock = module.clock
    tracer = module.tracer if trace_payload else None
    result = ExecutionResult(program=compiled.name, target=compiled.target)
    budget = _Budget(interpret_budget)
    flips_before = len(module.flips)
    start_time = clock.now

    runner = _Runner(compiled, vm, module, clock, tracer, result, budget)
    runner.run_range(0, len(compiled.instructions), in_loop=False)

    result.duration = clock.now - start_time
    result.flips = module.flips[flips_before:]
    if tracer is not None:
        tracer.emit_at(
            "payload.run",
            start_time,
            program=compiled.name,
            target=compiled.target,
            reads=result.reads,
            acts=result.acts,
            bursts=result.bursts,
            flips=len(result.flips),
            dur=result.duration,
        )
    return result


def run_payload(
    program: Program,
    testbed,
    bindings: Mapping[str, int],
    pairs: int,
) -> Tuple[CompiledPayload, ExecutionResult]:
    """Resolve, compile and execute ``program`` on a cloud testbed.

    The single run path behind both ``payload run`` and the ``payload``
    sweep trial kind.  A ``stack`` program with placeholders that
    ``bindings`` does not cover first resolves them by live L2P recon
    across the testbed's attacker/victim partition boundary (``pairs``
    sizes the recon table); explicit ``bindings`` win over recon.  The
    compiled program runs on the attacker VM (``stack``) or straight on
    the testbed's DRAM module (``dram``).
    """
    table: Dict[str, int] = dict(bindings)
    if program.target == "stack" and program.placeholders() - set(table):
        table = recon_bindings(
            testbed.controller,
            testbed.attacker_ns.nsid,
            victim_nsid=testbed.victim_ns.nsid,
            limit=max(pairs, 8),
        )
        table.update(bindings)
    compiled = compile_program(resolve_program(program, table))
    if compiled.target == "dram":
        result = execute_payload(compiled, dram=testbed.dram)
    else:
        result = execute_payload(compiled, vm=testbed.attacker_vm)
    return compiled, result


class _Runner:
    """Interpreter over the flat stream, with the burst fast path."""

    def __init__(self, compiled, vm, module, clock, tracer, result, budget):
        self.compiled = compiled
        self.vm = vm
        self.module = module
        self.clock = clock
        self.tracer = tracer
        self.result = result
        self.budget = budget

    # -- coalescing ------------------------------------------------------

    def _coalesce_reads(self, start: int, end: int) -> Optional[Tuple[int, ...]]:
        """The body's LBA tuple, if the range is pure ``read``s."""
        instructions = self.compiled.instructions
        lbas = []
        for pc in range(start, end):
            if instructions[pc].op is not OpCode.READ:
                return None
            lbas.append(instructions[pc].a)
        return tuple(lbas) if lbas else None

    def _coalesce_acts(self, start: int, end: int):
        """The body's (bank, row) pattern, if the range is pure ``act``s."""
        instructions = self.compiled.instructions
        pattern = []
        for pc in range(start, end):
            if instructions[pc].op is not OpCode.ACT:
                return None
            pattern.append((instructions[pc].a, instructions[pc].b))
        return pattern or None

    def _burst_reads(self, lbas: Tuple[int, ...], repeats: int) -> None:
        # The one call a hand-coded HammerPlan.execute makes; issuing the
        # identical (lbas, repeats) keeps flips/clock/trace byte-identical.
        self.vm.hammer_reads(lbas, repeats=repeats)
        self.result.reads += len(lbas) * repeats
        self.result.bursts += 1

    def _burst_acts(self, pattern, repeats: int) -> None:
        histogram: dict = {}
        for key in pattern:
            histogram[key] = histogram.get(key, 0) + repeats
        self.module.access_batch(
            [(bank, row, count) for (bank, row), count in histogram.items()]
        )
        self.result.acts += len(pattern) * repeats
        self.result.bursts += 1

    # -- interpretation --------------------------------------------------

    def run_range(self, start: int, end: int, in_loop: bool) -> None:
        compiled = self.compiled
        instructions = compiled.instructions
        pc = start
        while pc < end:
            instr = instructions[pc]
            op = instr.op
            if op is OpCode.LOOP:
                body_start = pc + 1
                body_end = body_start + instr.b
                self._run_loop(instr, body_start, body_end)
                pc = body_end
                continue
            if op is OpCode.READ:
                self.budget.spend()
                self.result.interpreted += 1
                self._burst_reads((instr.a,), 1)
            elif op is OpCode.ACT:
                self.budget.spend()
                self.result.interpreted += 1
                self._burst_acts([(instr.a, instr.b)], 1)
            elif op is OpCode.PRE:
                self.budget.spend()
                self.result.interpreted += 1
                for bank in self.module.banks:
                    bank.open_row = None
            elif op is OpCode.WAIT:
                self.budget.spend()
                self.result.interpreted += 1
                if instr.seconds > 0:
                    self.clock.advance(instr.seconds)
            elif op is OpCode.REF:
                self.budget.spend()
                self.result.interpreted += 1
                self._advance_to_next_window()
            elif op is OpCode.LABEL:
                if self.tracer is not None:
                    self.tracer.emit(
                        "payload.label",
                        program=compiled.name,
                        label=compiled.labels[instr.a],
                    )
            pc += 1

    def _run_loop(self, instr: Instr, body_start: int, body_end: int) -> None:
        count = instr.a
        if self.compiled.target == "stack":
            lbas = self._coalesce_reads(body_start, body_end)
            if lbas is not None:
                self._burst_reads(lbas, count)
                return
        else:
            pattern = self._coalesce_acts(body_start, body_end)
            if pattern is not None:
                self._burst_acts(pattern, count)
                return
        for _ in range(count):
            self.budget.spend()
            self.run_range(body_start, body_end, in_loop=True)

    def _advance_to_next_window(self) -> None:
        clock = self.clock
        interval = self.module.refresh_interval
        epoch = clock.epoch(interval)
        clock.advance_to(max((epoch + 1) * interval, clock.now))
        # Float rounding can land exactly on the boundary without rolling
        # the epoch; nudge forward the same way DramModule.hammer does.
        if clock.epoch(interval) == epoch:
            clock.advance(interval * 1e-6)
