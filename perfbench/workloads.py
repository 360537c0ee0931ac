"""The benchmark's workloads: the paper's own experiments, cut into units.

A *unit* is one independently seeded piece of work.  Each workload turns
the benchmark's ``--seed`` into a list of unit inputs, runs one unit
through the program's public API (:meth:`Workload.run`, the only timed
part), checks the unit's outputs (:meth:`Workload.check`, untimed), and
returns the unit's simulated results as a JSON-ready record.  Records are
correctness outputs, never metrics: the benchmark hashes them into a
per-workload digest so a speed-only change can be seen to leave them
identical.

See ``README.md`` in this directory for why each workload is here and
which layer it is meant to load.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import random
from pathlib import Path
from typing import Any, Dict, List, Tuple


def unit_seeds(workload: str, seed: int, count: int) -> List[int]:
    """``count`` unit seeds drawn from the benchmark seed."""
    rng = random.Random("%s:%d" % (workload, seed))
    return [rng.randrange(1, 2**31) for _ in range(count)]


def short_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class ModelLog:
    """Remembers the simulated device parts built and the attack results
    returned while installed, so a unit's model counters and leaks can be
    read afterwards without reaching into the program.  It wraps four
    constructors and ``FtlRowhammerAttack.run``; changes nothing else."""

    _HOOKS = (
        ("dram", "repro.dram.module", "DramModule", "__init__"),
        ("flash", "repro.flash.array", "FlashArray", "__init__"),
        ("ftl", "repro.ftl.ftl", "PageMappingFtl", "__init__"),
        ("nvme", "repro.nvme.controller", "NvmeController", "__init__"),
        ("attack", "repro.attack.orchestrator", "FtlRowhammerAttack", "run"),
    )

    def __init__(self):
        self.seen: Dict[str, list] = {kind: [] for kind, *_rest in self._HOOKS}
        self._originals: List[Tuple[type, str, object]] = []

    def install(self) -> None:
        for kind, module_name, class_name, method in self._HOOKS:
            cls = getattr(importlib.import_module(module_name), class_name)
            original = cls.__dict__[method]
            self._originals.append((cls, method, original))
            setattr(cls, method, self._recording(original, self.seen[kind], method))

    @staticmethod
    def _recording(original, sink: list, method: str):
        if method == "__init__":
            @functools.wraps(original)
            def recording(self, *args, **kwargs):
                original(self, *args, **kwargs)
                sink.append(self)
        else:
            @functools.wraps(original)
            def recording(self, *args, **kwargs):
                result = original(self, *args, **kwargs)
                sink.append(result)
                return result

        return recording

    def uninstall(self) -> None:
        while self._originals:
            cls, method, original = self._originals.pop()
            setattr(cls, method, original)

    def take(self) -> Dict[str, list]:
        """What was seen since the last call, and forget it."""
        out = {kind: list(items) for kind, items in self.seen.items()}
        for items in self.seen.values():
            items.clear()
        return out


def model_counts(parts: Dict[str, list]) -> Dict[str, int]:
    """Sum the model's own counters over the parts one unit built."""

    def counter(objs, name):
        return sum(obj.metrics.counter(name).value for obj in objs)

    return {
        "dram.activations": counter(parts["dram"], "activations"),
        "dram.flips": counter(parts["dram"], "flips"),
        "flash.programs": counter(parts["flash"], "programs"),
        "flash.erases": counter(parts["flash"], "erases"),
        "ftl.host_reads": counter(parts["ftl"], "host_reads"),
        "ftl.host_writes": counter(parts["ftl"], "host_writes"),
        "ftl.gc_collections": sum(f.gc_stats.collections for f in parts["ftl"]),
        "ftl.gc_moved_pages": sum(f.gc_stats.moved_pages for f in parts["ftl"]),
        "nvme.commands": counter(parts["nvme"], "commands"),
        "nvme.errors": counter(parts["nvme"], "errors"),
    }


class Workload:
    """One benchmark workload; subclasses fill in the four hooks."""

    name = ""
    #: Modules a user of this workload imports (timed as setup).
    modules: Tuple[str, ...] = ("repro",)
    #: Host seconds one unit takes on the reference machine (see README);
    #: ``--seconds`` is turned into a fixed unit count with it.
    nominal_unit_s = 1.0
    #: Configurations the units cycle through; runs hold whole cycles.
    cycle = 1

    def __init__(self, root: Path):
        self.root = root

    def units(self, seed: int, count: int) -> List[Dict[str, Any]]:
        raise NotImplementedError

    def build(self, unit: Dict[str, Any]) -> None:
        """Build (and drop) the stack ``unit`` starts from: setup time."""
        raise NotImplementedError

    def run(self, unit: Dict[str, Any]) -> Tuple[Dict[str, Any], Any]:
        """Run one unit; returns its record and the state ``check`` needs."""
        raise NotImplementedError

    def check(self, unit: Dict[str, Any], record: Dict[str, Any], state: Any,
              seen: Dict[str, list]) -> List[str]:
        """Problems with one unit's outputs (empty when it is correct);
        ``seen`` is what the :class:`ModelLog` saw during the unit."""
        raise NotImplementedError

    def config(self, unit: Dict[str, Any]) -> str:
        """The configuration ``unit`` runs (units of one share a rate)."""
        return ""

    def unit_count(self, seconds: float) -> int:
        """Units in a run of ``seconds`` at the nominal unit time, rounded
        to whole cycles (at least one)."""
        return max(1, round(seconds / self.nominal_unit_s / self.cycle)) * self.cycle


# -- fig3_attack ---------------------------------------------------------


class Fig3Attack(Workload):
    name = "fig3_attack"
    nominal_unit_s = 0.8
    #: ``python -m repro demo`` defaults.
    CYCLES, SPRAY_FILES, HAMMER_SECONDS = 10, 64, 120.0

    def units(self, seed, count):
        return [{"seed": s} for s in unit_seeds(self.name, seed, count)]

    def build(self, unit):
        from repro import build_cloud_testbed

        build_cloud_testbed(seed=unit["seed"])

    def run(self, unit):
        from repro import AttackConfig, FtlRowhammerAttack, build_cloud_testbed

        testbed = build_cloud_testbed(seed=unit["seed"])
        attack = FtlRowhammerAttack(
            testbed,
            AttackConfig(
                max_cycles=self.CYCLES,
                spray_files=self.SPRAY_FILES,
                hammer_seconds=self.HAMMER_SECONDS,
            ),
        )
        result = attack.run()
        record = {
            "cycles": len(result.cycles),
            "flips": testbed.flips_observed(),
            "hits": result.total_hits,
            "sim_duration": result.duration,
            "leaks": [
                [leak.source_path, leak.category, short_hash(leak.data)]
                for leak in result.leaks
            ],
        }
        return record, (testbed, result)

    def check(self, unit, record, state, seen):
        from repro.attack.polyglot import craft_indirect_block
        from repro.testkit.invariants import (
            InvariantViolation,
            check_stack,
            flip_affected_lbas,
        )

        testbed, result = state
        problems = []
        try:
            check_stack(
                ftl=testbed.ftl,
                dram=testbed.dram,
                fs=testbed.victim_fs,
                exempt_lbas=flip_affected_lbas(testbed.ftl),
            )
        except InvariantViolation as violation:
            problems.append("invariant: %s" % violation)
        # Foreign data is anything the attacker did not write itself.  All
        # it writes are forged indirect blocks, one per candidate target.
        fs = testbed.victim_fs
        own = {
            craft_indirect_block([target], fs.block_bytes)
            for target in range(fs.sb.data_start, fs.sb.total_blocks)
        }
        for leak in result.leaks:
            if leak.data in own:
                problems.append(
                    "leak via %s is the attacker's own forged block"
                    % leak.source_path
                )
        return problems


# -- s5_mitigations ------------------------------------------------------


class S5Mitigations(Workload):
    name = "s5_mitigations"
    modules = ("repro", "repro.mitigations", "repro.engine")
    nominal_unit_s = 1.3
    cycle = 12
    #: Rows the paper does not claim hold every time: the undefended
    #: baseline and a refresh rate below the attacker's margin.
    UNCHECKED = ("baseline (no defense)", "refresh-2x (32ms)")
    #: ``python -m repro mitigations`` defaults.
    CYCLES, SPRAY_FILES, HAMMER_SECONDS = 6, 64, 60

    def _rows(self) -> List[str]:
        from repro.mitigations import standard_mitigations

        return list(standard_mitigations())

    def units(self, seed, count):
        rows = self._rows()
        return [
            {"mitigation": rows[index % len(rows)], "seed": s}
            for index, s in enumerate(unit_seeds(self.name, seed, count))
        ]

    def config(self, unit):
        return unit["mitigation"]

    def build(self, unit):
        from repro.mitigations import standard_mitigations

        standard_mitigations()[unit["mitigation"]](unit["seed"])

    def run(self, unit):
        from repro import AttackConfig
        from repro.mitigations import evaluate_all_mitigations

        [row] = evaluate_all_mitigations(
            seed=unit["seed"],
            attack_config=AttackConfig(
                max_cycles=self.CYCLES,
                spray_files=self.SPRAY_FILES,
                hammer_seconds=self.HAMMER_SECONDS,
            ),
            names=[unit["mitigation"]],
        )
        return row.to_dict(), row

    def check(self, unit, record, row, seen):
        from repro.mitigations.evaluation import looks_like_plaintext

        if unit["mitigation"] in self.UNCHECKED:
            return []
        # An all-zero block is the attack's own "empty" category: it reads
        # as plaintext to ``looks_like_plaintext`` but carries no data.
        escaped = [
            leak
            for result in seen["attack"]
            for leak in result.leaks
            if leak.category != "empty" and looks_like_plaintext(leak.data)
        ]
        if not escaped:
            return []
        return ["%s let plaintext escape via %s"
                % (unit["mitigation"], ", ".join(leak.source_path for leak in escaped))]


# -- fig2_serve ----------------------------------------------------------


class Fig2Serve(Workload):
    name = "fig2_serve"
    modules = ("repro", "repro.serve")
    nominal_unit_s = 1.0
    SPEC = Path("examples") / "specs" / "serve_fig2_16tenants.json"

    def _scenario(self):
        from repro.serve import ServeScenario

        return ServeScenario.load(str(self.root / self.SPEC))

    def units(self, seed, count):
        return [{"seed": s} for s in unit_seeds(self.name, seed, count)]

    def build(self, unit):
        from repro.nvme import DeviceTimingModel
        from repro.serve.scenario import _profile
        from repro.testkit.fixtures import build_stack

        scenario = self._scenario()
        device = scenario.device
        build_stack(
            profile=_profile(device.profile),
            seed=unit["seed"],
            num_lbas=device.num_lbas,
            layout=device.layout,
            timing=DeviceTimingModel(hammer_amplification=device.hammer_amplification),
            spare_blocks=device.spare_blocks,
        )

    def run(self, unit):
        from repro.serve import run_scenario

        scenario = self._scenario()
        report = run_scenario(scenario, seed=unit["seed"])
        return json.loads(report.to_json()), (scenario, report)

    def check(self, unit, record, state, seen):
        scenario, report = state
        problems = []
        for config, tenant in zip(scenario.tenants, report.tenants):
            if tenant["commands"] != config.ops:
                problems.append(
                    "tenant %s completed %d of %d generated ops"
                    % (config.name, tenant["commands"], config.ops)
                )
        return problems


# -- utrr_infer ----------------------------------------------------------


class UtrrInfer(Workload):
    name = "utrr_infer"
    modules = ("repro", "repro.utrr", "repro.payload", "repro.__main__")
    nominal_unit_s = 0.25
    cycle = 9
    SPEC = Path("examples") / "specs" / "utrr_grid.json"
    #: ``python -m repro utrr`` defaults.
    MAX_CAPACITY, CYCLES = 12, 512
    BINDINGS = {"bank": 0, "left_row": 99, "right_row": 101}

    def _cells(self) -> List[Dict[str, Any]]:
        spec = json.loads((self.root / self.SPEC).read_text(encoding="utf-8"))
        base = spec["base"]
        return [
            {
                "tracker_capacity": capacity,
                "refresh_threshold": base["refresh_threshold"],
                "sampling_policy": policy,
                "per_bank": base["per_bank"],
            }
            for capacity in spec["grid"]["tracker_capacity"]
            for policy in spec["grid"]["sampling_policy"]
        ]

    def units(self, seed, count):
        cells = self._cells()
        return [
            dict(cells[index % len(cells)], seed=s)
            for index, s in enumerate(unit_seeds(self.name, seed, count))
        ]

    def config(self, unit):
        return "%(tracker_capacity)d/%(sampling_policy)s" % unit

    def build(self, unit):
        from repro.utrr import build_utrr_target

        build_utrr_target(dict(unit), seed=unit["seed"])

    def run(self, unit):
        from repro.__main__ import _UTRR_DEMO_SOURCE
        from repro.dram.address import DramAddress
        from repro.payload import (
            compile_program,
            execute_payload,
            parse_program,
            resolve_program,
        )
        from repro.utrr import UtrrPipeline, build_utrr_target

        config = dict(unit)
        seed = config["seed"]
        report = UtrrPipeline(
            build_utrr_target(config, seed=seed),
            max_capacity=self.MAX_CAPACITY,
            cycles=self.CYCLES,
        ).infer()

        # The naive-vs-synchronized comparison of ``utrr --demo``.
        naive_source = _UTRR_DEMO_SOURCE.replace("sync_refresh\n", "").replace(
            "name sync_demo", "name naive"
        )

        def payload_flips(source, sync_report=None):
            flips = 0
            for pattern in (b"\x00", b"\xff"):
                target = build_utrr_target(config, seed=seed)
                addr = target.mapping.address_of(DramAddress(0, 100, 0))
                target.write(addr, pattern * target.geometry.row_bytes)
                program = resolve_program(
                    parse_program(source), self.BINDINGS, sync_report=sync_report
                )
                flips += execute_payload(compile_program(program), dram=target).flip_count
            return flips

        record = {
            "report": json.loads(report.to_json()),
            "naive_flips": payload_flips(naive_source),
            "sync_flips": payload_flips(_UTRR_DEMO_SOURCE, sync_report=report),
        }
        return record, report

    def check(self, unit, record, report, seen):
        if report.matches(dict(unit)):
            return []
        return ["inferred capacity=%s policy=%s for %s"
                % (report.tracker_capacity, report.sampling_policy, unit)]


WORKLOADS = {cls.name: cls for cls in (Fig3Attack, S5Mitigations, Fig2Serve, UtrrInfer)}


def digest(records: List[Dict[str, Any]]) -> str:
    """One hash over a workload's unit records, in unit order."""
    canonical = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def domain_counts(records: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer outcome ratios read from the unit records (zero where a
    workload has no such outcome)."""
    hits = sum(r.get("hits", 0) for r in records)
    cycles = sum(r.get("cycles", r.get("cycles_run", 0)) for r in records)
    tenants = [t for r in records for t in r.get("tenants", ())]
    reports = [r["report"] for r in records if "report" in r]
    return {
        "attack.hits_per_cycle": hits / cycles if cycles else 0.0,
        "serve.backpressure": sum(t["backpressure"] for t in tenants),
        "serve.throttled": sum(t["throttled"] for t in tenants),
        "utrr.probes_per_cell": (
            sum(r["probes"] for r in reports) / len(reports) if reports else 0.0
        ),
    }
