"""Smoke tests: every example script must run and print its key lines."""

import importlib.util
import os
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")


def run_example(name, capsys):
    path = os.path.join(EXAMPLES_DIR, name)
    spec = importlib.util.spec_from_file_location("example_" + name[:-3], path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys)
        assert "Recon:" in out
        assert "Attack finished" in out

    def test_cloud_info_leak(self, capsys):
        out = run_example("cloud_info_leak.py", capsys)
        assert "[stage 1]" in out
        assert "Privilege escalation" in out
        assert "ROOT:" in out  # the setuid polyglot demo always lands

    #: The EXPERIMENTS §5 table (seed 7, 6 cycles): mitigation -> flips,
    #: hits, usable, p-text, recon, verdict.
    SCORECARD = {
        "baseline (no defense)": ("10", "3", "2", "2", "ok", "LEAKS"),
        "ecc (SECDED)": ("15", "0", "0", "0", "ok", "HOLDS"),
        "trr": ("0", "0", "0", "0", "ok", "HOLDS"),
        "para": ("0", "0", "0", "0", "ok", "HOLDS"),
        "refresh-2x (32ms)": ("8", "3", "2", "2", "ok", "LEAKS"),
        "refresh-8x (8ms)": ("0", "0", "0", "0", "ok", "HOLDS"),
        "ftl-cpu-cache (LRU)": ("0", "0", "0", "0", "ok", "HOLDS"),
        "io-rate-limit (400K IOPS)": ("0", "0", "0", "0", "ok", "HOLDS"),
        "l2p-randomization (secret key)": ("0", "0", "0", "0", "blind", "HOLDS"),
        "enforce-extent-addressing": ("7", "0", "0", "0", "ok", "HOLDS"),
        "per-tenant-encryption": ("10", "3", "2", "0", "ok", "HOLDS"),
        "t10-dif-integrity": ("15", "3", "0", "0", "ok", "HOLDS"),
    }

    def test_mitigation_comparison(self, capsys):
        out = run_example("mitigation_comparison.py", capsys)
        lines = out.splitlines()
        first = next(i for i, line in enumerate(lines) if line.startswith("---")) + 1
        rows = {}
        for line in lines[first : first + len(self.SCORECARD)]:
            fields = line.split()
            rows[" ".join(fields[:-6])] = tuple(fields[-6:])
        assert rows == self.SCORECARD

    def test_blind_recon(self, capsys):
        out = run_example("blind_recon.py", capsys)
        assert "The attacker now owns a hammer-ready row map" in out

    def test_probability_study(self, capsys):
        out = run_example("probability_study.py", capsys)
        assert "0.07" in out
        assert "cycles to reach 50%" in out

    @pytest.mark.slow
    def test_dram_calibration(self, capsys):
        out = run_example("dram_calibration.py", capsys)
        assert "lpddr4-new-2020" in out
        assert "no flips" not in out


class TestServeSpecs:
    """The committed serving scenario/sweep JSONs stay loadable and show
    the §5 trade-off they exist to demonstrate."""

    SPECS = os.path.join(EXAMPLES_DIR, "specs")

    def test_smoke_scenario_runs(self):
        from repro.serve import ServeScenario, run_scenario

        scenario = ServeScenario.load(
            os.path.join(self.SPECS, "serve_smoke.json")
        )
        report = run_scenario(scenario)
        assert report.attacker is not None
        assert all(t["errors"] == 0 for t in report.tenants)
        assert all(
            t["commands"] == config.ops
            for t, config in zip(report.tenants, scenario.tenants)
        )

    def test_fig2_16tenant_scenario_runs(self):
        """The committed Fig. 2 scenario runs as committed: every tenant
        completes, the attacker flips L2P bits, and the durability audit
        counts the LBAs those flips redirected off the flash array apart
        from lost writes."""
        from repro.serve import ServeScenario, run_scenario

        scenario = ServeScenario.load(
            os.path.join(self.SPECS, "serve_fig2_16tenants.json")
        )
        assert len(scenario.tenants) == 16
        kinds = {tenant.kind for tenant in scenario.tenants}
        assert "hammer_attacker" in kinds and len(kinds) == 4
        report = run_scenario(scenario)
        assert all(
            t["commands"] == config.ops
            for t, config in zip(report.tenants, scenario.tenants)
        )
        assert report.flips > 0
        durability = report.resilience["durability"]
        assert durability["hammer_redirected"] > 0
        assert durability["lost"] == 0

    @pytest.mark.parametrize("seed", range(20))
    def test_fig2_chaos_scenario_ends_every_command_in_a_status(self, seed):
        """The Fig. 2 shape under the chaos fault plan: a program fault
        during a GC relocation and a device left without free blocks end
        in NVMe statuses, never in an exception, and no acknowledged
        write is lost."""
        from repro.nvme.commands import StatusCode
        from repro.serve import ServeScenario, run_scenario

        scenario = ServeScenario.load(
            os.path.join(self.SPECS, "serve_fig2_chaos.json")
        )
        report = run_scenario(scenario, seed=seed)
        statuses = {status.name for status in StatusCode}
        for tenant, config in zip(report.tenants, scenario.tenants):
            assert tenant["commands"] == config.ops
            assert set(tenant["errors_by_status"]) <= statuses
            assert sum(tenant["errors_by_status"].values()) == tenant["errors"]
        resilience = report.resilience
        assert resilience["faults"]["program_fail"] > 0
        assert resilience["durability"]["lost"] == 0

    def test_noisy_neighbor_sweep_shows_rate_limit_trade_off(self, tmp_path):
        from repro.engine import SweepSpec, run_sweep

        spec = SweepSpec.from_json(
            open(os.path.join(self.SPECS, "serve_noisy_neighbor.json")).read()
        )
        report = run_sweep(spec, store_path=str(tmp_path / "nn.jsonl"))
        by_cap = {
            record["point"]["max_iops"]: record["result"]
            for record in report.records
        }
        # Unlimited: the attacker hammers above threshold and flips bits.
        assert not by_cap[None]["attacker_below_threshold"]
        assert by_cap[None]["flips"] > 0
        # Capped below the hammer rate: activation suppressed, no flips —
        # and the benign tenants pay for it in p99.
        assert by_cap[8000]["attacker_below_threshold"]
        assert by_cap[8000]["flips"] == 0
        assert by_cap[8000]["benign_p99_max"] > by_cap[None]["benign_p99_max"]


class TestPayloadExamples:
    """Every committed payload program parses, and the pattern-grid sweep
    spec runs each DSL template through the payload trial kind."""

    PAYLOADS = os.path.join(EXAMPLES_DIR, "payloads")
    SPECS = os.path.join(EXAMPLES_DIR, "specs")

    def test_every_committed_program_parses(self):
        from repro.payload import parse_program

        names = sorted(os.listdir(self.PAYLOADS))
        assert names == [
            "double_sided.payload", "dram_direct.payload",
            "many_sided.payload", "one_location.payload",
            "single_sided.payload",
        ]
        for name in names:
            with open(os.path.join(self.PAYLOADS, name)) as handle:
                program = parse_program(
                    handle.read(), default_name=name.split(".")[0]
                )
            assert program.name == name.split(".")[0]

    def test_stack_programs_use_standard_recon_bindings(self):
        from repro.payload import parse_program

        standard = {
            "agg_left", "agg_right", "conflict", "loc", "victim",
            "agg0_left", "agg0_right", "agg1_left", "agg1_right",
        }
        for name in os.listdir(self.PAYLOADS):
            with open(os.path.join(self.PAYLOADS, name)) as handle:
                program = parse_program(handle.read(), default_name="x")
            if program.target == "stack":
                assert program.placeholders() <= standard
            else:
                assert program.is_resolved  # dram examples run as-is

    def test_dram_direct_compiles_without_recon(self):
        from repro.payload import compile_program, parse_program

        with open(os.path.join(self.PAYLOADS, "dram_direct.payload")) as handle:
            compiled = compile_program(
                parse_program(handle.read(), default_name="dram_direct")
            )
        assert compiled.total_acts == 120_000

    def test_pattern_grid_sweep_covers_all_templates(self, tmp_path):
        from repro.engine import SweepSpec, run_sweep

        spec = SweepSpec.from_json(
            open(os.path.join(self.SPECS, "payload_pattern_grid.json")).read()
        )
        report = run_sweep(spec, store_path=str(tmp_path / "pg.jsonl"))
        assert len(report.records) == 8  # 4 templates x 2 repeat counts
        by_point = {
            (r["point"]["template"], r["point"]["repeats"]): r["result"]
            for r in report.records
        }
        # Reads scale with the repeats axis and the pattern's sidedness.
        assert by_point[("double_sided", 60000)]["reads"] == 120_000
        assert by_point[("many_sided", 120000)]["reads"] == 480_000
        assert by_point[("one_location", 60000)]["reads"] == 60_000
        # Seed 13 is the CI gate seed: the double-sided pattern flips.
        assert by_point[("double_sided", 120000)]["flips"] > 0
        for result in by_point.values():
            assert result["bursts"] == 1


class TestCommittedSweepSpecs:
    """The committed U-TRR, chaos-serving and fault grids run as committed
    (no shrinking) and every cell passes its own correctness gate."""

    SPECS = os.path.join(EXAMPLES_DIR, "specs")

    def run_spec(self, name, tmp_path):
        from repro.engine import SweepSpec, run_sweep

        with open(os.path.join(self.SPECS, name)) as handle:
            spec = SweepSpec.from_json(handle.read())
        report = run_sweep(spec, store_path=str(tmp_path / "out.jsonl"))
        assert report.records
        assert all(r["status"] == "ok" for r in report.records)
        return [r["result"] for r in report.records]

    def test_utrr_grid_recovers_every_cell(self, tmp_path):
        results = self.run_spec("utrr_grid.json", tmp_path)
        assert len(results) == 9
        assert all(result["recovered"] for result in results)

    def test_serve_chaos_grid_loses_no_acked_write(self, tmp_path):
        results = self.run_spec("serve_chaos_grid.json", tmp_path)
        assert len(results) == 6
        assert all(result["lost_acked_writes"] == 0 for result in results)

    def test_fault_grid_shows_no_divergence(self, tmp_path):
        results = self.run_spec("fault_grid.json", tmp_path)
        assert len(results) == 8
        assert all(result["ok"] for result in results)
        assert all(result["divergences"] == 0 for result in results)



#: Committed inputs a dedicated test already runs as committed -> that test.
RUN_BY = {
    "fault_grid.json": "TestCommittedSweepSpecs",
    "payload_pattern_grid.json": "TestPayloadExamples",
    "serve_chaos.json": "test_serve_resilience.TestChaosDeterminism",
    "serve_chaos_grid.json": "TestCommittedSweepSpecs",
    "serve_fig2_16tenants.json": "TestServeSpecs",
    "serve_fig2_chaos.json": "TestServeSpecs",
    "serve_noisy_neighbor.json": "TestServeSpecs",
    "serve_smoke.json": "TestServeSpecs",
    "utrr_grid.json": "TestCommittedSweepSpecs",
}
COMMITTED_INPUTS = sorted(os.listdir(os.path.join(EXAMPLES_DIR, "specs"))) + sorted(
    os.listdir(os.path.join(EXAMPLES_DIR, "payloads"))
)


class TestEveryCommittedInput:
    """Every committed spec and payload runs to completion as committed,
    through the CLI command CI uses.  A file a dedicated test already runs
    is named in ``RUN_BY`` and not run twice; every other file is run here,
    so a newly committed input cannot go unrun."""

    def test_run_by_names_committed_files(self):
        assert set(RUN_BY) <= set(COMMITTED_INPUTS)

    @pytest.mark.parametrize(
        "name", [name for name in COMMITTED_INPUTS if name not in RUN_BY]
    )
    def test_runs_as_committed(self, name, tmp_path, capsys):
        import json

        from repro.__main__ import main

        if name.endswith(".payload"):
            path = os.path.join(EXAMPLES_DIR, "payloads", name)
            argv = ["--seed", "13", "payload", "run", path, "--json"]
        else:
            path = os.path.join(EXAMPLES_DIR, "specs", name)
            with open(path) as handle:
                is_scenario = "tenants" in json.load(handle)
            argv = (
                ["serve", path, "--json"]
                if is_scenario
                else ["sweep", path, "--fresh", "--workers", "0",
                      "--out", str(tmp_path / "out.jsonl")]
            )
        assert main(argv) == 0
        assert capsys.readouterr().out
