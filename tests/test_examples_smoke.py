"""Smoke tests: every example script must run and print its key lines.

(The blind-recon example is exercised through its library tests in
test_attack_timing_recon.py instead — its full sweep is slow.)
"""

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

    def test_mitigation_comparison(self, capsys):
        out = run_example("mitigation_comparison.py", capsys)
        assert "baseline (no defense)" in out
        assert "LEAKS" in out
        assert "HOLDS" in out

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
