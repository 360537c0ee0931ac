"""Tests of the benchmark itself: ``python -m pytest perfbench -q``."""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from spans import LAYERS, SpanRecorder
from workloads import WORKLOADS, digest

ROOT = Path(__file__).resolve().parent.parent


def ticking_clock(step=1.0):
    ticks = itertools.count()
    return lambda: next(ticks) * step


def test_self_time_subtracts_child_layer_spans():
    recorder = SpanRecorder(clock=ticking_clock())
    dram, ftl = LAYERS.index("dram") + 1, LAYERS.index("ftl") + 1

    def read_row():
        return "row"

    read_row = recorder._layer_wrapper(read_row, dram)

    def translate():
        return read_row() + read_row()

    translate = recorder._layer_wrapper(translate, ftl)

    recorder.start()  # tick 0
    assert translate() == "rowrow"  # ftl 1..6 holds dram 2..3 and 4..5
    recorder.stop()  # tick 7
    self_s = recorder.layer_self_s()
    assert self_s["dram"] == 2.0
    assert self_s["ftl"] == 3.0
    assert self_s["other"] == 2.0
    assert sum(self_s.values()) == 7.0
    assert recorder.layer_calls()["dram"] == 2
    assert recorder.kept_spans == 3


def test_calls_inside_one_layer_open_no_span():
    recorder = SpanRecorder(clock=ticking_clock())
    dram = LAYERS.index("dram") + 1
    inner = recorder._layer_wrapper(lambda: 1, dram)
    outer = recorder._layer_wrapper(lambda: inner() + inner(), dram)
    recorder.start()
    assert outer() == 2
    recorder.stop()
    assert recorder.layer_calls()["dram"] == 1


def test_install_wraps_and_uninstall_restores():
    import importlib

    import repro.ext4.extent as extent_module
    from repro.dram import DramModule
    from repro.nvme import NvmeController

    # ``repro.ext4.crc32c`` names both a module and the function it exports.
    crc_module = importlib.import_module("repro.ext4.crc32c")
    before = {
        "read": DramModule.__dict__["read"],
        "read_ecc": DramModule.__dict__["_read_ecc"],
        "submit": NvmeController.__dict__["submit"],
        "crc": crc_module.crc32c,
        "extent_crc": extent_module.crc32c,
    }
    recorder = SpanRecorder()
    recorder.install()
    try:
        assert DramModule.__dict__["read"] is not before["read"]
        assert DramModule.__dict__["_read_ecc"] is not before["read_ecc"]
        assert NvmeController.__dict__["submit"] is not before["submit"]
        assert crc_module.crc32c is not before["crc"]
        assert extent_module.crc32c is crc_module.crc32c
    finally:
        recorder.uninstall()
    assert DramModule.__dict__["read"] is before["read"]
    assert DramModule.__dict__["_read_ecc"] is before["read_ecc"]
    assert NvmeController.__dict__["submit"] is before["submit"]
    assert crc_module.crc32c is before["crc"]
    assert extent_module.crc32c is before["extent_crc"]


def _cheap_units(name):
    """A few of the workload's own units, picked for a short test."""
    workload = WORKLOADS[name](ROOT)
    units = workload.units(5, workload.unit_count(0))
    if name == "s5_mitigations":
        keep = ("l2p-randomization (secret key)", "enforce-extent-addressing", "trr")
        units = [u for u in units if u["mitigation"] in keep][:3]
    elif name == "utrr_infer":
        units = [u for u in units if u["tracker_capacity"] == 2][:2]
    else:
        units = units[:1]
    return workload, units


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_leaves_outputs_identical(name):
    workload, units = _cheap_units(name)
    untraced = run.run_units(workload, units)
    recorder = SpanRecorder()
    traced = run.run_units(workload, units, recorder)
    assert digest([r.record for r in traced]) == digest([r.record for r in untraced])
    assert [r.counts for r in traced] == [r.counts for r in untraced]
    assert sum(recorder.calls) > 0
    # Nothing stays wrapped after the traced run.
    from repro.dram import DramModule

    assert not hasattr(DramModule.__dict__["read"], "__wrapped__")
    assert not hasattr(DramModule.__dict__["__init__"], "__wrapped__")


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail([float(i) for i in range(30)]) == (19.0, 100.0 * 20 / 30)
    assert run.tail([1.0, 2.0]) == (2.0, 100.0)


def test_benchmark_json_lists_what_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert spec["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_follows_the_contract(capsys, trace):
    assert run.main(["--workload", "utrr_infer", "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    listed = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == listed
    report = json.loads(lines[-2])
    assert report["host"]["cpu_count"] >= 1
    assert "python" in report["host"] and "numpy" in report["host"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        return
    assert report["observer_effect_zero"] is True
    import numpy

    spans = numpy.load(ROOT / report["spans_file"])
    assert len(spans["start"]) == report["kept_spans"] > 0
    assert (spans["end"] >= spans["start"]).all()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "utrr_infer",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
