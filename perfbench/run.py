"""End-to-end and per-layer benchmark of the paper's own workloads.

Run from the root of a repository checkout::

    python3 perfbench/run.py --workload s5_mitigations --seed 1 --seconds 45 --trace 0

``--trace 0`` runs the workload's units with no instrumentation and
prints the end-to-end metrics; ``--trace 1`` takes the units of a run
half as long, runs them twice, untraced and then traced, and prints the
per-layer metrics (self time per ``repro`` package, named operations,
model counters) and ``trace.overhead_frac``.  ``--seconds`` fixes the amount of
work: it is turned into a unit count with the workload's nominal unit
time, so the same arguments always run the same units.

Human-readable lines come first; the second-to-last line is a JSON report
(host facts, output digest, checks, every metric); the last line is the
result object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import LAYERS, OPERATIONS, SpanRecorder  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    ModelLog,
    digest,
    domain_counts,
    model_counts,
)

#: Reported on every workload with ``--trace 0`` (must match BENCHMARK.json).
#: ``wall_s`` and ``unit_p50_s`` are printed but not listed: seed mix or
#: host drift moves them too close to the largest bound (see README).
END_TO_END = {
    "setup_s": "s",
    "unit_tail_s": "s",
    "sim_acts_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Reported on every workload with ``--trace 1`` (must match BENCHMARK.json):
#: every count and ratio, and the times that no listed workload leaves at
#: zero.  Every run prints all per-layer metrics in its report.
PER_LAYER: Dict[str, str] = {
    "other.self_s": "s",
    "dram.self_s": "s",
    "dram.rw_s": "s",
    "dram.hammer_s": "s",
    "setup.import_s": "s",
    "setup.build_s": "s",
    "trace.overhead_frac": "ratio",
    **{"%s.calls" % layer: "count" for layer in LAYERS if layer != "serve"},
    "mitigations.encrypt_blocks": "count",
    "ext4.crc32c_calls": "count",
    "dram.activations": "count",
    "dram.flips": "count",
    "dram.flips_per_gact": "flips/Gact",
    "flash.programs": "count",
    "flash.erases": "count",
    "ftl.host_reads": "count",
    "ftl.host_writes": "count",
    "ftl.gc_collections": "count",
    "ftl.write_amp": "ratio",
    "nvme.commands": "count",
    "nvme.errors": "count",
    "attack.hits_per_cycle": "hits/cycle",
    "utrr.probes_per_cell": "probes/cell",
}

#: Where ``--trace 1`` writes its spans after the run (ignored by git).
SPANS_DIR = ROOT / ".bench_build" / "perfbench"

#: Setups measured per run; ``setup_s`` is built from their medians.
SETUP_REPEATS = 9

def find_program(root: Path) -> Optional[Path]:
    """The checkout's ``src`` directory, or None when it holds no program."""
    src = root / "src"
    return src if (src / "repro" / "__init__.py").is_file() else None


def host_facts(root: Path) -> Dict[str, Any]:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "commit": git_commit(root),
    }


def git_commit(root: Path) -> Optional[str]:
    """HEAD's commit read from ``.git`` directly (no git process); None
    outside a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def purge_program_modules() -> None:
    for name in [n for n in sys.modules if n == "repro" or n.startswith("repro.")]:
        del sys.modules[name]


def time_imports(workload, repeats: int = SETUP_REPEATS) -> float:
    """Median time to import the workload's modules from scratch."""
    import numpy  # noqa: F401  (a dependency, not the program's own set-up)

    samples = []
    for _ in range(repeats):
        purge_program_modules()
        start = time.perf_counter()
        for module in workload.modules:
            importlib.import_module(module)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def time_builds(workload, unit: Dict[str, Any], repeats: int = SETUP_REPEATS) -> float:
    """Median time to build the stack ``unit`` starts from."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        workload.build(unit)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


@dataclass
class UnitResult:
    seconds: float
    #: The unit's simulated results (or the error it raised).
    record: Dict[str, Any]
    #: The model counters it moved (see ``workloads.model_counts``).
    counts: Dict[str, int]
    #: Why its check failed; empty when it passed.
    problems: List[str]
    #: Traceback when the unit raised.
    raised: Optional[str]


def run_units(workload, units, recorder: Optional[SpanRecorder] = None) -> List[UnitResult]:
    """Run ``units`` one after another, timing only :meth:`Workload.run`."""
    results = []
    log = ModelLog()
    if recorder is not None:
        recorder.install()
    log.install()
    try:
        for unit in units:
            gc.collect()
            if recorder is not None:
                recorder.start()
            start = time.perf_counter()
            try:
                record, state = workload.run(unit)
                raised = None
            except Exception as error:  # a failed unit is counted, not fatal
                seconds = time.perf_counter() - start
                record = {"error": type(error).__name__, "message": str(error)}
                state = None
                raised = traceback.format_exc()
            else:
                seconds = time.perf_counter() - start
            if recorder is not None:
                recorder.stop()
            seen = log.take()
            counts = model_counts(seen)
            if raised is None:
                problems = workload.check(unit, record, state, seen)
            else:
                problems = ["raised %s" % record["error"]]
            results.append(UnitResult(seconds, record, counts, problems, raised))
    finally:
        log.uninstall()
        if recorder is not None:
            recorder.uninstall()
    return results


def tail(times: List[float]) -> Tuple[float, float]:
    """The value at the highest percentile with at least ten units beyond
    it, and that percentile (the maximum when there are too few units)."""
    ordered = sorted(times)
    rank = len(ordered) - 10
    if rank < 1:
        return ordered[-1], 100.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def totals(results: List[UnitResult]) -> Dict[str, int]:
    return {name: sum(r.counts[name] for r in results) for name in results[0].counts}


def rate_per_config(workload, units, results, counter: str) -> float:
    """Geometric mean over the workload's configurations (§5 rows, grid
    cells) of each one's ``counter`` per host second, skipping
    configurations that never moved it.  Within one configuration the
    count and the time both grow with the attack length a seed needs, so
    the ratio keeps the speed and drops the seed's luck; the mean weighs
    every configuration once."""
    sums: Dict[str, List[float]] = {}
    for unit, result in zip(units, results):
        pair = sums.setdefault(workload.config(unit), [0, 0.0])
        pair[0] += result.counts[counter]
        pair[1] += result.seconds
    rates = [count / seconds for count, seconds in sums.values() if count]
    if not rates:
        return 0.0
    return math.exp(statistics.fmean(math.log(rate) for rate in rates))


def end_to_end(workload, setup, units, results) -> Dict[str, Any]:
    times = [r.seconds for r in results]
    wall = sum(times)
    counts = totals(results)
    failed = sum(1 for r in results if r.problems)
    tail_value, tail_percentile = tail(times)
    out = {
        "setup_s": setup["setup.import_s"] + setup["setup.build_s"],
        "wall_s": wall,
        "unit_p50_s": statistics.median(times),
        "unit_tail_s": tail_value,
        "sim_acts_per_s": rate_per_config(workload, units, results, "dram.activations"),
        "peak_rss_mb": peak_rss_mb(),
        "failed_frac": failed / len(results),
        "unit_tail_percentile": tail_percentile,
        "units": len(results),
    }
    if counts["nvme.commands"]:
        out["sim_ios_per_s"] = rate_per_config(workload, units, results, "nvme.commands")
    return out


def per_layer(setup, untraced, traced, recorder: SpanRecorder) -> Dict[str, float]:
    out: Dict[str, float] = {}
    self_s = recorder.layer_self_s()
    calls = recorder.layer_calls()
    out["other.self_s"] = self_s["other"]
    for layer in LAYERS:
        out["%s.self_s" % layer] = self_s[layer]
        out["%s.calls" % layer] = calls[layer]
    for op in OPERATIONS:
        out["%s_s" % op] = recorder.op_s[op]
    out["mitigations.encrypt_blocks"] = recorder.op_calls["mitigations.encrypt"]
    out["ext4.crc32c_calls"] = recorder.op_calls["ext4.crc32c"]
    counts = totals(traced)
    out.update(counts)
    out["dram.flips_per_gact"] = (
        1e9 * counts["dram.flips"] / counts["dram.activations"]
        if counts["dram.activations"] else 0.0
    )
    host_writes = counts["ftl.host_writes"]
    out["ftl.write_amp"] = (
        (host_writes + counts["ftl.gc_moved_pages"]) / host_writes if host_writes else 0.0
    )
    out.update(domain_counts([r.record for r in traced]))
    out.update(setup)
    out["trace.overhead_frac"] = (
        sum(r.seconds for r in traced) / sum(r.seconds for r in untraced)
    )
    return out


def summarize_problems(results: List[UnitResult], units) -> List[str]:
    lines = []
    for index, (result, unit) in enumerate(zip(results, units)):
        for problem in result.problems:
            lines.append("unit %d %s: %s" % (index, json.dumps(unit, sort_keys=True), problem))
    return lines


def unit_of(name: str) -> str:
    """The unit of any printed metric, listed or not."""
    listed = {**END_TO_END, **PER_LAYER}
    if name in listed:
        return listed[name]
    for suffix, unit in (("_per_s", "1/s"), ("_s", "s"), ("_frac", "ratio"),
                         ("_percentile", "%"), ("_gact", "flips/Gact")):
        if name.endswith(suffix):
            return unit
    return "count"


def format_value(value: float) -> str:
    if isinstance(value, int) or (isinstance(value, float) and value.is_integer() and abs(value) < 1e15):
        return "%d" % value
    return "%.6g" % value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="nominal measuring time; fixes the unit count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = find_program(ROOT)
    if src is None:
        print("perfbench: no program at %s; run from a checkout of the repository"
              % (ROOT / "src" / "repro"), file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    workload = WORKLOADS[args.workload](ROOT)
    count = workload.unit_count(args.seconds / 2 if args.trace else args.seconds)

    setup = {"setup.import_s": time_imports(workload)}
    units = workload.units(args.seed, count)
    setup["setup.build_s"] = time_builds(workload, units[0])

    report: Dict[str, Any] = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_facts(ROOT),
    }
    if args.trace:
        untraced = run_units(workload, units)
        recorder = SpanRecorder()
        results = run_units(workload, units, recorder)
        metrics = per_layer(setup, untraced, results, recorder)
        report["kept_spans"] = recorder.kept_spans
        report["dropped_spans"] = recorder.dropped_spans
        observer = digest([r.record for r in untraced]) == digest([r.record for r in results])
        report["observer_effect_zero"] = observer
        spans_path = SPANS_DIR / ("%s.spans.npz" % workload.name)
        recorder.write(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        results = run_units(workload, units)
        metrics = end_to_end(workload, setup, units, results)
        observer = True
    problems = summarize_problems(results, units)
    failed = sum(1 for r in results if r.problems)
    report.update({
        "units": len(results),
        "digest": digest([r.record for r in results]),
        "failed": failed,
        "problems": problems[:20],
        "metrics": metrics,
    })

    print("workload %s  seed %d  units %d  trace %d  cpu_count %s  commit %s"
          % (workload.name, args.seed, len(results), args.trace,
             report["host"]["cpu_count"], report["host"]["commit"]))
    for name, value in metrics.items():
        print("  %-28s %14s %s" % (name, format_value(value), unit_of(name)))
    print("digest %s" % report["digest"])
    for line in problems:
        print("FAILED " + line)
    first_raise = next((r.raised for r in results if r.raised), None)
    if first_raise:
        print(first_raise, file=sys.stderr)
    if not observer:
        print("FAILED traced outputs differ from untraced outputs")
    print(json.dumps(report, sort_keys=True))

    listed = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": failed == 0 and observer,
        "attempted": len(results),
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in listed.items()
        },
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
