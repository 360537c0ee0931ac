"""The U-TRR reverse-engineering pipeline.

Reconstructs the hidden configuration of a :class:`TargetRowRefresh`
sampler — tracker capacity, sampling policy, per-bank vs shared trackers —
purely from which victim rows flip, the way U-TRR (Hassan et al., 2021)
profiles real DIMMs.  The pipeline never reads the sampler's state; its
only instruments are the clock, ordered activations, and data reads.

Probe battery
-------------

1. **Onset scan** — round-robin hammer ``n`` equally-weighted aggressors
   for ``n = 2 .. max_capacity + 1``.  While ``n`` fits in the tracker,
   every aggressor's counter reaches the refresh threshold and every
   victim is preventively refreshed: zero flips.  One row too many and
   the tracker churns (LRU/random) or saturates (first-K), leaving at
   least one victim unprotected: the first ``n`` with any flip puts the
   capacity at ``n - 1``.

2. **Order probe** — at the onset count, hammer the same rows forward and
   reversed.  A ``first_k_per_window`` sampler admits the first ``k``
   rows it sees and ignores the rest, so exactly the *last-arriving*
   aggressor's victim flips — and reversing the order moves the flip to
   the other end.  Count-based policies churn instead and flip broadly.

3. **Hot-row probe** — one aggressor activated twice per cycle among
   ``capacity + 3`` single-activation decoys.  ``counter_lru`` evicts the
   *least*-counted row, so the hot row is mathematically safe and its
   victim survives; ``random_sample`` evicts uniformly, churns the hot
   row out long before its counter reaches the threshold, and its victim
   flips.

4. **Cross-bank probe** — ``capacity`` aggressors in each of two banks,
   interleaved.  Per-bank trackers see ``capacity`` rows each (all
   protected, no flips); a shared tracker sees ``2 x capacity`` rows and
   churns (flips).

Every probe runs twice, once per complementary data background, so a
weak cell is witnessed regardless of which way it flips.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.dram import (
    DramGeometry,
    DramModule,
    VulnerabilityModel,
)
from repro.dram.trr import trr_from_config
from repro.errors import ConfigError
from repro.sim.clock import SimClock
from repro.utrr.report import POLICY_NONE, POLICY_UNKNOWN, InferenceReport
from repro.utrr.stage import (
    PATTERNS,
    AlignToRefreshStage,
    BitflipCheckStage,
    DisableRefreshStage,
    HammerStage,
    ProbeContext,
)


class UtrrError(ConfigError):
    """A probe could not be carried out faithfully."""


class UtrrPipeline:
    """Stage-driven black-box inference against one DRAM module."""

    def __init__(
        self,
        dram: DramModule,
        *,
        bank: int = 0,
        tracer=None,
        max_capacity: int = 12,
        cycles: int = 512,
        spacing: int = 4,
        base_row: int = 8,
        decoy_base: int = 160,
    ):
        if max_capacity < 1:
            raise UtrrError("max_capacity must be at least 1")
        if cycles < 1:
            raise UtrrError("cycles must be at least 1")
        if spacing < 3:
            # Aggressors closer than 3 rows share victims and the probes
            # can no longer attribute a flip to one aggressor.
            raise UtrrError("aggressor spacing must be at least 3")
        rows = dram.geometry.rows_per_bank
        highest = max(
            base_row + spacing * (max_capacity + 4),
            decoy_base + spacing * (max_capacity + 8),
        )
        if highest + 1 >= rows:
            raise UtrrError(
                "probe rows reach %d but the bank only has %d rows"
                % (highest + 1, rows)
            )
        if not 0 <= bank < dram.geometry.total_banks:
            raise UtrrError("bank %d out of range" % bank)
        self.dram = dram
        self.bank = bank
        self.tracer = tracer
        self.max_capacity = max_capacity
        self.cycles = cycles
        self.spacing = spacing
        self.base_row = base_row
        self.decoy_base = decoy_base
        self._align = AlignToRefreshStage()
        self._disable = DisableRefreshStage()
        self._hammer = HammerStage()
        self._check = BitflipCheckStage()
        self._probe_index = 0
        self._activations = 0

    # -- probe geometry ----------------------------------------------------

    def aggressor(self, index: int) -> int:
        """Row number of the ``index``-th probe aggressor."""
        return self.base_row + self.spacing * index

    def _victims(
        self, bank: int, aggressors: Sequence[int]
    ) -> List[Tuple[int, int, int]]:
        return [(bank, a, a + 1) for a in aggressors]

    # -- probe execution ---------------------------------------------------

    def _run_probe(
        self,
        kind: str,
        sequence: List[Tuple[int, int]],
        victims: List[Tuple[int, int, int]],
    ) -> Set[Tuple[int, int]]:
        """Run one probe under both data backgrounds; return the set of
        (bank, aggressor) whose victim flipped under either."""
        self._probe_index += 1
        flipped: Set[Tuple[int, int]] = set()
        for pattern in PATTERNS:
            ctx = ProbeContext(
                dram=self.dram,
                probe=self._probe_index,
                kind=kind,
                sequence=sequence,
                victims=victims,
                tracer=self.tracer,
                pattern=pattern,
            )
            # Plant first: the plant's own (accounted) activations are
            # then discarded along with the old window by the align stage.
            self._check.plant(ctx, pattern)
            self._align.run(ctx)
            self._disable.run(ctx)
            self._hammer.run(ctx)
            if not DisableRefreshStage.verify(ctx):
                raise UtrrError(
                    "probe %d straddled a refresh window" % self._probe_index
                )
            flipped.update(self._check.run(ctx)["flipped"])
            self._activations += len(sequence)
        if self.tracer is not None:
            self.tracer.emit(
                "utrr.probe",
                probe=self._probe_index,
                kind=kind,
                distinct=len({entry for entry in sequence}),
                flipped=len(flipped),
            )
        return flipped

    def _round_robin_probe(
        self, aggressors: Sequence[int], kind: str
    ) -> Set[Tuple[int, int]]:
        cycle = [(self.bank, a) for a in aggressors]
        return self._run_probe(
            kind, cycle * self.cycles, self._victims(self.bank, aggressors)
        )

    # -- the battery -------------------------------------------------------

    def _scan_onset(self, evidence: Dict[str, Any]) -> Optional[int]:
        """Smallest aggressor count that produces any flip (None if the
        tracker absorbed every probe up to ``max_capacity + 1``)."""
        scan: List[Dict[str, int]] = []
        onset = None
        for n in range(2, self.max_capacity + 2):
            aggressors = [self.aggressor(i) for i in range(n)]
            flipped = self._round_robin_probe(aggressors, "onset")
            scan.append({"aggressors": n, "flips": len(flipped)})
            if flipped:
                onset = n
                break
        evidence["onset_scan"] = scan
        return onset

    def _classify_order(
        self, onset: int, evidence: Dict[str, Any]
    ) -> Optional[str]:
        """first_k_per_window detection via forward/reverse asymmetry."""
        aggressors = [self.aggressor(i) for i in range(onset)]
        fwd = self._round_robin_probe(aggressors, "order_forward")
        rev = self._round_robin_probe(list(reversed(aggressors)), "order_reverse")
        evidence["order_forward_flips"] = sorted(a for _, a in fwd)
        evidence["order_reverse_flips"] = sorted(a for _, a in rev)
        last = {(self.bank, aggressors[-1])}
        first = {(self.bank, aggressors[0])}
        if fwd == last and rev == first:
            return "first_k_per_window"
        return None

    def _classify_hot_row(
        self, capacity: int, evidence: Dict[str, Any]
    ) -> str:
        """counter_lru vs random_sample via a deliberately hot aggressor."""
        n_hot = capacity + 4
        rows = [self.aggressor(i) for i in range(n_hot)]
        hot, others = rows[0], rows[1:]
        # The hot row earns two activations per cycle, everyone else one:
        # under counter_lru its counter is never the minimum, so it stays
        # tracked and its victim stays refreshed.
        cycle = [
            (self.bank, hot),
            (self.bank, others[0]),
            (self.bank, hot),
        ] + [(self.bank, r) for r in others[1:]]
        flipped = self._run_probe(
            "hot_row", cycle * self.cycles, self._victims(self.bank, rows)
        )
        hot_flipped = (self.bank, hot) in flipped
        evidence["hot_row"] = hot
        evidence["hot_row_flipped"] = hot_flipped
        evidence["hot_probe_flips"] = sorted(a for _, a in flipped)
        return "random_sample" if hot_flipped else "counter_lru"

    def _classify_bank_scope(
        self, capacity: int, evidence: Dict[str, Any]
    ) -> Optional[bool]:
        """Per-bank vs shared trackers via a two-bank interleave."""
        if self.dram.geometry.total_banks < 2:
            return None
        other = (self.bank + 1) % self.dram.geometry.total_banks
        aggressors = [self.aggressor(i) for i in range(capacity)]
        cycle: List[Tuple[int, int]] = []
        for a in aggressors:
            cycle.append((self.bank, a))
            cycle.append((other, a))
        victims = self._victims(self.bank, aggressors) + self._victims(
            other, aggressors
        )
        flipped = self._run_probe("bank_scope", cycle * self.cycles, victims)
        evidence["bank_scope_flips"] = len(flipped)
        return not flipped

    # -- entry point -------------------------------------------------------

    def infer(self) -> InferenceReport:
        """Run the full battery and return the inference report."""
        evidence: Dict[str, Any] = {}
        # Baseline: a lone aggressor is always tracked by any sampler with
        # capacity >= 1, so its victim flipping means there is no effective
        # protection at all (no TRR, or a threshold too slow to matter).
        baseline = self._round_robin_probe([self.aggressor(0)], "baseline")
        evidence["baseline_flips"] = len(baseline)
        if baseline:
            report = InferenceReport(
                tracker_capacity=0,
                sampling_policy=POLICY_NONE,
                per_bank=None,
                bank=self.bank,
                probes=self._probe_index,
                activations=self._activations,
                flips_observed=len(self.dram.flips),
                decoy_rows=[],
                evidence=evidence,
            )
            return self._finish(report)
        onset = self._scan_onset(evidence)
        if onset is None:
            report = InferenceReport(
                tracker_capacity=None,
                sampling_policy=POLICY_UNKNOWN,
                per_bank=None,
                bank=self.bank,
                probes=self._probe_index,
                activations=self._activations,
                flips_observed=len(self.dram.flips),
                decoy_rows=[],
                evidence=evidence,
            )
        else:
            capacity = onset - 1
            policy = self._classify_order(onset, evidence)
            if policy is None:
                policy = self._classify_hot_row(capacity, evidence)
            per_bank = self._classify_bank_scope(capacity, evidence)
            decoys = [
                self.decoy_base + self.spacing * i for i in range(capacity + 8)
            ]
            report = InferenceReport(
                tracker_capacity=capacity,
                sampling_policy=policy,
                per_bank=per_bank,
                bank=self.bank,
                probes=self._probe_index,
                activations=self._activations,
                flips_observed=len(self.dram.flips),
                decoy_rows=decoys,
                evidence=evidence,
            )
        return self._finish(report)

    def _finish(self, report: InferenceReport) -> InferenceReport:
        if self.tracer is not None:
            fields: Dict[str, Any] = {
                "policy": report.sampling_policy,
                "probes": report.probes,
            }
            if report.tracker_capacity is not None:
                fields["capacity"] = report.tracker_capacity
            if report.per_bank is not None:
                fields["per_bank"] = report.per_bank
            self.tracer.emit("utrr.report", **fields)
        return report


#: The vulnerability profile the bundled U-TRR target uses: every row has
#: weak cells, so an unprotected aggressor's victim reliably witnesses it.
TARGET_PROFILE = "fragile2023"


def build_utrr_target(
    trr_config: Optional[Dict[str, Any]],
    *,
    seed: int = 0,
    clock: Optional[SimClock] = None,
    tracer=None,
    refresh_threshold: Optional[int] = None,
) -> DramModule:
    """A small, uniformly weak DRAM module guarded by the given TRR config.

    The standard test target for the pipeline: 4 banks x 256 rows of the
    FRAGILE vulnerability profile, so probe victims always carry weak
    cells and inference outcomes depend only on the sampler.
    """
    from repro.testkit.fixtures import FRAGILE, SMALL_DRAM

    config = dict(trr_config) if trr_config else None
    if config is not None and refresh_threshold is not None:
        config.setdefault("refresh_threshold", refresh_threshold)
    if clock is None:
        clock = SimClock()
    vuln = VulnerabilityModel(FRAGILE, SMALL_DRAM, seed=seed)
    return DramModule(
        SMALL_DRAM,
        vuln,
        clock,
        trr=trr_from_config(config),
        tracer=tracer,
    )


def run_utrr(
    trr_config: Dict[str, Any],
    *,
    seed: int,
    max_capacity: int,
    cycles: int,
    trace_path: Optional[str],
) -> InferenceReport:
    """One inference run against :func:`build_utrr_target`.

    The single run path behind both the ``utrr`` CLI command and the
    ``utrr`` sweep trial kind.  With ``trace_path`` the run streams its
    ``utrr.*``/``dram.*`` events there, closed with the module's metrics.
    """
    tracer = None
    dram = build_utrr_target(trr_config, seed=seed)
    if trace_path is not None:
        from repro.trace import Tracer

        tracer = Tracer(dram.clock, path=trace_path)
        dram.tracer = tracer
    report = UtrrPipeline(
        dram, tracer=tracer, max_capacity=max_capacity, cycles=cycles
    ).infer()
    if tracer is not None:
        tracer.close(metrics=dram.metrics.snapshot())
    return report
