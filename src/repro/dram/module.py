"""The DRAM module: storage, refresh windows, disturbance, mitigations.

This is the physical memory under the FTL.  Reads and writes go through the
controller's address-mapping function into per-bank sparse row arrays; every
access that opens a row is an *activation*, and activations of a victim
row's neighbours inside one refresh window accumulate *disturbance* (see
:mod:`repro.dram.vulnerability`).  When disturbance crosses a weak cell's
threshold, the stored bit really flips — whatever lives there (for us: L2P
entries) is silently corrupted.

Every entry point feeds activations into one of three shared steps:

* the **per-ACT step** (:meth:`DramModule._act`) runs one activation
  through the TRR and PARA hooks and checks its neighbours for flips.
  Scalar :meth:`~DramModule.read`/:meth:`~DramModule.write` reach it
  through the row buffer.  :meth:`~DramModule.activate_burst` and the
  order-sensitive TRR replay of :meth:`~DramModule.access_batch` feed it
  ordered activation streams as ``(unit, repeats)`` phases
  (:meth:`DramModule._replay_activations`).  A long phase is replayed
  exactly only until the sampler's state repeats at a unit boundary;
  the repeating stretches are then skipped with exact arithmetic, up to
  the stretch in which some victim would reach its next weak cell.  The
  result is identical to feeding every ACT through the step;
* the **histogram step** (:meth:`DramModule._account_histogram`) adds a
  coalesced ``(bank, row) -> count`` histogram to the current refresh
  window and evaluates each victim once with the final counts.
  :meth:`~DramModule.access_batch` and the vectorized
  :meth:`~DramModule.read_batch`/:meth:`~DramModule.write_batch` use it;
* the **pattern step** (:meth:`DramModule._add_pattern`) splits one
  window's share of a repeating pattern round-robin over its positions.
  :meth:`~DramModule.hammer` walks a campaign's refresh windows in closed
  form and applies it per window, so two simulated hours of
  multi-million-IOPS hammering cost milliseconds of host time.

Victim disturbance is computed in one place (:meth:`DramModule._disturbance`).
The batch steps model the default TRR tracker by its disturbance cap (or
full evasion when the pattern thrashes the sampler) and PARA by one
binomial draw of mid-window refreshes per victim; property tests pin the
histogram and scalar paths to the same flips when no randomized
mitigation is active.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.dram.address import DramAddress
from repro.dram.bank import Bank, CLOSED_PAGE, OPEN_PAGE
from repro.dram.ecc import SecdedCodec
from repro.dram.geometry import DramGeometry
from repro.dram.mapping import AddressMapping, SequentialMapping
from repro.dram.para import Para
from repro.dram.trr import TargetRowRefresh
from repro.dram.vulnerability import VulnerabilityModel
from repro.errors import ConfigError, DramAddressError
from repro.sim.clock import SimClock
from repro.sim.metrics import MetricRegistry
from repro.units import ms

_INF = float("inf")
_WORD = SecdedCodec.word_bytes
_MISSING = object()


@dataclass(frozen=True, slots=True)
class FlipEvent:
    """One disturbance bitflip that actually changed stored state."""

    time: float
    bank: int
    row: int
    byte_offset: int
    bit: int
    flips_to: int
    old_byte: int
    new_byte: int
    #: True when the flip hit ECC check bits rather than data.  Derived at
    #: creation from ``byte_offset >= geometry.row_bytes`` (offsets at or
    #: past the data bytes index the check region).
    in_check_region: bool = False


@dataclass(slots=True)
class HammerResult:
    """Outcome of one :meth:`DramModule.hammer` campaign."""

    accesses: int
    duration: float
    windows: int
    flips: List[FlipEvent] = field(default_factory=list)
    trr_capped: bool = False
    para_refreshes: int = 0

    @property
    def flip_count(self) -> int:
        return len(self.flips)


def _round_robin_phases(counts: Dict[Tuple[int, int], int]):
    """The canonical interleaving a coalesced histogram stands for, as
    replay phases: cycle over its distinct keys in first-seen order, one
    activation each, until every count is spent.  Every count level is one
    ``(unit, repeats)`` phase over the keys that still have activations
    left."""
    phases = []
    spent = 0
    for level in sorted(set(counts.values())):
        phases.append(([key for key, n in counts.items() if n > spent], level - spent))
        spent = level
    return phases


#: Candidate periods :func:`_periodic_phases` checks before it gives up, so
#: an aperiodic stream costs a few C-level list comparisons at most.
_PERIOD_CANDIDATES = 8


def _periodic_phases(seq: List[Tuple[int, int]]):
    """An ordered activation list as replay phases: its smallest period
    ``p`` (a ``p`` with ``seq[p:] == seq[:n - p]``, repeated at least
    twice) as one phase and the partial period after it as another, or
    the whole list once when it is not periodic."""
    n = len(seq)
    if n >= 4:
        first = seq[0]
        period = 0
        for _ in range(_PERIOD_CANDIDATES):
            try:
                period = seq.index(first, period + 1, n // 2 + 1)
            except ValueError:
                break
            if seq[period:] == seq[: n - period]:
                repeats, tail = divmod(n, period)
                phases = [(seq[:period], repeats)]
                if tail:
                    phases.append((seq[n - tail :], 1))
                return phases
    return [(seq, 1)]


class _TrrLog:
    """Stands in for the tracer over one exactly replayed stretch and keeps
    its ``dram.trr`` events: the only events a skipped stretch repeats."""

    __slots__ = ("tracer", "events")

    def __init__(self, tracer):
        self.tracer = tracer
        self.events: List[Dict] = []

    def emit(self, name: str, **fields) -> None:
        if name == "dram.trr":
            self.events.append(fields)
        self.tracer.emit(name, **fields)


class _PatternPlan:
    """Precomputed per-pattern state for the batch hammer fast path.

    Validating a pattern, splitting accesses over its positions, and
    enumerating its victim rows is pure function of (pattern, geometry,
    vulnerability) — all fixed for a module's lifetime — yet the seed code
    redid it every refresh window.  A plan is built once per distinct
    pattern and cached on the module.
    """

    __slots__ = (
        "length",
        "entries",
        "simple_entries",
        "banks",
        "victims",
        "min_victim_threshold",
        "ub_coeff",
    )

    def __init__(self, module: "DramModule", pattern: Tuple[Tuple[int, int], ...]):
        self.length = len(pattern)
        # Unique (bank, row) keys in first-seen order, each with the sorted
        # pattern positions it occupies (for the round-robin access split).
        positions: Dict[Tuple[int, int], List[int]] = {}
        for index, key in enumerate(pattern):
            positions.setdefault(key, []).append(index)
        self.entries: List[Tuple[int, int, List[int]]] = [
            (key[0], key[1], pos) for key, pos in positions.items()
        ]
        # When every (bank, row) occupies exactly one pattern position — the
        # overwhelmingly common case — the round-robin split degenerates to
        # ``base + (position < extra)`` and the window loops skip the bisect.
        if all(len(pos) == 1 for _b, _r, pos in self.entries):
            self.simple_entries: Optional[List[Tuple[int, int, int]]] = [
                (bank_idx, row, pos[0]) for bank_idx, row, pos in self.entries
            ]
        else:
            self.simple_entries = None
        self.banks: List[int] = []
        rows_in_bank: Dict[int, set] = {}
        for bank_idx, row, _pos in self.entries:
            if bank_idx not in rows_in_bank:
                self.banks.append(bank_idx)
                rows_in_bank[bank_idx] = set()
            rows_in_bank[bank_idx].add(row)

        vulnerability = module.vulnerability
        reach = (-2, -1, 1, 2) if vulnerability.neighbor2_weight else (-1, 1)
        victim_sets: Dict[int, set] = {}
        for bank_idx, row, _pos in self.entries:
            for delta in reach:
                victim = row + delta
                if 0 <= victim < module.geometry.rows_per_bank:
                    victim_sets.setdefault(bank_idx, set()).add(victim)
        #: (bank, sorted victim rows, distinct aggressor rows in bank).
        self.victims: List[Tuple[int, List[int], int]] = [
            (bank_idx, sorted(rows), len(rows_in_bank[bank_idx]))
            for bank_idx, rows in victim_sets.items()
        ]
        #: Lowest flip threshold over every victim the pattern can disturb.
        self.min_victim_threshold = min(
            (
                vulnerability.min_threshold(bank_idx, victim)
                for bank_idx, rows, _d in self.victims
                for victim in rows
            ),
            default=float("inf"),
        )
        # Upper bound on achievable disturbance per access in one window:
        # left+right <= accesses, min(left,right) <= accesses/2, and the
        # distance-2 shell contributes at most neighbor2_weight * accesses.
        self.ub_coeff = (
            1.0 + vulnerability.synergy / 2.0 + vulnerability.neighbor2_weight
        )


class DramModule:
    """A simulated DRAM module with a rowhammer disturbance model."""

    def __init__(
        self,
        geometry: DramGeometry,
        vulnerability: VulnerabilityModel,
        clock: SimClock,
        mapping: Optional[AddressMapping] = None,
        *,
        ecc: bool = False,
        trr: Optional[TargetRowRefresh] = None,
        para: Optional[Para] = None,
        refresh_interval: float = ms(64),
        row_policy: str = OPEN_PAGE,
        metrics: Optional[MetricRegistry] = None,
        tracer=None,
    ):
        if vulnerability.geometry is not geometry:
            if vulnerability.geometry != geometry:
                raise ConfigError("vulnerability model geometry mismatch")
        if row_policy not in (OPEN_PAGE, CLOSED_PAGE):
            raise ConfigError("unknown row policy %r" % row_policy)
        if refresh_interval <= 0:
            raise ConfigError("refresh interval must be positive")
        self.geometry = geometry
        self.mapping = mapping or SequentialMapping(geometry)
        self.vulnerability = vulnerability
        self.clock = clock
        self.refresh_interval = refresh_interval
        self.row_policy = row_policy
        self.ecc_enabled = ecc
        self.codec = SecdedCodec() if ecc else None
        self.trr = trr
        self.para = para
        self.metrics = metrics or MetricRegistry("dram")
        #: Optional structured tracer; every emit site checks ``is not
        #: None`` once, so an untraced module pays one attribute test.
        self.tracer = tracer
        self.banks = [Bank(i, geometry, ecc_enabled=ecc) for i in range(geometry.total_banks)]
        #: Every flip that changed stored state, in time order.
        self.flips: List[FlipEvent] = []
        # Cached geometry scalars: the dataclass properties recompute their
        # products on every call, which adds up on per-access paths.
        self._capacity = geometry.capacity_bytes
        self._row_bytes = geometry.row_bytes
        self._rows_per_bank = geometry.rows_per_bank
        #: Neighbour offsets that can be disturbed (fixed by the model).
        self._victim_deltas = (
            (-2, -1, 1, 2) if vulnerability.neighbor2_weight else (-1, 1)
        )
        # Disturbance coefficients, cached for the inlined arithmetic on
        # the per-access victim check (both fixed at model construction).
        self._synergy = vulnerability.synergy
        self._neighbor2_weight = vulnerability.neighbor2_weight
        # Direct handle on the model's memoized per-row thresholds: victim
        # checks sit on every access, and the method-call round trip is
        # measurable there.
        self._min_thresholds = vulnerability._min_cache
        #: Validated per-pattern plans for the batch hammer path.
        self._pattern_plans: Dict[Tuple[Tuple[int, int], ...], _PatternPlan] = {}
        #: (addrs, length) -> located coordinate lists.  Attack loops probe
        #: the same few L2P entry addresses millions of times; the mapping
        #: is a pure function so the translation can be memoized.  Bounded:
        #: cleared wholesale if an adversarial workload floods it.
        self._locate_cache: Dict[
            Tuple[Tuple[int, ...], int],
            Optional[Tuple[List[int], List[int], List[int]]],
        ] = {}
        self._reads = self.metrics.counter("reads")
        self._writes = self.metrics.counter("writes")
        self._activations = self.metrics.counter("activations")
        self._row_hits = self.metrics.counter("row_buffer_hits")
        self._flip_counter = self.metrics.counter("flips")
        self._ecc_corrected = self.metrics.counter("ecc_corrected")
        self._ecc_uncorrectable = self.metrics.counter("ecc_uncorrectable")

    # ------------------------------------------------------------------
    # exact access path
    # ------------------------------------------------------------------

    def _check_span(self, phys_addr: int, length: int) -> None:
        """Raise DramAddressError unless the span lies inside the module."""
        if length < 0:
            raise DramAddressError("negative length")
        if phys_addr < 0 or phys_addr + length > self._capacity:
            raise DramAddressError(
                "span [0x%x, 0x%x) exceeds module" % (phys_addr, phys_addr + length)
            )

    def read(self, phys_addr: int, length: int) -> bytes:
        """Read bytes; activates rows and may observe/correct flips."""
        self._reads.value += 1
        if self.tracer is not None:
            self.tracer.emit("dram.access", op="r", count=1, addr=phys_addr, len=length)
        self._check_span(phys_addr, length)
        out = b""
        while length > 0:  # one pass per row the span covers
            bank_idx, row, column = self.mapping.locate3(phys_addr)
            chunk = self._row_bytes - column
            if chunk > length:
                chunk = length
            self._touch(bank_idx, row)
            bank = self.banks[bank_idx]
            if self.ecc_enabled:
                out += self._read_ecc(bank, row, column, chunk)
            else:
                array = bank.data_rows.get(row)
                out += bytes(chunk) if array is None else array[column : column + chunk].tobytes()
            phys_addr += chunk
            length -= chunk
        return out

    def write(self, phys_addr: int, data: bytes) -> None:
        """Write bytes; activates rows; refreshes any pending flips away."""
        self._writes.value += 1
        data = bytes(data)
        length = len(data)
        if self.tracer is not None:
            self.tracer.emit("dram.access", op="w", count=1, addr=phys_addr, len=length)
        self._check_span(phys_addr, length)
        consumed = 0
        while consumed < length:
            bank_idx, row, column = self.mapping.locate3(phys_addr + consumed)
            chunk = self._row_bytes - column
            if chunk > length - consumed:
                chunk = length - consumed
            self._touch(bank_idx, row)
            bank = self.banks[bank_idx]
            stored = bank._data(row, allocate=True)
            stored.data[column : column + chunk] = data[consumed : consumed + chunk]
            if self.ecc_enabled:
                self._update_check_bytes(bank, row, column, chunk)
            consumed += chunk

    def _ecc_words(self, bank: Bank, row: int, column: int, length: int):
        """The whole words a span touches as stored bytes, their check
        bytes (the row's check region is allocated on first use) and the
        span's offset into them."""
        first, end = column // _WORD, -(-(column + length) // _WORD)
        array = bank.data_rows.get(row)
        raw = (bytes((end - first) * _WORD) if array is None
               else array[first * _WORD : end * _WORD].tobytes())
        return raw, bank.check_bytes(row, allocate=True)[first:end], column - first * _WORD

    def _read_ecc(self, bank: Bank, row: int, column: int, length: int) -> bytes:
        """Word-granular verified read; corrects single-bit flips.

        Only words whose stored check byte differs from their encoding
        are decoded (the others decode clean), in word order, so the first
        uncorrectable word raises after every earlier correction is
        counted."""
        raw, check, start = self._ecc_words(bank, row, column, length)
        stored = check.tobytes()
        if self.codec.encode_bytes(raw) != stored:
            raw = self.codec.correct_bytes(raw, stored, self._ecc_corrected)
        return raw[start : start + length]

    def _update_check_bytes(self, bank: Bank, row: int, column: int, length: int) -> None:
        """Recompute check bytes for every word a write touched."""
        raw, check, _start = self._ecc_words(bank, row, column, length)
        check[:] = np.frombuffer(self.codec.encode_bytes(raw), dtype=np.uint8)

    # ------------------------------------------------------------------
    # activation & disturbance
    # ------------------------------------------------------------------

    def _touch(self, bank_idx: int, row: int) -> None:
        """Account one scalar access to (bank, row): epoch rollover, the
        row buffer, counters, then the per-ACT step."""
        bank = self.banks[bank_idx]
        if not 0 <= row < self._rows_per_bank:
            raise DramAddressError(
                "row %d out of range in bank %d" % (row, bank_idx)
            )
        tracer = self.tracer
        epoch = int(self.clock._now / self.refresh_interval)
        if bank.epoch != epoch:
            bank.roll_epoch(epoch)
            if tracer is not None:
                tracer.emit("dram.refresh", bank=bank_idx, epoch=epoch)
            if self.trr is not None:
                self.trr.on_window(bank_idx)
        if self.row_policy == OPEN_PAGE:
            if bank.open_row == row:
                self._row_hits.value += 1
                return  # row buffer hit: no activation, no disturbance
            bank.open_row = row
        else:
            bank.open_row = None
        self._activations.value += 1
        if tracer is not None:
            tracer.emit("dram.activate", bank=bank_idx, row=row, count=1)
        self._act(bank, bank_idx, row)

    def _act(self, bank: Bank, bank_idx: int, row: int) -> None:
        """The per-ACT step: count one activation of ``row`` in the
        current window, run the TRR and PARA hooks, and apply any flips
        its neighbours have earned.  Immune neighbours (no weak cell) are
        skipped on the memoized threshold without a call."""
        acts = bank.acts
        acts[row] = acts.get(row, 0) + 1
        rows_per_bank = self._rows_per_bank
        if self.trr is not None:
            victims = self.trr.on_activation(bank_idx, row)
            if victims:
                if self.tracer is not None:
                    self.tracer.emit(
                        "dram.trr", bank=bank_idx, row=row, victims=len(victims)
                    )
                for victim in victims:
                    if 0 <= victim < rows_per_bank:
                        bank.refresh_victim(victim)
        if self.para is not None:
            victims = self.para.on_activation(bank_idx, row)
            if victims:
                if self.tracer is not None:
                    self.tracer.emit(
                        "dram.para", bank=bank_idx, row=row, victims=len(victims)
                    )
                for victim in victims:
                    if 0 <= victim < rows_per_bank:
                        bank.refresh_victim(victim)
        min_thresholds = self._min_thresholds
        for delta in self._victim_deltas:
            victim = row + delta
            if 0 <= victim < rows_per_bank:
                min_threshold = min_thresholds.get((bank_idx, victim))
                if min_threshold is None:
                    min_threshold = self.vulnerability.min_threshold(
                        bank_idx, victim
                    )
                if min_threshold != _INF:
                    disturbance = self._disturbance(bank, victim)
                    if disturbance >= min_threshold:
                        self._apply_flips(bank, victim, disturbance)

    def _disturbance(self, bank: Bank, victim: int) -> float:
        """The victim's disturbance from its neighbours' activations since
        its last refresh: :meth:`VulnerabilityModel.disturbance` with the
        side counts read inline (they are non-negative by construction, so
        the model's validation is redundant here)."""
        acts = bank.acts
        left = acts.get(victim - 1, 0)
        right = acts.get(victim + 1, 0)
        base = bank.victim_baseline.get(victim)
        if base is not None:
            left -= base[0]
            right -= base[1]
        disturbance = left + right + self._synergy * (
            left if left < right else right
        )
        if self._neighbor2_weight:
            left2, right2 = bank.victim_far_counts(victim)
            if left2 or right2:
                disturbance += self._neighbor2_weight * (left2 + right2)
        return disturbance

    def _apply_flips(self, bank: Bank, victim: int, disturbance: float) -> int:
        """Flip every weak cell at or below ``disturbance``; idempotent."""
        row_vuln = self.vulnerability.row_vulnerability(bank.index, victim)
        applied = 0
        for cell in row_vuln.cells:
            if cell.threshold > disturbance:
                break  # cells are sorted by threshold
            change = bank.flip_bit(victim, cell.byte_offset, cell.bit, cell.flips_to)
            if change is None:
                continue
            old, new = change
            event = FlipEvent(
                time=self.clock.now,
                bank=bank.index,
                row=victim,
                byte_offset=cell.byte_offset,
                bit=cell.bit,
                flips_to=cell.flips_to,
                old_byte=old,
                new_byte=new,
                in_check_region=cell.byte_offset >= self._row_bytes,
            )
            self.flips.append(event)
            self._flip_counter.add()
            if self.tracer is not None:
                self.tracer.emit(
                    "dram.flip",
                    bank=bank.index,
                    row=victim,
                    byte=cell.byte_offset,
                    bit=cell.bit,
                    to=cell.flips_to,
                    check_region=event.in_check_region,
                )
            applied += 1
        return applied

    # ------------------------------------------------------------------
    # batch hammer fast path
    # ------------------------------------------------------------------

    def hammer(
        self,
        pattern: Sequence[Tuple[int, int]],
        total_accesses: int,
        access_rate: float,
    ) -> HammerResult:
        """Run a hammering campaign in closed form.

        ``pattern`` is the repeating sequence of (bank, row) activations —
        e.g. ``[(b, r-1), (b, r+1)]`` for a double-sided attack on row
        ``r``.  ``access_rate`` is the *device-level* row-activation rate in
        accesses/second; ``total_accesses`` bounds the campaign.

        The campaign walks refresh windows: each window receives its share
        of activations, per-victim disturbance is evaluated once with the
        window's final counts, and flips are applied exactly as the exact
        path would have.  TRR is modelled by its disturbance cap (or fully
        evaded when the pattern thrashes the sampler); PARA by sampling the
        number of mid-window victim refreshes and scaling the achievable
        disturbance run.
        """
        if access_rate <= 0:
            raise ConfigError("access rate must be positive")
        if total_accesses < 0:
            raise ConfigError("total accesses cannot be negative")
        if self.trr is not None and self.trr.exact_batch_replay:
            raise ConfigError(
                "order-sensitive TRR configurations (policy %r, per_bank=%r, "
                "radius %d) cannot use the closed-form hammer path; drive "
                "activations through access_batch or scalar accesses"
                % (
                    self.trr.sampling_policy,
                    self.trr.per_bank,
                    self.trr.neighbor_radius,
                )
            )
        plan = self._pattern_plans.get(tuple(pattern))
        if plan is None:
            plan = self._plan_for(pattern)
        # Inert campaign: even if EVERY access landed in one window it could
        # not reach the weakest victim cell, so no window can flip anything.
        # The walk keeps its exact clock arithmetic (durations and window
        # counts must not change) but only the final window's counts are
        # applied: earlier windows' counts are cleared by the epoch rollover
        # and are observable by nobody.
        inert = (
            self.trr is None
            and self.para is None
            and total_accesses * plan.ub_coeff < plan.min_victim_threshold
        )
        tracer = self.tracer
        result = HammerResult(accesses=0, duration=0.0, windows=0)
        flips_before = len(self.flips)
        start_time = self.clock._now
        last_epoch = -1
        last_accesses = 0
        for epoch, accesses in self._windows(total_accesses, access_rate):
            if tracer is not None:
                tracer.emit(
                    "dram.window", epoch=epoch, accesses=accesses, pattern=plan.length
                )
            result.accesses += accesses
            result.windows += 1
            if not inert:
                self._hammer_window(plan, accesses, epoch, result)
            elif epoch == last_epoch:
                last_accesses += accesses
            else:
                last_epoch = epoch
                last_accesses = accesses
        if last_epoch >= 0:
            self._add_pattern(plan, last_accesses, last_epoch)
        self._activations.value += result.accesses
        result.duration = self.clock._now - start_time
        result.flips = self.flips[flips_before:]
        if tracer is not None:
            # Inert campaigns never touch a mitigation, so their event
            # carries no mitigation fields.
            fields = {} if inert else {
                "trr_capped": result.trr_capped,
                "para_refreshes": result.para_refreshes,
            }
            tracer.emit_at(
                "dram.hammer",
                start_time,
                accesses=result.accesses,
                windows=result.windows,
                flips=len(result.flips),
                dur=result.duration,
                **fields,
            )
        return result

    def _windows(self, total_accesses: int, access_rate: float):
        """The refresh-window walk: advance the clock over each window's
        share of a campaign and yield ``(epoch, accesses)`` after it, so
        flip events are stamped when the window's hammering has happened."""
        clock = self.clock
        interval = self.refresh_interval
        remaining = total_accesses
        while remaining > 0:
            now = clock._now
            epoch = int(now / interval)
            window_end = (epoch + 1) * interval
            budget = int(access_rate * (window_end - now))
            if budget <= 0:
                # Skip to the next window.  Guard against float rounding:
                # advancing exactly to (epoch+1)*interval can leave
                # epoch() unchanged, which would spin forever.
                clock.advance_to(max(window_end, now))
                if clock.epoch(interval) == epoch:
                    clock.advance(interval * 1e-6)
                continue
            accesses = budget if budget < remaining else remaining
            # SimClock.advance's float step; the increment is positive, so
            # its validation is redundant.
            clock._now = now + accesses / access_rate
            remaining -= accesses
            yield epoch, accesses

    def _plan_for(self, pattern: Sequence[Tuple[int, int]]) -> _PatternPlan:
        """Validate a hammer pattern and return its cached plan."""
        key = tuple(pattern)
        plan = self._pattern_plans.get(key)
        if plan is not None:
            return plan
        if not key:
            raise ConfigError("hammer pattern must not be empty")
        for (bank_idx, row) in key:
            if not 0 <= bank_idx < self.geometry.total_banks:
                raise DramAddressError("bank %d out of range" % bank_idx)
            if not 0 <= row < self._rows_per_bank:
                raise DramAddressError("row %d out of range" % row)
        for i in range(len(key)):
            if len(key) > 1 and key[i] == key[(i + 1) % len(key)]:
                raise ConfigError(
                    "consecutive duplicate rows in pattern never re-activate "
                    "under the open-page policy"
                )
        if len(set(key)) == 1 and self.row_policy == OPEN_PAGE:
            raise ConfigError(
                "a single-row pattern only hammers under the closed-page "
                "policy (one-location hammering)"
            )
        plan = _PatternPlan(self, key)
        self._pattern_plans[key] = plan
        return plan

    def _add_pattern(self, plan: _PatternPlan, accesses: int, epoch: int) -> None:
        """The pattern step: roll the pattern's banks into ``epoch`` and
        split ``accesses`` round-robin over the pattern positions,
        coalesced per (bank, row).  Every unique key receives one full
        share per position it occupies, plus one more for each of its
        positions below the remainder cutoff."""
        trr = self.trr
        banks = self.banks
        for bank_idx in plan.banks:
            if banks[bank_idx].roll_epoch(epoch) and trr is not None:
                trr.on_window(bank_idx)
        base, extra = divmod(accesses, plan.length)
        simple = plan.simple_entries
        if simple is not None:
            for bank_idx, row, position in simple:
                n = base + (position < extra)
                if n:
                    acts = banks[bank_idx].acts
                    acts[row] = acts.get(row, 0) + n
            return
        for bank_idx, row, positions in plan.entries:
            n = base * len(positions)
            if extra:
                n += bisect_left(positions, extra)
            if n:
                acts = banks[bank_idx].acts
                acts[row] = acts.get(row, 0) + n

    def _hammer_window(
        self,
        plan: _PatternPlan,
        accesses: int,
        epoch: int,
        result: HammerResult,
    ) -> None:
        """Apply one window's worth of a pattern and evaluate flips."""
        self._add_pattern(plan, accesses, epoch)
        trr = self.trr
        # Closed-form skip: when no mitigation is drawing per-window state
        # and even the best-case disturbance this window cannot reach the
        # weakest victim cell, the per-victim evaluation is a no-op — don't
        # pay for it.  This is what makes paper-scale campaigns on
        # non-fragile DRAM generations run at interpreter-free cost.
        if (
            trr is None
            and self.para is None
            and accesses * plan.ub_coeff < plan.min_victim_threshold
        ):
            return
        banks = self.banks
        for bank_idx, victim_rows, distinct_rows in plan.victims:
            bank = banks[bank_idx]
            trr_capped = trr is not None and not trr.evaded_by(distinct_rows)
            for victim in victim_rows:
                self._evaluate_victim(bank, victim, trr_capped, result)

    def _evaluate_victim(
        self,
        bank: Bank,
        victim: int,
        trr_capped: bool,
        result: Optional[HammerResult],
    ) -> None:
        """Evaluate one victim's disturbance with the window's final counts
        and apply any earned flips (shared by every batch path)."""
        if self.trr is None and self.para is None:
            min_threshold = self._min_thresholds.get((bank.index, victim))
            if min_threshold is None:
                min_threshold = self.vulnerability.min_threshold(bank.index, victim)
        else:
            min_threshold = None
        if min_threshold == _INF:
            # No weak cells and no mitigation state to advance: nothing any
            # disturbance value could do.  (With TRR/PARA active we still
            # run the full evaluation — it sets the trr_capped flag and
            # consumes PARA's random draws in the same order as the seed.)
            return
        disturbance = self._disturbance(bank, victim)
        if trr_capped:
            cap = self.vulnerability.disturbance(
                self.trr.refresh_threshold, self.trr.refresh_threshold
            )
            if disturbance > cap:
                disturbance = cap
                if result is not None:
                    result.trr_capped = True
        if self.para is not None:
            left, right = bank.victim_side_counts(victim)
            refreshes = self.para.draw_refresh_count(left + right)
            if refreshes:
                # Disturbance must accumulate inside one refresh-free
                # run; with k refreshes the longest run is ~1/(k+1)
                # of the window.
                disturbance /= refreshes + 1
                if result is not None:
                    result.para_refreshes += refreshes
        self._apply_flips(bank, victim, disturbance)

    # ------------------------------------------------------------------
    # vectorized batch access path
    # ------------------------------------------------------------------

    #: Below this batch size a plain Python gather loop beats numpy setup.
    _GROUP_MIN = 64

    def _batch_needs_exact_path(self) -> bool:
        """Whether batch accesses must fall back to the exact per-access
        path: ECC decodes word-by-word, and TRR/PARA sample per activation
        in order, so their semantics cannot be replayed from a histogram."""
        return self.ecc_enabled or self.trr is not None or self.para is not None

    def access_batch(self, activations: Sequence[Tuple[int, int, int]]) -> List[FlipEvent]:
        """Apply a coalesced ``(bank, row) -> count`` activation histogram.

        This is the general-pattern sibling of :meth:`hammer`: all
        activations land in the *current* refresh window (the caller owns
        the clock), per-victim disturbance is evaluated once with the
        batch's final counts, and flips are applied exactly as a scalar
        access loop would have — flips are idempotent and monotone in the
        counts, so evaluating once at the end yields the same flip set as
        evaluating after every access.  Returns the new flip events.

        Order-sensitive TRR configurations (``random_sample``,
        ``first_k_per_window``, shared trackers, wide radii) hold rows that
        depend on the activation *sequence*, so the cap-or-evade
        approximation is unfaithful for them: the histogram is then
        replayed exactly in its canonical interleaving, cycling over the
        distinct (bank, row) keys in first-seen order.  That interleaving
        is periodic between count levels, so it is replayed as one phase
        per level, and the repeating stretches of each are skipped in
        closed form.
        """
        counts: Dict[Tuple[int, int], int] = {}
        bank_rows: Dict[int, List[int]] = {}
        for bank_idx, row, n in activations:
            if n < 0:
                raise ConfigError("activation count cannot be negative")
            if not 0 <= bank_idx < self.geometry.total_banks:
                raise DramAddressError("bank %d out of range" % bank_idx)
            if not 0 <= row < self._rows_per_bank:
                raise DramAddressError("row %d out of range" % row)
            if n:
                key = (bank_idx, row)
                if key in counts:
                    counts[key] += n
                else:
                    counts[key] = n
                    bank_rows.setdefault(bank_idx, []).append(row)
        if not counts:
            return []
        if self.trr is not None and self.trr.exact_batch_replay:
            return self._replay_activations(_round_robin_phases(counts))
        flips_before = len(self.flips)
        self._account_histogram(counts, bank_rows)
        return self.flips[flips_before:]

    def activate_burst(
        self, activations: Sequence[Tuple[int, int]]
    ) -> List[FlipEvent]:
        """Apply an explicitly *ordered* sequence of (bank, row) ACTs.

        The exact-path sibling of :meth:`access_batch`: every entry runs
        the full per-activation sampler + victim pipeline a scalar access
        loop would (the row buffer is bypassed — each entry is a true
        activation by definition), but the caller controls the precise
        interleaving and the trace carries one aggregated activation
        event.  This is the U-TRR pipeline's hammer primitive: sampler
        policies are distinguished by activation *order*, which a
        coalesced histogram cannot express.

        A sequence that repeats one cycle (its smallest period, found with
        a few C-level list comparisons) runs exactly only until the
        sampler's state repeats; the repeating stretches are then skipped
        with exact arithmetic.  A 512-cycle U-TRR probe then runs between
        a twentieth and a third of its cycles through the per-ACT step,
        with byte-identical results; one whose sampler draws at random
        runs them all.
        """
        total_banks = self.geometry.total_banks
        rows_per_bank = self._rows_per_bank
        for bank_idx, row in activations:
            if not 0 <= bank_idx < total_banks:
                raise DramAddressError("bank %d out of range" % bank_idx)
            if not 0 <= row < rows_per_bank:
                raise DramAddressError(
                    "row %d out of range in bank %d" % (row, bank_idx)
                )
        return self._replay_activations(_periodic_phases(list(activations)))

    def _replay_activations(self, phases) -> List[FlipEvent]:
        """Run pre-validated activation phases through the per-ACT step,
        rolling each bank into the current window at its first activation;
        returns the new flip events.  A phase is a ``(unit, repeats)``
        pair: the ordered ``(bank, row)`` list ``unit`` run ``repeats``
        times back to back.  Long phases replay exactly only until the
        sampler's state repeats and skip the repeating stretches in closed
        form (:meth:`_replay_phase`)."""
        flips_before = len(self.flips)
        epoch = self.clock.epoch(self.refresh_interval)
        trr = self.trr
        banks = self.banks
        act = self._act
        rolled: set = set()
        total = 0
        for unit, repeats in phases:
            entries = [(banks[bank_idx], bank_idx, row) for bank_idx, row in unit]

            def run(count: int) -> None:
                for _ in range(count):
                    for bank, bank_idx, row in entries:
                        if bank_idx not in rolled:
                            if bank.roll_epoch(epoch) and trr is not None:
                                trr.on_window(bank_idx)
                            rolled.add(bank_idx)
                        act(bank, bank_idx, row)

            total += repeats * len(entries)
            if repeats < 4 or self.para is not None:
                # Finding a period, confirming it and skipping a stretch
                # take four units at least; PARA draws on every ACT, so its
                # state never repeats.
                run(repeats)
            else:
                self._replay_phase(entries, repeats, run)
        if total:
            self._activations.add(total)
            if self.tracer is not None:
                self.tracer.emit("dram.activate", count=total)
        return self.flips[flips_before:]

    def _replay_phase(self, entries, repeats: int, run) -> None:
        """Replay ``repeats`` units of one phase, skipping what repeats.

        After each whole unit the sampler's state is keyed; when a key
        repeats ``period`` units later, the phase alternates one stretch of
        ``period`` units run exactly with a closed-form jump over as many
        further stretches as :meth:`_skip_stretches` allows.  The RNG of
        random replacement is not keyed: a unit in which it drew restarts
        the search, and the key leads with the draw count, so no stretch
        that drew counts as repeating."""
        trr = self.trr
        unit_banks = list(dict.fromkeys(bank_idx for _b, bank_idx, _r in entries))

        def state():
            if trr is None:
                return (0, ())
            return (trr.draws, trr.sampler_state(unit_banks))

        stretch = self._stretch_plan(entries)
        seen: Dict[int, int] = {}
        draws = trr.draws if trr is not None else 0
        done = period = 0
        while done < repeats:
            if not period:
                run(1)
                done += 1
                if trr is not None and trr.draws != draws:
                    draws = trr.draws
                    seen.clear()
                    continue
                period = done - seen.setdefault(hash(state()), done)
            elif repeats - done < 2 * period:
                run(repeats - done)
                done = repeats
            else:
                limit = (repeats - done) // period - 1
                skipped = self._skip_stretches(stretch, period, limit, run, state)
                done += period
                if skipped is None:
                    period = 0
                    seen.clear()
                else:
                    done += skipped * period

    def _stretch_plan(self, entries):
        """What a stretch of ``entries`` units can change: the activation
        count of each ``(bank, row)`` per unit, and every ``(bank, bank
        index, row)`` within reach of its rows — of the TRR refresh
        (``neighbor_radius``) or of disturbance (2 with Half-Double)."""
        per_unit: Dict[Tuple[int, int], int] = {}
        for _bank, bank_idx, row in entries:
            key = (bank_idx, row)
            per_unit[key] = per_unit.get(key, 0) + 1
        reach = max(
            self.trr.neighbor_radius if self.trr is not None else 1,
            self._victim_deltas[-1],
        )
        rows_per_bank = self._rows_per_bank
        victims = {}
        for bank, bank_idx, row in entries:
            for victim in range(max(row - reach, 0), min(row + reach + 1, rows_per_bank)):
                victims[(bank_idx, victim)] = bank
        return per_unit, [(bank, bank_idx, v) for (bank_idx, v), bank in victims.items()]

    def _skip_stretches(self, stretch, period: int, limit: int, run, state) -> Optional[int]:
        """Run one stretch of ``period`` units exactly, then skip up to
        ``limit`` more in closed form; returns how many were skipped, or
        None when the sampler's ``state()`` at the stretch's end differs
        from its start.

        Every skipped stretch does exactly what the exact one did: each row
        gains the same activations, the sampler passes through the same
        states and refreshes the same victims at the same points.  So a
        victim refreshed in the stretch whose since-refresh counts are
        the same at both of its ends repeats the same disturbance in every
        stretch, and can flip nothing new; every other victim only gains
        disturbance, and the skip stops short of the stretch in which it
        would reach its next weak cell.  (A cell at or below the
        disturbance already reached was applied then, and applying it
        again is a no-op: cells have distinct (byte, bit) positions.)"""
        per_unit, victims = stretch
        trr = self.trr
        tracer = self.tracer
        before = state()
        bases = [bank.victim_baseline.get(victim) for bank, _i, victim in victims]
        refreshes = trr.refreshes_issued if trr is not None else 0
        log = None
        if tracer is not None:
            log = self.tracer = _TrrLog(tracer)
        try:
            run(period)
        finally:
            self.tracer = tracer
        if state() != before:
            return None
        gained = {key: n * period for key, n in per_unit.items()}
        skip = limit
        refreshed = []
        for (bank, bank_idx, victim), old_base in zip(victims, bases):
            base = bank.victim_baseline.get(victim)
            gain = (
                gained.get((bank_idx, victim - 1), 0),
                gained.get((bank_idx, victim + 1), 0),
                gained.get((bank_idx, victim - 2), 0),
                gained.get((bank_idx, victim + 2), 0),
            )
            if base != old_base:
                old = old_base or (0, 0, 0, 0)
                if (base[0] - old[0], base[1] - old[1], base[2] - old[2], base[3] - old[3]) != gain:
                    return 0
                refreshed.append((bank, victim, base, gain))
            elif gain[0] or gain[1] or (self._neighbor2_weight and (gain[2] or gain[3])):
                skip = self._stretches_below_next_cell(bank, victim, base, gain, skip)
                if not skip:
                    return 0
        if not skip:
            return 0
        banks = self.banks
        for (bank_idx, row), n in gained.items():
            banks[bank_idx].acts[row] += skip * n
        for bank, victim, base, gain in refreshed:
            bank.victim_baseline[victim] = (
                base[0] + skip * gain[0],
                base[1] + skip * gain[1],
                base[2] + skip * gain[2],
                base[3] + skip * gain[3],
            )
        if trr is not None:
            trr.refreshes_issued += skip * (trr.refreshes_issued - refreshes)
        if log is not None:
            for _ in range(skip):
                for fields in log.events:
                    tracer.emit("dram.trr", **fields)
        return skip

    def _stretches_below_next_cell(self, bank: Bank, victim: int, base, gain, limit: int) -> int:
        """The most stretches, up to ``limit``, after which an unrefreshed
        victim whose neighbours gain ``gain`` activations per stretch stays
        strictly below the next weak cell above its current disturbance.
        The closed form is :meth:`_disturbance`'s arithmetic with every
        count advanced by whole stretches."""
        current = self._disturbance(bank, victim)
        cells = self.vulnerability.row_vulnerability(bank.index, victim).cells
        ceiling = next((c.threshold for c in cells if c.threshold > current), None)
        if ceiling is None:
            return limit
        acts = bank.acts
        base = base or (0, 0, 0, 0)
        left = acts.get(victim - 1, 0) - base[0]
        right = acts.get(victim + 1, 0) - base[1]
        left2 = acts.get(victim - 2, 0) - base[2]
        right2 = acts.get(victim + 2, 0) - base[3]
        synergy = self._synergy
        weight2 = self._neighbor2_weight

        def below(j: int) -> bool:
            a = left + j * gain[0]
            b = right + j * gain[1]
            disturbance = a + b + synergy * (a if a < b else b)
            if weight2:
                a2 = left2 + j * gain[2]
                b2 = right2 + j * gain[3]
                if a2 or b2:
                    disturbance += weight2 * (a2 + b2)
            return disturbance < ceiling

        if below(limit):
            return limit
        low, high = 0, limit  # below(low) holds, below(high) does not
        while high - low > 1:
            mid = (low + high) // 2
            if below(mid):
                low = mid
            else:
                high = mid
        return low

    def _account_histogram(
        self, counts: Dict[Tuple[int, int], int], bank_rows: Dict[int, List[int]]
    ) -> None:
        """The histogram step: add ``counts`` to the current window, then
        evaluate every victim once with the final counts.  ``bank_rows``
        lists each touched bank's distinct activated rows in first-touch
        order (a bank may have none); banks are rolled and evaluated in
        that order."""
        epoch = self.clock.epoch(self.refresh_interval)
        trr = self.trr
        banks = self.banks
        for bank_idx in bank_rows:
            if banks[bank_idx].roll_epoch(epoch) and trr is not None:
                trr.on_window(bank_idx)
        total = 0
        for (bank_idx, row), n in counts.items():
            acts = banks[bank_idx].acts
            acts[row] = acts.get(row, 0) + n
            total += n
        if total:
            self._activations.value += total
            if self.tracer is not None:
                self.tracer.emit("dram.activate", count=total)
        reach = self._victim_deltas
        rows_per_bank = self._rows_per_bank
        for bank_idx, rows in bank_rows.items():
            victim_rows = {
                row + delta
                for row in rows
                for delta in reach
                if 0 <= row + delta < rows_per_bank
            }
            bank = banks[bank_idx]
            trr_capped = trr is not None and not trr.evaded_by(len(rows))
            for victim in sorted(victim_rows):
                self._evaluate_victim(bank, victim, trr_capped, None)

    def _locate_batch(self, phys_addrs: Sequence[int], length: int):
        """(banks, rows, columns) lists for a batch of equal-length spans,
        or None when any span crosses a row boundary (caller falls back).

        Results are memoized per (addrs, length): callers treat the lists
        as read-only, and hammer loops re-probe identical batches.
        """
        n = len(phys_addrs)
        if n <= 8:
            key = (tuple(phys_addrs), length)
            cached = self._locate_cache.get(key, _MISSING)
            if cached is not _MISSING:
                return cached
            if len(self._locate_cache) >= 4096:
                self._locate_cache.clear()
            located = self._locate_batch_uncached(phys_addrs, length)
            self._locate_cache[key] = located
            return located
        return self._locate_batch_uncached(phys_addrs, length)

    def _locate_batch_uncached(self, phys_addrs: Sequence[int], length: int):
        n = len(phys_addrs)
        if n < self._GROUP_MIN:
            locate3 = self.mapping.locate3
            banks: List[int] = []
            rows: List[int] = []
            columns: List[int] = []
            limit = self._row_bytes - length
            for addr in phys_addrs:
                bank, row, column = locate3(int(addr))
                if column > limit:
                    return None
                banks.append(bank)
                rows.append(row)
                columns.append(column)
            return banks, rows, columns
        addrs = np.asarray(phys_addrs, dtype=np.int64)
        banks_a, rows_a, columns_a = self.mapping.locate_many(addrs)
        if length and int(columns_a.max()) > self._row_bytes - length:
            return None
        return banks_a.tolist(), rows_a.tolist(), columns_a.tolist()

    def _account_batch(self, phys_addrs: Sequence[int], length: int, op: str):
        """Locate a vectorized read/write batch and account it like a loop
        of scalar accesses: counters, per-bank open-row collapse, then the
        histogram step.  Returns the located ``(banks, rows, columns)``, or
        None — with nothing accounted — when the batch must run access by
        access (:meth:`_batch_needs_exact_path`, or a row-crossing span)."""
        if self._batch_needs_exact_path():
            return None
        located = self._locate_batch(phys_addrs, length)
        if located is None:
            return None
        banks, rows, _columns = located
        n = len(banks)
        (self._reads if op == "r" else self._writes).value += n
        if self.tracer is not None:
            self.tracer.emit("dram.access", op=op, count=n, len=length)
        if n <= 16:
            # Tiny batch: per-access exact accounting is cheaper than the
            # dict machinery below, and it IS the reference semantics.
            touch = self._touch
            for bank_idx, row in zip(banks, rows):
                touch(bank_idx, row)
            return located
        open_page = self.row_policy == OPEN_PAGE
        open_rows: Dict[int, Optional[int]] = {}
        bank_rows: Dict[int, List[int]] = {}
        counts: Dict[Tuple[int, int], int] = {}
        row_hits = 0
        for bank_idx, row in zip(banks, rows):
            if bank_idx not in bank_rows:
                open_rows[bank_idx] = self.banks[bank_idx].open_row
                bank_rows[bank_idx] = []
            if open_page:
                if open_rows[bank_idx] == row:
                    row_hits += 1
                    continue
                open_rows[bank_idx] = row
            key = (bank_idx, row)
            if key not in counts:
                counts[key] = 1
                bank_rows[bank_idx].append(row)
            else:
                counts[key] += 1
        for bank_idx, open_row in open_rows.items():
            self.banks[bank_idx].open_row = open_row if open_page else None
        if row_hits:
            self._row_hits.value += row_hits
        self._account_histogram(counts, bank_rows)
        return located

    def _row_groups(self, banks: List[int], rows: List[int]):
        """Group a batch's indices by (bank, row): yields ``(bank, row,
        indices)`` with each group's indices in batch order."""
        key = np.asarray(banks) * self._rows_per_bank + np.asarray(rows)
        order = np.argsort(key, kind="stable")
        boundaries = np.flatnonzero(np.diff(key[order])) + 1
        for group in np.split(order, boundaries):
            first = int(group[0])
            yield self.banks[banks[first]], rows[first], group

    def read_batch(self, phys_addrs: Sequence[int], length: int) -> np.ndarray:
        """Read ``length`` bytes at each address; returns ``(n, length)``.

        The vectorized sibling of a :meth:`read` loop with identical
        accounting (reads counter, open-row collapse, activations, flips).
        All of the batch's disturbance is applied *before* the data gather,
        so returned bytes reflect every flip the batch itself caused.
        Falls back to the exact per-access path under ECC or an active
        TRR/PARA mitigation, and for spans that cross a row boundary.
        """
        n = len(phys_addrs)
        out = np.empty((n, length), dtype=np.uint8)
        if n == 0:
            return out
        located = self._account_batch(phys_addrs, length, "r")
        if located is None:
            for i, addr in enumerate(phys_addrs):
                out[i] = np.frombuffer(self.read(int(addr), length), dtype=np.uint8)
            return out
        banks, rows, columns = located
        if n < self._GROUP_MIN:
            for i in range(n):
                array = self.banks[banks[i]].data_rows.get(rows[i])
                if array is None:
                    out[i] = 0
                else:
                    column = columns[i]
                    out[i] = array[column : column + length]
            return out
        columns_a = np.asarray(columns)
        for bank, row, group in self._row_groups(banks, rows):
            out[group] = bank.read_gather(row, columns_a[group], length)
        return out

    def write_batch(self, phys_addrs: Sequence[int], data: np.ndarray) -> None:
        """Write ``data[i]`` (all equal length) at each address.

        Accounting mirrors a loop of :meth:`write` calls.  Disturbance from
        the batch's own activations is evaluated against pre-batch contents
        (all flips land before any payload byte), so a batch that hammers
        rows it also writes sees its payload win — the same end state as
        the scalar loop for non-self-hammering batches, which is what every
        internal caller issues.  Falls back to the exact path under ECC or
        TRR/PARA, and for row-crossing spans.
        """
        n = len(phys_addrs)
        if n == 0:
            return
        data = np.ascontiguousarray(data, dtype=np.uint8)
        if data.ndim != 2 or data.shape[0] != n:
            raise DramAddressError("write_batch data must be (n, length) bytes")
        length = data.shape[1]
        located = self._account_batch(phys_addrs, length, "w")
        if located is None:
            for i, addr in enumerate(phys_addrs):
                self.write(int(addr), data[i].tobytes())
            return
        banks, rows, columns = located
        if n < self._GROUP_MIN:
            for i in range(n):
                array = self.banks[banks[i]]._data(rows[i], allocate=True)
                column = columns[i]
                array[column : column + length] = data[i]
            return
        columns_a = np.asarray(columns)
        for bank, row, group in self._row_groups(banks, rows):
            bank.write_scatter(row, columns_a[group], data[group])

    # ------------------------------------------------------------------
    # observability helpers
    # ------------------------------------------------------------------

    def inspect(self, phys_addr: int, length: int) -> bytes:
        """Read bytes WITHOUT touching any accounting.

        No activation, no row-buffer update, no disturbance evaluation, no
        counters: this is the oracle's window into stored state, used by the
        invariant layer (:mod:`repro.testkit.invariants`) to compare DRAM
        contents against reference models without perturbing the very
        disturbance state it is checking.  Pending flips below threshold are
        not applied either — ``inspect`` sees exactly what a refresh-
        preserving probe would.
        """
        self._check_span(phys_addr, length)
        out = b""
        while length > 0:
            bank_idx, row, column = self.mapping.locate3(phys_addr)
            chunk = min(length, self._row_bytes - column)
            array = self.banks[bank_idx].data_rows.get(row)
            out += bytes(chunk) if array is None else array[column : column + chunk].tobytes()
            phys_addr += chunk
            length -= chunk
        return out

    def check(self) -> None:
        """Verify the module's internal invariants (refresh-window
        accounting, flip-event plausibility).  Raises
        :class:`~repro.testkit.invariants.InvariantViolation` on breakage.
        """
        from repro.testkit.invariants import check_dram

        check_dram(self)

    def flips_since(self, index: int) -> List[FlipEvent]:
        """Flip events appended after ``index`` (a previous len(flips))."""
        return self.flips[index:]

    def flipped_addresses(self, events: Optional[Iterable[FlipEvent]] = None) -> List[int]:
        """Physical byte addresses corrupted by the given flips (data region
        only; check-region flips have no physical byte address)."""
        row_bytes, address_of = self._row_bytes, self.mapping.address_of
        return [
            address_of(DramAddress(event.bank, event.row, event.byte_offset))
            for event in (events if events is not None else self.flips)
            if event.byte_offset < row_bytes
        ]
