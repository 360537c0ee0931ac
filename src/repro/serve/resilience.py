"""Per-tenant fault tolerance for the serving frontend.

The paper's attack works because a storage device keeps answering I/O
while its internals degrade — media errors, retention flips, program
failures, and power cuts all surface to the frontend as ordinary NVMe
completions (or one :class:`~repro.errors.PowerLossInterrupt`).  This
module is what the frontend *does* about them, as declarative per-tenant
policy:

* :class:`ResiliencePolicy` — bounded retry-with-backoff over the shared
  :data:`repro.policies.RETRYABLE_STATUSES` set, a per-command deadline
  that counts queue wait and backoff against the command's budget,
  optional hedged reads (a duplicate dispatched once the primary has been
  outstanding longer than a p99-derived delay; first completion wins,
  the loser is cancelled deterministically), and a read-only degradation
  mode (``fail_fast`` | ``park`` | ``drop_tenant``).
* :class:`SloPolicy` — a per-tenant latency target plus error budget;
  the scheduler turns both into burn-rate / budget-remaining gauges in
  the Prometheus exposition.
* :class:`DurabilityLedger` — the serving twin of the differential
  oracle's durability ledger (PR 4): every *acknowledged* write is
  recorded, and after any crash/recovery the recovered media must hold
  the acked payload (or, for trimmed LBAs, an older durable generation —
  trims are not power-loss barriers).  Anything else is a lost acked
  write, which the chaos gate requires to be exactly zero.

Everything here is pure policy/data; the enforcement lives in
:class:`repro.serve.scheduler.ServeScheduler` and advances only the sim
clock, so chaos runs stay byte-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from repro.errors import ConfigError
from repro.policies import RETRYABLE_STATUSES, RetryPolicy

#: What a tenant's writes do once the device degrades to read-only
#: (spare-block pool exhausted).  Reads keep flowing in every mode.
#:
#: * ``fail_fast`` — writes are submitted and fail immediately with
#:   ``READ_ONLY`` (counted as labeled errors; the tenant sees them).
#: * ``park`` — writes are held in a parked list without touching the
#:   device, awaiting operator action; only reads are served.
#: * ``drop_tenant`` — the tenant is evicted: its queued and pending
#:   operations are discarded and it stops being served entirely.
DEGRADED_MODES = ("fail_fast", "park", "drop_tenant")

#: Fixed power-cycle overhead (reset, firmware boot) before the recovery
#: OOB scan starts, seconds.  The scan itself costs one page read per
#: scanned page, amortized over the die parallelism — so the availability
#: gap grows with device fill, exactly like a real mount-time scan.
POWER_CYCLE_RESET_TIME = 5e-3


def recovery_gap(scanned_pages: int, read_page_time: float,
                 parallelism: float) -> float:
    """Simulated unavailability of one power cut: reset + full OOB scan."""
    return POWER_CYCLE_RESET_TIME + scanned_pages * read_page_time / parallelism


@dataclass(frozen=True)
class SloPolicy:
    """A tenant's service-level objective: latency target + error budget."""

    #: Per-command latency target, seconds (a p99-style bound: each
    #: completion over it is an SLO violation).
    latency_target: float = 1e-3
    #: Allowed violating fraction of commands (0.01 = 1% may be bad).
    error_budget: float = 0.01

    def __post_init__(self) -> None:
        if self.latency_target <= 0:
            raise ConfigError("latency_target must be positive")
        if not 0.0 < self.error_budget <= 1.0:
            raise ConfigError("error_budget must be in (0, 1]")

    def burn_rate(self, violations: int, commands: int) -> float:
        """Fraction of the error budget consumed (1.0 = fully burned)."""
        if commands <= 0:
            return 0.0
        return (violations / commands) / self.error_budget

    def budget_remaining(self, violations: int, commands: int) -> float:
        """1 - burn rate; negative when the tenant blew its budget."""
        return 1.0 - self.burn_rate(violations, commands)


@dataclass(frozen=True)
class ResiliencePolicy:
    """Everything the scheduler does for one tenant when I/O goes wrong."""

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Per-command deadline, seconds, measured from the command's trace
    #: issue time — queue wait and retry backoff both count against it.
    #: A command over deadline at dispatch is abandoned (its queue slot
    #: was consumed either way).  None = no deadline.
    deadline: Optional[float] = None
    #: Hedge reads: once the primary read has been outstanding longer
    #: than :meth:`hedge_after`, a duplicate is considered in flight;
    #: if the primary fails, the duplicate's completion wins.
    hedge: bool = False
    #: Explicit hedge delay, seconds.  None derives it from the SLO
    #: latency target (the p99 bound is exactly the "only hedge the
    #: slowest tail" heuristic).
    hedge_delay: Optional[float] = None
    #: Write handling after read-only degradation (see DEGRADED_MODES).
    on_read_only: str = "fail_fast"
    slo: SloPolicy = field(default_factory=SloPolicy)

    def __post_init__(self) -> None:
        if self.retry.max_attempts < 1:
            raise ConfigError("retry_attempts must be at least 1")
        if self.deadline is not None and self.deadline <= 0:
            raise ConfigError("deadline must be positive (or null)")
        if self.hedge_delay is not None and self.hedge_delay <= 0:
            raise ConfigError("hedge_delay must be positive (or null)")
        if self.on_read_only not in DEGRADED_MODES:
            raise ConfigError(
                "on_read_only must be one of %s" % (DEGRADED_MODES,)
            )

    def hedge_after(self) -> float:
        """The delay after which the hedged duplicate is in flight."""
        if self.hedge_delay is not None:
            return self.hedge_delay
        return self.slo.latency_target

    # -- flat (de)serialization, sharing the tenant dict ----------------

    _FLAT_KEYS = (
        "retry_attempts", "retry_backoff", "retry_multiplier",
        "deadline", "hedge", "hedge_delay", "on_read_only",
        "latency_target", "error_budget",
    )

    @classmethod
    def pop_flat(cls, data: Dict[str, Any]) -> "ResiliencePolicy":
        """Build a policy from (and remove) flat tenant-dict keys."""
        defaults = RetryPolicy()
        retry = RetryPolicy(
            max_attempts=int(data.pop("retry_attempts", defaults.max_attempts)),
            backoff=float(data.pop("retry_backoff", defaults.backoff)),
            multiplier=float(
                data.pop("retry_multiplier", defaults.multiplier)
            ),
        )
        slo_defaults = SloPolicy()
        slo = SloPolicy(
            latency_target=float(
                data.pop("latency_target", slo_defaults.latency_target)
            ),
            error_budget=float(
                data.pop("error_budget", slo_defaults.error_budget)
            ),
        )
        deadline = data.pop("deadline", None)
        hedge_delay = data.pop("hedge_delay", None)
        return cls(
            retry=retry,
            deadline=None if deadline is None else float(deadline),
            hedge=bool(data.pop("hedge", False)),
            hedge_delay=None if hedge_delay is None else float(hedge_delay),
            on_read_only=str(data.pop("on_read_only", "fail_fast")),
            slo=slo,
        )

    def write_flat(self, out: Dict[str, Any]) -> None:
        """Write only the non-default knobs into a tenant dict, so
        scenarios without resilience config round-trip byte-identically."""
        defaults = RetryPolicy()
        if self.retry.max_attempts != defaults.max_attempts:
            out["retry_attempts"] = self.retry.max_attempts
        if self.retry.backoff != defaults.backoff:
            out["retry_backoff"] = self.retry.backoff
        if self.retry.multiplier != defaults.multiplier:
            out["retry_multiplier"] = self.retry.multiplier
        if self.deadline is not None:
            out["deadline"] = self.deadline
        if self.hedge:
            out["hedge"] = True
        if self.hedge_delay is not None:
            out["hedge_delay"] = self.hedge_delay
        if self.on_read_only != "fail_fast":
            out["on_read_only"] = self.on_read_only
        slo_defaults = SloPolicy()
        if self.slo.latency_target != slo_defaults.latency_target:
            out["latency_target"] = self.slo.latency_target
        if self.slo.error_budget != slo_defaults.error_budget:
            out["error_budget"] = self.slo.error_budget


class DurabilityLedger:
    """Acked-write bookkeeping for the crash-recovery audit.

    Keys are *device* LBAs (namespace-translated).  For each LBA the
    ledger keeps every acknowledged payload generation, because a crash
    after a trim may legally resurrect any previously durable generation
    (trims are not power-loss barriers — the flash copy survives until
    GC erases it).
    """

    def __init__(self) -> None:
        self.history: Dict[int, List[bytes]] = {}
        self.trimmed: Set[int] = set()
        self.acked_writes = 0
        self.acked_trims = 0

    def record_write(self, lba: int, data: bytes) -> None:
        self.history.setdefault(lba, []).append(bytes(data))
        self.trimmed.discard(lba)
        self.acked_writes += 1

    def record_trim(self, lba: int) -> None:
        if lba in self.history:
            self.trimmed.add(lba)
        self.acked_trims += 1

    def audit(self, ftl, exempt=()) -> Dict[str, int]:
        """Judge the device's current media state against the ledger.

        Uses the side-effect-free inspection paths (``l2p.peek`` +
        ``flash.inspect_page``) so auditing never advances the clock or
        perturbs fault-injection counters.  ``exempt`` lists device LBAs
        whose payload an injected retention flip corrupted — that is
        correct device behavior, not data loss.  An L2P entry that a
        disturbance flip pointed off the flash array (the same test
        :meth:`PageMappingFtl.read` applies) is the attack's outcome, not a
        loss either: those LBAs are counted as ``hammer_redirected``.
        """
        exempt = set(exempt)
        total_pages = ftl.flash.geometry.total_pages
        intact = 0
        lost = 0
        resurrected = 0
        corrupt_exempt = 0
        redirected = 0
        for lba in sorted(self.history):
            generations = self.history[lba]
            ppa = ftl.l2p.peek(lba)
            if ppa is not None and ppa >= total_pages:
                redirected += 1
                continue
            current = None if ppa is None else ftl.flash.inspect_page(ppa)
            if lba in self.trimmed:
                if current is None:
                    intact += 1
                elif current in generations:
                    resurrected += 1
                elif lba in exempt:
                    corrupt_exempt += 1
                else:
                    lost += 1
                continue
            if current is not None and current == generations[-1]:
                intact += 1
            elif lba in exempt:
                corrupt_exempt += 1
            else:
                lost += 1
        return {
            "acked_writes": self.acked_writes,
            "acked_trims": self.acked_trims,
            "audited_lbas": len(self.history),
            "intact": intact,
            "lost": lost,
            "trim_resurrected": resurrected,
            "corrupt_exempt": corrupt_exempt,
            "hammer_redirected": redirected,
        }


__all__ = [
    "DEGRADED_MODES",
    "POWER_CYCLE_RESET_TIME",
    "DurabilityLedger",
    "ResiliencePolicy",
    "RETRYABLE_STATUSES",
    "RetryPolicy",
    "SloPolicy",
    "recovery_gap",
]
