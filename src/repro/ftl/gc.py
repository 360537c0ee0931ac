"""Garbage collection policies.

Flash cannot overwrite in place, so the FTL writes out of place and must
eventually reclaim blocks whose pages are mostly stale.  The collector
moves a victim block's still-valid pages to the write frontier, erases the
victim, and returns it to the free pool.

Note the validation step: before moving a page, the collector re-reads the
L2P entry and only treats the page as valid if the mapping still points at
it.  This mirrors SPDK's behaviour — and it matters for the attack: a
mapping entry corrupted by a bitflip no longer matches, so GC *preserves*
the misdirection instead of healing it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.errors import FlashEraseError


@dataclass
class GcStats:
    """Accounting for one or more collection passes."""

    collections: int = 0
    moved_pages: int = 0
    erased_blocks: int = 0
    dropped_stale_pages: int = 0
    flash_time: float = 0.0

    def merge(self, other: "GcStats") -> None:
        self.collections += other.collections
        self.moved_pages += other.moved_pages
        self.erased_blocks += other.erased_blocks
        self.dropped_stale_pages += other.dropped_stale_pages
        self.flash_time += other.flash_time


class GreedyGarbageCollector:
    """Pick the sealed block with the fewest valid pages (min-cost move)."""

    name = "greedy"

    def select_victim(self, ftl, candidates: List[int]) -> int:
        return min(candidates, key=lambda block: ftl.valid_count[block])

    def collect(self, ftl) -> GcStats:
        """Reclaim one block; returns the pass's accounting."""
        stats = GcStats(collections=1)
        candidates = ftl.sealed_blocks()
        if not candidates:
            return stats  # nothing reclaimable; caller decides what to do
        victim = self.select_victim(ftl, candidates)
        timing = ftl.flash.timing
        geometry = ftl.flash.geometry
        first = geometry.first_ppa_of_block(victim)
        for page in range(geometry.pages_per_block):
            ppa = first + page
            lba = ftl.reverse.get(ppa)
            if lba is None:
                continue
            if ftl.l2p.lookup(lba) != ppa:
                # The mapping moved on (overwrite race) or was corrupted by
                # a disturbance flip: the page is not reachable through the
                # table, so it is dropped rather than moved.
                del ftl.reverse[ppa]
                ftl.valid_count[victim] -= 1
                stats.dropped_stale_pages += 1
                continue
            data = ftl.flash.read_page(ppa)
            stats.flash_time += timing.read_page
            # Moved copies get a *fresh* OOB sequence number: if power is
            # lost before the victim is erased, recovery sees both copies
            # and must prefer the relocation (highest sequence wins).  A
            # program fault seals the open block and retries on a fresh
            # one, exactly as for a host write.
            new_ppa = ftl.program_fresh_page(lba, data)
            stats.flash_time += timing.program_page
            if ppa in ftl.dif_tags:
                # The protection-information bytes travel with the data.
                ftl.dif_tags[new_ppa] = ftl.dif_tags.pop(ppa)
            ftl.l2p.update(lba, new_ppa)
            del ftl.reverse[ppa]
            ftl.reverse[new_ppa] = lba
            ftl.valid_count[victim] -= 1
            ftl.valid_count[geometry.block_of_ppa(new_ppa)] += 1
            stats.moved_pages += 1
        for page in range(geometry.pages_per_block):
            ftl.dif_tags.pop(first + page, None)  # erase wipes the PI bytes
        try:
            ftl.flash.erase_block(victim)
        except FlashEraseError:
            # The block wore out (or grew bad): retire it, not recycle it.
            ftl.retire_block(victim)
            stats.flash_time += timing.erase_block
            return stats
        stats.flash_time += timing.erase_block
        stats.erased_blocks += 1
        ftl.release_block(victim)
        return stats


class WearAwareGarbageCollector(GreedyGarbageCollector):
    """Greedy victim selection with erase-count tie-breaking.

    Among the blocks with the minimal valid-page count, prefers the one
    erased the fewest times, spreading wear (a light-weight wear-leveling
    policy; ablation target)."""

    name = "wear-aware"

    def select_victim(self, ftl, candidates: List[int]) -> int:
        least_valid = min(ftl.valid_count[block] for block in candidates)
        tied = [b for b in candidates if ftl.valid_count[b] == least_valid]
        return min(tied, key=ftl.flash.block_erase_count)


class CostBenefitGarbageCollector(GreedyGarbageCollector):
    """The classic cost-benefit policy (Rosenblum/Kawaguchi):

        score = (1 - u) / (2u) * age

    where ``u`` is the block's valid-page utilization and ``age`` is how
    long ago it was last written (here: in write-sequence units).  Old,
    mostly-stale blocks win; hot blocks get time to accumulate more
    invalidations before being moved — better than pure greedy under
    skewed workloads."""

    name = "cost-benefit"

    def select_victim(self, ftl, candidates: List[int]) -> int:
        pages = ftl.flash.geometry.pages_per_block
        now = ftl.write_sequence

        def score(block: int) -> float:
            utilization = ftl.valid_count[block] / pages
            age = now - ftl.block_mtime.get(block, 0)
            if utilization <= 0:
                return float("inf")  # free to reclaim
            return (1 - utilization) / (2 * utilization) * age

        return max(candidates, key=score)
