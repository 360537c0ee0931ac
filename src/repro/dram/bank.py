"""One DRAM bank: sparse row storage, row buffer, activation bookkeeping.

The bank is pure state; all policy (mitigations, disturbance checks, flips)
lives in :class:`~repro.dram.module.DramModule`.  Rows are materialized
lazily — a 16 GiB module costs memory only for the rows actually written —
and unwritten rows read as zeros.

Activation accounting
---------------------
``acts[row]`` counts activations of ``row`` in the current refresh window
(*epoch*).  For each potential victim row we additionally keep a *baseline*:
snapshots of the two neighbours' counters taken when the victim was last
refreshed (by TRR, PARA, or the window rollover).  Disturbance of a victim
is computed from counts *since its baseline*, so refreshing a victim
properly forgives all prior hammering without touching the aggressors'
counters.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.dram.geometry import DramGeometry
from repro.errors import DramAddressError

#: Row-buffer policies.  Under ``open`` policy, back-to-back accesses to the
#: already-open row do not re-activate it (which is why hammer patterns must
#: alternate rows); under ``closed`` policy every access activates (which is
#: what makes one-location hammering work).
OPEN_PAGE = "open"
CLOSED_PAGE = "closed"


class Bank:
    """Storage and counters for one bank."""

    def __init__(self, index: int, geometry: DramGeometry, ecc_enabled: bool = False):
        self.index = index
        self.geometry = geometry
        self.ecc_enabled = ecc_enabled
        #: Lazily allocated row data, row -> uint8[row_bytes].
        self.data_rows: Dict[int, np.ndarray] = {}
        #: ECC check bytes, row -> uint8[row_bytes // 8] (when ECC is on).
        self.check_rows: Dict[int, np.ndarray] = {}
        #: Activations per row in the current epoch.
        self.acts: Dict[int, int] = {}
        #: Victim row -> activation counters snapshotted when the victim was
        #: last refreshed mid-window: (left, right, left2, right2) — the two
        #: adjacent neighbours plus the distance-2 (Half-Double) shell.
        self.victim_baseline: Dict[int, Tuple[int, int, int, int]] = {}
        #: Epoch index currently being accounted.
        self.epoch = -1
        #: Row currently held in the row buffer, or None after precharge.
        self.open_row: Optional[int] = None

    # -- epoch management --------------------------------------------------

    def roll_epoch(self, epoch: int) -> bool:
        """Enter refresh window ``epoch``; returns True if a rollover
        happened (all per-window counters are then cleared)."""
        if epoch == self.epoch:
            return False
        self.epoch = epoch
        self.acts.clear()
        self.victim_baseline.clear()
        return True

    # -- victim refresh (mitigations) ---------------------------------------

    def refresh_victim(self, row: int) -> None:
        """Record that ``row`` was refreshed mid-window: its disturbance
        restarts from the neighbours' *current* counters.  The stored
        baseline is the 4-tuple ``(left, right, left2, right2)`` covering
        both the adjacent and the distance-2 (Half-Double) shells."""
        self.victim_baseline[row] = (
            self.acts.get(row - 1, 0),
            self.acts.get(row + 1, 0),
            self.acts.get(row - 2, 0),
            self.acts.get(row + 2, 0),
        )

    def victim_side_counts(self, row: int) -> Tuple[int, int]:
        """Activations of the two neighbours since ``row``'s last refresh."""
        left = self.acts.get(row - 1, 0)
        right = self.acts.get(row + 1, 0)
        base = self.victim_baseline.get(row)
        if base is None:
            return left, right
        return left - base[0], right - base[1]

    def victim_far_counts(self, row: int) -> Tuple[int, int]:
        """Distance-2 neighbours' activations since ``row``'s last refresh
        (the Half-Double shell)."""
        left2 = self.acts.get(row - 2, 0)
        right2 = self.acts.get(row + 2, 0)
        base = self.victim_baseline.get(row)
        if base is None:
            return left2, right2
        return left2 - base[2], right2 - base[3]

    # -- storage -------------------------------------------------------------

    def _data(self, row: int, allocate: bool) -> Optional[np.ndarray]:
        array = self.data_rows.get(row)
        if array is None and allocate:
            array = np.zeros(self.geometry.row_bytes, dtype=np.uint8)
            self.data_rows[row] = array
        return array

    def check_bytes(self, row: int, allocate: bool = False) -> Optional[np.ndarray]:
        """The row's ECC check region (row_bytes/8 bytes)."""
        array = self.check_rows.get(row)
        if array is None and allocate:
            array = np.zeros(self.geometry.row_bytes // 8, dtype=np.uint8)
            self.check_rows[row] = array
        return array

    def is_allocated(self, row: int) -> bool:
        return row in self.data_rows

    def read(self, row: int, column: int, length: int) -> np.ndarray:
        """Read ``length`` bytes at (row, column); zeros if never written.

        The caller guarantees the span stays inside the row.
        """
        if column < 0 or column + length > self.geometry.row_bytes:
            raise DramAddressError(
                "read [%d, %d) exceeds row of %d bytes"
                % (column, column + length, self.geometry.row_bytes)
            )
        array = self._data(row, allocate=False)
        if array is None:
            return np.zeros(length, dtype=np.uint8)
        return array[column : column + length].copy()

    def write(self, row: int, column: int, data: np.ndarray) -> None:
        """Write bytes at (row, column), allocating the row on first use."""
        length = len(data)
        if column < 0 or column + length > self.geometry.row_bytes:
            raise DramAddressError(
                "write [%d, %d) exceeds row of %d bytes"
                % (column, column + length, self.geometry.row_bytes)
            )
        array = self._data(row, allocate=True)
        array[column : column + length] = data

    # -- batched storage (the vectorized I/O engine) -------------------------

    def read_gather(self, row: int, columns: np.ndarray, length: int) -> np.ndarray:
        """Read ``length`` bytes starting at each of ``columns`` in one row.

        Returns a ``(len(columns), length)`` uint8 matrix.  Every span must
        lie inside the row; the caller (DramModule.read_batch) guarantees
        that.  Unwritten rows read as zeros, like :meth:`read`.
        """
        array = self._data(row, allocate=False)
        if array is None:
            return np.zeros((len(columns), length), dtype=np.uint8)
        return array[np.asarray(columns)[:, None] + np.arange(length)]

    def write_scatter(self, row: int, columns: np.ndarray, data: np.ndarray) -> None:
        """Write ``data[i]`` at ``columns[i]``; the inverse of
        :meth:`read_gather`.  ``data`` is ``(len(columns), length)`` uint8.

        Overlapping spans follow numpy fancy-assignment semantics (last
        writer wins per byte), matching a sequential scalar write loop.
        """
        length = data.shape[1]
        array = self._data(row, allocate=True)
        array[np.asarray(columns)[:, None] + np.arange(length)] = data

    # -- disturbance application ---------------------------------------------

    def flip_bit(self, row: int, byte_offset: int, bit: int, flips_to: int) -> Optional[Tuple[int, int]]:
        """Apply one disturbance flip if the stored bit is in the charged
        state.

        ``byte_offset`` beyond ``row_bytes`` indexes the ECC check region.
        Returns ``(old_byte, new_byte)`` when a bit actually changed, else
        None.  Flips in never-written rows are ignored: there is nothing
        meaningful stored, and the next write replaces the content anyway.
        """
        row_bytes = self.geometry.row_bytes
        if byte_offset >= row_bytes:
            if not self.ecc_enabled:
                return None
            array = self.check_bytes(row)
            if array is None:
                return None
            offset = byte_offset - row_bytes
        else:
            array = self._data(row, allocate=False)
            if array is None:
                return None
            offset = byte_offset
        old = int(array[offset])
        current_bit = (old >> bit) & 1
        if current_bit == flips_to:
            return None
        new = (old & ~(1 << bit)) | (flips_to << bit)
        array[offset] = new
        return old, new
