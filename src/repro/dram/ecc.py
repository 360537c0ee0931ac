"""SECDED (72,64) error-correcting code.

Server-grade DIMMs pair every 64-bit data word with 8 check bits, giving
single-error correction and double-error detection (SECDED).  The paper
lists strengthened ECC among the mitigations that "may also protect against
FTL rowhammering" — a single disturbance flip inside a word is silently
corrected, and only two flips in the *same* 64-bit word break through (as a
detected, uncorrectable error, which on real hardware raises a machine
check rather than silently misdirecting I/O).

The code is an extended Hamming code: 7 Hamming check bits (codeword
positions 1,2,4,...,64) over the 64 data bits placed at the non-power-of-two
positions 3,5,6,7,9,...,71, plus one overall-parity bit for double-error
detection.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import EccUncorrectableError

#: Decode outcomes.
CLEAN = "clean"
CORRECTED_DATA = "corrected-data"
CORRECTED_CHECK = "corrected-check"


def _build_tables() -> Tuple[List[int], dict, List[int]]:
    """Positions of data bits in the Hamming codeword and XOR masks.

    Returns ``(positions, position_to_index, check_masks)`` where
    ``positions[i]`` is the codeword position of data bit ``i``,
    ``position_to_index`` inverts it, and ``check_masks[j]`` is the 64-bit
    mask of data bits covered by check bit ``j``.
    """
    positions = []
    pos = 1
    while len(positions) < 64:
        if pos & (pos - 1):  # skip powers of two (check-bit positions)
            positions.append(pos)
        pos += 1
    position_to_index = {p: i for i, p in enumerate(positions)}
    check_masks = []
    for j in range(7):
        mask = 0
        for i, p in enumerate(positions):
            if (p >> j) & 1:
                mask |= 1 << i
        check_masks.append(mask)
    return positions, position_to_index, check_masks


_POSITIONS, _POSITION_TO_INDEX, _CHECK_MASKS = _build_tables()


def _parity64(value: int) -> int:
    value ^= value >> 32
    value ^= value >> 16
    value ^= value >> 8
    value ^= value >> 4
    value ^= value >> 2
    value ^= value >> 1
    return value & 1


@dataclass
class DecodeResult:
    """Outcome of decoding one codeword."""

    data: int
    check: int
    status: str
    corrected_bit: int = -1  # data-bit index when status == CORRECTED_DATA


class SecdedCodec:
    """Encode/decode 64-bit words with an 8-bit SECDED check byte."""

    word_bytes = 8

    def encode(self, data: int) -> int:
        """Compute the check byte for a 64-bit data word."""
        if not 0 <= data < 1 << 64:
            raise ValueError("data word out of 64-bit range")
        check = 0
        for j, mask in enumerate(_CHECK_MASKS):
            check |= _parity64(data & mask) << j
        # Overall parity covers data bits and the 7 Hamming check bits.
        overall = _parity64(data) ^ _parity64(check)
        return check | (overall << 7)

    def decode(self, data: int, check: int) -> DecodeResult:
        """Verify and correct one codeword.

        Raises :class:`~repro.errors.EccUncorrectableError` on a double-bit
        error.
        """
        expected = 0
        for j, mask in enumerate(_CHECK_MASKS):
            expected |= _parity64(data & mask) << j
        syndrome = (check & 0x7F) ^ expected
        stored_overall = (check >> 7) & 1
        computed_overall = _parity64(data) ^ _parity64(check & 0x7F)
        overall_mismatch = stored_overall ^ computed_overall

        if syndrome == 0 and not overall_mismatch:
            return DecodeResult(data, check, CLEAN)
        if overall_mismatch:
            # Odd number of errors: assume one, locate it by the syndrome.
            if syndrome == 0:
                # The overall-parity bit itself flipped.
                return DecodeResult(data, check ^ 0x80, CORRECTED_CHECK)
            if syndrome & (syndrome - 1) == 0:
                # A Hamming check bit flipped.
                return DecodeResult(data, check ^ syndrome, CORRECTED_CHECK)
            index = _POSITION_TO_INDEX.get(syndrome)
            if index is None:
                raise EccUncorrectableError(
                    "syndrome 0x%02x names no codeword position" % syndrome
                )
            return DecodeResult(data ^ (1 << index), check, CORRECTED_DATA, index)
        # Non-zero syndrome with matching overall parity: even error count.
        raise EccUncorrectableError(
            "double-bit error detected (syndrome 0x%02x)" % syndrome
        )

    # -- array helpers (row-granularity writes) ----------------------------

    def encode_words(self, words: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`encode` over a uint64 array (returns uint8)."""
        flat = np.ascontiguousarray(words, dtype=np.uint64).reshape(-1)
        index = flat.view(np.uint8).reshape(-1, 8) + _BYTE_BASE
        return np.bitwise_xor.reduce(_word_table()[index], axis=1).reshape(np.shape(words))


#: Word-table row of each byte of a word as it lies in memory.
_BYTE_BASE = np.arange(8, dtype=np.intp) * 256


@functools.lru_cache(maxsize=None)
def _word_table() -> np.ndarray:
    """Check-byte contribution of byte ``v`` at memory offset ``i`` of a
    word, flattened to ``i * 256 + v`` and read-only.

    The check byte is GF(2)-linear in the data word, so it is the XOR of
    the codes of the word's 8 bytes, each encoded alone in its place.
    """
    encode = SecdedCodec().encode
    shifts = range(0, 64, 8) if sys.byteorder == "little" else range(56, -8, -8)
    table = np.array(
        [encode(value << shift) for shift in shifts for value in range(256)],
        dtype=np.uint8,
    )
    table.setflags(write=False)
    return table
