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

    # -- word buffers (the few words one access touches) ---------------------

    def encode_bytes(self, raw: bytes) -> bytes:
        """:meth:`encode` over whole words given as memory bytes (a DRAM
        row's byte order): one check byte per word of ``raw``."""
        t0, t1, t2, t3, t4, t5, t6, t7 = _byte_tables()
        return bytes(
            [
                t0[raw[i]] ^ t1[raw[i + 1]] ^ t2[raw[i + 2]] ^ t3[raw[i + 3]]
                ^ t4[raw[i + 4]] ^ t5[raw[i + 5]] ^ t6[raw[i + 6]] ^ t7[raw[i + 7]]
                for i in range(0, len(raw), 8)
            ]
        )

    def correct_bytes(self, raw: bytes, stored: bytes, corrected) -> bytes:
        """:meth:`decode` every word of ``raw`` whose encoding differs from
        its ``stored`` check byte, in word order, and return the corrected
        bytes.  ``corrected`` (a counter) is bumped per corrected word, so
        an uncorrectable word raises after the earlier ones are counted."""
        out = bytearray(raw)
        for i, check in enumerate(self.encode_bytes(raw)):
            if check != stored[i]:
                word = int.from_bytes(raw[i * 8 : i * 8 + 8], sys.byteorder)
                fixed = self.decode(word, stored[i]).data
                out[i * 8 : i * 8 + 8] = fixed.to_bytes(8, sys.byteorder)
                corrected.add()
        return bytes(out)


@functools.lru_cache(maxsize=None)
def _byte_tables() -> Tuple[List[int], ...]:
    """Check-byte contribution of byte ``v`` at memory offset ``i`` of a
    word, as ``tables[i][v]``; built on first use, never at import.

    The check byte is GF(2)-linear in the data word, so it is the XOR of
    the codes of the word's 8 bytes, each encoded alone in its place.
    """
    encode = SecdedCodec().encode
    shifts = range(0, 64, 8) if sys.byteorder == "little" else range(56, -8, -8)
    return tuple([encode(value << shift) for value in range(256)] for shift in shifts)
