"""CRC-32C (Castagnoli) — the checksum ext4 uses for metadata.

Software implementation of the reflected polynomial 0x82F63B78 (the same
code as Intel's SSE4.2 ``crc32`` instruction and ``linux/crypto/crc32c``).

The CRC register is GF(2)-linear in the message bytes and in its starting
value, so a message is split into a short head and whole 64-byte chunks
aligned to its end.  The head runs through the classic one-byte table.
Each chunk's contribution is one gather from a *chunk table* (what byte
``v`` at position ``p`` of a chunk leaves in the register) XOR-reduced,
and a *shift table* (register byte ``v`` in lane ``j`` advanced through
``k`` zero chunks) moves every chunk's contribution and the head's
register to the end of the message.  Both tables are built on the first
call that needs them and serve every message length.
"""

from __future__ import annotations

import functools

import numpy as np

_POLY = 0x82F63B78

#: Bytes per chunk; a message's first ``len % _CHUNK`` bytes run scalar.
_CHUNK = 64
#: Chunks folded per shift-table pass (the table covers 0.._SPAN shifts).
_SPAN = 64


def _build_table():
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ _POLY if crc & 1 else crc >> 1
        table.append(crc)
    return tuple(table)


_TABLE = _build_table()


@functools.lru_cache(maxsize=None)
def _chunk_tables():
    """``(chunk table, shift table)``, both flattened and read-only.

    The chunk table is indexed ``position * 256 + byte``; the shift table
    ``(k * 4 + lane) * 256 + byte``.  Built vectorised over their lanes on
    first use, so importing the module stays cheap.
    """
    byte_table = np.array(_TABLE, dtype=np.uint32)

    def zero_byte(state):
        return (state >> np.uint32(8)) ^ byte_table[state & np.uint32(0xFF)]

    # Position p of a chunk is followed by _CHUNK - 1 - p zero bytes.
    chunk = np.empty((_CHUNK, 256), dtype=np.uint32)
    chunk[_CHUNK - 1] = byte_table
    for position in range(_CHUNK - 2, -1, -1):
        chunk[position] = zero_byte(chunk[position + 1])

    lanes = np.arange(4, dtype=np.uint32)[:, None] * np.uint32(8)
    shift = np.empty((_SPAN + 1, 4, 256), dtype=np.uint32)
    shift[0] = np.arange(256, dtype=np.uint32)[None, :] << lanes
    state = shift[0]
    for _ in range(_CHUNK):
        state = zero_byte(state)
    shift[1] = state
    for k in range(2, _SPAN + 1):
        previous = shift[k - 1]
        shift[k] = (
            shift[1, 0, previous & 0xFF]
            ^ shift[1, 1, (previous >> 8) & 0xFF]
            ^ shift[1, 2, (previous >> 16) & 0xFF]
            ^ shift[1, 3, previous >> 24]
        )
    tables = (chunk.reshape(-1), shift.reshape(-1))
    for table in tables:
        table.setflags(write=False)
    return tables


#: Chunk-table row of each position in a chunk.
_POSITION_BASE = np.arange(_CHUNK, dtype=np.intp) * 256
#: Shift-table rows: row i holds k = _SPAN - i shifts, lanes 0..3.
_SHIFT_BASE = (
    np.arange(_SPAN, -1, -1, dtype=np.intp)[:, None] * 4 + np.arange(4, dtype=np.intp)
) * 256


def _fold_chunks(crc: int, body: np.ndarray) -> int:
    """Advance the register ``crc`` over ``body``, whole chunks of bytes."""
    chunk, shift = _chunk_tables()
    for start in range(0, len(body), _SPAN * _CHUNK):
        piece = body[start : start + _SPAN * _CHUNK].reshape(-1, _CHUNK)
        count = len(piece)
        values = np.empty(count + 1, dtype="<u4")
        values[0] = crc
        np.bitwise_xor.reduce(chunk[piece + _POSITION_BASE], axis=1, out=values[1:])
        # Entry i is followed by count - i chunks: all of them for the
        # incoming register, count - 1 - i for chunk i.
        index = values.view(np.uint8).reshape(count + 1, 4) + _SHIFT_BASE[_SPAN - count :]
        crc = int(np.bitwise_xor.reduce(shift[index], axis=None))
    return crc


def crc32c(data: bytes, crc: int = 0) -> int:
    """CRC-32C of ``data``; chainable via the ``crc`` argument."""
    crc ^= 0xFFFFFFFF
    view = memoryview(data).cast("B")
    head = len(view) % _CHUNK
    for byte in view[:head]:
        crc = (crc >> 8) ^ _TABLE[(crc ^ byte) & 0xFF]
    if len(view) > head:
        crc = _fold_chunks(crc, np.frombuffer(view, dtype=np.uint8, offset=head))
    return crc ^ 0xFFFFFFFF
