"""Oracle tests for the §5 defense kernels.

CRC-32C, the per-tenant keystream cipher and the SECDED check-byte
encoder run as lookup tables and whole-buffer operations.  Each is held
here against the straightforward byte-at-a-time (or bit-mask) form it
replaced, which is kept below as the test-local reference.
"""

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram import DramAddress, DramGeometry, DramModule, GenerationProfile
from repro.dram import VulnerabilityModel
from repro.dram.ecc import _CHECK_MASKS, CLEAN, SecdedCodec
from repro.errors import EccUncorrectableError
from repro.ext4.crc32c import crc32c
from repro.mitigations.encryption import TenantKey, encrypt_block
from repro.sim import SimClock

# -- references --------------------------------------------------------


def _crc_table():
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ 0x82F63B78 if crc & 1 else crc >> 1
        table.append(crc)
    return table


_CRC_TABLE = _crc_table()


def reference_crc32c(data, crc=0):
    crc ^= 0xFFFFFFFF
    for byte in data:
        crc = (crc >> 8) ^ _CRC_TABLE[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFF


def reference_encrypt_block(key, lba, plaintext):
    stream = bytearray()
    counter = 0
    seed = key.secret + lba.to_bytes(8, "little")
    while len(stream) < len(plaintext):
        stream += hashlib.sha256(seed + counter.to_bytes(4, "little")).digest()
        counter += 1
    return bytes(a ^ b for a, b in zip(plaintext, stream))


def _parity_fold(values):
    values = values.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        values ^= values >> np.uint64(shift)
    return values & np.uint64(1)


def reference_encode_words(words):
    words = words.astype(np.uint64, copy=False)
    check = np.zeros(words.shape, dtype=np.uint64)
    for j, mask in enumerate(_CHECK_MASKS):
        check |= _parity_fold(words & np.uint64(mask)) << np.uint64(j)
    overall = _parity_fold(words) ^ _parity_fold(check)
    return (check | (overall << np.uint64(7))).astype(np.uint8)


def reference_read_ecc(codec, bank, row, column, length):
    """Decode every word of the span in order: ``(bytes, corrections,
    error message or None)``."""
    first_word, last_word = column // 8, (column + length - 1) // 8
    check = bank.check_bytes(row, allocate=True)
    raw = bank.read(row, first_word * 8, (last_word - first_word + 1) * 8)
    corrected = bytearray()
    corrections = 0
    for i, word in enumerate(raw.view(np.uint64)):
        try:
            result = codec.decode(int(word), int(check[first_word + i]))
        except EccUncorrectableError as exc:
            return None, corrections, str(exc)
        if result.status != CLEAN:
            corrections += 1
        corrected += int(result.data).to_bytes(8, "little")
    start = column - first_word * 8
    return bytes(corrected[start : start + length]), corrections, None


def _random_bytes(seed, length):
    return random.Random(seed).getrandbits(8 * length + 8).to_bytes(length + 1, "little")[:length]


# -- crc32c ------------------------------------------------------------

#: One byte below, at and above every 64-byte chunk multiple up to 9000.
_CHUNK_EDGES = [m + d for m in range(64, 9001, 64) for d in (-1, 0, 1)]

lengths = st.one_of(st.integers(0, 9000), st.sampled_from(_CHUNK_EDGES))
crc_inits = st.integers(0, 0xFFFFFFFF)


class TestCrc32c:
    def test_known_answer(self):
        assert crc32c(b"123456789") == 0xE3069283

    @given(length=lengths, seed=st.integers(0, 2**32), init=crc_inits)
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, length, seed, init):
        data = _random_bytes(seed, length)
        assert crc32c(data) == reference_crc32c(data)
        assert crc32c(data, init) == reference_crc32c(data, init)

    @given(length=lengths, cut=st.floats(0, 1), seed=st.integers(0, 2**32), init=crc_inits)
    @settings(max_examples=100, deadline=None)
    def test_split_and_chain(self, length, cut, seed, init):
        data = _random_bytes(seed, length)
        split = int(length * cut)
        chained = crc32c(data[split:], crc32c(data[:split], init))
        assert chained == crc32c(data, init) == reference_crc32c(data, init)

    def test_bytes_like_inputs(self):
        data = _random_bytes(5, 4096 + 17)
        expected = reference_crc32c(data)
        assert crc32c(bytearray(data)) == expected
        assert crc32c(memoryview(data)) == expected


# -- per-tenant encryption ---------------------------------------------


class TestEncryptBlock:
    @pytest.mark.parametrize("length", [0, 1, 31, 33, 4096])
    @pytest.mark.parametrize("lba", [0, 1 << 40])
    def test_matches_reference(self, length, lba):
        key = TenantKey.derive("tenant-%d" % length)
        plaintext = _random_bytes(length * 7 + lba, length)
        assert encrypt_block(key, lba, plaintext) == reference_encrypt_block(
            key, lba, plaintext
        )

    @given(
        tenant=st.text(max_size=8),
        lba=st.integers(0, 1 << 40),
        length=st.integers(0, 5000),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_reference_random(self, tenant, lba, length, seed):
        key = TenantKey.derive(tenant)
        plaintext = _random_bytes(seed, length)
        assert encrypt_block(key, lba, plaintext) == reference_encrypt_block(
            key, lba, plaintext
        )

    def test_known_answer(self):
        ciphertext = encrypt_block(TenantKey.derive("alice"), 1 << 40, bytes(range(256)) * 16)
        assert hashlib.sha256(ciphertext).hexdigest() == (
            "2a620e3cc948d6b0c701216016a4506ada7671d4b1cd3f00c38fb8458fd56ed6"
        )


# -- SECDED ------------------------------------------------------------

codec = SecdedCodec()
words = st.integers(min_value=0, max_value=(1 << 64) - 1)


class TestEncodeWords:
    @given(st.lists(words, max_size=40))
    @settings(max_examples=100)
    def test_matches_scalar_and_reference(self, raw):
        values = np.array(raw, dtype=np.uint64)
        table = codec.encode_bytes(values.tobytes())
        assert list(table) == [codec.encode(v) for v in raw]
        assert list(table) == reference_encode_words(values).tolist()


GEOMETRY = DramGeometry.small(rows_per_bank=16, row_bytes=256)
#: No realistic access rate disturbs this profile, so reads flip nothing.
GRANITE = GenerationProfile(
    name="test-granite",
    year=2021,
    ddr_type="TEST",
    min_rate_kps=1e9,
    row_vulnerable_fraction=1.0,
)
ROW = 5


class TestEccRead:
    """Unaligned multi-word reads with 0, 1 or 2 flipped codeword bits
    per word return what decoding every word in order returns."""

    @given(
        seed=st.integers(0, 2**32),
        column=st.integers(0, GEOMETRY.row_bytes - 1),
        length=st.integers(1, 96),
        flips=st.lists(
            st.lists(st.integers(0, 71), max_size=2, unique=True), max_size=13
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_word_by_word_decode(self, seed, column, length, flips):
        length = min(length, GEOMETRY.row_bytes - column)
        dram = DramModule(
            GEOMETRY, VulnerabilityModel(GRANITE, GEOMETRY, seed=1), SimClock(), ecc=True
        )
        base = dram.mapping.address_of(DramAddress(0, ROW, 0))
        dram.write(base, _random_bytes(seed, GEOMETRY.row_bytes))
        bank = dram.banks[0]
        first_word = column // 8
        for offset, bits in enumerate(flips):
            word = first_word + offset
            if word >= GEOMETRY.row_bytes // 8:
                break
            for bit in bits:
                # Bits 0..63 are the data word, 64..71 its check byte.
                if bit < 64:
                    byte_offset, within = word * 8 + bit // 8, bit % 8
                    current = int(bank.read(ROW, byte_offset, 1)[0])
                else:
                    byte_offset, within = GEOMETRY.row_bytes + word, bit - 64
                    current = int(bank.check_bytes(ROW)[word])
                flips_to = 1 - ((current >> within) & 1)
                assert bank.flip_bit(ROW, byte_offset, within, flips_to) is not None

        expected, corrections, error = reference_read_ecc(codec, bank, ROW, column, length)
        counter = dram.metrics.counter("ecc_corrected")
        before = counter.value
        if error is None:
            assert dram.read(base + column, length) == expected
        else:
            with pytest.raises(EccUncorrectableError) as raised:
                dram.read(base + column, length)
            assert str(raised.value) == error
        assert counter.value - before == corrections
